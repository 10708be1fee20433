"""Batched shoelace moments against the per-polygon loop of the oracle.

``polygon_moments`` sums every ring's shoelace terms in one ``reduceat``
pass; ``oracle.loop_polygon_moments`` sums one polygon at a time with
``np.sum``. The two orders round differently, so rows must agree within
1e-14 times the ring's scale (1 + largest coordinate magnitude) raised to
the order of each moment. ``transport_cost`` and ``energy`` are compared the
same way with their per-cell loop forms.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdot
from sdot.geometry import convex_hull_2d, polygon_moments
from sdot.potential import BrenierPotential, exact_cell_stats_2d
from sdot.solver import energy, transport_cost
from oracle import loop_polygon_moments

DISK = sdot.disk_domain([0.0, 0.0], 1.0).clip_polygon().vertices
ORDERS = np.array([2, 3, 3, 4, 4])
COORD = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
SCALE = st.sampled_from([1e-3, 1.0, 1e3])


def assert_rows_match(rings, got):
    assert got.shape == (len(rings), 5)
    for ring, row in zip(rings, got):
        if len(ring) < 3:
            assert not row.any()
            continue
        scale = (1.0 + np.abs(ring).max()) ** ORDERS
        want = np.array(loop_polygon_moments(ring))
        assert np.all(np.abs(row - want) <= 1e-14 * scale)


@st.composite
def hulls(draw):
    """Convex hull of 3-40 random points, scaled and shifted."""
    pts = np.array(draw(st.lists(st.tuples(COORD, COORD), min_size=3, max_size=40)))
    shift = np.array([draw(COORD), draw(COORD)])
    ring = (convex_hull_2d(pts) + shift) * draw(SCALE)
    return ring if len(ring) >= 3 else np.zeros((0, 2))


@st.composite
def rectangles(draw):
    """Rectangle rotated by a random angle about a random centre."""
    theta = draw(st.floats(0.0, 2.0 * math.pi))
    half = np.array([draw(st.floats(1e-3, 1.0)), draw(st.floats(1e-3, 1.0))])
    corners = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]) * half
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    centre = np.array([draw(COORD), draw(COORD)])
    return (corners @ rot.T + centre) * draw(SCALE)


SHORT = st.integers(0, 2).map(lambda k: np.linspace(-0.5, 0.5, 2 * k).reshape(k, 2))
RINGS = st.one_of(hulls(), rectangles(), st.just(DISK), SHORT)


@given(st.lists(RINGS, min_size=1, max_size=12))
@settings(max_examples=300, deadline=None)
def test_rows_match_loop(rings):
    assert_rows_match(rings, polygon_moments(rings))


def test_empty_and_short_rings_between_real_ones():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    empty, point, segment = np.zeros((0, 2)), square[:1], square[:2]
    rings = [empty, square, empty, empty, point, DISK, segment, square + 2.0, empty]
    got = polygon_moments(rings)
    assert_rows_match(rings, got)
    assert got[1, 0] == got[7, 0] == 1.0
    assert polygon_moments([]).shape == (0, 5)
    assert not polygon_moments([empty, point, segment]).any()


def test_dyadic_rectangle_closed_form():
    x0, x1, y0, y1 = -0.75, 1.25, 0.5, 2.0
    ring = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])
    a, sx, sy, ixx, iyy = polygon_moments([ring])[0]
    assert a == (x1 - x0) * (y1 - y0)
    assert sx == (x1**2 - x0**2) * (y1 - y0) / 2.0
    assert sy == (y1**2 - y0**2) * (x1 - x0) / 2.0
    assert ixx == (x1**3 - x0**3) * (y1 - y0) / 3.0
    assert iyy == (y1**3 - y0**3) * (x1 - x0) / 3.0


def loop_envelope_mean(stats, points, h):
    total = 0.0
    for i, verts in enumerate(stats.cells):
        if len(verts) < 3:
            continue
        a, sx, sy, _, _ = loop_polygon_moments(verts)
        total += points[i, 0] * sx + points[i, 1] * sy + h[i] * a
    return total / stats.domain_area


def loop_transport_cost(potential, domain):
    stats = exact_cell_stats_2d(potential, domain)
    total = 0.0
    for i, verts in enumerate(stats.cells):
        if len(verts) < 3:
            continue
        a, sx, sy, ixx, iyy = loop_polygon_moments(verts)
        y = potential.target.points[i]
        total += 0.5 * (ixx + iyy - 2.0 * (y[0] * sx + y[1] * sy) + (y @ y) * a)
    return total / stats.domain_area


@pytest.fixture(params=["grid25-box", "clusters-disk"])
def acceptance_instance(request, big_square, grid25_potential, unit_disk,
                        cluster_instance):
    if request.param == "grid25-box":
        return grid25_potential, big_square
    return cluster_instance[1], unit_disk


def test_cost_and_energy_match_loop_forms(acceptance_instance):
    potential, domain = acceptance_instance
    assert abs(transport_cost(potential, domain)
               - loop_transport_cost(potential, domain)) <= 1e-14

    rng = np.random.default_rng(5)
    target, h = potential.target, potential.heights
    h_base = h + 1e-3 * rng.standard_normal(potential.n)
    envelope = [loop_envelope_mean(exact_cell_stats_2d(BrenierPotential(target, x), domain),
                                   target.points, x) for x in (h, h_base)]
    want = envelope[0] - envelope[1] - float(h @ target.weights)
    assert abs(energy(potential, domain, h_base) - want) <= 1e-14
