"""Neighbour-only power diagram against the all-pairs oracle.

``exact_cell_stats_2d`` clips each cell only against its regular
triangulation neighbours. These tests compare it with the brute-force
clipper in ``oracle.py`` on generic and degenerate inputs, over a box, the
256-gon disk and a polygon domain, and on affine lifts with the exact
rational clipper there.
"""
import numpy as np
import pytest

import sdot
import sdot.potential
from sdot.potential import (
    BrenierPotential,
    _facet_chord_lengths,
    _lower_facets,
    _lower_hull_edges,
    exact_cell_stats_2d,
    legendre_dual,
)
from sdot.solver import hessian
from oracle import (
    all_pairs_cell_stats_2d,
    exact_cell_masses,
    loop_facet_chord_length,
    loop_hessian,
)

DOMAINS = {
    "box": sdot.box_domain([[-1.0, 1.0], [-1.0, 1.0]], seed=2),
    "disk": sdot.disk_domain([0.0, 0.0], 1.0, seed=3),
    "polygon": sdot.polygon_domain([(-1.0, -0.9), (0.8, -1.0), (1.0, 0.6),
                                    (0.1, 1.0), (-0.9, 0.7)], seed=4),
}


def assert_matches_oracle(potential, domain):
    got = exact_cell_stats_2d(potential, domain)
    want = all_pairs_cell_stats_2d(potential, domain)
    empty_got = [i for i, c in enumerate(got.cells) if len(c) == 0]
    empty_want = [i for i, c in enumerate(want.cells) if len(c) == 0]
    assert empty_got == empty_want
    assert np.array_equal(got.facet_pairs, want.facet_pairs)
    assert np.abs(got.cell_measures - want.cell_measures).max() <= 1e-14
    if len(want.facet_pairs):
        assert np.abs(got.facet_measures - want.facet_measures).max() <= 1e-12
        assert np.abs(got.facet_segments - want.facet_segments).max() <= 1e-12
    return got


def uniform_target(rng, n, spread=0.9):
    pts = rng.uniform(-spread, spread, size=(n, 2))
    weights = rng.uniform(0.5, 1.5, size=n)
    return sdot.validate_target(pts, weights / weights.sum())


def grid25():
    axis = np.linspace(-1.0, 1.0, 5)
    return sdot.validate_target([(x, y) for y in axis for x in axis])


@pytest.fixture(scope="module")
def duality_instances():
    """The 20 solved instances of acceptance criterion 6."""
    out = []
    for k in range(20):
        rng = np.random.default_rng([300, k])
        target = uniform_target(rng, int(rng.integers(15, 31)))
        report = sdot.solve(DOMAINS["box"], target)
        assert report.converged
        out.append(BrenierPotential(target, report.heights))
    return out


def lifted_near_facet(dz):
    """Random diagram plus one target lifted ``dz`` above a lower facet."""
    rng = np.random.default_rng(17)
    pts = rng.uniform(-0.9, 0.9, size=(20, 2))
    h = -0.5 * np.sum(pts * pts, axis=1) + 0.01 * rng.standard_normal(20)
    a, b, c = _lower_facets(pts, h)[3]
    lifted = np.column_stack([pts, -h])
    centre = (lifted[a] + lifted[b] + lifted[c]) / 3.0
    target = sdot.validate_target(np.vstack([pts, centre[:2]]))
    return BrenierPotential(target, np.append(h, -(centre[2] + dz)))


def degenerate_cases():
    rng = np.random.default_rng(23)
    grid = grid25()
    grid_parabola = -0.5 * np.sum(grid.points ** 2, axis=1)
    base = rng.uniform(-0.8, 0.8, size=(12, 2))
    near_dup = np.vstack([base, base[:4] + np.array([1e-7, 0.0])])
    line = np.column_stack([np.linspace(-0.8, 0.8, 6), 0.3 * np.linspace(-0.8, 0.8, 6)])
    return {
        "grid25-cocircular": BrenierPotential(grid, grid_parabola),
        "grid25-perturbed": BrenierPotential(
            grid, grid_parabola + 1e-3 * rng.standard_normal(25)),
        "zero-heights": BrenierPotential(uniform_target(rng, 15), np.zeros(15)),
        "collinear": BrenierPotential(sdot.validate_target(line),
                                      0.05 * rng.standard_normal(6)),
        "n2": BrenierPotential(sdot.validate_target([(-0.3, 0.1), (0.4, -0.2)]),
                               np.array([0.0, 0.1])),
        "n3": BrenierPotential(
            sdot.validate_target([(-0.5, -0.4), (0.6, -0.2), (0.0, 0.7)]),
            np.array([0.0, 0.05, -0.1])),
        "hidden": BrenierPotential(
            sdot.validate_target([(-1.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.1)]),
            np.array([0.0, 0.0, 0.0, -5.0])),
        "near-duplicates": BrenierPotential(
            sdot.validate_target(near_dup),
            -0.5 * np.sum(near_dup ** 2, axis=1) + 1e-3 * rng.standard_normal(16)),
        "lift-1e-14-below-facet": lifted_near_facet(-1e-14),
        "lift-1e-14-above-facet": lifted_near_facet(1e-14),
    }


@pytest.mark.parametrize("domain_name", sorted(DOMAINS))
def test_duality_instances_match_oracle(duality_instances, domain_name):
    for potential in duality_instances:
        assert_matches_oracle(potential, DOMAINS[domain_name])


@pytest.mark.parametrize("domain_name", sorted(DOMAINS))
@pytest.mark.parametrize("case", sorted(degenerate_cases()))
def test_degenerate_inputs_match_oracle(case, domain_name):
    assert_matches_oracle(degenerate_cases()[case], DOMAINS[domain_name])


@pytest.mark.parametrize("domain_name", sorted(DOMAINS))
@pytest.mark.parametrize("case", sorted(degenerate_cases()))
def test_degenerate_dual_matches_diagram(case, domain_name):
    pot = degenerate_cases()[case]
    dual = legendre_dual(pot, domain=DOMAINS[domain_name])
    assert dual.edge_set() == exact_cell_stats_2d(pot, DOMAINS[domain_name]).adjacency_set()
    if case == "collinear":
        assert dual.zero_cell_indices.tolist() == [1, 2, 3, 4]


@pytest.mark.parametrize("sigma", [0.01, 0.1, 0.5])
@pytest.mark.parametrize("domain_name", sorted(DOMAINS))
def test_hidden_targets_match_oracle(monkeypatch, domain_name, sigma):
    """Noisy paraboloid lifts hide targets; hidden cells are never clipped."""
    clip_cells = sdot.potential.clip_cells
    widths = []

    def spy(base_verts, points, heights, candidates):
        widths.append(np.shape(candidates)[1])
        return clip_cells(base_verts, points, heights, candidates)

    monkeypatch.setattr(sdot.potential, "clip_cells", spy)
    domain = DOMAINS[domain_name]
    hidden = 0
    for k in range(6):
        rng = np.random.default_rng([400, k])
        target = uniform_target(rng, 20)
        a = rng.uniform(0.5, 2.0)
        heights = (-0.5 * a * np.sum(target.points ** 2, axis=1)
                   + sigma * rng.standard_normal(20))
        pot = BrenierPotential(target, heights)
        got = assert_matches_oracle(pot, domain)
        assert legendre_dual(pot, domain=domain).edge_set() == got.adjacency_set()
        edges, hull = _lower_hull_edges(target.points, heights)
        assert widths.pop() <= np.bincount(edges.ravel()).max()
        hidden += 20 - len(hull)
    assert hidden > 0


@pytest.mark.parametrize("domain_name", ["box", "disk"])
def test_affine_lift_masses_exact(domain_name):
    """Coplanar lifts: masses within 1e-15 of exact rational clipping."""
    domain = DOMAINS[domain_name]
    for k in range(10):
        rng = np.random.default_rng([900, k])
        target = uniform_target(rng, 11)
        a = rng.uniform(-0.5, 0.5, size=2)
        pot = BrenierPotential(target, target.points @ a + rng.uniform(-1.0, 1.0))
        got = exact_cell_stats_2d(pot, domain).cell_measures
        assert np.abs(got - exact_cell_masses(pot, domain)).max() <= 1e-15


@pytest.mark.parametrize("domain_name", sorted(DOMAINS))
def test_chord_length_matches_loop(duality_instances, domain_name):
    verts = DOMAINS[domain_name].clip_polygon().vertices
    potentials = duality_instances[:5] + list(degenerate_cases().values())
    for pot in potentials:
        points, heights = pot.target.points, pot.heights
        edges = _lower_hull_edges(points, heights)[0]
        want = [loop_facet_chord_length(points, heights, i, j, verts) for i, j in edges]
        assert np.array_equal(_facet_chord_lengths(points, heights, edges, verts), want)


def test_hessian_matches_loop(duality_instances):
    for pot in duality_instances[:5]:
        stats = exact_cell_stats_2d(pot, DOMAINS["box"])
        assert np.array_equal(hessian(stats, pot.target), loop_hessian(stats, pot.target))
