"""Power diagram from the regular triangulation against the all-pairs oracle.

``exact_cell_stats_2d`` builds every cell from the power centres of the
lower triangles and the domain edges, without clipping. These tests compare
it with the brute-force clipper in ``oracle.py`` on generic, random and
degenerate inputs, over a box, the 256-gon disk and a polygon domain, and
on affine lifts with the exact rational clipper there. A spy on the facet
builder checks that hidden targets are never built.
"""
import collections
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdot
import sdot.potential
from sdot.geometry import polygon_moments
from sdot.potential import (
    ADJACENCY_TOL,
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
    exact_facet_ends,
    loop_dual_measures,
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
    """Noisy paraboloid lifts hide targets; hidden cells are never built."""
    built = facet_builds(monkeypatch)
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
        edges, hull, _ = _lower_hull_edges(target.points, heights)
        _, _, built_edges, built_triangles = built.pop()
        assert set(built_edges.ravel()) | set(built_triangles.ravel()) <= set(hull.tolist())
        hidden += 20 - len(hull)
    assert hidden > 0


def noisy_paraboloid(seed, n, sigma):
    """Random targets lifted onto a paraboloid plus noise; sigma = 0.5 hides some."""
    rng = np.random.default_rng(seed)
    target = uniform_target(rng, n)
    heights = (-0.5 * rng.uniform(0.5, 2.0) * np.sum(target.points ** 2, axis=1)
               + sigma * rng.standard_normal(n))
    return BrenierPotential(target, heights)


SIGMAS = st.sampled_from([0.01, 0.1, 0.5])


@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(4, 30),
       sigma=SIGMAS, domain_name=st.sampled_from(sorted(DOMAINS)))
@settings(max_examples=60, deadline=None)
def test_random_diagrams_match_oracle_and_are_watertight(seed, n, sigma, domain_name):
    """Noisy paraboloid lifts over each domain: the diagram matches the
    all-pairs oracle, both ends of every facet are corners of both its
    cells, bit for bit, and the masses sum to one."""
    got = assert_matches_oracle(noisy_paraboloid(seed, n, sigma), DOMAINS[domain_name])
    for (i, j), ends in zip(got.facet_pairs, got.facet_segments):
        for cell in (got.cells[i], got.cells[j]):
            assert all((cell == end).all(axis=1).any() for end in ends)
    assert abs(got.cell_measures.sum() - 1.0) <= 1e-15


@given(potential=st.one_of(
           st.builds(noisy_paraboloid, st.integers(0, 2 ** 32 - 1), st.integers(1, 30), SIGMAS),
           st.sampled_from(sorted(degenerate_cases())).map(lambda c: degenerate_cases()[c])),
       domain_name=st.sampled_from(sorted(DOMAINS)))
@settings(max_examples=100, deadline=None)
def test_edge_ids_and_padded_moments_match_list_forms(potential, domain_name):
    """The triangulation's sorted edge keys give each triangle side the id
    that ``np.unique(..., return_inverse=True)`` gives it, and the masses
    and envelope mean read from the padded rings equal, bit for bit, the
    ones ``polygon_moments`` gives for the list of cells, empty cells and
    n = 1 included."""
    points, heights, n = potential.target.points, potential.heights, potential.n
    edges, _, triangles = _lower_hull_edges(points, heights)
    a, b = triangles.ravel(), triangles[:, [1, 2, 0]].ravel()
    sides = np.minimum(a, b) * n + np.maximum(a, b)
    assert np.array_equal(np.searchsorted(edges[:, 0] * n + edges[:, 1], sides),
                          np.unique(sides, return_inverse=True)[1])
    got = exact_cell_stats_2d(potential, DOMAINS[domain_name])
    area, sx, sy, _, _ = polygon_moments(got.cells).T
    assert np.array_equal(got.cell_measures, area / got.domain_area)
    envelope = points[:, 0] * sx + points[:, 1] * sy + heights * area
    assert got.envelope_mean == float(envelope.sum()) / got.domain_area


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


@pytest.mark.parametrize("domain_name", sorted(DOMAINS))
def test_dual_measures_match_lookup(duality_instances, domain_name):
    domain = DOMAINS[domain_name]
    for pot in duality_instances:
        stats = exact_cell_stats_2d(pot, domain)
        for edges_from in (None, domain):
            dual = legendre_dual(pot, domain=edges_from, stats=stats)
            assert np.array_equal(dual.facet_measures, loop_dual_measures(stats, dual.edges))


def test_hessian_matches_loop(duality_instances):
    for pot in duality_instances[:5]:
        stats = exact_cell_stats_2d(pot, DOMAINS["box"])
        assert np.array_equal(hessian(stats, pot.target), loop_hessian(stats, pot.target))


def facet_builds(monkeypatch):
    """Spy on the facet builder: the (points, heights, edges, triangles) of each call."""
    power_facets = sdot.potential._power_facets
    calls = []

    def spy(points, heights, edges, triangles, domain_verts):
        calls.append((points, heights, edges, triangles))
        return power_facets(points, heights, edges, triangles, domain_verts)

    monkeypatch.setattr(sdot.potential, "_power_facets", spy)
    return calls


def boundary_and_outside(potential, domain, margin):
    """Targets on the triangulation boundary, and targets with a lower
    triangle whose power centre is not inside the domain by more than
    ``margin``; one triangle at a time."""
    points, heights = potential.target.points, potential.heights
    verts = domain.clip_polygon().vertices
    edge = np.roll(verts, -1, axis=0) - verts
    uses = collections.Counter()
    outside = set()
    for tri in _lower_facets(points, heights):
        for pair in itertools.combinations(sorted(tri.tolist()), 2):
            uses[pair] += 1
        y, h = points[tri], heights[tri]
        centre = np.linalg.solve(y[1:] - y[0], h[0] - h[1:])
        rel = centre - verts
        dist = (edge[:, 0] * rel[:, 1] - edge[:, 1] * rel[:, 0]) / np.linalg.norm(edge, axis=1)
        if dist.min() <= margin:
            outside.update(tri.tolist())
    boundary = {k for pair, count in uses.items() if count == 1 for k in pair}
    return boundary, outside


def test_ring_cells_never_reach_the_clipper(cluster_instance, unit_disk):
    """No cell is clipped. The cells of targets inside the triangulation
    whose power centres all lie inside the domain are the rings of those
    centres."""
    target, potential, _ = cluster_instance
    got = assert_matches_oracle(potential, unit_disk)
    boundary, outside = boundary_and_outside(potential, unit_disk, 3.0 * ADJACENCY_TOL)
    hull = set(np.unique(_lower_facets(target.points, potential.heights)).tolist())
    rings = hull - (boundary | outside)
    assert len(rings) >= 5
    assert all(len(got.cells[i]) >= 3 for i in rings)


def test_one_qhull_call_per_stats_call(monkeypatch, cluster_instance, unit_disk):
    _, potential, _ = cluster_instance
    convex_hull = sdot.potential.ConvexHull
    hulls = []

    def spy(*args, **kwargs):
        hulls.append(args)
        return convex_hull(*args, **kwargs)

    monkeypatch.setattr(sdot.potential, "ConvexHull", spy)
    for _ in range(3):
        exact_cell_stats_2d(potential, unit_disk)
    assert len(hulls) == 3


def test_cocircular_fans_drop_repeated_centres():
    """On the 5 x 5 grid with paraboloid heights both triangles of a grid
    square share one power centre: each inner cell keeps 4 of its fan's
    centres, and no cell is clipped."""
    pot = degenerate_cases()["grid25-cocircular"]
    got = assert_matches_oracle(pot, DOMAINS["box"])
    inner = {i for i, y in enumerate(pot.target.points) if np.abs(y).max() < 1.0}
    assert len(inner) == 9
    fans = np.bincount(_lower_facets(pot.target.points, pot.heights).ravel())
    assert fans[sorted(inner)].sum() > 4 * len(inner)
    for i in inner:
        assert len(got.cells[i]) == 4


def test_centre_on_domain_boundary_goes_to_clipper():
    """A fan of five triangles about the origin; one power centre lies on a
    domain edge, 1e-12 inside it, or 0.01 inside it. No cell is clipped,
    and the centre's cell has five corners each time."""
    angles = 2.0 * np.pi * np.arange(5) / 5.0
    pts = np.vstack([[0.0, 0.0], np.column_stack([np.cos(angles), np.sin(angles)])])
    target = sdot.validate_target(pts)
    pot = BrenierPotential(target, -0.5 * np.sum(pts ** 2, axis=1))
    y, h = pts[[0, 1, 2]], pot.heights[[0, 1, 2]]
    centre = np.linalg.solve(y[1:] - y[0], h[0] - h[1:])
    normal = centre / np.linalg.norm(centre)
    along = np.array([-normal[1], normal[0]])
    for shift in [0.0, 1e-12, 0.01]:
        edge_mid = centre + shift * normal
        domain = sdot.polygon_domain([edge_mid - 3.0 * along, edge_mid + 3.0 * along,
                                      edge_mid + 3.0 * along - 4.0 * normal,
                                      edge_mid - 3.0 * along - 4.0 * normal])
        if shift == 1e-12:
            got = assert_no_farther_from_exact(pot, domain)
        else:
            got = assert_matches_oracle(pot, domain)
        assert len(got.cells[0]) == 5


def assert_no_farther_from_exact(potential, domain):
    """Same cells and facets as the float oracle, with masses and facet
    ends no farther from exact rational arithmetic than the oracle's.

    For a power centre 1e-12 inside a domain edge, the oracle's clipper
    makes two vertices 1e-12 apart and its dedupe drops one, which moves
    that corner by about 1e-12; the diagram build keeps the centre itself.
    """
    got = exact_cell_stats_2d(potential, domain)
    want = all_pairs_cell_stats_2d(potential, domain)
    assert ([i for i, c in enumerate(got.cells) if len(c) == 0]
            == [i for i, c in enumerate(want.cells) if len(c) == 0])
    assert np.array_equal(got.facet_pairs, want.facet_pairs)
    masses = exact_cell_masses(potential, domain)
    assert (np.abs(got.cell_measures - masses).max()
            <= np.abs(want.cell_measures - masses).max())
    ends = exact_facet_ends(potential, domain, want.facet_pairs)
    assert (np.abs(got.facet_segments - ends).max()
            <= np.abs(want.facet_segments - ends).max())
    return got
