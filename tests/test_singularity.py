import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sdot
from sdot.potential import BrenierPotential, PowerCellStats, exact_cell_stats_2d
from sdot.singularity import (
    PointOutsideDomainError,
    ThresholdNonpositiveError,
    VertexNotFoundError,
    cell_subgradient_extent,
    default_theta,
    detect_singular_facets,
    probe_segment,
    singular_chains,
)
from oracle import loop_diagram_vertices, loop_singular_chains


def segment_cell_intervals(stats, p, q):
    """Geometric oracle: t-intervals of the segment inside each cell polygon.

    Clips the parametrized segment against every cell's edge half-planes;
    the number of boundary crossings is the number of positive-length
    visits minus one.
    """
    d = q - p
    intervals = []
    for verts in stats.cells:
        if len(verts) < 3:
            continue
        lo, hi = 0.0, 1.0
        ok = True
        m = len(verts)
        for k in range(m):
            v, w = verts[k], verts[(k + 1) % m]
            edge = w - v
            a = np.array([-edge[1], edge[0]])  # inward normal of a CCW edge
            s = float(a @ d)
            rhs = float(a @ (v - p))
            if abs(s) <= 1e-15:
                if rhs > 1e-12:
                    ok = False
                    break
                continue
            t = rhs / s
            if s > 0:
                lo = max(lo, t)
            else:
                hi = min(hi, t)
            if lo >= hi:
                ok = False
                break
        if ok and hi - lo > 1e-9:
            intervals.append((lo, hi))
    return sorted(intervals)


@pytest.fixture(scope="module")
def grid_graph(grid25_stats, grid25_target):
    theta = default_theta(grid25_stats, grid25_target)
    return detect_singular_facets(grid25_stats, grid25_target, theta)


@pytest.fixture(scope="module")
def dumbbell_instance():
    from sdot.config import dumbbell_target

    rng = np.random.default_rng([5, 0x7a96])
    target, labels = dumbbell_target(bell_radius=1.0, bar_width=0.3,
                                     separation=5.0, count=110, rng=rng)
    domain = sdot.box_domain([[-4.0, 4.0], [-2.0, 2.0]], seed=5)
    report = sdot.solve(domain, target)
    assert report.converged
    potential = BrenierPotential(target, report.heights)
    stats = exact_cell_stats_2d(potential, domain)
    return domain, target, potential, stats, labels


@pytest.fixture(scope="module")
def three_cluster_instance(unit_disk):
    """Three far clusters, solved on the unit disk."""
    rng = np.random.default_rng(53)
    centers = 6.0 * np.array([[np.cos(a), np.sin(a)]
                              for a in (0.0, 2 * np.pi / 3, 4 * np.pi / 3)])
    pts = np.concatenate([c + rng.uniform(-0.4, 0.4, size=(12, 2))
                          for c in centers])
    target = sdot.validate_target(pts)
    report = sdot.solve(unit_disk, target)
    assert report.converged
    stats = exact_cell_stats_2d(BrenierPotential(target, report.heights), unit_disk)
    return target, stats


def benchmark_dumbbell(seed):
    """The analyse-dumbbell diagram of ``perfbench/workloads.py``: 110
    targets on two bells of radius 1 at (+-2.5, 0) joined by a bar of
    width 0.3, solved on [-4, 4] x [-2, 2]."""
    rng = np.random.default_rng([seed, 0x5503])
    chunks, got = [], 0
    while got < 110:
        cand = rng.uniform([-3.5, -1.0], [3.5, 1.0], size=(220, 2))
        keep = ((np.hypot(cand[:, 0] + 2.5, cand[:, 1]) <= 1.0)
                | (np.hypot(cand[:, 0] - 2.5, cand[:, 1]) <= 1.0)
                | ((np.abs(cand[:, 1]) <= 0.15) & (np.abs(cand[:, 0]) <= 2.5)))
        chunks.append(cand[keep])
        got += int(keep.sum())
    target = sdot.validate_target(np.concatenate(chunks)[:110])
    domain = sdot.box_domain([[-4.0, 4.0], [-2.0, 2.0]], seed=seed)
    report = sdot.solve(domain, target)
    assert report.converged
    return target, exact_cell_stats_2d(BrenierPotential(target, report.heights), domain)


@pytest.fixture(scope="module", params=[
    "dumbbell", "clusters", "three-clusters", "grid-zero", "grid-solved",
    "benchmark-3", "benchmark-7919"])
def diagram(request, dumbbell_instance, cluster_instance, three_cluster_instance,
            grid25_target, grid25_stats, big_square):
    """(target, exact stats) of one solved or hand-set diagram."""
    if request.param == "dumbbell":
        _, target, _, stats, _ = dumbbell_instance
        return target, stats
    if request.param == "clusters":
        target, _, stats = cluster_instance
        return target, stats
    if request.param == "three-clusters":
        return three_cluster_instance
    if request.param == "grid-zero":
        # every cell meets the others at the origin
        pot = BrenierPotential(grid25_target, np.zeros(25))
        return grid25_target, exact_cell_stats_2d(pot, big_square)
    if request.param == "grid-solved":
        return grid25_target, grid25_stats
    return benchmark_dumbbell(int(request.param.split("-")[1]))


class TestCornerTable:
    @pytest.mark.parametrize("theta", [None, 0.3], ids=["default-theta", "theta-0.3"])
    def test_matches_loop_oracle(self, diagram, theta):
        target, stats = diagram
        pts = target.points
        gaps = [float(np.linalg.norm(pts[i] - pts[j])) for i, j in stats.facet_pairs]
        assert default_theta(stats, target) == 3.0 * float(np.median(gaps))
        theta = default_theta(stats, target) if theta is None else theta
        graph = detect_singular_facets(stats, target, theta)

        assert [(f.i, f.j, f.gap) for f in graph.facets] == [
            (int(i), int(j), gap) for (i, j), gap in zip(stats.facet_pairs, gaps)
            if gap > theta]
        want = loop_diagram_vertices(stats, graph.facets)
        assert len(graph.vertices) == len(want)
        for vertex, (point, cells, degree, is_singular) in zip(graph.vertices, want):
            assert vertex.point.tobytes() == point.tobytes()
            assert (vertex.cells, vertex.singular_degree, vertex.is_singular) == (
                cells, degree, is_singular)
        assert singular_chains(graph) == loop_singular_chains(graph)

    def test_facets_counted_at_a_vertex_lie_in_one_chain(self):
        # three cells meet near (0.5, 0), where the lower flagged facet ends
        # 2.5e-7 right of the upper one's end: one corner on the 1e-6 grid
        # of the cell corners (|x| <= 9), two on a 2e-7 grid fitted to the
        # flagged facet ends alone (|x| <= 1)
        c = 0.5 + 2.5e-7
        cells = [np.array([[-9.0, -1.0], [0.5, -1.0], [0.5, 0.0], [0.5, 1.0], [-9.0, 1.0]]),
                 np.array([[0.5, 0.0], [9.0, 0.0], [9.0, 1.0], [0.5, 1.0]]),
                 np.array([[0.5, -1.0], [9.0, -1.0], [9.0, 0.0], [c, 0.0]])]
        segments = np.array([[[0.5, 0.0], [0.5, 1.0]],
                             [[0.5, -1.0], [c, 0.0]],
                             [[0.5, 0.0], [9.0, 0.0]]])
        stats = PowerCellStats(np.full(3, 1.0 / 3.0), np.array([[0, 1], [0, 2], [1, 2]]),
                               np.array([1.0, 1.0, 8.5]) / 36.0, segments, cells, 36.0, True)
        target = sdot.validate_target([(-5.0, 0.0), (5.0, 0.5), (5.0, -0.5)])
        graph = detect_singular_facets(stats, target, 3.0)
        chains = singular_chains(graph)
        assert [v.singular_degree for v in graph.vertices] == [2]
        for vertex in graph.vertices:
            counted = {k for k, f in enumerate(graph.facets)
                       if np.abs(f.segment - vertex.point).max(axis=1).min() <= 1e-6}
            assert len(counted) == vertex.singular_degree
            assert sum(1 for chain in chains if counted & set(chain)) == 1


class TestDetection:
    def test_threshold_must_be_positive(self, grid25_stats, grid25_target):
        with pytest.raises(ThresholdNonpositiveError):
            detect_singular_facets(grid25_stats, grid25_target, 0.0)

    def test_grid_has_no_singularities(self, grid25_stats, grid25_target):
        # convex, evenly spread support: theta above the max adjacent gap
        theta = 3 * 0.5  # three grid spacings
        graph = detect_singular_facets(grid25_stats, grid25_target, theta)
        assert graph.facets == []

    def test_two_cluster_chain(self, cluster_instance):
        target, potential, stats = cluster_instance
        graph = detect_singular_facets(stats, target, 3.0)
        assert len(graph.facets) > 0
        chains = singular_chains(graph)
        assert len(chains) == 1
        # all flagged facets separate the two clusters
        for f in graph.facets:
            assert (f.i < 20) != (f.j < 20)

    def test_cluster_sides_carry_cluster_masses(self, cluster_instance):
        _, _, stats = cluster_instance
        assert abs(stats.cell_measures[:20].sum() - 0.5) <= 1e-3
        assert abs(stats.cell_measures[20:].sum() - 0.5) <= 1e-3

    def test_dumbbell_disjoint_chains(self, dumbbell_instance):
        _, target, _, stats, _ = dumbbell_instance
        theta = default_theta(stats, target)
        graph = detect_singular_facets(stats, target, theta)
        chains = singular_chains(graph)
        assert len(chains) >= 2

    def test_singular_facets_subset_of_adjacency(self, cluster_instance):
        target, _, stats = cluster_instance
        graph = detect_singular_facets(stats, target, 3.0)
        adjacency = stats.adjacency_set()
        for f in graph.facets:
            assert (f.i, f.j) in adjacency
            assert f.gap > graph.theta

    def test_monotone_in_threshold(self, dumbbell_instance):
        _, target, _, stats, _ = dumbbell_instance
        thetas = [0.5, 1.0, 2.0, 4.0]
        sets = []
        for theta in thetas:
            graph = detect_singular_facets(stats, target, theta)
            sets.append({(f.i, f.j) for f in graph.facets})
        for smaller, larger in zip(sets[1:], sets[:-1]):
            assert smaller <= larger

    def test_json_export(self, cluster_instance):
        target, _, stats = cluster_instance
        graph = detect_singular_facets(stats, target, 3.0)
        data = graph.to_json_dict()
        assert data["theta"] == 3.0
        assert len(data["facets"]) == len(graph.facets)
        assert all(len(v["cells"]) >= 3 for v in data["vertices"])


class TestProbe:
    def test_segment_inside_one_cell(self, grid25_potential, big_square, grid_graph):
        crossings = probe_segment(grid25_potential, big_square, grid_graph,
                                  (-0.05, -0.05), (0.05, 0.05), steps=500)
        assert crossings == []

    def test_bisector_crossing(self, unit_square, two_point_target, grid_graph):
        pot = BrenierPotential(two_point_target, np.zeros(2))
        stats = exact_cell_stats_2d(pot, unit_square)
        graph = detect_singular_facets(stats, two_point_target, 0.1)
        steps = 1000
        crossings = probe_segment(pot, unit_square, graph,
                                  (-0.5, 0.0), (0.5, 0.0), steps=steps)
        assert len(crossings) == 1
        assert abs(crossings[0].t - 0.5) <= 1.0 / steps
        assert crossings[0].jump == pytest.approx(1.0)
        assert crossings[0].is_singular  # gap 1 > theta 0.1

    def test_endpoint_outside_domain(self, grid25_potential, big_square, grid_graph):
        with pytest.raises(PointOutsideDomainError):
            probe_segment(grid25_potential, big_square, grid_graph,
                          (-3.0, 0.0), (0.0, 0.0))

    def test_cluster_gap_crossing_is_singular(self, cluster_instance, unit_disk):
        target, potential, stats = cluster_instance
        graph = detect_singular_facets(stats, target, 3.0)
        crossings = probe_segment(potential, unit_disk, graph,
                                  (-0.9, 0.0), (0.9, 0.0), steps=5000)
        assert sum(1 for c in crossings if c.is_singular) >= 1

    def test_crossing_count_matches_geometry(self, grid25_potential, grid25_stats,
                                             big_square, grid_graph):
        rng = np.random.default_rng(17)
        for _ in range(100):
            p = rng.uniform(-0.98, 0.98, size=2)
            q = rng.uniform(-0.98, 0.98, size=2)
            crossings = probe_segment(grid25_potential, big_square, grid_graph,
                                      p, q, steps=4001)
            intervals = segment_cell_intervals(grid25_stats, p, q)
            assert len(crossings) == len(intervals) - 1


class TestSubgradientExtent:
    def test_three_cell_vertex_is_triangle(self, cluster_instance):
        _, _, stats = cluster_instance
        target, _, _ = cluster_instance
        graph = detect_singular_facets(stats, target, 3.0)
        tri = [v for v in graph.vertices if len(v.cells) == 3]
        assert tri
        idx = graph.vertices.index(tri[0])
        hull = cell_subgradient_extent(graph, idx)
        assert len(hull) == 3

    def test_grid_vertices_have_small_extent(self, grid_graph):
        assert grid_graph.vertices
        spacing = 0.5
        for idx, vertex in enumerate(grid_graph.vertices):
            hull = cell_subgradient_extent(grid_graph, idx)
            diff = hull[:, None, :] - hull[None, :, :]
            diameter = np.sqrt((diff ** 2).sum(axis=2)).max()
            assert diameter <= 2 * spacing + 1e-9

    def test_three_cluster_branch_vertex(self, three_cluster_instance):
        # three far clusters force a Y-shaped chain with a branch point
        target, stats = three_cluster_instance
        graph = detect_singular_facets(stats, target, 3.0)
        singular = graph.singular_vertices()
        assert singular
        idx = graph.vertices.index(singular[0])
        hull = cell_subgradient_extent(graph, idx)
        diff = hull[:, None, :] - hull[None, :, :]
        assert np.sqrt((diff ** 2).sum(axis=2)).max() >= 5.0

    def test_dumbbell_notch_vertex_spans_bells(self, dumbbell_instance):
        _, target, _, stats, _ = dumbbell_instance
        theta = default_theta(stats, target)
        graph = detect_singular_facets(stats, target, theta)
        widths = []
        for idx in range(len(graph.vertices)):
            hull = cell_subgradient_extent(graph, idx)
            diff = hull[:, None, :] - hull[None, :, :]
            widths.append(np.sqrt((diff ** 2).sum(axis=2)).max())
        # somewhere between the bells the reachable targets span the gap
        assert max(widths) >= 2.0

    def test_vertex_not_found(self, grid_graph):
        with pytest.raises(VertexNotFoundError):
            cell_subgradient_extent(grid_graph, 10**6)


def test_import_leaves_csgraph_unloaded():
    """``import sdot`` (and the CLI module) does not load
    ``scipy.sparse.csgraph``; ``singular_chains`` imports it when called."""
    src = str(Path(sdot.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import sdot, sdot.cli; "
            "print('scipy.sparse.csgraph' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["False"]
