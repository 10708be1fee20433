import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sdot
from sdot.geometry import DimensionUnsupportedError
from sdot.potential import (
    _ASSIGN_CHUNK,
    _TILE_MIN,
    _TILE_ROWS,
    _tile_index,
    BrenierPotential,
    PowerCellStats,
    exact_cell_stats_2d,
    legendre_dual,
    mc_cell_stats,
    mc_cell_stats_from_samples,
)
from conftest import random_solved_instance
from oracle import loop_mc_adjacency


def brute_force_envelope(potential, x):
    """Independent oracle: explicit loop over all supporting planes."""
    best_val, best_idx = -np.inf, -1
    for i in range(potential.n):
        v = float(np.dot(x, potential.target.points[i])) + float(potential.heights[i])
        if v > best_val:
            best_val, best_idx = v, i
    return best_val, best_idx


@pytest.fixture(scope="module")
def symmetric_pair(two_point_target):
    return BrenierPotential(two_point_target, np.zeros(2))


class TestEvaluation:
    def test_single_flat_plane(self):
        target = sdot.validate_target([(0.0, 0.0)], [1.0])
        pot = BrenierPotential(target, np.zeros(1))
        for x in [(0, 0), (3, -2), (-10, 7)]:
            assert pot.evaluate(np.asarray(x, float)) == 0.0

    def test_two_plane_max(self, symmetric_pair):
        assert symmetric_pair.evaluate(np.array([0.5, 0.0])) == pytest.approx(0.25)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        target = sdot.validate_target(rng.standard_normal((17, 2)))
        pot = BrenierPotential(target, rng.standard_normal(17))
        for x in rng.standard_normal((50, 2)):
            val, idx = brute_force_envelope(pot, x)
            assert pot.evaluate(x) == pytest.approx(val, abs=1e-12)
            assert pot.assign_cell(x) == idx

    def test_assignment_sides(self, symmetric_pair):
        assert symmetric_pair.assign_cell(np.array([-0.3, 0.0])) == 0
        assert symmetric_pair.assign_cell(np.array([0.3, 0.0])) == 1

    def test_tie_breaks_low_index(self, symmetric_pair):
        assert symmetric_pair.assign_cell(np.array([0.0, 0.7])) == 0

    def test_transport_map(self, symmetric_pair):
        y = symmetric_pair.transport_map(np.array([-0.2, 0.1]))
        assert y == pytest.approx([-0.5, 0.0])

    def test_transport_single_target(self, unit_square):
        target = sdot.validate_target([(0.3, -0.4)], [1.0])
        pot = BrenierPotential(target, np.zeros(1))
        pts = sdot.sample_source(unit_square, 100, rng=np.random.default_rng(0))
        mapped = pot.transport_map(pts)
        assert np.all(mapped == np.array([0.3, -0.4]))

    def test_monotone_map(self, grid25_potential, big_square):
        rng = np.random.default_rng(11)
        x1 = sdot.sample_source(big_square, 5000, rng=rng)
        x2 = sdot.sample_source(big_square, 5000, rng=rng)
        dots = np.sum((x1 - x2) * (grid25_potential.transport_map(x1)
                                   - grid25_potential.transport_map(x2)), axis=1)
        assert dots.min() >= -1e-12


@pytest.fixture(scope="module")
def dyadic_batch():
    """Potential and 3 000 samples whose plane values are all exact.

    Targets lie on the 1/8 grid, heights on the 1/64 grid and samples on
    the 1/512 grid, so every <x, y_i> + h_i is a multiple of 1/4096 that any
    BLAS kernel computes exactly, and ties between planes are exact. The
    three highest planes meet at the origin, a triple point, and rows on
    the three bisectors through it tie two planes.
    """
    rng = np.random.default_rng(8)
    grid = np.array([(x, y) for x in range(-8, 9, 2) for y in range(-8, 9, 2)])
    points = grid[rng.choice(len(grid), size=12, replace=False)] / 8.0
    heights = -rng.integers(1, 17, size=12) / 64.0
    top = [2, 5, 9]
    heights[top] = 0.0
    pot = BrenierPotential(sdot.validate_target(points), heights)
    samples = rng.integers(-64, 65, size=(3000, 2)) / 64.0
    steps = np.arange(-8, 9) / 64.0
    on_bisectors = np.vstack([
        steps[:, None] * (points[i] - points[j]) @ np.array([[0.0, 1.0], [-1.0, 0.0]])
        for i, j in [(2, 5), (2, 9), (5, 9)]])
    rows = rng.choice(len(samples), size=len(on_bisectors), replace=False)
    samples[rows] = on_bisectors
    samples[[0, 1023, 1024, 2999]] = 0.0
    return pot, samples
class TestBatchedEvaluation:
    def test_matches_one_point_path(self, dyadic_batch):
        pot, samples = dyadic_batch
        # several full blocks and a partial one
        assert len(samples) > 2 * _ASSIGN_CHUNK and len(samples) % _ASSIGN_CHUNK
        idx = pot.assign_cell(samples)
        vals = pot.evaluate(samples)
        assert idx.dtype == np.int64 and vals.dtype == np.float64
        ties = 0
        for x, i, v in zip(samples, idx, vals):
            best_val, best_idx = brute_force_envelope(pot, x)
            assert i == pot.assign_cell(x) == best_idx
            assert v == pot.evaluate(x) == best_val
            ties += np.count_nonzero(pot.plane_values(x) == best_val) > 1
        assert idx[0] == idx[1023] == idx[1024] == idx[2999] == 2  # lowest of three
        assert ties >= 40

    def test_empty_batch(self, dyadic_batch):
        pot, _ = dyadic_batch
        idx = pot.assign_cell(np.zeros((0, 2)))
        vals = pot.evaluate(np.zeros((0, 2)))
        assert idx.shape == vals.shape == (0,)
        assert idx.dtype == np.int64 and vals.dtype == np.float64

    def test_lone_last_row_joins_previous_block(self):
        # a one-row matmul takes a different BLAS kernel; the last row of a
        # batch one row past a block boundary must round like any other row
        rng = np.random.default_rng(4)
        pot = BrenierPotential(sdot.validate_target(rng.standard_normal((110, 2))),
                               rng.standard_normal(110))
        base = rng.uniform(-2.0, 2.0, size=(_ASSIGN_CHUNK, 2))
        for x in rng.uniform(-2.0, 2.0, size=(64, 2)):
            batch = np.vstack([base, x])
            pair = batch[-2:]
            assert pot.evaluate(batch)[-1] == pot.evaluate(pair)[-1]
            assert pot.assign_cell(batch)[-1] == pot.assign_cell(pair)[-1]


# the smallest batch that goes through certified tiles: a _TILE_MIN-square grid
TILE_FLOOR = _TILE_ROWS * _TILE_MIN ** 2
BOX = sdot.box_domain([[-1.0, 1.0], [-1.0, 1.0]])


@st.composite
def tiled_batches(draw):
    """A power diagram on [-1, 1]^2 and TILE_FLOOR samples planted where a tile
    certificate could go wrong: on facets (from ``facet_segments``) and at
    their ends, exactly on tile corners and tile edges (the bounding box and
    the grid lines), and as duplicate rows; ``flat`` gives the batch zero
    width in one axis (where it may run along a facet, so that no tile is
    certified). ``dyadic`` diagrams are Voronoi on 1/8-grid targets
    with 1/512-grid samples: every plane value is exact, and facet samples
    on the bisector through the two targets' midpoint tie exactly."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 40))
    dyadic, flat = draw(st.booleans()), draw(st.sampled_from([None, 0, 1]))
    if dyadic:
        sites = np.array([(x, y) for x in range(-8, 9) for y in range(-8, 9)]) / 8.0
        points = sites[rng.choice(len(sites), size=n, replace=False)]
        heights = -0.5 * np.sum(points ** 2, axis=1)
        samples = rng.integers(-512, 513, size=(TILE_FLOOR, 2)) / 512.0
    else:
        points = rng.uniform(-1.0, 1.0, size=(n, 2))
        heights = -0.5 * np.sum(points ** 2, axis=1) + rng.normal(0.0, 0.05, n)
        samples = rng.uniform(-1.0, 1.0, size=(TILE_FLOOR, 2))
    pot = BrenierPotential(sdot.validate_target(points), heights)
    stats = exact_cell_stats_2d(pot, BOX)
    pairs, segs = stats.facet_pairs, stats.facet_segments
    assume(len(pairs))  # noisy heights can hide all but one target
    k = TILE_FLOOR // 8  # rows per kind of planted sample
    slots = iter(np.split(rng.permutation(TILE_FLOOR), [k, 2 * k, 3 * k, 4 * k]))
    pick = rng.integers(len(pairs), size=k)
    t = rng.uniform(size=(k, 1))
    if dyadic:
        # along the bisector from the midpoint, in 1/64 steps of perp(y_i - y_j)
        i, j = pairs[pick].T
        mid, perp = (points[i] + points[j]) / 2, (points[i] - points[j]) @ [[0, 1], [-1, 0]]
        ends = np.einsum("kej,kj->ke", segs[pick] - mid[:, None], perp)
        ends /= np.sum(perp ** 2, axis=1)[:, None]
        steps = np.round((ends[:, :1] + t * (ends[:, 1:] - ends[:, :1])) * 64) / 64
        samples[next(slots)] = mid + steps * perp
    else:
        samples[next(slots)] = segs[pick, 0] + t * (segs[pick, 1] - segs[pick, 0])
    samples[next(slots)[:2 * len(segs)]] = segs.reshape(-1, 2)
    if flat is not None:
        samples[:, flat] = samples[0, flat]
    axes = [np.linspace(samples[:, k].min(), samples[:, k].max(), _TILE_MIN + 1) for k in range(2)]
    corner, edge = next(slots), next(slots)
    samples[corner] = np.column_stack([rng.choice(a, len(corner)) for a in axes])
    samples[edge, 0] = rng.choice(axes[0], len(edge))
    samples[edge[::2], 1] = rng.choice(axes[1], len(edge[::2]))
    samples[next(slots)[:k]] = samples[rng.integers(TILE_FLOOR, size=k)]
    return pot, samples, dyadic, flat is not None


class TestCertifiedTiles:
    @given(tiled_batches())
    @settings(max_examples=10, deadline=None)
    def test_matches_dense_pass(self, case):
        pot, samples, dyadic, flat = case
        idx = pot.assign_cell(samples)
        assert np.array_equal(idx, pot._reduce_planes(samples))
        if flat:
            return
        lo, per_unit, owner = pot._certified_tiles(samples, _TILE_MIN)
        decided = np.take(owner, _tile_index(samples, lo, per_unit, _TILE_MIN)) >= 0
        assert decided.any() and not decided.all()
        if dyadic:
            gap = np.empty(len(samples))
            pot._reduce_planes(samples, gap=gap)
            assert np.any(gap == 0.0)

    def test_batch_along_a_facet(self):
        # two planes that tie on the line x = c up to rounding: the dense pass
        # splits the line between them, so no tile on it may be certified
        for seed in range(3):
            rng = np.random.default_rng(seed)
            c = rng.uniform(-0.5, 0.5)
            pot = BrenierPotential(sdot.validate_target([(0.3, 0.7), (-0.1, 0.7)]),
                                   np.array([0.1, 0.1 + 0.4 * c]))
            samples = np.column_stack([np.full(TILE_FLOOR, c),
                                       rng.uniform(-1.0, 1.0, TILE_FLOOR)])
            dense = pot._reduce_planes(samples)
            assert np.all(np.bincount(dense) > 0)
            assert np.array_equal(pot.assign_cell(samples), dense)

    @pytest.mark.parametrize("case", ["3d", "below_floor", "nan_row", "infinite_row", "evaluate"])
    def test_dense_pass_only(self, case, monkeypatch):
        # as before the tiles, and with no RuntimeWarning (an error under pytest)
        def no_tiles(*args):
            raise AssertionError("certified tiles used")

        monkeypatch.setattr(BrenierPotential, "_assign_tiled", no_tiles)
        rng = np.random.default_rng(7)
        d = 3 if case == "3d" else 2
        rows = TILE_FLOOR - 1 if case == "below_floor" else TILE_FLOOR
        pot = BrenierPotential(sdot.validate_target(rng.uniform(0.1, 1.0, size=(20, d))),
                               rng.standard_normal(20))
        samples = rng.uniform(-1.0, 1.0, size=(rows, d))
        if case == "nan_row":
            samples[100, 1] = np.nan
        if case == "infinite_row":
            samples[9] = (np.inf, 0.5)
        if case == "evaluate":
            top = np.empty(rows)
            pot._reduce_planes(samples, top)
            assert np.array_equal(pot.evaluate(samples), top)
        else:
            assert np.array_equal(pot.assign_cell(samples), pot._reduce_planes(samples))

    def test_memory_within_2mb_of_dense_pass(self):
        rng = np.random.default_rng(6)
        points = rng.uniform(-1.0, 1.0, size=(60, 2))
        pot = BrenierPotential(sdot.validate_target(points), -0.5 * np.sum(points ** 2, axis=1))
        samples = rng.uniform(-1.0, 1.0, size=(10**6, 2))
        peaks, out = [], []
        for run in (pot._reduce_planes, pot.assign_cell):
            tracemalloc.start()
            try:
                out.append(run(samples))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert np.array_equal(*out)
        assert peaks[1] <= peaks[0] + 2 * 2**20
        grid = int(np.sqrt(len(samples) / _TILE_ROWS))
        assert np.any(pot._certified_tiles(samples, grid)[2] >= 0)


class TestExactStats:
    def test_two_point_hand_geometry(self, unit_square, symmetric_pair):
        stats = exact_cell_stats_2d(symmetric_pair, unit_square)
        assert stats.cell_measures == pytest.approx([0.5, 0.5], abs=1e-12)
        assert stats.adjacency_set() == {(0, 1)}
        # bisector segment of length 1 over domain area 1
        assert stats.facet_measures[0] == pytest.approx(1.0, abs=1e-12)

    def test_two_point_matches_mass_derivative(self, unit_square, two_point_target):
        # d(w_0)/d(h_1) should equal minus facet mass over target distance = -1
        delta = 1e-6
        up = exact_cell_stats_2d(
            BrenierPotential(two_point_target, np.array([0.0, delta])), unit_square)
        dn = exact_cell_stats_2d(
            BrenierPotential(two_point_target, np.array([0.0, -delta])), unit_square)
        fd = (up.cell_measures[0] - dn.cell_measures[0]) / (2 * delta)
        assert fd == pytest.approx(-1.0, abs=1e-6)

    def test_single_cell(self, unit_square):
        target = sdot.validate_target([(0.2, 0.2)], [1.0])
        stats = exact_cell_stats_2d(BrenierPotential(target, np.zeros(1)), unit_square)
        assert stats.cell_measures == pytest.approx([1.0])
        assert len(stats.facet_pairs) == 0

    def test_grid25_solved_masses(self, grid25_stats):
        assert np.all(np.abs(grid25_stats.cell_measures - 0.04) <= 2e-6)

    def test_masses_sum_to_one(self, grid25_stats):
        assert grid25_stats.cell_measures.sum() == pytest.approx(1.0, abs=1e-9)

    def test_cells_tile_domain(self, grid25_stats, big_square):
        total = sum(sdot.polygon_area(sdot.ConvexPolygon(c)) for c in grid25_stats.cells)
        assert total == pytest.approx(big_square.volume(), abs=1e-9)

    def test_gauge_invariance(self, grid25_target, solved_grid25, big_square):
        h = solved_grid25.heights
        base = exact_cell_stats_2d(BrenierPotential(grid25_target, h), big_square)
        shifted = exact_cell_stats_2d(
            BrenierPotential(grid25_target, h + 3.7), big_square)
        assert np.abs(base.cell_measures - shifted.cell_measures).max() <= 1e-12
        assert base.adjacency_set() == shifted.adjacency_set()
        rng = np.random.default_rng(4)
        pts = rng.uniform(-1, 1, size=(2000, 2))
        p0 = BrenierPotential(grid25_target, h)
        p1 = BrenierPotential(grid25_target, h + 3.7)
        assert np.array_equal(p0.assign_cell(pts), p1.assign_cell(pts))

    def test_rejects_3d(self):
        dom = sdot.ball_domain([0.0, 0.0, 0.0], 1.0)
        target = sdot.validate_target([(0.0, 0.0, 0.0)], [1.0])
        with pytest.raises(DimensionUnsupportedError):
            exact_cell_stats_2d(BrenierPotential(target, np.zeros(1)), dom)

    def test_json_round_trip(self, grid25_stats):
        data = grid25_stats.to_json_dict()
        back = PowerCellStats.from_json_dict(data)
        assert np.array_equal(back.cell_measures, grid25_stats.cell_measures)
        assert np.array_equal(back.facet_pairs, grid25_stats.facet_pairs)
        assert np.array_equal(back.facet_measures, grid25_stats.facet_measures)
        for a, b in zip(back.cells, grid25_stats.cells):
            assert np.array_equal(a, b)


class TestMonteCarloStats:
    def test_two_point_binomial_band(self, unit_square, symmetric_pair):
        stats = mc_cell_stats(symmetric_pair, unit_square, 10**6,
                              rng=np.random.default_rng(21))
        assert 0.4985 <= stats.cell_measures[0] <= 0.5015

    def test_single_cell_exact(self, unit_square):
        target = sdot.validate_target([(0.0, 0.0)], [1.0])
        stats = mc_cell_stats(BrenierPotential(target, np.zeros(1)), unit_square, 1000)
        assert stats.cell_measures[0] == 1.0

    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_agrees_with_exact(self, unit_square, seed):
        rng = np.random.default_rng(seed)
        target = sdot.validate_target(rng.uniform(-0.4, 0.4, size=(8, 2)))
        pot = BrenierPotential(target, 0.1 * rng.standard_normal(8))
        n_samples = 200000
        exact = exact_cell_stats_2d(pot, unit_square)
        mc = mc_cell_stats(pot, unit_square, n_samples, rng=rng)
        sigma = np.sqrt(exact.cell_measures * (1 - exact.cell_measures) / n_samples)
        assert np.all(np.abs(mc.cell_measures - exact.cell_measures) <= 3 * sigma + 1e-12)

    def test_no_facet_measures(self, unit_square, symmetric_pair):
        stats = mc_cell_stats(symmetric_pair, unit_square, 1000)
        assert not stats.has_facet_measures
        assert stats.facet_measures is None

    def test_adjacency_advisory(self, unit_square, symmetric_pair):
        stats = mc_cell_stats(symmetric_pair, unit_square, 5000,
                              rng=np.random.default_rng(2))
        assert stats.adjacency_set() == {(0, 1)}

    @pytest.mark.parametrize("seed", [41, 42])
    def test_adjacency_matches_loop(self, unit_square, seed):
        rng = np.random.default_rng(seed)
        target = sdot.validate_target(rng.uniform(-0.4, 0.4, size=(15, 2)))
        # Voronoi heights: every cell is nonempty
        pot = BrenierPotential(target, -0.5 * np.sum(target.points ** 2, axis=1))
        pts = sdot.sample_source(unit_square, 3000, rng=rng)
        stats = mc_cell_stats_from_samples(pot, pts, 4, 2000)
        expected = loop_mc_adjacency(pts, pot.assign_cell(pts), 4, 2000)
        assert len(expected) > 15
        assert stats.facet_pairs.dtype == np.int64
        assert np.array_equal(stats.facet_pairs, expected)

    @pytest.mark.parametrize("n_targets, neighbors", [(1, 4), (2, 0)])
    def test_no_adjacency_pairs(self, unit_square, n_targets, neighbors):
        target = sdot.validate_target(np.linspace(-0.3, 0.3, 2 * n_targets).reshape(-1, 2))
        pot = BrenierPotential(target, np.zeros(n_targets))
        pts = sdot.sample_source(unit_square, 500, rng=np.random.default_rng(5))
        stats = mc_cell_stats_from_samples(pot, pts, neighbors)
        assert stats.facet_pairs.shape == (0, 2)
        assert stats.facet_pairs.dtype == np.int64
        assert np.array_equal(stats.facet_pairs,
                              loop_mc_adjacency(pts, pot.assign_cell(pts), neighbors, 20000))


class TestLegendreDual:
    def test_two_points_single_edge(self, two_point_target):
        dual = legendre_dual(BrenierPotential(two_point_target, np.zeros(2)))
        assert dual.edge_set() == {(0, 1)}

    def test_grid_adjacency(self, grid25_potential, grid25_stats, big_square):
        dual = legendre_dual(grid25_potential, domain=big_square, stats=grid25_stats)
        adj = grid25_stats.adjacency_set()
        assert dual.edge_set() == adj
        # unrestricted dual may add diagonals, but only ones whose clipped
        # facet is empty, and never misses a real adjacency
        full = legendre_dual(grid25_potential)
        assert adj <= full.edge_set()
        for extra in full.edge_set() - adj:
            assert grid25_stats.facet_measure(*extra) == 0.0

    def test_facet_measure_lookup(self, grid25_potential, grid25_stats, big_square):
        stats = grid25_stats
        for (i, j), mass in zip(stats.facet_pairs.tolist(), stats.facet_measures):
            assert stats.facet_measure(i, j) == stats.facet_measure(j, i) == mass > 0.0
        assert (0, 24) not in stats.adjacency_set()
        assert stats.facet_measure(0, 24) == 0.0
        # keyed by i * 25 + j, (0, 27) and (-1, 26) would hit the facets (1, 2) and (0, 1)
        assert stats.facet_measure(1, 2) > 0.0 and stats.facet_measure(0, 1) > 0.0
        for i, j in [(0, 27), (27, 0), (-1, 26), (3, 3), (25, 26)]:
            assert stats.facet_measure(i, j) == 0.0
        mc = mc_cell_stats(grid25_potential, big_square, 4000, rng=np.random.default_rng(1))
        assert len(mc.facet_pairs) > 0
        assert all(mc.facet_measure(i, j) == 0.0 for i, j in mc.facet_pairs)

    def test_stats_of_other_heights_do_not_lend_their_triangulation(self, big_square):
        """The dual given any stats equals the dual built from its own qhull
        call; only the edge masses come from the stats."""
        _, pot = random_solved_instance(105, big_square)
        other = BrenierPotential(pot.target, pot.heights + np.linspace(0.0, 0.3, pot.n))
        own = exact_cell_stats_2d(pot, big_square)
        want = legendre_dual(pot, domain=big_square, stats=own)
        json_stats = PowerCellStats.from_json_dict(own.to_json_dict())
        for stats in [None, own, json_stats, exact_cell_stats_2d(other, big_square),
                      mc_cell_stats(pot, big_square, 2000, rng=np.random.default_rng(2))]:
            got = legendre_dual(pot, domain=big_square, stats=stats)
            for name in ("edges", "zero_cell_indices", "hull_indices"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
        assert np.array_equal(legendre_dual(pot, big_square, json_stats).facet_measures,
                              want.facet_measures)
        assert not np.array_equal(
            legendre_dual(other, big_square).edges, want.edges)
        # heights changed in place after the stats were built
        moved = BrenierPotential(pot.target, pot.heights.copy())
        stale = exact_cell_stats_2d(moved, big_square)
        moved.heights[:] = other.heights
        assert np.array_equal(legendre_dual(moved, big_square, stale).edges,
                              legendre_dual(other, big_square).edges)

    def test_random_instances_match_adjacency(self, big_square):
        for seed in (101, 102, 103):
            target, pot = random_solved_instance(seed, big_square)
            stats = exact_cell_stats_2d(pot, big_square)
            dual = legendre_dual(pot, domain=big_square, stats=stats)
            assert dual.edge_set() == stats.adjacency_set()
            assert dual.facet_measures.min() > 0

    def test_biconjugate_matches_envelope(self, big_square):
        target, pot = random_solved_instance(104, big_square)
        dual = legendre_dual(pot)
        rng = np.random.default_rng(9)
        pts = rng.uniform(-1, 1, size=(1000, 2))
        hull_pts = pot.target.points[dual.hull_indices]
        hull_h = pot.heights[dual.hull_indices]
        biconjugate = (pts @ hull_pts.T + hull_h).max(axis=1)
        assert np.abs(biconjugate - pot.evaluate(pts)).max() <= 1e-9

    def test_collinear_falls_back_to_sorted_adjacency(self):
        target = sdot.validate_target([(0.0, 0.0), (2.0, 0.0), (1.0, 0.0), (3.0, 0.0)])
        dual = legendre_dual(BrenierPotential(target, np.zeros(4)))
        assert dual.edge_set() == {(0, 2), (1, 2), (1, 3)}

    def test_zero_cell_target_reported(self):
        # deep interior point with a very low plane never touches the envelope
        target = sdot.validate_target([(-1.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.1)])
        pot = BrenierPotential(target, np.array([0.0, 0.0, 0.0, -5.0]))
        dual = legendre_dual(pot)
        assert 3 in dual.zero_cell_indices.tolist()
