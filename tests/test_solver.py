import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

import sdot
import sdot.potential
import sdot.solver
from sdot.potential import (
    BrenierPotential,
    _lower_hull_edges,
    exact_cell_stats_2d,
    mc_cell_stats,
)
from sdot.solver import (
    FacetMeasuresUnavailableError,
    PathLeavesAdmissibleSetError,
    SingularHessianError,
    SolverConfig,
    _hidden_past,
    _newton_direction,
    _stats_fn_for,
    energy,
    gradient,
    hessian,
    solve,
    transport_cost,
)
from conftest import random_solved_instance


@pytest.fixture(scope="module")
def small_instance(big_square):
    """n=12 random target with its solved heights; shared by the FD checks."""
    rng = np.random.default_rng(5)
    pts = rng.uniform(-0.9, 0.9, size=(12, 2))
    weights = rng.uniform(0.5, 1.5, size=12)
    weights /= weights.sum()
    target = sdot.validate_target(pts, weights)
    report = solve(big_square, target)
    assert report.converged
    return target, report.heights


def admissible_perturbation(target, h_star, domain, rng, scale):
    """Random heights near the solution that keep every cell mass positive."""
    for _ in range(100):
        h = h_star + scale * rng.standard_normal(len(h_star))
        stats = exact_cell_stats_2d(BrenierPotential(target, h), domain)
        if stats.cell_measures.min() > 0:
            return h, stats
    raise AssertionError("no admissible perturbation found")


class TestEnergy:
    def test_single_cell_energy_vanishes(self, unit_square):
        target = sdot.validate_target([(0.0, 0.0)], [1.0])
        for h in (0.0, 1.3, -2.0):
            pot = BrenierPotential(target, np.array([h]))
            assert energy(pot, unit_square) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_minimum(self, unit_square, two_point_target):
        e0 = energy(BrenierPotential(two_point_target, np.zeros(2)), unit_square)
        e1 = energy(BrenierPotential(two_point_target, np.array([0.1, -0.1])), unit_square)
        assert e1 > e0
        # moving the bisector to x = -d costs exactly d^2 / 2
        assert e0 == pytest.approx(0.0, abs=1e-15)
        assert e1 == pytest.approx(0.02, abs=1e-15)
        for d in (-0.45, -0.2, 0.1, 0.3, 0.49):
            e = energy(BrenierPotential(two_point_target, np.array([0.0, d])), unit_square)
            assert e == pytest.approx(0.5 * d * d, abs=1e-15)

    @pytest.mark.parametrize("emptied", ["h", "h_base"])
    def test_path_leaving_admissible_set(self, unit_square, two_point_target, emptied):
        # raising one plane far above the other empties a cell
        empty, full = np.array([0.0, 10.0]), np.zeros(2)
        h, h_base = (empty, full) if emptied == "h" else (full, empty)
        pot = BrenierPotential(two_point_target, h)
        with pytest.raises(PathLeavesAdmissibleSetError):
            energy(pot, unit_square, h_base=h_base)

    def test_convexity_along_segments(self, big_square, small_instance):
        target, h_star = small_instance
        rng = np.random.default_rng(77)
        h1, _ = admissible_perturbation(target, h_star, big_square, rng, 0.05)
        h2, _ = admissible_perturbation(target, h_star, big_square, rng, 0.05)
        e1 = energy(BrenierPotential(target, h1), big_square, h_base=h_star)
        e2 = energy(BrenierPotential(target, h2), big_square, h_base=h_star)
        for t in (0.25, 0.5, 0.75):
            mid = energy(BrenierPotential(target, t * h1 + (1 - t) * h2), big_square,
                         h_base=h_star)
            assert mid <= t * e1 + (1 - t) * e2 + 1e-7


class TestGradient:
    def test_zero_at_solution(self, big_square, small_instance):
        target, h_star = small_instance
        pot = BrenierPotential(target, h_star)
        stats = exact_cell_stats_2d(pot, big_square)
        assert np.abs(gradient(pot, stats)).max() <= 1e-6

    def test_single_cell_zero(self, unit_square):
        target = sdot.validate_target([(0.0, 0.0)], [1.0])
        pot = BrenierPotential(target, np.zeros(1))
        stats = exact_cell_stats_2d(pot, unit_square)
        assert gradient(pot, stats) == pytest.approx([0.0])

    def test_matches_finite_differences(self, big_square, small_instance):
        target, h_star = small_instance
        rng = np.random.default_rng(13)
        h, stats = admissible_perturbation(target, h_star, big_square, rng, 0.01)
        pot = BrenierPotential(target, h)
        g = gradient(pot, stats)
        delta = 1e-5
        fd = np.zeros(len(h))
        for i in range(len(h)):
            hp = h.copy(); hp[i] += delta
            hm = h.copy(); hm[i] -= delta
            ep = energy(BrenierPotential(target, hp), big_square, h_base=h_star)
            em = energy(BrenierPotential(target, hm), big_square, h_base=h_star)
            fd[i] = (ep - em) / (2 * delta)
        assert np.abs(fd - g).max() <= 1e-5 * max(1.0, np.abs(g).max())


class TestHessian:
    def test_two_point_entry(self, unit_square, two_point_target):
        pot = BrenierPotential(two_point_target, np.zeros(2))
        stats = exact_cell_stats_2d(pot, unit_square)
        H = hessian(stats, two_point_target)
        assert H[0, 1] == pytest.approx(-1.0, abs=1e-12)
        assert H[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_rows_sum_to_zero_and_ones_null(self, grid25_stats, grid25_target):
        H = hessian(grid25_stats, grid25_target)
        assert np.abs(H.sum(axis=1)).max() <= 1e-12
        assert np.abs(H @ np.ones(25)).max() <= 1e-12
        assert np.abs(H - H.T).max() == 0.0

    def test_matches_fd_of_gradient(self, big_square, small_instance):
        target, h_star = small_instance
        rng = np.random.default_rng(29)
        h, stats = admissible_perturbation(target, h_star, big_square, rng, 0.01)
        H = hessian(stats, target)
        delta = 1e-5
        n = len(h)
        fd = np.zeros((n, n))
        for j in range(n):
            hp = h.copy(); hp[j] += delta
            hm = h.copy(); hm[j] -= delta
            wp = exact_cell_stats_2d(BrenierPotential(target, hp), big_square).cell_measures
            wm = exact_cell_stats_2d(BrenierPotential(target, hm), big_square).cell_measures
            fd[:, j] = (wp - wm) / (2 * delta)
        assert np.abs(H - fd).max() <= 1e-4

    def test_psd_on_sum_zero_subspace(self, big_square, small_instance):
        target, h_star = small_instance
        rng = np.random.default_rng(31)
        h, stats = admissible_perturbation(target, h_star, big_square, rng, 0.02)
        H = hessian(stats, target)
        n = len(h)
        P = np.eye(n) - np.ones((n, n)) / n
        eig = np.linalg.eigvalsh(P @ H @ P)
        assert eig.min() >= -1e-9

    def test_unavailable_in_mc_mode(self, unit_square, two_point_target):
        pot = BrenierPotential(two_point_target, np.zeros(2))
        stats = mc_cell_stats(pot, unit_square, 1000)
        with pytest.raises(FacetMeasuresUnavailableError):
            hessian(stats, two_point_target)

    def test_singular_reduced_hessian_raises(self):
        with pytest.raises(SingularHessianError):
            _newton_direction(np.zeros((3, 3)), np.array([0.1, -0.1, 0.0]))


class TestSolve:
    def test_single_target_immediate(self, unit_square):
        target = sdot.validate_target([(0.1, 0.2)], [1.0])
        report = solve(unit_square, target)
        assert report.converged
        assert report.iterations == 0
        assert report.heights == pytest.approx([0.0])

    def test_symmetric_pair(self, unit_square, two_point_target):
        report = solve(unit_square, two_point_target)
        assert report.converged
        assert report.heights == pytest.approx([0.0, 0.0], abs=1e-9)
        assert report.final_residual == pytest.approx(0.0, abs=1e-12)

    def test_grid25(self, solved_grid25):
        assert solved_grid25.converged
        assert solved_grid25.final_residual <= 1e-6
        assert solved_grid25.iterations <= 1000

    def test_residual_never_worse_than_start(self, solved_grid25):
        assert solved_grid25.final_residual <= solved_grid25.residual_history[0]

    def test_disk_two_clusters(self, cluster_instance):
        _, _, stats = cluster_instance
        assert stats.cell_measures.min() > 0
        # two halves of the disk carry the two cluster masses
        assert stats.cell_measures[:20].sum() == pytest.approx(0.5, abs=1e-5)

    def test_gauge_normalized_output(self, solved_grid25):
        assert solved_grid25.heights.min() == 0.0

    def test_unique_up_to_constant(self, big_square):
        rng = np.random.default_rng(41)
        target = sdot.validate_target(rng.uniform(-0.8, 0.8, size=(10, 2)))
        config = SolverConfig(tolerance=1e-9)
        r1 = solve(big_square, target, config)
        r2 = solve(big_square, target, config, h_init=rng.standard_normal(10))
        assert r1.converged and r2.converged
        assert np.abs(r1.heights - r2.heights).max() <= 1e-5

    @pytest.mark.parametrize("domain", [
        sdot.box_domain([[0.0, 1.0], [0.0, 1.0]]),
        sdot.box_domain([[2.0, 4.0], [2.0, 4.0]]),
        sdot.disk_domain([3.0, -2.0], 1.0),
        sdot.polygon_domain([(4.0, 1.0), (6.0, 2.0), (5.0, 4.0), (3.5, 3.0)]),
    ], ids=["box01", "box24", "disk", "polygon"])
    def test_off_centre_domain(self, domain):
        # the Voronoi start must sit in the domain, not around the origin
        rng = np.random.default_rng(17)
        bb = domain.bounding_box()
        pts = rng.uniform(bb[:, 0], bb[:, 1], size=(30, 2))
        report = solve(domain, sdot.validate_target(pts))
        assert report.converged
        assert report.final_residual <= 1e-6

    def test_max_iterations_flag(self, big_square, grid25_target):
        config = SolverConfig(max_iterations=1)
        report = solve(big_square, grid25_target, config)
        assert not report.converged
        assert report.hit_max_iterations

    @pytest.mark.parametrize("min_step", [0.0, -1.0, float("nan")])
    def test_nonpositive_min_step_rejected(self, min_step):
        # failed trials halve the step down to 0.0, which a min_step <= 0 never stops
        with pytest.raises(ValueError, match="min_step"):
            SolverConfig(min_step=min_step)

    @pytest.mark.parametrize("field, lowest", [("max_iterations", 0), ("mc_samples", 1)])
    def test_count_below_lowest_rejected(self, field, lowest):
        # max_iterations=0 reports the start, and so did a negative one;
        # mc_samples=0 failed only once the solve sampled
        SolverConfig(mode="monte-carlo", **{field: lowest})
        with pytest.raises(ValueError, match=field):
            SolverConfig(mode="monte-carlo", **{field: lowest - 1})

    def test_monte_carlo_mode(self, unit_square):
        target = sdot.validate_target([(-0.5, 0.0), (0.5, 0.0), (0.0, 0.4)],
                                      [0.3, 0.3, 0.4])
        config = SolverConfig(mode="monte-carlo", mc_samples=100000, seed=4)
        report = solve(unit_square, target, config)
        assert report.converged
        assert report.final_residual <= 5e-3

    def test_monte_carlo_one_plane_pass_per_stats_call(self, unit_square, monkeypatch):
        # the frozen samples' plane values give both the cell masses and the
        # energy, so an accepted trial never evaluates them a second time
        passes, stats_calls = [], []
        real_pass = BrenierPotential._reduce_planes
        real_stats = sdot.solver.mc_cell_stats_from_samples

        def spy_pass(self, *args):
            passes.append(1)
            return real_pass(self, *args)

        def spy_stats(*args, **kwargs):
            stats_calls.append(1)
            return real_stats(*args, **kwargs)

        monkeypatch.setattr(BrenierPotential, "_reduce_planes", spy_pass)
        monkeypatch.setattr(sdot.solver, "mc_cell_stats_from_samples", spy_stats)
        target = sdot.validate_target([(-0.5, 0.0), (0.5, 0.0), (0.0, 0.4)],
                                      [0.3, 0.3, 0.4])
        config = SolverConfig(mode="monte-carlo", mc_samples=20000, seed=4)
        report = solve(unit_square, target, config)
        assert report.iterations > 0
        assert len(passes) == len(stats_calls)

    def test_monte_carlo_3d(self):
        # exact clipping stops at 2D; higher dimensions go through sampling
        dom = sdot.ball_domain([0.0, 0.0, 0.0], 1.0, seed=6)
        target = sdot.validate_target(
            [(-0.5, 0.0, 0.0), (0.5, 0.0, 0.0), (0.0, 0.6, 0.0)])
        config = SolverConfig(mode="monte-carlo", mc_samples=50000, seed=6)
        report = solve(dom, target, config)
        assert report.converged
        assert report.final_residual <= 5e-3

    def test_measure_preservation(self, big_square):
        target, pot = random_solved_instance(51, big_square, n_range=(25, 35))
        fresh = sdot.sample_source(big_square, 10**6, rng=np.random.default_rng(99))
        counts = np.bincount(pot.assign_cell(fresh), minlength=target.n)
        n_samples = len(fresh)
        sigma = np.sqrt(n_samples * target.weights * (1 - target.weights))
        assert np.all(np.abs(counts - n_samples * target.weights) <= 4 * sigma)

    def test_report_json(self, solved_grid25):
        data = solved_grid25.to_json_dict()
        assert data["converged"] is True
        assert len(data["residual_history"]) == data["iterations"] + 1


def test_clip_ring_built_once_per_domain(monkeypatch, cluster_instance):
    """One solve on a fresh disk builds its clip ring once; stats on that
    disk equal, bit for bit, stats on a newly built equal disk."""
    target, _, _ = cluster_instance
    clip_ring = sdot.potential._ClipRing
    built = []

    def spy(verts):
        built.append(verts)
        return clip_ring(verts)

    monkeypatch.setattr(sdot.potential, "_ClipRing", spy)
    disk = sdot.disk_domain([0.0, 0.0], 1.0, seed=3)
    report = solve(disk, target)
    assert report.converged and len(built) == 1
    potential = BrenierPotential(target, report.heights)
    got = exact_cell_stats_2d(potential, disk)
    want = exact_cell_stats_2d(potential, sdot.disk_domain([0.0, 0.0], 1.0, seed=3))
    assert len(built) == 2
    for name in ("cell_measures", "facet_pairs", "facet_measures", "facet_segments"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert len(got.cells) == len(want.cells)
    assert all(np.array_equal(a, b) for a, b in zip(got.cells, want.cells))
    assert got.envelope_mean == want.envelope_mean


def hides_a_target(points, heights):
    """Whether some target is off the lower hull of the lifted targets."""
    return len(_lower_hull_edges(np.asarray(points), np.asarray(heights))[1]) < len(points)


@pytest.fixture
def collinear_hidden(unit_square):
    """Three collinear targets; the middle one is lifted below the chord of
    the outer two, so its cell is empty everywhere."""
    target = sdot.validate_target([(-0.5, 0.0), (0.0, 0.0), (0.5, 0.0)])
    h = np.array([0.0, -0.5, 0.0])
    assert hides_a_target(target.points, h)
    return target, h


class TestHullFirstRejection:
    """Exact-mode trials whose heights hide a target are rejected from the
    regular triangulation alone, before any cell is built."""

    def test_same_report_as_building_every_trial(self, monkeypatch, cluster_instance,
                                                 unit_disk):
        target, _, _ = cluster_instance
        fast = solve(unit_disk, target)

        def unconditional(domain, target, config):
            return lambda h: exact_cell_stats_2d(BrenierPotential(target, h), domain)

        monkeypatch.setattr(sdot.solver, "_stats_fn_for", unconditional)
        slow = solve(unit_disk, target)
        assert fast.iterations == slow.iterations
        assert np.array_equal(fast.heights, slow.heights)
        assert np.array_equal(fast.residual_history, slow.residual_history)
        assert np.array_equal(fast.energy_history, slow.energy_history)

    def test_one_qhull_call_per_trial(self, monkeypatch, cluster_instance, unit_disk):
        target, _, _ = cluster_instance
        hulls, trials, built, facets = [], [], [], []
        convex_hull = sdot.potential.ConvexHull
        stats_fn_for = sdot.solver._stats_fn_for
        stats = sdot.solver.exact_cell_stats_2d
        power_facets = sdot.potential._power_facets

        def hull_spy(*args, **kwargs):
            hulls.append(1)
            return convex_hull(*args, **kwargs)

        def counting_for(domain, target, config):
            fn = stats_fn_for(domain, target, config)

            def counted(h):
                out = fn(h)
                trials.append(out is None)
                return out
            return counted

        def stats_spy(potential, *args, **kwargs):
            built.append(potential.heights.copy())
            return stats(potential, *args, **kwargs)

        def facet_spy(points, heights, *args):
            facets.append((np.array(points), np.array(heights)))
            return power_facets(points, heights, *args)

        monkeypatch.setattr(sdot.potential, "ConvexHull", hull_spy)
        monkeypatch.setattr(sdot.solver, "_stats_fn_for", counting_for)
        monkeypatch.setattr(sdot.solver, "exact_cell_stats_2d", stats_spy)
        monkeypatch.setattr(sdot.potential, "_power_facets", facet_spy)
        report = solve(unit_disk, target)
        monkeypatch.setattr(sdot.potential, "ConvexHull", convex_hull)

        assert report.converged
        assert len(hulls) == len(trials)
        assert any(trials)
        assert len(built) == trials.count(False) == len(facets)
        assert not any(hides_a_target(target.points, h) for h in built)
        assert not any(hides_a_target(p, h) for p, h in facets)

    def test_energy_at_hidden_target_raises(self, unit_square, collinear_hidden):
        target, h = collinear_hidden
        with pytest.raises(PathLeavesAdmissibleSetError):
            energy(BrenierPotential(target, h), unit_square)
        with pytest.raises(PathLeavesAdmissibleSetError):
            energy(BrenierPotential(target, np.zeros(3)), unit_square, h_base=h)

    def test_hidden_start_falls_back_to_voronoi(self, unit_square, collinear_hidden):
        target, h = collinear_hidden
        plain = solve(unit_square, target)
        started = solve(unit_square, target, h_init=h)
        assert plain.converged and started.converged
        assert np.abs(started.heights - plain.heights).max() <= 1e-9


class TestHiddenCertificates:
    """A trial rejected for a hidden target leaves certificates (a lower
    triangle that strictly contains the target), and the line search skips
    the steps they prove hidden without changing any decision."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_proven_steps_hide_a_target(self, unit_square, seed):
        rng = np.random.default_rng(seed)
        points = rng.uniform(-1.0, 1.0, size=(12, 2))
        target = sdot.validate_target(points)
        stats_fn = _stats_fn_for(unit_square, target, SolverConfig())
        rejected = rng.normal(0.0, 0.5, 12)
        assert (stats_fn(rejected) is None) == hides_a_target(points, rejected)
        h = rng.normal(0.0, 0.2, 12)
        direction = (rejected - h) * rng.uniform(0.5, 2.0)
        past = _hidden_past(stats_fn, h, direction)
        steps = [*0.5 ** np.arange(12), np.nextafter(past, np.inf)]
        for lam in steps:
            if past < lam <= 1.0:
                assert hides_a_target(points, h + lam * direction)

    def test_certificate_proves_the_rejected_step(self, unit_square):
        target = sdot.validate_target([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.3, 0.3)])
        stats_fn = _stats_fn_for(unit_square, target, SolverConfig())
        assert stats_fn(np.array([0.0, 0.0, 0.0, -1.0])) is None
        (ids, beta), = stats_fn.certificates
        assert ids[:, 0].tolist() == [3] and sorted(ids[0, 1:]) == [0, 1, 2]
        assert np.allclose(beta[0][np.argsort(ids[0, 1:])], [0.4, 0.3, 0.3])
        # h_3 - beta . h_abc = lam * -1: every positive step is proven
        assert 0.0 < _hidden_past(stats_fn, np.zeros(4), np.array([0.0, 0.0, 0.0, -1.0])) < 1e-8
        assert _hidden_past(stats_fn, np.zeros(4), np.array([0.0, 0.0, 0.0, 1.0])) == np.inf

    @pytest.mark.parametrize("points", [
        [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.3, 1e-13)],
        [(0.0, 0.0), (1.0, 0.0), (0.5, 1e-5), (0.5, 3e-6)],
    ], ids=["near-edge", "sliver"])
    def test_no_certificate_from_a_near_degenerate_triangle(self, unit_square, points):
        target = sdot.validate_target(points)
        stats_fn = _stats_fn_for(unit_square, target, SolverConfig())
        assert stats_fn(np.array([0.0, 0.0, 0.0, -1.0])) is None
        (ids, beta), = stats_fn.certificates
        assert ids.shape == (0, 4) and beta.shape == (0, 3)
        assert _hidden_past(stats_fn, np.zeros(4), np.array([0.0, 0.0, 0.0, -1.0])) == np.inf

    @pytest.fixture(scope="class")
    def solve_cases(self, unit_disk, big_square, cluster_instance):
        rng = np.random.default_rng(23)
        base = rng.uniform(-0.8, 0.8, size=(12, 2))
        near_dup = np.vstack([base, base[:4] + np.array([1e-7, 0.0])])
        axis = np.linspace(-0.6, 0.6, 3)
        # the fixture's clusters drawn from another seed: here a trial just
        # below a certificate's bound is accepted, so any over-skip shows
        other = np.random.default_rng(0)
        clusters = np.vstack([np.array(c) + other.uniform(-0.5, 0.5, size=(20, 2))
                              for c in ((-5.0, 0.0), (5.0, 0.0))])
        return {
            "clusters": (unit_disk, cluster_instance[0], None),
            "clusters-seed0": (unit_disk, sdot.validate_target(clusters), None),
            "grid3": (big_square, sdot.validate_target([(x, y) for y in axis for x in axis]),
                      None),
            "near-duplicates": (big_square, sdot.validate_target(near_dup), None),
            # lam = 1 hides a target, its certificate proves 0.5 hidden, and 0.25 < min_step
            "step-underflow": (unit_disk, cluster_instance[0], SolverConfig(min_step=0.3)),
        }

    @pytest.mark.parametrize("case", ["clusters", "clusters-seed0", "grid3",
                                      "near-duplicates", "step-underflow"])
    def test_same_report_without_certificates(self, monkeypatch, solve_cases, case):
        domain, target, config = solve_cases[case]
        fast = solve(domain, target, config)
        monkeypatch.setattr(sdot.solver, "_hidden_past", lambda *args: np.inf)
        slow = solve(domain, target, config)
        assert fast.step_underflow == slow.step_underflow == (case == "step-underflow")
        assert fast.iterations == slow.iterations
        assert fast.converged == slow.converged
        assert np.array_equal(fast.heights, slow.heights)
        assert np.array_equal(fast.residual_history, slow.residual_history)
        assert np.array_equal(fast.energy_history, slow.energy_history)

    def test_fewer_qhull_calls(self, monkeypatch, cluster_instance, unit_disk):
        target = cluster_instance[0]
        convex_hull = sdot.potential.ConvexHull
        hulls = []

        def hull_spy(*args, **kwargs):
            hulls.append(1)
            return convex_hull(*args, **kwargs)

        monkeypatch.setattr(sdot.potential, "ConvexHull", hull_spy)
        solve(unit_disk, target)
        with_certificates = len(hulls)
        monkeypatch.setattr(sdot.solver, "_hidden_past", lambda *args: np.inf)
        solve(unit_disk, target)
        assert with_certificates < len(hulls) - with_certificates


class TestTransportCost:
    def test_centered_square_second_moment(self, unit_square):
        target = sdot.validate_target([(0.0, 0.0)], [1.0])
        pot = BrenierPotential(target, np.zeros(1))
        exact = transport_cost(pot, unit_square)
        assert exact == pytest.approx(1 / 12, abs=1e-12)
        mc = transport_cost(pot, unit_square, samples=200000,
                            rng=np.random.default_rng(2))
        assert mc == pytest.approx(1 / 12, abs=3 * 0.075 / np.sqrt(200000))

    def test_translation_resolves(self, big_square):
        rng = np.random.default_rng(61)
        pts = rng.uniform(-0.5, 0.5, size=(6, 2))
        base = sdot.validate_target(pts)
        shifted = sdot.validate_target(pts + np.array([2.0, -1.0]))
        for target in (base, shifted):
            report = solve(big_square, target)
            assert report.converged
            assert report.final_residual <= 1e-6

    def test_exact_close_to_mc(self, big_square, small_instance):
        target, h_star = small_instance
        pot = BrenierPotential(target, h_star)
        exact = transport_cost(pot, big_square)
        mc = transport_cost(pot, big_square, samples=400000,
                            rng=np.random.default_rng(8))
        assert mc == pytest.approx(exact, rel=0.02)


class TestMeasureHistograms:
    def test_chi_square_random_measures(self, big_square):
        worst = 1.0
        for k in range(3):
            target, pot = random_solved_instance(700 + k, big_square,
                                                 n_range=(20, 60), spread=0.85)
            fresh = sdot.sample_source(big_square, 200000,
                                       rng=np.random.default_rng([701, k]))
            counts = np.bincount(pot.assign_cell(fresh), minlength=target.n)
            _, p = scipy_stats.chisquare(counts, len(fresh) * target.weights)
            worst = min(worst, p)
        assert worst > 0.001
