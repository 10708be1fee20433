import itertools
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sdot
from sdot import kantorovich
from sdot.geometry import MassMismatchError
from sdot.kantorovich import (
    SizeLimitExceededError,
    TransportPlan,
    c_transform,
    cost_matrix,
    solve_lp,
    verify_plan,
)
from sdot.potential import BrenierPotential
from sdot.solver import transport_cost
from oracle import dense_transport_lp


def brute_force_assignment_cost(cost):
    """Enumerate all permutations; valid for equal uniform marginals."""
    m = cost.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(m)):
        total = sum(cost[i, perm[i]] for i in range(m)) / m
        best = min(best, total)
    return best


class TestSolveLp:
    def test_one_to_one(self):
        target = sdot.validate_target([(3.0, 4.0)], [1.0])
        plan, cost = solve_lp([(0.0, 0.0)], [1.0], target)
        assert plan.matrix.ravel() == pytest.approx([1.0])
        assert cost == pytest.approx(0.5 * 25.0)

    def test_two_by_two_matches_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            src = rng.standard_normal((2, 2))
            tgt_pts = rng.standard_normal((2, 2))
            target = sdot.validate_target(tgt_pts, [0.5, 0.5])
            plan, cost = solve_lp(src, [0.5, 0.5], target)
            expected = brute_force_assignment_cost(cost_matrix(src, tgt_pts))
            assert cost == pytest.approx(expected, abs=1e-12)

    def test_three_by_three_matches_enumeration(self):
        rng = np.random.default_rng(9)
        src = rng.standard_normal((3, 2))
        tgt_pts = rng.standard_normal((3, 2))
        target = sdot.validate_target(tgt_pts)
        plan, cost = solve_lp(src, np.full(3, 1 / 3), target)
        expected = brute_force_assignment_cost(cost_matrix(src, tgt_pts))
        assert cost == pytest.approx(expected, abs=1e-12)

    def test_mass_mismatch(self):
        target = sdot.validate_target([(0.0, 0.0)], [1.0])
        with pytest.raises(MassMismatchError):
            solve_lp([(1.0, 0.0)], [0.7], target)

    def test_size_cap(self):
        target = sdot.validate_target([(0.0, 0.0), (1.0, 0.0)], [0.5, 0.5])
        with pytest.raises(SizeLimitExceededError):
            solve_lp(np.zeros((4, 2)), np.full(4, 0.25), target, size_limit=7)

    def test_l1_cost(self):
        target = sdot.validate_target([(3.0, 4.0)], [1.0])
        _, cost = solve_lp([(0.0, 0.0)], [1.0], target, cost_exponent=1)
        assert cost == pytest.approx(5.0)

    def test_plan_support_is_sparse(self):
        rng = np.random.default_rng(15)
        m, n = 40, 12
        src = rng.standard_normal((m, 2))
        target = sdot.validate_target(rng.standard_normal((n, 2)))
        plan, _ = solve_lp(src, np.full(m, 1 / m), target)
        assert np.count_nonzero(plan.matrix > 1e-9) <= m + n - 1


def dumbbell_instance(seed):
    """The analyse-dumbbell benchmark's LP: 110 dumbbell targets against a
    24 x 12 jittered grid on [-4, 4] x [-2, 2]."""
    rng = np.random.default_rng([seed, 0x5503])
    chunks, got = [], 0
    while got < 110:
        cand = rng.uniform((-3.5, -1.0), (3.5, 1.0), size=(220, 2))
        keep = ((np.hypot(cand[:, 0] + 2.5, cand[:, 1]) <= 1.0)
                | (np.hypot(cand[:, 0] - 2.5, cand[:, 1]) <= 1.0)
                | ((np.abs(cand[:, 1]) <= 0.15) & (np.abs(cand[:, 0]) <= 2.5)))
        chunks.append(cand[keep])
        got += int(keep.sum())
    target = sdot.validate_target(np.concatenate(chunks)[:110])
    ix, iy = np.meshgrid(np.arange(24), np.arange(12), indexing="ij")
    cells = np.column_stack([ix.ravel(), iy.ravel()])
    cells = cells + np.random.default_rng([seed, 0x5505]).uniform(size=(288, 2))
    src = np.array([-4.0, -2.0]) + cells * np.array([8.0 / 24, 4.0 / 12])
    return src, np.full(288, 1.0 / 288), target


def uneven_weights(rng, count):
    """Weights spread log-uniformly over [1e-4, 1], then normalised."""
    w = 10.0 ** rng.uniform(-4.0, 0.0, count)
    return w / w.sum()


def box_instance(n, m):
    rng = np.random.default_rng([n, m])
    target = sdot.validate_target(rng.uniform(-0.9, 0.9, (n, 2)),
                                  uneven_weights(rng, n))
    return rng.uniform(-1.0, 1.0, (m, 2)), uneven_weights(rng, m), target


def cluster_instance():
    rng = np.random.default_rng(40)
    pts = np.concatenate([rng.normal((-3.0, 0.0), 0.3, (20, 2)),
                          rng.normal((3.0, 0.0), 0.3, (20, 2))])
    disk = sdot.disk_domain([0.0, 0.0], 1.0, seed=3)
    src = sdot.sample_source(disk, 200, rng=rng)
    return src, np.full(200, 1.0 / 200), sdot.validate_target(pts)


PRICED_CASES = (
    [pytest.param(dumbbell_instance, (seed,), 2, id=f"dumbbell-seed{seed}")
     for seed in (3, 7919)]
    + [pytest.param(cluster_instance, (), p, id=f"clusters-p{p}") for p in (1, 2)]
    + [pytest.param(box_instance, (n, m), p, id=f"box-n{n}-m{m}-p{p}")
       for n, ms in ((60, (1, 5, 50, 200, 800)), (300, (1, 5, 50, 200)))
       for m in ms for p in (1, 2)])


class TestPricedSupport:
    @pytest.mark.parametrize("instance, args, exponent", PRICED_CASES)
    def test_matches_dense_lp(self, instance, args, exponent):
        src, a, target = instance(*args)
        cost = cost_matrix(src, target.points, exponent)
        _, expected = dense_transport_lp(cost, a, target.weights)
        plan, value = solve_lp(src, a, target, cost_exponent=exponent)
        assert abs(value - expected) <= 1e-12 * (1 + expected)
        assert verify_plan(plan, cost)[1].feasible
        assert plan.dual.max_violation(cost) <= 1e-9
        assert np.count_nonzero(plan.matrix) <= len(src) + target.n - 1

    def test_pricing_alone_certifies(self, monkeypatch):
        # from the north-west corner alone, only the reduced-cost rounds can
        # reach the optimum
        src, a, target = dumbbell_instance(3)
        monkeypatch.setattr(kantorovich, "_seed_support",
                            lambda cost, a, b: kantorovich._north_west_corner(a, b))
        solves = []
        real_linprog = kantorovich.linprog

        def spy(*args, **kwargs):
            solves.append(1)
            return real_linprog(*args, **kwargs)

        monkeypatch.setattr(kantorovich, "linprog", spy)
        _, value = solve_lp(src, a, target)
        cost = cost_matrix(src, target.points)
        _, expected = dense_transport_lp(cost, a, target.weights)
        assert len(solves) >= 2
        assert abs(value - expected) <= 1e-12 * (1 + expected)


    def test_pricing_round_adds_at_most_m_plus_n(self, monkeypatch):
        # from the north-west corner, thousands of columns price out at
        # once; a round takes only the m + n most negative of them
        src, a, target = dumbbell_instance(3)
        monkeypatch.setattr(kantorovich, "_seed_support",
                            lambda cost, a, b: kantorovich._north_west_corner(a, b))
        sizes = []
        real_linprog = kantorovich.linprog

        def spy(c, *args, **kwargs):
            sizes.append(len(c))
            return real_linprog(c, *args, **kwargs)

        monkeypatch.setattr(kantorovich, "linprog", spy)
        _, value = solve_lp(src, a, target)
        cost = cost_matrix(src, target.points)
        _, expected = dense_transport_lp(cost, a, target.weights)
        assert len(sizes) >= 3
        assert np.diff(sizes).max() <= len(src) + target.n
        assert abs(value - expected) <= 1e-12 * (1 + expected)


class TestDuality:
    def test_strong_duality(self):
        rng = np.random.default_rng(8)
        m, n = 30, 10
        src = rng.standard_normal((m, 2))
        a = np.full(m, 1 / m)
        target = sdot.validate_target(rng.standard_normal((n, 2)))
        plan, primal = solve_lp(src, a, target)
        dual_value = plan.dual.objective(a, target.weights)
        assert abs(primal - dual_value) <= 1e-6 * (1 + primal)

    def test_dual_feasibility(self):
        rng = np.random.default_rng(12)
        src = rng.standard_normal((25, 2))
        target = sdot.validate_target(rng.standard_normal((8, 2)))
        plan, _ = solve_lp(src, np.full(25, 1 / 25), target)
        cost = cost_matrix(src, target.points)
        assert plan.dual.max_violation(cost) <= 1e-9

    def test_weak_duality_for_arbitrary_phi(self):
        rng = np.random.default_rng(4)
        m, n = 20, 6
        src = rng.standard_normal((m, 2))
        a = np.full(m, 1 / m)
        target = sdot.validate_target(rng.standard_normal((n, 2)))
        cost = cost_matrix(src, target.points)
        _, primal = solve_lp(src, a, target)
        for _ in range(10):
            phi = rng.standard_normal(m)
            psi = c_transform(phi, cost)
            assert phi @ a + psi @ target.weights <= primal + 1e-9


class TestCTransform:
    def test_zero_phi_gives_min_cost(self):
        cost = np.array([[1.0, 4.0], [2.0, 0.5]])
        assert c_transform(np.zeros(2), cost) == pytest.approx([1.0, 0.5])

    def test_double_transform_dominates(self):
        rng = np.random.default_rng(10)
        cost = cost_matrix(rng.standard_normal((12, 2)), rng.standard_normal((12, 2)))
        for _ in range(20):
            phi = rng.standard_normal(12)
            psi = c_transform(phi, cost)
            phi_cc = c_transform(psi, cost.T)
            assert np.all(phi_cc >= phi - 1e-12)

    def test_double_transform_fixes_c_concave(self):
        rng = np.random.default_rng(11)
        cost = cost_matrix(rng.standard_normal((9, 2)), rng.standard_normal((9, 2)))
        psi = c_transform(rng.standard_normal(9), cost)
        phi = c_transform(psi, cost.T)
        assert c_transform(c_transform(phi, cost), cost.T) == pytest.approx(phi, abs=1e-12)


class TestVerifyPlan:
    def test_optimal_plan_is_feasible(self):
        rng = np.random.default_rng(21)
        src = rng.standard_normal((10, 2))
        target = sdot.validate_target(rng.standard_normal((4, 2)))
        plan, cost = solve_lp(src, np.full(10, 0.1), target)
        value, feas = verify_plan(plan, cost_matrix(src, target.points))
        assert feas.feasible
        assert value == pytest.approx(cost, abs=1e-9)

    def test_negative_entry_flagged(self):
        matrix = np.array([[0.6, -0.1], [0.2, 0.3]])
        plan = TransportPlan(matrix, matrix.sum(axis=1), matrix.sum(axis=0))
        _, feas = verify_plan(plan, np.ones((2, 2)))
        assert not feas.feasible
        assert feas.min_entry == pytest.approx(-0.1)

    def test_suboptimal_plan_costs_more(self):
        rng = np.random.default_rng(22)
        src = rng.standard_normal((6, 2))
        target = sdot.validate_target(rng.standard_normal((6, 2)))
        plan, optimal = solve_lp(src, np.full(6, 1 / 6), target)
        cost = cost_matrix(src, target.points)
        # product coupling is feasible but generally not optimal
        product = np.outer(np.full(6, 1 / 6), target.weights)
        value, feas = verify_plan(
            TransportPlan(product, product.sum(axis=1), product.sum(axis=0)), cost)
        assert feas.feasible
        assert value >= optimal - 1e-12


class TestCsvExport:
    def test_plan_round_trip(self, tmp_path):
        rng = np.random.default_rng(30)
        src = rng.standard_normal((5, 2))
        target = sdot.validate_target(rng.standard_normal((3, 2)))
        plan, _ = solve_lp(src, np.full(5, 0.2), target)
        path = tmp_path / "plan.csv"
        sdot.write_plan_csv(plan, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "source_index,target_index,mass"
        rebuilt = np.zeros((5, 3))
        for line in lines[1:]:
            i, j, mass = line.split(",")
            rebuilt[int(i), int(j)] = float(mass)
        assert np.array_equal(rebuilt, plan.matrix)

    def test_cost_matrix_round_trip(self, tmp_path):
        cost = cost_matrix(np.array([[0.0, 0.0], [1.0, 1.0]]),
                           np.array([[2.0, 0.0]]))
        path = tmp_path / "cost.csv"
        sdot.write_cost_csv(cost, path)
        back = np.array([[float(v) for v in line.split(",")]
                         for line in path.read_text().strip().splitlines()])
        assert np.array_equal(back, cost)


class TestSingleTargetOracle:
    def test_forced_plan_equals_sample_mean(self, big_square):
        # with one target the plan is forced, so the LP cost IS the sample
        # mean of the displacement cost and matches the Monte Carlo
        # semi-discrete estimate on the same draws to round-off
        target = sdot.validate_target([(0.1, -0.2)], [1.0])
        pot = BrenierPotential(target, np.zeros(1))
        exact = transport_cost(pot, big_square)
        for m in (50, 200, 800):
            src = sdot.sample_source(big_square, m, rng=np.random.default_rng([3, m]))
            _, lp = solve_lp(src, np.full(m, 1.0 / m), target)
            disp = src - target.points[0]
            mc_same_samples = 0.5 * float(np.mean(np.sum(disp * disp, axis=1)))
            assert abs(lp - mc_same_samples) <= 1e-9 * (1 + lp)
            # against the exact integral only a CLT-scale gap remains
            costs = 0.5 * np.sum(disp * disp, axis=1)
            assert abs(lp - exact) <= 3 * costs.std() / np.sqrt(m) + 1e-12


class TestDiscretizationTrend:
    def test_gap_shrinks_with_more_samples(self, big_square):
        rng = np.random.default_rng(1234)
        pts = rng.uniform(-0.8, 0.8, size=(20, 2))
        weights = rng.uniform(0.5, 1.5, size=20)
        weights /= weights.sum()
        target = sdot.validate_target(pts, weights)
        report = sdot.solve(big_square, target)
        assert report.converged
        pot = BrenierPotential(target, report.heights)
        sd_cost = transport_cost(pot, big_square)

        medians = []
        for m in (50, 200, 800):
            gaps = []
            for seed in range(10):
                src = sdot.sample_source(big_square, m,
                                         rng=np.random.default_rng([7, seed, m]))
                _, lp = solve_lp(src, np.full(m, 1.0 / m), target)
                gaps.append(abs(lp - sd_cost) / sd_cost)
            medians.append(float(np.median(gaps)))
        assert medians[0] >= medians[1] >= medians[2]


def test_import_leaves_scipy_optimize_unloaded():
    """``import sdot`` (and the CLI module) does not load ``scipy.optimize``;
    ``solve_lp`` imports it on its first call, with the in-process result."""
    src = str(Path(sdot.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import sdot, sdot.cli; "
            "print('scipy.optimize' in sys.modules); import numpy as np; "
            "rng = np.random.default_rng(5); "
            "target = sdot.validate_target(rng.standard_normal((6, 2))); "
            "_, value = sdot.solve_lp(rng.standard_normal((15, 2)), np.full(15, 1 / 15), target); "
            "print('scipy.optimize' in sys.modules, repr(value))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True)
    rng = np.random.default_rng(5)
    target = sdot.validate_target(rng.standard_normal((6, 2)))
    _, value = solve_lp(rng.standard_normal((15, 2)), np.full(15, 1 / 15), target)
    assert out.stdout.split() == ["False", "True", repr(value)]
