"""Acceptance suite: one test per shipped criterion, at its stated tolerance.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
inline). The criteria cover mode coverage, measure preservation, calculus
consistency, the LP optimality cross-check, discontinuity structure,
power-diagram/Delaunay duality, map monotonicity, and artifact determinism.
"""
import functools
import json
import time

import numpy as np
from scipy import stats as scipy_stats

import sdot
from sdot.cli import main
from sdot.config import dumbbell_target
from sdot.potential import BrenierPotential, exact_cell_stats_2d, legendre_dual
from sdot.singularity import default_theta, detect_singular_facets, singular_chains
from sdot.solver import energy, gradient, hessian, solve


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({name}): FAIL")
                raise
            line = f"ACCEPTANCE {number} ({name}): PASS"
            if detail:
                line += f" [{detail}]"
            print(line)
        return wrapper
    return decorate


@criterion(1, "mode coverage, 5x5 grid")
def test_mode_coverage(big_square, grid25_target):
    start = time.perf_counter()
    report = solve(big_square, grid25_target)
    elapsed = time.perf_counter() - start
    assert report.converged
    assert report.iterations <= 1000
    assert report.final_residual <= 1e-6
    assert elapsed <= 60.0

    potential = BrenierPotential(grid25_target, report.heights)
    stats = exact_cell_stats_2d(potential, big_square)
    assert np.all(stats.cell_measures > 0)

    n_samples = 10**6
    samples = sdot.sample_source(big_square, n_samples, rng=np.random.default_rng(1))
    idx = potential.assign_cell(samples)
    counts = np.bincount(idx, minlength=25)
    p = 0.04
    sigma = np.sqrt(n_samples * p * (1 - p))
    assert counts.min() > 0  # no mode dropped
    assert np.all(np.abs(counts - n_samples * p) <= 4 * sigma)

    # generated output is supported exactly on the target points
    mapped = potential.transport_map(samples[:10000])
    target_rows = {row.tobytes() for row in grid25_target.points}
    assert all(row.tobytes() in target_rows for row in mapped)
    return f"residual {report.final_residual:.2e}, {elapsed:.1f}s"


@criterion(2, "measure preservation, chi-square over 20 random targets")
def test_measure_preservation(big_square):
    n_samples = 200000
    worst_p = 1.0
    for k in range(20):
        rng = np.random.default_rng([100, k])
        n = int(rng.integers(20, 101))
        pts = rng.uniform(-0.85, 0.85, size=(n, 2))
        weights = rng.uniform(0.5, 1.5, size=n)
        weights /= weights.sum()
        target = sdot.validate_target(pts, weights)
        report = solve(big_square, target)
        assert report.converged
        potential = BrenierPotential(target, report.heights)
        fresh = sdot.sample_source(big_square, n_samples,
                                   rng=np.random.default_rng([200, k]))
        counts = np.bincount(potential.assign_cell(fresh), minlength=n)
        _, p_value = scipy_stats.chisquare(counts, n_samples * weights)
        worst_p = min(worst_p, p_value)
        assert p_value > 0.001
    return f"worst p-value {worst_p:.3f}"


@criterion(3, "gradient/Hessian consistency and PSD")
def test_calculus_consistency(big_square):
    start = time.perf_counter()

    # gradient against central finite differences of the energy
    rng = np.random.default_rng(5)
    n = 12
    pts = rng.uniform(-0.9, 0.9, size=(n, 2))
    weights = rng.uniform(0.5, 1.5, size=n)
    weights /= weights.sum()
    target = sdot.validate_target(pts, weights)
    h_star = solve(big_square, target).heights
    h = h_star + 0.01 * rng.standard_normal(n)
    potential = BrenierPotential(target, h)
    stats = exact_cell_stats_2d(potential, big_square)
    assert stats.cell_measures.min() > 0
    g = gradient(potential, stats)
    delta = 1e-5
    fd = np.zeros(n)
    for i in range(n):
        hp = h.copy(); hp[i] += delta
        hm = h.copy(); hm[i] -= delta
        ep = energy(BrenierPotential(target, hp), big_square, h_base=h_star)
        em = energy(BrenierPotential(target, hm), big_square, h_base=h_star)
        fd[i] = (ep - em) / (2 * delta)
    grad_err = np.abs(fd - g).max() / max(1.0, np.abs(g).max())
    assert grad_err <= 1e-5

    # Hessian against finite differences of the gradient, at n = 40
    rng = np.random.default_rng(6)
    n = 40
    pts = rng.uniform(-0.9, 0.9, size=(n, 2))
    weights = rng.uniform(0.5, 1.5, size=n)
    weights /= weights.sum()
    target = sdot.validate_target(pts, weights)
    h = solve(big_square, target).heights
    potential = BrenierPotential(target, h)
    stats = exact_cell_stats_2d(potential, big_square)
    H = hessian(stats, target)
    fdH = np.zeros((n, n))
    for j in range(n):
        hp = h.copy(); hp[j] += delta
        hm = h.copy(); hm[j] -= delta
        wp = exact_cell_stats_2d(BrenierPotential(target, hp), big_square).cell_measures
        wm = exact_cell_stats_2d(BrenierPotential(target, hm), big_square).cell_measures
        fdH[:, j] = (wp - wm) / (2 * delta)
    hess_err = np.abs(H - fdH).max()
    assert hess_err <= 1e-4

    proj = np.eye(n) - np.ones((n, n)) / n
    min_eig = float(np.linalg.eigvalsh(proj @ H @ proj).min())
    assert min_eig >= -1e-9

    elapsed = time.perf_counter() - start
    assert elapsed <= 30.0
    return (f"grad err {grad_err:.1e}, hess err {hess_err:.1e}, "
            f"min eig {min_eig:.1e}, {elapsed:.1f}s")


@criterion(4, "LP oracle cross-check")
def test_lp_optimality_crosscheck(tmp_path):
    # ship the random n=20 target through the CLI pipeline and consume the
    # oracle comparison report it writes
    rng = np.random.default_rng(1234)
    pts = rng.uniform(-0.8, 0.8, size=(20, 2))
    weights = rng.uniform(0.5, 1.5, size=20)
    weights /= weights.sum()
    target_csv = tmp_path / "target.csv"
    target_csv.write_text("".join(
        f"{float(x)!r},{float(y)!r},{float(w)!r}\n"
        for (x, y), w in zip(pts, weights)))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "domain": {"kind": "box", "bounds": [[-1.0, 1.0], [-1.0, 1.0]]},
        "target": {"file": "target.csv"},
        "solver": {"mode": "exact-2d", "tolerance": 1e-6},
        "seed": 7,
        "output_dir": str(tmp_path / "out"),
    }))
    assert main(["solve", str(config_path)]) == 0
    assert main(["compare-oracle", str(config_path),
                 "--samples", "50,200,800", "--seeds", "10"]) == 0
    report = json.loads((tmp_path / "out" / "oracle_report.json").read_text())
    medians = {int(k): v for k, v in report["median_gaps"].items()}
    assert medians[800] <= 0.05
    assert medians[50] >= medians[200] >= medians[800]
    return ", ".join(f"m={m}: {medians[m]:.3f}" for m in (50, 200, 800))


@criterion(5, "discontinuity structure")
def test_discontinuity_structure(unit_disk, grid25_stats, grid25_target):
    # two tight clusters split the disk by one singular chain
    rng = np.random.default_rng(7)
    a = np.array([-5.0, 0.0]) + rng.uniform(-0.5, 0.5, size=(20, 2))
    b = np.array([5.0, 0.0]) + rng.uniform(-0.5, 0.5, size=(20, 2))
    target = sdot.validate_target(np.vstack([a, b]), np.full(40, 1.0 / 40.0))
    report = solve(unit_disk, target)
    assert report.converged
    stats = exact_cell_stats_2d(BrenierPotential(target, report.heights), unit_disk)
    graph = detect_singular_facets(stats, target, 3.0)
    assert len(graph.facets) > 0
    assert len(singular_chains(graph)) == 1
    assert abs(stats.cell_measures[:20].sum() - 0.5) <= 1e-3
    assert abs(stats.cell_measures[20:].sum() - 0.5) <= 1e-3

    # dumbbell support produces at least two disjoint chains
    rng = np.random.default_rng([5, 0x7a96])
    dumbbell, _ = dumbbell_target(bell_radius=1.0, bar_width=0.3, separation=5.0,
                                  count=110, rng=rng)
    rect = sdot.box_domain([[-4.0, 4.0], [-2.0, 2.0]], seed=5)
    report = solve(rect, dumbbell)
    assert report.converged
    stats_db = exact_cell_stats_2d(BrenierPotential(dumbbell, report.heights), rect)
    theta = default_theta(stats_db, dumbbell)
    chains = singular_chains(detect_singular_facets(stats_db, dumbbell, theta))
    assert len(chains) >= 2

    # evenly spread convex support: no singularities at the calibrated theta
    control = detect_singular_facets(grid25_stats, grid25_target, 3 * 0.5)
    assert control.facets == []
    return f"cluster chain facets {len(graph.facets)}, dumbbell chains {len(chains)}"


@criterion(6, "duality of diagram and triangulation")
def test_duality_structure(big_square):
    rng_master = np.random.default_rng(4242)
    for k in range(20):
        rng = np.random.default_rng([300, k])
        n = int(rng.integers(15, 31))
        pts = rng.uniform(-0.9, 0.9, size=(n, 2))
        weights = rng.uniform(0.5, 1.5, size=n)
        weights /= weights.sum()
        target = sdot.validate_target(pts, weights)
        report = solve(big_square, target)
        assert report.converged
        potential = BrenierPotential(target, report.heights)
        stats = exact_cell_stats_2d(potential, big_square)
        dual = legendre_dual(potential, domain=big_square, stats=stats)
        assert dual.edge_set() == stats.adjacency_set()

        probe_pts = rng_master.uniform(-1, 1, size=(1000, 2))
        hull_pts = target.points[dual.hull_indices]
        hull_h = potential.heights[dual.hull_indices]
        biconjugate = (probe_pts @ hull_pts.T + hull_h).max(axis=1)
        assert np.abs(biconjugate - potential.evaluate(probe_pts)).max() <= 1e-9
    return "20 instances, edges equal, biconjugate within 1e-9"


@criterion(7, "monotone transport map")
def test_monotone_map(big_square, grid25_potential):
    rng = np.random.default_rng(77)
    x1 = sdot.sample_source(big_square, 10**5, rng=rng)
    x2 = sdot.sample_source(big_square, 10**5, rng=rng)
    t1 = grid25_potential.transport_map(x1)
    t2 = grid25_potential.transport_map(x2)
    dots = np.sum((x1 - x2) * (t1 - t2), axis=1)
    violations = int(np.count_nonzero(dots < -1e-12))
    assert violations == 0
    return f"min pairing {dots.min():.2e}, zero violations"


@criterion(8, "artifact determinism")
def test_determinism(tmp_path):
    config = {
        "domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 1.0},
        "target": {"generator": "clusters", "centers": [[-5.0, 0.0], [5.0, 0.0]],
                   "per_cluster": 15, "radius": 0.5},
        "solver": {"mode": "exact-2d", "tolerance": 1e-6},
        "seed": 11,
        "theta": 3.0,
    }
    digests = []
    for name in ("a", "b"):
        outdir = tmp_path / name
        config["output_dir"] = str(outdir)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        assert main(["solve", str(path)]) == 0
        assert main(["render", str(path)]) == 0
        digests.append({f: (outdir / f).read_bytes()
                        for f in ("report.json", "heights.json", "stats.json",
                                  "target.json", "diagram.svg")})
    assert digests[0] == digests[1]
    return "solve and render artifacts byte-identical"
