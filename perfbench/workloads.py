"""Seeded workloads: instance generation, the timed task and its checks.

Every instance is drawn from ``numpy.random.default_rng`` keyed on the
run's seed, and sdot receives only points and weights through
``sdot.validate_target``. Each workload has three parts: ``setup`` builds
the inputs, ``task`` is the timed unit of work, and ``check`` verifies the
task's outputs outside the timed region, returning one boolean per check.
"""
from __future__ import annotations

import contextlib
import io
import json
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import sdot
import sdot.cli
import sdot.kantorovich
import sdot.render
import sdot.singularity

SOLVE_TOL = sdot.SolverConfig().resolved_tolerance
# Cell masses of an exact diagram sum to one up to rounding.
MASS_SUM_TOL = 1e-9
# The acceptance suite's bound on the LP-versus-exact relative cost gap.
LP_GAP_BOUND = 0.05
# Standard deviations allowed for the sampled cell counts.
SAMPLING_SIGMAS = 4.0


def masses_match(stats, target) -> bool:
    """Cell masses equal the target weights within the solve tolerance."""
    w = stats.cell_measures
    return (float(np.abs(w - target.weights).max()) <= SOLVE_TOL
            and abs(float(w.sum()) - 1.0) <= MASS_SUM_TOL)


# ---------------------------------------------------------------------------
# solve workloads
# ---------------------------------------------------------------------------


def uniform_targets(seed: int, n: int, count: int):
    """Uniform targets in [-0.9, 0.9]^2 on the box [-1, 1]^2."""
    domain = sdot.box_domain([[-1.0, 1.0], [-1.0, 1.0]], seed=seed)
    targets = []
    for k in range(count):
        rng = np.random.default_rng([seed, 0x5501, k])
        targets.append(sdot.validate_target(rng.uniform(-0.9, 0.9, size=(n, 2))))
    return domain, targets


def _disk_points(rng, count: int, center, radius: float) -> np.ndarray:
    r = radius * np.sqrt(rng.uniform(size=count))
    a = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return np.asarray(center) + np.column_stack([r * np.cos(a), r * np.sin(a)])


def cluster_targets(seed: int, n: int, count: int):
    """Two radius-0.5 clusters at (+-5, 0), far outside the unit disk."""
    domain = sdot.disk_domain([0.0, 0.0], 1.0, seed=seed)
    targets = []
    for k in range(count):
        rng = np.random.default_rng([seed, 0x5502, k])
        half = n // 2
        pts = np.vstack([_disk_points(rng, half, (-5.0, 0.0), 0.5),
                         _disk_points(rng, n - half, (5.0, 0.0), 0.5)])
        targets.append(sdot.validate_target(pts))
    return domain, targets


@dataclass
class SolveState:
    domain: object
    targets: list


@dataclass
class SolveWorkload:
    """Time ``sdot.solve`` (exact-2d, default tolerance) per instance.

    The run cycles through ``instances`` seeded targets of size ``n``;
    solves that raise, do not converge or fail the recheck count as failed.
    """

    name: str
    make_targets: object
    n: int
    instances: int = 64

    required_spans = ("solver.solve", "solver.hessian", "potential.cell_stats")
    fail_metric = "solve_fail_frac"

    def setup(self, seed: int, workdir: Path) -> SolveState:
        domain, targets = self.make_targets(seed, self.n, self.instances)
        return SolveState(domain, targets)

    def task(self, state: SolveState, k: int, section):
        target = state.targets[k % len(state.targets)]
        with section("solve_s"):
            return sdot.solve(state.domain, target)

    def check(self, state: SolveState, k: int, report):
        """Recheck the heights with an independent exact stats call.

        Returns the checks and the facts the metrics need.
        """
        target = state.targets[k % len(state.targets)]
        stats = sdot.exact_cell_stats_2d(
            sdot.BrenierPotential(target, report.heights), state.domain)
        checks = {"solve": bool(report.converged) and masses_match(stats, target)}
        return checks, {"iterations": report.iterations,
                        "final_residual": report.final_residual,
                        "facets": len(stats.facet_pairs)}

    def named_metrics(self, sections: list) -> dict:
        return {"solve_s": statistics.median(s["solve_s"] for s in sections)}

    def layer_metrics(self, groups: dict, facts: dict) -> dict:
        """Per-layer values from the spans of each timed solve."""
        rows = []
        for task, spans in groups.items():
            fact = facts.get(task)
            if fact is None:
                continue
            stats = [s for s in spans if s.name == "potential.cell_stats"]
            hess = [s for s in spans if s.name == "solver.hessian"]
            first_newton = hess[0].start if hess else float("inf")
            start_calls = sum(1 for s in stats if s.start < first_newton)
            solve_span = next(s for s in spans if s.name == "solver.solve")
            rows.append({
                "calls": len(stats),
                "stats_s": sum(s.duration for s in stats),
                "hess_s": sum(s.duration for s in hess),
                "self_s": solve_span.own,
                "start_calls": start_calls,
                "search_calls": len(stats) - start_calls,
                "iterations": fact["iterations"],
                "residual": fact["final_residual"],
            })
        if not rows:
            return {}

        def med(key):
            return float(statistics.median(r[key] for r in rows))

        calls = sum(r["calls"] for r in rows)
        search = sum(r["search_calls"] for r in rows)
        return {
            "potential.cell_stats.calls": med("calls"),
            "potential.cell_stats.s": med("stats_s"),
            "potential.cell_stats.ms_per_call":
                1e3 * sum(r["stats_s"] for r in rows) / max(calls, 1),
            "potential.facets": float(facts[min(facts)]["facets"]),
            "solver.iterations": med("iterations"),
            "solver.start_stats_calls": med("start_calls"),
            "solver.accepted_step_ratio":
                sum(r["iterations"] for r in rows) / max(search, 1),
            "solver.self_s": med("self_s"),
            "solver.hessian.s": med("hess_s"),
            "solver.final_residual": med("residual"),
        }


# ---------------------------------------------------------------------------
# post-solve analysis workload
# ---------------------------------------------------------------------------

RECT = [[-4.0, 4.0], [-2.0, 2.0]]
PROBE = ((-3.9, 0.05), (3.9, -0.05))


def dumbbell_points(rng, count: int, bell_radius: float = 1.0,
                    bar_width: float = 0.3, separation: float = 5.0) -> np.ndarray:
    """Uniform points on two disks at (+-separation/2, 0) joined by a bar."""
    half = separation / 2.0
    lo = np.array([-half - bell_radius, -bell_radius])
    hi = np.array([half + bell_radius, bell_radius])
    chunks, got = [], 0
    while got < count:
        cand = rng.uniform(lo, hi, size=(2 * count, 2))
        keep = ((np.hypot(cand[:, 0] + half, cand[:, 1]) <= bell_radius)
                | (np.hypot(cand[:, 0] - half, cand[:, 1]) <= bell_radius)
                | ((np.abs(cand[:, 1]) <= bar_width / 2.0)
                   & (np.abs(cand[:, 0]) <= half)))
        chunks.append(cand[keep])
        got += int(keep.sum())
    return np.concatenate(chunks)[:count]


def jittered_grid(rng, nx: int, ny: int, bounds) -> np.ndarray:
    """One uniform point in each cell of an nx-by-ny grid over ``bounds``.

    A stratified sample of the uniform source: the LP oracle's cost then
    tracks the exact cost far more closely than with i.i.d. samples.
    """
    (x0, x1), (y0, y1) = bounds
    ix, iy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    cells = np.column_stack([ix.ravel(), iy.ravel()]) + rng.uniform(size=(nx * ny, 2))
    return np.array([x0, y0]) + cells * np.array([(x1 - x0) / nx, (y1 - y0) / ny])


@dataclass
class AnalyseState:
    domain: object
    target: object
    potential: object
    config_path: Path
    batch: np.ndarray
    lp_source: np.ndarray
    setup_ok: bool


@dataclass
class AnalyseWorkload:
    """Read-side passes over one solved dumbbell diagram.

    Set-up solves the dumbbell once through ``sdot solve``; each timed task
    runs every post-solve pass on the fixed heights.
    """

    name: str
    n: int = 110
    map_samples: int = 10**6
    generate_count: int = 20000
    lp_grid: tuple = (24, 12)

    fail_metric = "check_fail_frac"
    required_spans = (
        "potential.cell_stats", "potential.legendre_dual", "potential.assign_cell",
        "singularity.theta", "singularity.detect", "singularity.chains",
        "singularity.probe", "solver.transport_cost", "render.build_scene",
        "render.scene_to_svg", "kantorovich.solve_lp", "geometry.sample_source",
        "cli.generate", "config.load", "config.build_domain", "config.build_target",
    )

    def setup(self, seed: int, workdir: Path) -> AnalyseState:
        rng = np.random.default_rng([seed, 0x5503])
        points = dumbbell_points(rng, self.n)
        target = sdot.validate_target(points)
        domain = sdot.box_domain(RECT, seed=seed)

        workdir.mkdir(parents=True, exist_ok=True)
        (workdir / "target.csv").write_text("".join(
            f"{float(x)!r},{float(y)!r}\n" for x, y in points))
        config_path = workdir / "config.json"
        config_path.write_text(json.dumps({
            "domain": {"kind": "box", "bounds": RECT},
            "target": {"file": "target.csv"},
            "solver": {"mode": "exact-2d"},
            "seed": seed,
            "output_dir": str(workdir / "out"),
        }))
        with contextlib.redirect_stdout(io.StringIO()):
            code = sdot.cli.main(["solve", str(config_path)])
        heights_file = workdir / "out" / "heights.json"
        heights = np.asarray(json.loads(heights_file.read_text())["heights"])
        potential = sdot.BrenierPotential(target, heights)

        batch = sdot.sample_source(domain, self.map_samples,
                                   rng=np.random.default_rng([seed, 0x5504]))
        lp_source = jittered_grid(np.random.default_rng([seed, 0x5505]),
                                  *self.lp_grid, RECT)
        return AnalyseState(domain, target, potential, config_path, batch,
                            lp_source, code == 0)

    def task(self, state: AnalyseState, k: int, section) -> dict:
        pot, dom, target = state.potential, state.domain, state.target
        out = {}
        with section("analyse_s"):
            stats = sdot.exact_cell_stats_2d(pot, dom)
            out["stats"] = stats
            out["dual"] = sdot.legendre_dual(pot, domain=dom, stats=stats)
            theta = sdot.singularity.default_theta(stats, target)
            graph = sdot.singularity.detect_singular_facets(stats, target, theta)
            out["graph"] = graph
            out["chains"] = sdot.singularity.singular_chains(graph)
            out["cost"] = sdot.transport_cost(pot, dom)
            out["crossings"] = sdot.singularity.probe_segment(pot, dom, graph, *PROBE)
            scene = sdot.render.build_scene(dom.clip_polygon().vertices, stats,
                                            target.points, graph=graph)
            out["svg"] = sdot.render.scene_to_svg(scene)
        with section("map_s"):
            out["cells"] = pot.assign_cell(state.batch)
        with section("generate_s"), contextlib.redirect_stdout(io.StringIO()):
            out["generate_code"] = sdot.cli.main(
                ["generate", str(state.config_path), "--count", str(self.generate_count)])
        m = len(state.lp_source)
        with section("oracle_s"):
            _, out["lp_cost"] = sdot.kantorovich.solve_lp(
                state.lp_source, np.full(m, 1.0 / m), target)
        return out

    def check(self, state: AnalyseState, k: int, out: dict):
        """Check every pass output; returns the checks and the facts the
        metrics need."""
        stats = out["stats"]
        w = stats.cell_measures

        # chi-square statistic of the sampled counts against the exact masses,
        # standardized: one test, so the false-alarm rate does not grow with n
        expected = len(state.batch) * w
        counts = np.bincount(out["cells"], minlength=len(w))
        live = expected > 0
        chi2 = float(np.sum((counts[live] - expected[live]) ** 2 / expected[live]))
        dof = max(int(live.sum()) - 1, 1)
        sampling_ok = (counts[~live].sum() == 0
                       and (chi2 - dof) / np.sqrt(2.0 * dof) <= SAMPLING_SIGMAS)

        rel_gap = abs(out["lp_cost"] - out["cost"]) / out["cost"]
        generated = state.config_path.parent / "out" / "generated.csv"
        with open(generated) as fh:
            rows = sum(1 for _ in fh) - 1
        checks = {
            "setup_solve": state.setup_ok,
            "mass": masses_match(stats, state.target),
            "duality": out["dual"].edge_set() == stats.adjacency_set(),
            "sampling": bool(sampling_ok),
            "lp_gap": rel_gap <= LP_GAP_BOUND,
            "chains": len(out["chains"]) >= 2,
            "probe": len(out["crossings"]) > 0,
            "render": out["svg"].startswith("<svg") and out["svg"].endswith("</svg>\n"),
            "generate": out["generate_code"] == 0 and rows == self.generate_count,
        }
        return checks, {"rel_gap": rel_gap,
                        "facets": len(stats.facet_pairs),
                        "singular_facets": len(out["graph"].facets),
                        "vertices": len(out["graph"].vertices)}

    def named_metrics(self, sections: list) -> dict:
        def med(key):
            return statistics.median(s[key] for s in sections)

        return {
            "analyse_s": med("analyse_s"),
            "map_samples_per_s": self.map_samples / med("map_s"),
            "generate_s": med("generate_s"),
            "oracle_s": med("oracle_s"),
        }

    def layer_metrics(self, groups: dict, facts: dict) -> dict:
        """Per-layer values from the spans of each timed pass."""
        rows = []
        for task, spans in groups.items():
            if task not in facts:
                continue

            def dur(*span_names):
                return sum(s.duration for s in spans if s.name in span_names)

            stats = [s for s in spans if s.name == "potential.cell_stats"]
            generate = [s for s in spans if s.name == "cli.generate"]
            rows.append({
                "potential.cell_stats.calls": len(stats),
                "potential.cell_stats.s": dur("potential.cell_stats"),
                "potential.legendre_dual.s": dur("potential.legendre_dual"),
                "potential.assign_cell.s": dur("potential.assign_cell"),
                "solver.transport_cost.s": dur("solver.transport_cost"),
                "singularity.detect.s": dur("singularity.theta", "singularity.detect"),
                "singularity.chains.s": dur("singularity.chains"),
                "singularity.probe.s": dur("singularity.probe"),
                "render.svg.s": dur("render.build_scene", "render.scene_to_svg"),
                "kantorovich.solve_lp.s": dur("kantorovich.solve_lp"),
                "geometry.sample_source.s": dur("geometry.sample_source"),
                "config.load.s": dur("config.load", "config.build_domain",
                                     "config.build_target"),
                "cli.generate.self_s": sum(s.own for s in generate),
            })
        if not rows:
            return {}
        m = {key: float(statistics.median(r[key] for r in rows)) for key in rows[0]}
        calls = sum(r["potential.cell_stats.calls"] for r in rows)
        m["potential.cell_stats.ms_per_call"] = (
            1e3 * sum(r["potential.cell_stats.s"] for r in rows) / max(calls, 1))
        first = facts[min(facts)]
        m["potential.facets"] = float(first["facets"])
        m["singularity.singular_facets"] = float(first["singular_facets"])
        m["singularity.vertices"] = float(first["vertices"])
        m["kantorovich.rel_gap"] = float(statistics.median(
            f["rel_gap"] for f in facts.values()))
        return m


WORKLOADS = {
    "solve-uniform": SolveWorkload("solve-uniform", uniform_targets, n=60),
    "solve-clusters": SolveWorkload("solve-clusters", cluster_targets, n=40),
    "analyse-dumbbell": AnalyseWorkload("analyse-dumbbell"),
}
