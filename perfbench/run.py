"""Benchmark for sdot: time to solution and post-solve analysis.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``. With
``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
from spans recorded around sdot's public entry points. ``--workload all``
runs every workload in one process and prints each one's metrics. A JSON
result with the environment record is also written to ``.perfbench/``.
Workloads, metrics and their relations are described in README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from spans import Tracer, span_cost_s

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# One process with single-threaded BLAS keeps the load on the shared
# machine small and steady.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
THREADS = "1"

# Set-up is repeated and its median reported, so a slow set-up shows
# without one noisy repetition deciding the value.
SETUP_REPEATS = 3
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "start = time.perf_counter(); import sdot, sdot.cli; "
                "print(time.perf_counter() - start)")

# Task time is reported in units of a fixed reference computation timed
# right after each section of a task: the shared machine's speed drifts by
# up to ~2x over minutes, and the ratio cancels that drift (see README.md).
REF_EVERY_S = 0.5

END_TO_END = {"task_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "potential.cell_stats.calls": "count",
    "potential.cell_stats.s": "s",
    "potential.cell_stats.ms_per_call": "ms",
    "potential.facets": "count",
    "potential.legendre_dual.s": "s",
    "potential.assign_cell.s": "s",
    "solver.iterations": "count",
    "solver.start_stats_calls": "count",
    "solver.accepted_step_ratio": "ratio",
    "solver.self_s": "s",
    "solver.hessian.s": "s",
    "solver.transport_cost.s": "s",
    "solver.final_residual": "mass",
    "singularity.detect.s": "s",
    "singularity.chains.s": "s",
    "singularity.probe.s": "s",
    "singularity.singular_facets": "count",
    "singularity.vertices": "count",
    "render.svg.s": "s",
    "kantorovich.solve_lp.s": "s",
    "kantorovich.rel_gap": "ratio",
    "geometry.sample_source.s": "s",
    "config.load.s": "s",
    "cli.generate.self_s": "s",
    "trace.task_s": "s",
    "trace.overhead_frac": "ratio",
}
# Metrics named in the workload descriptions, printed for reading only.
NAMED_UNITS = {
    "solve_s": "s", "solve_fail_frac": "ratio", "analyse_s": "s",
    "map_samples_per_s": "1/s", "generate_s": "s", "oracle_s": "s",
    "check_fail_frac": "ratio", "setup_s": "s", "peak_rss_mb": "MB",
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def prepare() -> None:
    """Cap threads and import sdot from ``src/``."""
    if not (SRC / "sdot" / "__init__.py").is_file():
        raise BenchmarkError(f"no sdot sources under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    # keep every file the CLI writes inside the checkout
    os.environ.pop("SDOT_OUTPUT_DIR", None)
    sys.path.insert(0, str(SRC))
    import sdot

    if not Path(sdot.__file__).resolve().is_relative_to(SRC):
        raise BenchmarkError(f"sdot imported from {sdot.__file__}, not {SRC}")


def fresh_import_s() -> float:
    """Seconds a new interpreter spends importing sdot and its CLI."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def git_commit() -> str | None:
    """Commit of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(load_at_start) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "commit": git_commit(),
        "loadavg_at_start": list(load_at_start),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


_SQUARE = ((-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0))


def reference_kernel(reps: int = 300) -> float:
    """Fixed benchmark-owned work with sdot's instruction mix: small numpy
    array operations driven from a Python loop (clipping a square by a
    rotating half-plane)."""
    import numpy as np  # imported late: prepare() caps BLAS threads first

    square = np.array(_SQUARE)
    acc = 0.0
    for k in range(reps):
        a = np.array([np.cos(0.1 * k), np.sin(0.1 * k)])
        s = square @ a - 0.5
        nxt, s_nxt = np.roll(square, -1, axis=0), np.roll(s, -1)
        cross = s * s_nxt < 0
        t = s[cross] / (s[cross] - s_nxt[cross])
        cut = square[cross] + t[:, None] * (nxt[cross] - square[cross])
        acc += float(np.abs(np.concatenate([square[s <= 0], cut])).sum())
    return acc


def reference_s(task_seconds: float) -> float:
    """Median time of the reference kernel, run about once per REF_EVERY_S
    of the preceding section's time."""
    samples = []
    for _ in range(max(1, round(task_seconds / REF_EVERY_S))):
        start = time.perf_counter()
        reference_kernel()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class Sections:
    """Times the named sections of one task; after each section, outside
    its time, measures the reference kernel."""

    def __init__(self):
        self.times: dict = {}
        self.refs: dict = {}

    @contextlib.contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.times[name] = time.perf_counter() - start
            self.refs[name] = reference_s(self.times[name])

    def seconds(self) -> float:
        return sum(self.times.values())

    def cost(self) -> float:
        """Task time in reference units, each section against its own
        reference measurement."""
        return sum(t / self.refs[name] for name, t in self.times.items())


def run_workload(workload, seed: int, seconds: float, tracer=None) -> dict:
    """Set up, run timed tasks for ``seconds`` of task time, check each.

    Each set-up repetition is a fresh-interpreter import of sdot plus the
    workload's own set-up. Returns task and set-up times, per-check counts
    and the per-task facts that the metrics are computed from.
    """
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        setup_s = []
        for _ in range(SETUP_REPEATS):
            import_s = fresh_import_s()
            start = time.perf_counter()
            state = workload.setup(seed, workdir)
            setup_s.append(import_s + time.perf_counter() - start)

        task_s, costs, sections, facts, failures = [], [], [], {}, {}
        attempted = failed = 0
        while not task_s or sum(task_s) < seconds:
            k = len(task_s)
            section = Sections()
            if tracer is not None:
                tracer.task = k
            start = time.perf_counter()
            try:
                out = workload.task(state, k, section)
            except Exception:
                out = None
                traceback.print_exc(file=sys.stderr)
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.task = None
            if out is not None:
                task_s.append(section.seconds())
                costs.append(section.cost())
                sections.append(section.times)
            else:
                task_s.append(wall)

            if out is None:
                checks = {"task": False}
            else:
                try:
                    checks, facts[k] = workload.check(state, k, out)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    checks = {"check": False}
            del out
            attempted += len(checks)
            for name, ok in checks.items():
                if not ok:
                    failed += 1
                    failures[name] = failures.get(name, 0) + 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not costs:
        raise BenchmarkError(f"{workload.name}: every task raised")
    return {"setup_s": setup_s, "task_s": task_s, "costs": costs,
            "sections": sections, "facts": facts,
            "attempted": attempted, "failed": failed, "failures": failures}


def end_to_end_metrics(run: dict) -> dict:
    return {
        "task_ref": statistics.mean(run["costs"]),
        "setup_s": statistics.median(run["setup_s"]),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer_metrics(workload, run: dict, tracer) -> dict:
    """Per-layer metrics from a traced run; 0 for layers the workload
    does not reach.

    Raises BenchmarkError when an entry point the workload must reach
    recorded no calls, so a renamed entry point cannot read as 0.
    """
    missing = [name for name in workload.required_spans if tracer.calls(name) == 0]
    if missing:
        raise BenchmarkError(f"{workload.name}: no calls recorded for {missing}")
    groups = tracer.task_spans()
    computed = workload.layer_metrics(groups, run["facts"])
    unknown = set(computed) - set(PER_LAYER)
    if unknown:
        raise BenchmarkError(f"unlisted per-layer metrics {sorted(unknown)}")
    metrics = {name: float(computed.get(name, 0.0)) for name in PER_LAYER}
    task_s = statistics.median(run["task_s"])
    spans_per_task = statistics.median(len(spans) for spans in groups.values())
    metrics["trace.task_s"] = task_s
    metrics["trace.overhead_frac"] = spans_per_task * span_cost_s() / task_s
    return metrics


def named_metrics(workload, run: dict) -> dict:
    named = workload.named_metrics(run["sections"])
    named[workload.fail_metric] = run["failed"] / run["attempted"]
    named["setup_s"] = statistics.median(run["setup_s"])
    named["peak_rss_mb"] = peak_rss_mb()
    return named


def measure(workload, seed: int, seconds: float, trace: bool):
    """Run one workload; return (named metrics, contract metrics, run)."""
    if not trace:
        run = run_workload(workload, seed, seconds)
        return named_metrics(workload, run), end_to_end_metrics(run), run
    tracer = Tracer()
    with tracer.installed():
        run = run_workload(workload, seed, seconds, tracer)
    WORK.mkdir(exist_ok=True)
    tracer.write(WORK / f"{workload.name}-seed{seed}.spans.jsonl")
    return {}, per_layer_metrics(workload, run, tracer), run


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_at_start = os.getloadavg()
    try:
        prepare()
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    units = PER_LAYER if trace else END_TO_END
    env = environment(load_at_start)

    results = {}
    try:
        for name in names:
            named, metrics, run = measure(WORKLOADS[name], args.seed, args.seconds, trace)
            results[name] = (named, metrics, run)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    print("env " + json.dumps(env, sort_keys=True))
    for name, (named, metrics, run) in results.items():
        for key, value in named.items():
            print(f"{name:18s} {key:20s} {value:12.6g} {NAMED_UNITS[key]}")
        if run["failures"]:
            print(f"{name:18s} failed checks: {run['failures']}")

    attempted = sum(r[2]["attempted"] for r in results.values())
    failed = sum(r[2]["failed"] for r in results.values())
    if len(names) == 1:
        metrics = results[names[0]][1]
        out = {key: {"value": value, "unit": units[key]} for key, value in metrics.items()}
    else:
        out = {f"{name}.{key}": {"value": value, "unit": units[key]}
               for name, (_, metrics, _) in results.items()
               for key, value in metrics.items()}
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": out}

    WORK.mkdir(exist_ok=True)
    record = dict(line, env=env, seed=args.seed, seconds=args.seconds, trace=trace,
                  named={name: r[0] for name, r in results.items()},
                  task_s={name: r[2]["task_s"] for name, r in results.items()},
                  task_ref={name: r[2]["costs"] for name, r in results.items()},
                  setup_repeats_s={name: r[2]["setup_s"] for name, r in results.items()})
    result_file = WORK / f"{args.workload}-seed{args.seed}-trace{int(trace)}.json"
    result_file.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
