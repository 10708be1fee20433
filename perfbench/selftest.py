"""Self-test of the benchmark at tiny sizes; takes well under a minute.

    python3 perfbench/selftest.py

Checks that every workload emits exactly the metrics BENCHMARK.json lists,
with their units, in both the untraced and the traced mode; that every
per-layer metric a workload computes is non-zero; and that the output
checks fire on deliberately perturbed heights. Exits non-zero on failure.
"""
from __future__ import annotations

import json
import shutil
import sys

import run

run.prepare()

import numpy as np  # noqa: E402  (after prepare() caps the threads)

import sdot  # noqa: E402
import workloads as wl  # noqa: E402

TINY = [
    wl.SolveWorkload("solve-uniform", wl.uniform_targets, n=10, instances=2),
    wl.SolveWorkload("solve-clusters", wl.cluster_targets, n=10, instances=2),
    wl.AnalyseWorkload("analyse-dumbbell", n=60, map_samples=20000,
                       generate_count=50, lp_grid=(12, 6)),
]
SEED = 5


def listed(section: str) -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def check_emitted(errors: list) -> None:
    if set(wl.WORKLOADS) != {w.name for w in TINY}:
        errors.append("tiny variants do not cover every workload")
    for section, units in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        if listed(section) != units:
            errors.append(f"BENCHMARK.json {section} differs from run.py")
    for workload in TINY:
        for trace in (False, True):
            _, metrics, result = run.measure(workload, SEED, 0.0, trace)
            units = run.PER_LAYER if trace else run.END_TO_END
            where = f"{workload.name} trace={int(trace)}"
            if set(metrics) != set(units):
                errors.append(f"{where}: emitted {sorted(metrics)}")
            if not all(np.isfinite(v) for v in metrics.values()):
                errors.append(f"{where}: non-finite metric")
            if result["failed"]:
                errors.append(f"{where}: failed checks {result['failures']}")
            if not trace and min(metrics.values()) <= 0:
                errors.append(f"{where}: an end-to-end metric is not positive")
        tracer = run.Tracer()
        with tracer.installed():
            result = run.run_workload(workload, SEED, 0.0, tracer)
        computed = workload.layer_metrics(tracer.task_spans(), result["facts"])
        zero = sorted(k for k, v in computed.items() if v == 0)
        if zero:
            errors.append(f"{workload.name}: computed per-layer metrics read 0: {zero}")


def check_perturbation(errors: list) -> None:
    """The recheck must fail once the solved heights are disturbed."""
    solve = TINY[0]
    state = solve.setup(SEED, run.WORK)
    report = solve.task(state, 0, run.Sections())
    checks, _ = solve.check(state, 0, report)
    if not all(checks.values()):
        errors.append("unperturbed solve failed its check")
    report.heights = report.heights + 0.05 * np.arange(len(report.heights))
    checks, _ = solve.check(state, 0, report)
    if all(checks.values()):
        errors.append("solve check passed on perturbed heights")

    analyse = TINY[2]
    workdir = run.WORK / "selftest"
    try:
        state = analyse.setup(SEED, workdir)
        h = state.potential.heights
        state.potential = sdot.BrenierPotential(state.target, h + 0.05 * np.arange(len(h)))
        checks, _ = analyse.check(state, 0, analyse.task(state, 0, run.Sections()))
        if checks["mass"]:
            errors.append("analysis mass check passed on perturbed heights")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    errors: list = []
    check_emitted(errors)
    check_perturbation(errors)
    for e in errors:
        print(f"FAIL {e}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
