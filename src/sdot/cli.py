"""Command-line interface: solve | generate | probe | render | compare-oracle.

Errors go to stderr with exit code 1 (2 when the solver ran out of
iterations); results go to files in the config's output directory. The
``SDOT_OUTPUT_DIR`` environment variable overrides the output directory
and ``--seed`` overrides the config seed.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, build_domain, build_target, load_config
from .geometry import GeometryError, sample_source, validate_target
from .kantorovich import solve_lp
from .potential import BrenierPotential, PowerCellStats, exact_cell_stats_2d
from .render import build_scene, scene_to_svg
from .singularity import default_theta, detect_singular_facets, probe_segment
from .solver import SolverError, solve, transport_cost


# Rows of generated.csv formatted per write. As Python floats and strings a
# row takes about 300 bytes, so one block holds about 20 MB whatever --count.
_GENERATE_BLOCK = 65536


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _load_artifact(path: Path, parse):
    """Parse one artifact written by `solve`; a missing or corrupt one is an input error."""
    hint = "run `sdot solve` on this config first"
    if not path.exists():
        raise FileNotFoundError(f"missing artifact {path}; {hint}")
    try:
        return parse(json.loads(path.read_text()))
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"corrupt artifact {path} ({type(exc).__name__}: {exc}); "
                          f"{hint}") from None


def _parse_target(data):
    points = np.asarray(data["points"], dtype=float)
    labels = None if data["labels"] is None else np.asarray(data["labels"], dtype=np.int64)
    if labels is not None and labels.shape != points.shape[:1]:
        raise ValueError(f"{labels.size} labels for {len(points)} points")
    return points, np.asarray(data["weights"], dtype=float), labels


def _parse_stats(data, n: int) -> PowerCellStats:
    """Exact stats that describe n targets: n cells, facet ids below n, a mass and segment each."""
    stats = PowerCellStats.from_json_dict(data)
    pairs = stats.facet_pairs
    if ({stats.n, len(stats.cells)} != {n} or np.any((pairs < 0) | (pairs >= n))
            or {len(stats.facet_measures), len(stats.facet_segments)} != {len(pairs)}):
        raise ValueError(f"not the stats of {n} targets: {stats.n} cell masses, "
                         f"{len(stats.cells)} cells, {len(pairs)} facet pairs with ids "
                         f"{pairs.min(initial=0)}..{pairs.max(initial=0)}")
    return stats


def _prepare(config_path, seed_override=None):
    config = load_config(config_path)
    if seed_override is not None:
        config.seed = int(seed_override)
        config.solver.seed = int(seed_override)
    domain = build_domain(config)
    target, labels = build_target(config, domain.dimension)
    outdir = Path(config.output_dir)
    return config, domain, target, labels, outdir


def _load_solved(config, outdir: Path, needs_stats: bool = True):
    """Re-ingest the artifacts written by `solve`."""
    if needs_stats and config.solver.mode != "exact-2d":
        raise ConfigError("render and probe need exact-2d statistics; "
                          f"solver.mode is {config.solver.mode!r}")
    heights = _load_artifact(outdir / "heights.json",
                             lambda d: np.asarray(d["heights"], dtype=float))
    points, weights, labels = _load_artifact(outdir / "target.json", _parse_target)
    stats = (_load_artifact(outdir / "stats.json", lambda d: _parse_stats(d, len(points)))
             if needs_stats else None)
    target = validate_target(points, weights, mass_tolerance=1e-9)
    return BrenierPotential(target, heights), stats, labels


def cmd_solve(args) -> int:
    config, domain, target, labels, outdir = _prepare(args.config, args.seed)
    outdir.mkdir(parents=True, exist_ok=True)
    report = solve(domain, target, config.solver)
    potential = BrenierPotential(target, report.heights)

    _write_json(outdir / "report.json", report.to_json_dict())
    _write_json(outdir / "heights.json", {"heights": report.heights.tolist()})
    _write_json(outdir / "target.json", {
        "points": target.points.tolist(),
        "weights": target.weights.tolist(),
        "labels": None if labels is None else [int(l) for l in labels],
    })
    if config.solver.mode == "exact-2d":
        stats = exact_cell_stats_2d(potential, domain)
        _write_json(outdir / "stats.json", stats.to_json_dict())
    if not report.converged:
        reason = "step underflow" if report.step_underflow else "max iterations"
        print(f"did not converge ({reason}): residual {report.final_residual:.3e} "
              f"after {report.iterations} iterations", file=sys.stderr)
        return 2
    print(f"converged in {report.iterations} iterations, "
          f"residual {report.final_residual:.3e}")
    return 0


def cmd_generate(args) -> int:
    config, domain, _, _, outdir = _prepare(args.config, args.seed)
    potential, _, _ = _load_solved(config, outdir, needs_stats=False)
    count = int(args.count)
    if count < 1:
        raise ConfigError("--count must be >= 1")
    rng = np.random.default_rng([config.seed, 0x6e9])
    samples = sample_source(domain, count, rng=rng)
    idx = potential.assign_cell(samples)

    out = outdir / "generated.csv"
    d = domain.dimension
    header = ",".join([f"x{k}" for k in range(d)] + ["target_index"]
                      + [f"y{k}" for k in range(d)])
    # every row ends in its target's "i,y0,..." text, formatted once per target
    suffix = [",".join([str(i), *map(repr, y)]) + "\n"
              for i, y in enumerate(potential.target.points.tolist())]
    row = "%r," * d + "%s"
    with open(out, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, count, _GENERATE_BLOCK):
            block = slice(start, start + _GENERATE_BLOCK)
            fh.write("".join([row % (*x, suffix[i]) for x, i in
                              zip(samples[block].tolist(), idx[block].tolist())]))
    print(f"wrote {count} rows to {out}")
    return 0


def _parse_point(text: str, dimension: int) -> np.ndarray:
    try:
        point = np.asarray([float(tok) for tok in text.split(",")], dtype=float)
    except ValueError:
        raise ConfigError(f"expected comma-separated coordinates, got {text!r}") from None
    if len(point) != dimension:
        raise ConfigError(f"expected {dimension} coordinates, got {text!r}")
    return point


def cmd_probe(args) -> int:
    config, domain, _, _, outdir = _prepare(args.config, args.seed)
    if args.steps < 2:
        raise ConfigError("--steps must be >= 2")
    p = _parse_point(args.p, domain.dimension)
    q = _parse_point(args.q, domain.dimension)
    potential, stats, _ = _load_solved(config, outdir)
    theta = config.theta or default_theta(stats, potential.target)
    graph = detect_singular_facets(stats, potential.target, theta)
    crossings = probe_segment(potential, domain, graph, p, q, steps=args.steps)

    out = outdir / "probe.csv"
    with open(out, "w") as fh:
        fh.write("t,from_cell,to_cell,jump,is_singular\n")
        for c in crossings:
            fh.write(f"{float(c.t)!r},{c.from_cell},{c.to_cell},{float(c.jump)!r},"
                     f"{int(c.is_singular)}\n")
    singular = sum(1 for c in crossings if c.is_singular)
    print(f"{len(crossings)} crossings ({singular} singular), wrote {out}")
    return 0


def cmd_render(args) -> int:
    config, domain, _, _, outdir = _prepare(args.config, args.seed)
    potential, stats, labels = _load_solved(config, outdir)
    theta = config.theta or default_theta(stats, potential.target)
    graph = detect_singular_facets(stats, potential.target, theta)

    probe = crossings = None
    if args.probe:
        ends = args.probe.split(":")
        if len(ends) != 2:
            raise ConfigError('--probe expects "x1,y1:x2,y2"')
        p, q = (_parse_point(end, domain.dimension) for end in ends)
        probe = np.stack([p, q])
        crossings = probe_segment(potential, domain, graph, p, q)

    scene = build_scene(
        domain.clip_polygon().vertices, stats, potential.target.points,
        labels=labels if config.render.palette == "auto" else None,
        graph=graph if config.render.show_singular_edges else None,
        probe=probe, crossings=crossings,
        show_targets=config.render.show_targets,
    )
    out = outdir / "diagram.svg"
    out.write_text(scene_to_svg(scene, size=config.render.size))
    print(f"wrote {out}")
    return 0


def cmd_compare_oracle(args) -> int:
    config, domain, _, _, outdir = _prepare(args.config, args.seed)
    try:
        ladder = [int(tok) for tok in args.samples.split(",")]
    except ValueError:
        raise ConfigError(f"--samples expects comma-separated integers, "
                          f"got {args.samples!r}") from None
    if min(ladder) < 1:
        raise ConfigError("--samples entries must be >= 1")
    n_seeds = args.seeds
    if n_seeds < 1:
        raise ConfigError("--seeds must be >= 1")
    potential, _, _ = _load_solved(config, outdir, needs_stats=False)
    if domain.dimension == 2:
        sd_cost = transport_cost(potential, domain)
    else:
        sd_cost = transport_cost(potential, domain, samples=10**6,
                                 rng=np.random.default_rng([config.seed, 0xc057]))

    runs = []
    for m in ladder:
        for seed in range(n_seeds):
            rng = np.random.default_rng([config.seed, seed, m])
            src = sample_source(domain, m, rng=rng)
            _, lp_cost = solve_lp(src, np.full(m, 1.0 / m), potential.target)
            runs.append({
                "m": m, "seed": seed, "lp_cost": lp_cost,
                "rel_gap": abs(lp_cost - sd_cost) / sd_cost,
            })
    medians = {
        str(m): float(np.median([r["rel_gap"] for r in runs if r["m"] == m]))
        for m in ladder
    }
    report = {
        "ladder": ladder,
        "seeds": n_seeds,
        "semi_discrete_cost": sd_cost,
        "runs": runs,
        "median_gaps": medians,
    }
    out = outdir / "oracle_report.json"
    _write_json(out, report)
    print(f"wrote {out}; median gaps: "
          + ", ".join(f"m={m}: {medians[str(m)]:.4f}" for m in ladder))
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 1 like other input errors; 2 means no convergence."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="sdot",
        description="Semi-discrete optimal transport solver and diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve for the transport heights")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("generate", help="sample the source and map through the solved potential")
    p.add_argument("config")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("probe", help="walk a segment and report cell crossings")
    p.add_argument("config")
    p.add_argument("--from", dest="p", required=True, metavar="X,Y")
    p.add_argument("--to", dest="q", required=True, metavar="X,Y")
    p.add_argument("--steps", type=int, default=10000)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_probe)

    p = sub.add_parser("render", help="render the solved diagram to SVG")
    p.add_argument("config")
    p.add_argument("--probe", default=None, metavar="X1,Y1:X2,Y2")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("compare-oracle", help="compare against the Kantorovich LP oracle")
    p.add_argument("config")
    p.add_argument("--samples", default="50,200,800", help="comma-separated ladder of m")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_compare_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, GeometryError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
