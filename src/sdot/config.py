"""Experiment configuration: JSON schema, domain/target construction.

A config file fully determines an experiment: the source domain, the
target measure (built-in generator or CSV file), solver parameters, the
singularity threshold, and render options. Identical configs and seeds
must reproduce identical artifacts byte for byte.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import (
    ball_domain,
    box_domain,
    load_target_csv,
    polygon_domain,
    validate_target,
)
from .solver import SolverConfig


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


@dataclass
class RenderOptions:
    size: int = 640
    palette: str = "auto"
    show_singular_edges: bool = True
    show_targets: bool = True


@dataclass
class ExperimentConfig:
    domain_spec: dict
    target_spec: dict
    solver: SolverConfig
    seed: int = 0
    theta: float | None = None
    render: RenderOptions = field(default_factory=RenderOptions)
    output_dir: str = "out"
    mass_tolerance: float = 1e-6
    base_dir: Path = field(default_factory=Path)


# typed fields of the "solver" and "render" sections, read by _field
_SOLVER_FIELDS = {"tolerance": float, "max_iterations": int, "damping": float,
                  "min_step": float, "mc_samples": int}
_RENDER_FIELDS = {"size": int, "palette": str, "show_singular_edges": bool,
                  "show_targets": bool}


def _require(spec: dict, key: str, where: str):
    if key not in spec:
        raise ConfigError(f"{where}: missing required field {key!r}")
    return spec[key]


def _object(value, where: str) -> dict:
    """A config section, which must be a JSON object."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected object, got {value!r}")
    return value


def _as(value, kind, where: str):
    """``value`` read as ``kind``: an int, float, bool or str takes only that JSON type
    (an integer is also a float, true and false never a number); other kinds convert."""
    json_type = {int: int, float: (int, float), bool: bool, str: str}.get(kind)
    try:
        if json_type is None or (isinstance(value, json_type)
                                 and isinstance(value, bool) == (kind is bool)):
            return kind(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{where}: expected {kind.__name__.lstrip('_')}, got {value!r}")


def _numbers(value) -> np.ndarray:
    """A JSON number or nested list of numbers (never true, false or a string) as a float array."""
    if isinstance(value, list):
        for item in value:
            _numbers(item)
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"not a number: {value!r}")
    return np.asarray(value, dtype=float)


def _positive(value, where: str, kind=float):
    v = _as(value, kind, where)
    if v <= 0:
        raise ConfigError(f"{where}: must be positive, got {v}")
    return v


def _field(spec: dict, where: str, defaults, kind):
    """Field ``where`` of ``spec`` (the key is its last dotted part) as ``kind``.

    An absent key takes the default of the dataclass ``defaults``, and null
    is accepted only where that default is None.
    """
    key = where.rsplit(".", 1)[-1]
    default = getattr(defaults, key)
    value = spec.get(key, default)
    return None if value is None and default is None else _as(value, kind, where)


def load_config(path) -> ExperimentConfig:
    """Parse and validate an experiment config file (JSON)."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")

    domain_spec = _object(_require(raw, "domain", str(path)), "domain")
    target_spec = _object(_require(raw, "target", str(path)), "target")
    if "generator" in target_spec and "file" in target_spec:
        raise ConfigError("target: give a generator or a file, not both")
    if "generator" not in target_spec and "file" not in target_spec:
        raise ConfigError("target: needs a 'generator' or a 'file'")
    if "file" in target_spec:
        target_path = path.parent / target_spec["file"]
        if not target_path.exists():
            raise ConfigError(f"target.file: no such file {target_path}")

    seed = _field(raw, "seed", ExperimentConfig, int)
    solver_spec = _object(raw.get("solver", {}), "solver")
    solver_fields = {key: _field(solver_spec, f"solver.{key}", SolverConfig, kind)
                     for key, kind in _SOLVER_FIELDS.items()}
    try:
        solver = SolverConfig(mode=solver_spec.get("mode", SolverConfig.mode),
                              seed=seed, **solver_fields)
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from None

    theta = raw.get("theta")
    if theta is not None:
        theta = _positive(theta, "theta")

    render_spec = _object(raw.get("render", {}), "render")
    render = RenderOptions(**{key: _field(render_spec, f"render.{key}", RenderOptions, kind)
                              for key, kind in _RENDER_FIELDS.items()})
    if render.size <= 0:
        raise ConfigError("render.size: must be positive")

    output_dir = os.environ.get("SDOT_OUTPUT_DIR",
                                raw.get("output_dir", ExperimentConfig.output_dir))

    return ExperimentConfig(
        domain_spec=domain_spec,
        target_spec=target_spec,
        solver=solver,
        seed=seed,
        theta=theta,
        render=render,
        output_dir=str(output_dir),
        mass_tolerance=_field(raw, "mass_tolerance", ExperimentConfig, float),
        base_dir=path.parent,
    )


def build_domain(config: ExperimentConfig):
    spec = config.domain_spec
    kind = _require(spec, "kind", "domain")
    if kind == "box":
        bounds = _as(_require(spec, "bounds", "domain"), _numbers, "domain.bounds")
        try:
            return box_domain(bounds, seed=config.seed)
        except ValueError as exc:
            raise ConfigError(f"domain.bounds: {exc}") from None
    if kind in ("disk", "ball"):
        center = _as(_require(spec, "center", "domain"), _numbers, "domain.center")
        radius = _positive(_require(spec, "radius", "domain"), "domain.radius")
        return ball_domain(center, radius, seed=config.seed)
    if kind == "polygon":
        verts = _as(_require(spec, "vertices", "domain"), _numbers, "domain.vertices")
        try:
            return polygon_domain(verts, seed=config.seed)
        except ValueError as exc:
            raise ConfigError(f"domain.vertices: {exc}") from None
    raise ConfigError(f"domain.kind: unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# built-in target generators
# ---------------------------------------------------------------------------


def grid_target(k: int, extent: float = 1.0):
    """k x k lattice on [-extent, extent]^2 with uniform weights."""
    if k < 1:
        raise ConfigError("target.k: must be >= 1")
    if k == 1:
        pts = np.zeros((1, 2))
    else:
        axis = np.linspace(-extent, extent, k)
        pts = np.array([(x, y) for y in axis for x in axis])
    return validate_target(pts, np.full(k * k, 1.0 / (k * k))), None


def cluster_targets(centers, per_cluster: int, radius: float, rng):
    """Uniform points in disks around each center; labels by cluster."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    pts = []
    labels = []
    for ci, c in enumerate(centers):
        got = 0
        while got < per_cluster:
            cand = rng.uniform(-radius, radius, size=(2 * per_cluster, 2))
            cand = cand[np.linalg.norm(cand, axis=1) <= radius]
            take = cand[:per_cluster - got]
            pts.append(c + take)
            got += len(take)
        labels.extend([ci] * per_cluster)
    pts = np.concatenate(pts)
    n = len(pts)
    return validate_target(pts, np.full(n, 1.0 / n)), np.asarray(labels)


def dumbbell_target(bell_radius: float, bar_width: float, separation: float,
                    count: int, rng):
    """Uniform points over two disks joined by a bar; labels 0/1/2.

    The bells sit at (-separation/2, 0) and (separation/2, 0); the bar is
    the axis-aligned rectangle between the bell centers.
    """
    half = separation / 2.0
    lo = np.array([-half - bell_radius, -bell_radius])
    hi = np.array([half + bell_radius, bell_radius])

    def membership(p):
        in_a = np.linalg.norm(p - np.array([-half, 0.0]), axis=1) <= bell_radius
        in_b = np.linalg.norm(p - np.array([half, 0.0]), axis=1) <= bell_radius
        in_bar = (np.abs(p[:, 1]) <= bar_width / 2.0) & (np.abs(p[:, 0]) <= half)
        return in_a, in_b, in_bar

    pts = []
    labels = []
    got = 0
    while got < count:
        cand = rng.uniform(lo, hi, size=(2 * count, 2))
        in_a, in_b, in_bar = membership(cand)
        keep = in_a | in_b | in_bar
        cand = cand[keep]
        lab = np.where(in_a[keep], 0, np.where(in_bar[keep] & ~in_b[keep], 1, 2))
        take = min(len(cand), count - got)
        pts.append(cand[:take])
        labels.append(lab[:take])
        got += take
    pts = np.concatenate(pts)
    labels = np.concatenate(labels)
    return validate_target(pts, np.full(count, 1.0 / count)), labels


def build_target(config: ExperimentConfig, dimension: int):
    """Construct the target measure and optional cluster labels."""
    spec = config.target_spec
    if "file" in spec:
        path = config.base_dir / spec["file"]
        return load_target_csv(path, dimension, config.mass_tolerance), None

    gen = spec["generator"]
    seed = _as(spec.get("seed", config.seed), int, "target.seed")
    rng = np.random.default_rng([seed, 0x7a96])
    if gen == "grid":
        return grid_target(_as(_require(spec, "k", "target"), int, "target.k"),
                           _as(spec.get("extent", 1.0), float, "target.extent"))
    if gen == "clusters":
        return cluster_targets(
            _as(_require(spec, "centers", "target"), _numbers, "target.centers"),
            _positive(_require(spec, "per_cluster", "target"), "target.per_cluster", int),
            _positive(_require(spec, "radius", "target"), "target.radius"),
            rng,
        )
    if gen == "dumbbell":
        return dumbbell_target(
            _positive(_require(spec, "bell_radius", "target"), "target.bell_radius"),
            _positive(_require(spec, "bar_width", "target"), "target.bar_width"),
            _positive(_require(spec, "separation", "target"), "target.separation"),
            _positive(_require(spec, "count", "target"), "target.count", int),
            rng,
        )
    raise ConfigError(f"target.generator: unknown generator {gen!r}")
