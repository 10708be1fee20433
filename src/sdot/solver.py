"""Damped Newton solver for the semi-discrete transport heights.

The height vector h is the minimizer of the convex energy

    E(h) = integral of max_i(<x, y_i> + h_i) dmu(x)  -  sum_i h_i nu_i,

computed exactly in 2D from the first moments of the power cell polygons.
Its gradient is ``w(h) - nu`` (cell masses minus target weights) and its
Hessian couples adjacent cells through their shared facet mass over the
distance between their targets. Minimizing E while keeping every cell mass
positive (the admissible set) drives each cell mass to its target weight.
A solve starts from scaled-Voronoi heights, which are admissible by
construction, or from the caller's heights when those are admissible.
Exact 2D mode uses Newton steps on the facet-mass Hessian with a damped
line search; Monte Carlo mode falls back to safeguarded gradient descent on
frozen samples.

In exact mode every trial height vector first gets its regular
triangulation, the lower hull of the lifted targets (one qhull call). A
target off that hull has an empty cell everywhere in the plane
(Aurenhammer 1987), so the trial is rejected there and no cell is built;
otherwise the diagram is built from the same triangulation.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    DimensionUnsupportedError,
    DiscreteTargetMeasure,
    GeometryError,
    polygon_moments,
    sample_source,
)
from .potential import (
    BrenierPotential,
    PowerCellStats,
    _collinear_direction,
    _lower_hull_edges,
    _row_dots,
    exact_cell_stats_2d,
    mc_cell_stats_from_samples,
)

EXACT_TOLERANCE = 1e-6
MC_TOLERANCE = 5e-3


class SolverError(RuntimeError):
    """Base class for solver failures."""


class PathLeavesAdmissibleSetError(SolverError):
    """An energy endpoint has an empty cell."""


class FacetMeasuresUnavailableError(SolverError):
    """Hessian requested from Monte Carlo statistics."""


class InitialPointOutsideHError(SolverError):
    """Neither the given heights nor scaled-Voronoi heights fill every cell."""


class SingularHessianError(SolverError):
    """Singular gauge-fixed Hessian; impossible when every cell has mass."""


@dataclass
class SolverConfig:
    """Solve parameters; tolerance defaults depend on the mode."""

    mode: str = "exact-2d"  # or "monte-carlo"
    tolerance: float | None = None
    max_iterations: int = 1000
    damping: float = 0.5
    min_step: float = 1e-12
    mc_samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("exact-2d", "monte-carlo"):
            raise ValueError(f"unknown solver mode {self.mode!r}")
        if not 0.0 < self.damping < 1.0:
            raise ValueError("damping factor must lie in (0, 1)")
        if self.tolerance is not None and self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if not self.min_step > 0.0:  # lam halves to 0.0, so min_step <= 0 never stops
            raise ValueError("min_step must be positive")
        if self.max_iterations < 0:  # 0 reports the start
            raise ValueError("max_iterations must be >= 0")
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")

    @property
    def resolved_tolerance(self) -> float:
        if self.tolerance is not None:
            return self.tolerance
        return EXACT_TOLERANCE if self.mode == "exact-2d" else MC_TOLERANCE


@dataclass
class SolveReport:
    """Outcome of a solve: final heights plus convergence diagnostics."""

    heights: np.ndarray
    iterations: int
    residual_history: list = field(default_factory=list)
    energy_history: list = field(default_factory=list)
    converged: bool = False
    hit_max_iterations: bool = False
    step_underflow: bool = False
    mode: str = "exact-2d"

    @property
    def final_residual(self) -> float:
        return self.residual_history[-1]

    def to_json_dict(self) -> dict:
        return {
            "heights": self.heights.tolist(),
            "iterations": self.iterations,
            "residual_history": [float(r) for r in self.residual_history],
            "energy_history": [float(e) for e in self.energy_history],
            "converged": self.converged,
            "hit_max_iterations": self.hit_max_iterations,
            "step_underflow": self.step_underflow,
            "final_residual": float(self.final_residual),
            "mode": self.mode,
        }


def gradient(potential: BrenierPotential, stats: PowerCellStats) -> np.ndarray:
    """Energy gradient: cell masses minus target weights."""
    return stats.cell_measures - potential.target.weights


def hessian(stats: PowerCellStats, target: DiscreteTargetMeasure) -> np.ndarray:
    """Energy Hessian from exact facet masses.

    Off-diagonal (i, j) is minus the shared facet mass over the distance
    between the two targets; diagonals make rows sum to zero. The matrix is
    diagonally dominant PSD with the all-ones null direction.
    """
    if not stats.has_facet_measures:
        raise FacetMeasuresUnavailableError(
            "facet masses are only available in exact 2D mode")
    n = stats.n
    H = np.zeros((n, n))
    i, j = stats.facet_pairs.T
    diff = target.points[i] - target.points[j]
    v = stats.facet_measures / np.sqrt(_row_dots(diff, diff))
    H[i, j] -= v
    H[j, i] -= v
    # diagonals accumulate facet by facet, i before j, as a per-facet loop would
    ends = stats.facet_pairs.ravel()
    np.add.at(H, (ends, ends), np.repeat(v, 2))
    return H


def _stats_fn_for(domain, target, config: SolverConfig):
    """Per-mode evaluator h -> PowerCellStats, or None for an empty cell.

    The stats carry F(h), the mean of the envelope u_h over the source:
    exact from the power cells in 2D, the mean over the frozen samples
    in Monte Carlo mode. In 2D the evaluator first computes the regular
    triangulation of (target, h). When a target is not a vertex of it, its
    cell is empty and the evaluator returns None without building the
    diagram; otherwise the triangulation is passed on, so each evaluation
    makes one qhull call. The targets are tested for collinearity once.
    """
    if config.mode == "exact-2d":
        line = _collinear_direction(target.points) if target.n > 1 else None

        def stats_fn(h):
            potential = BrenierPotential(target, h)
            triangulation = _lower_hull_edges(target.points, potential.heights, line)
            if len(triangulation[1]) < target.n:
                return None
            return exact_cell_stats_2d(potential, domain, triangulation=triangulation)
    else:
        rng = np.random.default_rng([config.seed, 0x5d07])
        frozen = sample_source(domain, config.mc_samples, rng=rng)

        def stats_fn(h):
            return mc_cell_stats_from_samples(BrenierPotential(target, h), frozen,
                                              adjacency_neighbors=0)
    return stats_fn


def _has_empty_cell(stats) -> bool:
    """Whether an evaluation (stats, or None from the hull test) has an empty cell."""
    return stats is None or bool(np.any(stats.cell_measures <= 0.0))


def _voronoi_heights(domain, target) -> np.ndarray:
    """Heights whose diagram provably gives every cell positive mass.

    With (beta, r) the domain's interior ball and alpha = 0.9 r / max|y_i -
    beta|, the sites z_i = beta + alpha (y_i - beta) lie inside that ball.
    The heights h_i = -(alpha/2)|y_i - beta|^2 - <beta, y_i - beta> equal
    -|z_i|^2 / (2 alpha) up to a common constant, and turn the power
    diagram into the ordinary Voronoi diagram of the z_i. Every Voronoi
    cell surrounds its own site, so every cell has mass in the domain.
    """
    beta, r_in = domain.interior_ball()
    shifted = target.points - beta
    reach = float(np.linalg.norm(shifted, axis=1).max())
    alpha = 0.9 * r_in / max(reach, 1e-12)
    return -0.5 * alpha * np.sum(shifted * shifted, axis=1) - shifted @ beta


def _admissible_start(h, domain, target, stats_fn):
    """Heights h if every cell has mass there, else scaled-Voronoi heights.

    ``h=None`` goes straight to the Voronoi heights. Returns the heights
    with their stats, or raises :class:`InitialPointOutsideHError`.
    """
    if h is not None:
        h = np.array(h, dtype=float)
        stats = stats_fn(h)
        if not _has_empty_cell(stats):
            return h, stats
    h = _voronoi_heights(domain, target)
    stats = stats_fn(h)
    if _has_empty_cell(stats):
        raise InitialPointOutsideHError(
            "scaled-Voronoi heights leave an empty cell")
    return h, stats


def energy(potential: BrenierPotential, domain, h_base=None) -> float:
    """Convex energy F(h) - F(h_base) - <h, nu> at the potential's heights.

    F(h) is the integral of the envelope u_h = max_i(<x, y_i> + h_i)
    against the uniform source, computed exactly as
    sum_i (<y_i, first moment of cell i> + h_i area_i) / domain area from
    the power cell polygons. Its gradient is the cell masses, so the
    energy's gradient is ``w(h) - nu``. The default ``h_base`` is zero
    heights, or scaled-Voronoi heights if zero heights leave an empty cell.
    Both endpoints must have every cell mass positive (the admissible set
    is convex, so the segment between them then stays inside it);
    otherwise :class:`PathLeavesAdmissibleSetError` is raised.
    """
    target = potential.target
    stats_fn = _stats_fn_for(domain, target, SolverConfig())
    if h_base is None:
        h_base, base_stats = _admissible_start(np.zeros(potential.n), domain,
                                               target, stats_fn)
    else:
        h_base = np.asarray(h_base, dtype=float)
        base_stats = stats_fn(h_base)
    h = potential.heights
    stats = stats_fn(h)
    for name, s in (("h_base", base_stats), ("h", stats)):
        if _has_empty_cell(s):
            raise PathLeavesAdmissibleSetError(f"a cell mass vanishes at {name}")
    return (stats.envelope_mean - base_stats.envelope_mean
            - float(h @ target.weights))


def _newton_direction(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Solve H d = -g on the gauge-fixed subspace (last height pinned).

    With every cell mass positive the facet graph is connected and the
    reduced matrix nonsingular (Kitagawa-Merigot-Thibert); a singular one
    raises :class:`SingularHessianError`.
    """
    n = len(g)
    try:
        dr = np.linalg.solve(H[:n - 1, :n - 1], -g[:n - 1])
    except np.linalg.LinAlgError as exc:
        raise SingularHessianError("reduced Hessian is singular") from exc
    return np.concatenate([dr, [0.0]])


def solve(domain, target: DiscreteTargetMeasure, config: SolverConfig | None = None,
          h_init=None) -> SolveReport:
    """Find heights equalizing every cell mass with its target weight.

    Exact 2D mode performs damped Newton steps on the facet-mass Hessian;
    Monte Carlo mode descends along the negative gradient. Either way the
    step is halved until all cells keep positive mass and the max-norm
    residual decreases. In exact mode a trial whose heights hide a target
    (the target is off the lower hull of the lifted targets) is rejected
    from that one qhull call, before any cell is built. The start is
    ``h_init`` when every cell has mass there, else scaled-Voronoi heights.
    The reported heights are gauge-normalized so the smallest is zero.
    """
    config = config or SolverConfig()
    if config.mode == "exact-2d" and domain.dimension != 2:
        raise DimensionUnsupportedError("exact-2d mode requires a 2D domain")
    tol = config.resolved_tolerance
    stats_fn = _stats_fn_for(domain, target, config)
    h, stats = _admissible_start(h_init, domain, target, stats_fn)
    h0, f0 = h, stats.envelope_mean

    nu = target.weights
    g = stats.cell_measures - nu
    residual = float(np.abs(g).max())
    report = SolveReport(heights=h, iterations=0, residual_history=[residual],
                         energy_history=[0.0], mode=config.mode)

    while residual > tol and report.iterations < config.max_iterations:
        if config.mode == "exact-2d":
            direction = _newton_direction(hessian(stats, target), g)
        else:
            direction = -g

        lam = 1.0
        while lam >= config.min_step:
            h_try = h + lam * direction
            stats_try = stats_fn(h_try)
            if not _has_empty_cell(stats_try):
                g_try = stats_try.cell_measures - nu
                res_try = float(np.abs(g_try).max())
                if res_try < residual:
                    break
            lam *= config.damping
        else:
            report.step_underflow = True
            break

        h, stats, g, residual = h_try, stats_try, g_try, res_try
        report.residual_history.append(residual)
        report.energy_history.append(
            stats.envelope_mean - f0 - float(nu @ (h - h0)))
        report.iterations += 1

    report.converged = residual <= tol
    report.hit_max_iterations = not (report.converged or report.step_underflow)
    report.heights = h - h.min()
    return report


def transport_cost(potential: BrenierPotential, domain, samples: int | None = None,
                   rng=None) -> float:
    """Quadratic transport cost of the potential's map.

    Without ``samples`` the cost is integrated exactly over the 2D cell
    polygons (uniform density) via polygon second moments; with ``samples``
    it is the Monte Carlo mean of half the squared displacement.
    """
    if samples is None:
        stats = exact_cell_stats_2d(potential, domain)
        a, sx, sy, ixx, iyy = polygon_moments(stats.cells).T
        y = potential.target.points
        total = 0.5 * (ixx + iyy - 2.0 * (y[:, 0] * sx + y[:, 1] * sy)
                       + _row_dots(y, y) * a)
        return float(total.sum()) / stats.domain_area
    draws = sample_source(domain, samples, rng=rng)
    disp = draws - potential.transport_map(draws)
    return 0.5 * float(np.mean(np.sum(disp * disp, axis=1)))

