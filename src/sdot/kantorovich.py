"""Discrete-discrete Kantorovich solver used as an independent oracle.

Solves the transport linear program between two weighted point clouds
exactly (HiGHS dual simplex), returning the optimal plan, its cost, and
dual potentials. It is the ground truth that the semi-discrete solver is
checked against, and it reads only the two clouds and the cost.

An optimal vertex uses at most m + n - 1 of the m n columns, so the LP is
solved on a small support and grown by pricing (Schmitzer's sparse
multiscale scheme, J. Math. Imaging Vis. 2016):

- the seed support is the few heaviest entries of every row and column of
  a rough entropic (Sinkhorn) plan, joined with the north-west-corner
  staircase, which makes the restricted LP feasible;
- the restricted LP's duals give the reduced cost c_ij - phi_i - psi_j of
  every column of the full cost matrix, and the columns with a negative
  reduced cost join the support before the next solve: all of them, or
  the m + n most negative when more price out, so a poor seed cannot pull
  most of the full LP into one restricted solve.

The loop stops only when no column prices out, so the restricted optimum
is dual feasible for the full LP and hence optimal: the seed decides the
speed, never the result. Each round adds a column, so at worst the loop
ends at the full LP.

HiGHS (``scipy.optimize``) is imported on the first ``solve_lp`` call, not
with the package: only the oracle needs it, and it costs every other
process about 11 MB and 0.14 s at start-up. ``linprog`` stays a module
attribute, loaded on first access.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .geometry import DiscreteTargetMeasure, GeometryError, MassMismatchError

_FEAS_TOL = 1e-9
# pricing: a column whose reduced cost is below -_PRICE_TOL (1 + |c|) enters
_PRICE_TOL = 1e-12
# seed support: Sinkhorn sweeps at temperature _SEED_EPS x the cost span
_SEED_SWEEPS = 100
_SEED_EPS = 5e-3
_SEED_KEEP = 4
# HiGHS's default 1e-7 feasibility tolerances are absolute, which lets a
# plan entry reach -9e-8 when weights are near 1e-6 (m = 800 sources with
# weights spread over [1e-4, 1]); 1e-10 is the tightest HiGHS accepts
_HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
                  "dual_feasibility_tolerance": 1e-10}


def __getattr__(name):
    if name != "linprog":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.optimize import linprog
    globals()["linprog"] = linprog
    return linprog


class SizeLimitExceededError(GeometryError):
    """Cost matrix would exceed the oracle's size cap."""


@dataclass(eq=False)
class DualPotentials:
    """Feasible dual pair: phi on the source, psi on the target support."""

    phi: np.ndarray
    psi: np.ndarray

    def objective(self, source_weights, target_weights) -> float:
        return float(self.phi @ source_weights + self.psi @ target_weights)

    def max_violation(self, cost: np.ndarray) -> float:
        return float((self.phi[:, None] + self.psi[None, :] - cost).max())


@dataclass(eq=False)
class TransportPlan:
    """Nonnegative coupling with stored marginals."""

    matrix: np.ndarray          # (m, n)
    row_marginals: np.ndarray   # (m,)
    col_marginals: np.ndarray   # (n,)
    dual: DualPotentials | None = None


@dataclass(frozen=True)
class PlanFeasibility:
    feasible: bool
    max_row_violation: float
    max_col_violation: float
    min_entry: float


def cost_matrix(source_points, target_points, exponent: int = 2) -> np.ndarray:
    """Pairwise cost: half squared distance (exponent 2) or distance (1)."""
    X = np.atleast_2d(np.asarray(source_points, dtype=float))
    Y = np.atleast_2d(np.asarray(target_points, dtype=float))
    d2 = np.sum((X[:, None, :] - Y[None, :, :]) ** 2, axis=2)
    if exponent == 2:
        return 0.5 * d2
    if exponent == 1:
        return np.sqrt(d2)
    raise ValueError("cost_exponent must be 1 or 2")


def c_transform(phi, cost: np.ndarray) -> np.ndarray:
    """Tightest dual partner of phi: psi_b = min_a (c_ab - phi_a)."""
    phi = np.asarray(phi, dtype=float)
    return np.min(cost - phi[:, None], axis=0)


def solve_lp(source_points, source_weights, target: DiscreteTargetMeasure,
             cost_exponent: int = 2, size_limit: int = 10**6):
    """Exact optimal transport plan between empirical source and target.

    Returns ``(plan, cost)``; the plan carries dual potentials repaired by
    a c-transform so dual feasibility holds exactly.
    """
    X = np.atleast_2d(np.asarray(source_points, dtype=float))
    a = np.asarray(source_weights, dtype=float).reshape(-1)
    if len(a) != len(X):
        raise GeometryError("source weights and points disagree in length")
    if np.any(a <= 0) or not np.all(np.isfinite(a)):
        raise GeometryError("source weights must be positive and finite")
    b = target.weights
    m, n = len(X), target.n
    if m * n > size_limit:
        raise SizeLimitExceededError(f"{m} x {n} exceeds the size cap {size_limit}")
    if abs(a.sum() - b.sum()) > _FEAS_TOL * (1.0 + b.sum()):
        raise MassMismatchError(
            f"source mass {a.sum():.12g} != target mass {b.sum():.12g}")

    cost = cost_matrix(X, target.points, cost_exponent)
    b_eq = np.concatenate([a, b])
    rows, cols = _seed_support(cost, a, b)
    linprog = sys.modules[__name__].linprog  # loads HiGHS once; sees a patched linprog
    while True:
        k = len(rows)
        A_eq = sparse.csc_matrix(
            (np.ones(2 * k), (np.concatenate([rows, m + cols]), np.tile(np.arange(k), 2))),
            shape=(m + n, k))
        res = linprog(cost[rows, cols], A_eq=A_eq, b_eq=b_eq, bounds=(0, None),
                      method="highs-ds", options=_HIGHS_OPTIONS)
        if not res.success:
            raise RuntimeError(f"transport LP failed: {res.message}")
        y = res.eqlin.marginals
        reduced = cost - y[:m, None] - y[None, m:]
        reduced[rows, cols] = 0.0
        new_rows, new_cols = np.nonzero(reduced < -_PRICE_TOL * (1.0 + np.abs(cost)))
        if not len(new_rows):
            break
        if len(new_rows) > m + n:
            best = np.sort(np.argpartition(reduced[new_rows, new_cols], m + n - 1)[:m + n])
            new_rows, new_cols = new_rows[best], new_cols[best]
        rows, cols = np.concatenate([rows, new_rows]), np.concatenate([cols, new_cols])

    matrix = np.zeros((m, n))
    matrix[rows, cols] = res.x
    phi = y[:m]
    psi = c_transform(phi, cost)
    plan = TransportPlan(matrix, matrix.sum(axis=1), matrix.sum(axis=0),
                         dual=DualPotentials(phi, psi))
    return plan, float(res.fun)


def _north_west_corner(a, b):
    """Support of the north-west-corner plan: a staircase of m + n - 1 cells.

    Merging the cumulative masses of a and b, each row break moves the
    staircase down and each column break moves it right, so every row and
    every column is visited and the restricted LP is feasible.
    """
    m = len(a)
    breaks = np.concatenate([np.cumsum(a)[:-1], np.cumsum(b)[:-1]])
    down = np.argsort(breaks, kind="stable") < m - 1
    return (np.concatenate([[0], np.cumsum(down)]),
            np.concatenate([[0], np.cumsum(~down)]))


def _seed_support(cost, a, b):
    """Starting columns: the heaviest entries of a rough entropic plan.

    ``_SEED_SWEEPS`` kernel-form Sinkhorn sweeps on the row-shifted cost,
    at a temperature of ``_SEED_EPS`` times the cost span, give a plan
    whose ``_SEED_KEEP`` largest entries in every row and every column are
    kept, joined with the north-west-corner staircase.
    """
    # shifted / scale <= 1 / _SEED_EPS, so no kernel entry underflows to 0
    shifted = cost - cost.min(axis=1, keepdims=True)
    K = np.exp(-shifted / max(_SEED_EPS * float(np.ptp(cost)), 1e-300))
    v = np.ones(len(b))
    for _ in range(_SEED_SWEEPS):
        u = a / (K @ v)
        v = b / (K.T @ u)
    plan = u[:, None] * K * v[None, :]
    m, n = plan.shape
    keep_r, keep_c = min(_SEED_KEEP, n), min(_SEED_KEEP, m)
    row_best = np.argpartition(plan, n - keep_r, axis=1)[:, n - keep_r:]
    col_best = np.argpartition(plan, m - keep_c, axis=0)[m - keep_c:, :]
    nw_rows, nw_cols = _north_west_corner(a, b)
    flat = np.unique(np.concatenate([
        (np.arange(m)[:, None] * n + row_best).ravel(),
        (col_best * n + np.arange(n)[None, :]).ravel(),
        nw_rows * n + nw_cols]))
    return flat // n, flat % n


def verify_plan(plan: TransportPlan, cost: np.ndarray):
    """Recompute the plan's cost and marginal feasibility."""
    matrix = plan.matrix
    rows = matrix.sum(axis=1)
    cols = matrix.sum(axis=0)
    max_row = float(np.abs(rows - plan.row_marginals).max())
    max_col = float(np.abs(cols - plan.col_marginals).max())
    min_entry = float(matrix.min())
    feasible = max_row <= _FEAS_TOL and max_col <= _FEAS_TOL and min_entry >= -_FEAS_TOL
    value = float(np.sum(matrix * cost))
    return value, PlanFeasibility(feasible, max_row, max_col, min_entry)


def write_plan_csv(plan: TransportPlan, path) -> None:
    """Sparse CSV export: one row per positive plan entry."""
    with open(path, "w") as fh:
        fh.write("source_index,target_index,mass\n")
        for i, j in zip(*np.nonzero(plan.matrix > 0)):
            fh.write(f"{int(i)},{int(j)},{repr(float(plan.matrix[i, j]))}\n")


def write_cost_csv(cost: np.ndarray, path) -> None:
    """Dense CSV export of a cost matrix, one source row per line."""
    with open(path, "w") as fh:
        for row in cost:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
