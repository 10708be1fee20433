"""Piecewise-linear Brenier potential and its power-diagram cell statistics.

The potential is the upper envelope of one supporting plane per target
point, ``u(x) = max_i(<x, y_i> + h_i)``. Its gradient is the transport map
(constant equal to ``y_i`` on cell ``i``), and the induced decomposition of
the source domain is a power diagram. Cell masses and facet masses are
computed exactly in 2D by half-plane clipping, and by Monte Carlo counting
in any dimension. The Legendre dual of the potential is built from the 3D
lower convex hull of the lifted points ``(y_i, -h_i)``; its projection is
the weighted Delaunay (regular) triangulation.

The exact 2D statistics use that triangulation too: each cell is clipped
only against its triangulation neighbours, nearest first, and facets are
sought only among neighbour pairs. When there is no 3D hull (n <= 3,
collinear targets, coplanar lifted points), and for any target qhull leaves
off the lower hull, a cell is clipped against every other target instead.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

from .geometry import (
    DimensionUnsupportedError,
    DiscreteTargetMeasure,
    GeometryError,
    _area,
    _clip_vertices,
    sample_source,
)

# Chunk size for vectorized plane evaluation over large sample batches.
_ASSIGN_CHUNK = 16384

# Relative threshold below which a shared facet is treated as empty.
ADJACENCY_TOL = 1e-9


class DegenerateHullError(GeometryError):
    """Dual construction impossible: all target points coincide.

    Merely collinear targets do not raise; they fall back to 1D sorted
    adjacency.
    """


@dataclass(frozen=True, eq=False)
class BrenierPotential:
    """Height vector over a discrete target measure.

    Heights are defined up to a common additive constant; ``normalized``
    returns the canonical representative with ``min(h) == 0``.
    """

    target: DiscreteTargetMeasure
    heights: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.heights, dtype=float).reshape(-1)
        if len(h) != self.target.n:
            raise GeometryError("height vector length must match target size")
        if not np.all(np.isfinite(h)):
            raise GeometryError("heights must be finite")
        object.__setattr__(self, "heights", h)

    @property
    def n(self) -> int:
        return self.target.n

    def normalized(self) -> "BrenierPotential":
        return BrenierPotential(self.target, self.heights - self.heights.min())

    def plane_values(self, x) -> np.ndarray:
        """Values of every supporting plane at x; shape (n,) or (N, n)."""
        pts = np.asarray(x, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        vals = pts @ self.target.points.T + self.heights
        return vals[0] if single else vals

    def evaluate(self, x):
        """Upper envelope u(x) = max_i(<x, y_i> + h_i)."""
        pts = np.asarray(x, dtype=float)
        if pts.ndim == 1:
            return float(self.plane_values(pts).max())
        out = np.empty(len(pts))
        for start in range(0, len(pts), _ASSIGN_CHUNK):
            block = pts[start:start + _ASSIGN_CHUNK]
            out[start:start + _ASSIGN_CHUNK] = self.plane_values(block).max(axis=1)
        return out

    def assign_cell(self, x):
        """Index of the supporting plane attaining the envelope at x.

        Ties break to the lowest index, so boundary points are assigned
        deterministically.
        """
        pts = np.asarray(x, dtype=float)
        if pts.ndim == 1:
            return int(np.argmax(self.plane_values(pts)))
        out = np.empty(len(pts), dtype=np.int64)
        for start in range(0, len(pts), _ASSIGN_CHUNK):
            block = pts[start:start + _ASSIGN_CHUNK]
            out[start:start + _ASSIGN_CHUNK] = np.argmax(self.plane_values(block), axis=1)
        return out

    def transport_map(self, x):
        """Optimal map T(x) = y_{assign_cell(x)}."""
        idx = self.assign_cell(x)
        return self.target.points[idx]


@dataclass(eq=False)
class PowerCellStats:
    """Per-cell masses and pairwise facet masses of a power diagram.

    ``facet_measures`` and the cell polygons are only available in exact 2D
    mode; Monte Carlo estimates carry cell masses and an advisory adjacency
    list only.
    """

    cell_measures: np.ndarray            # (n,)
    facet_pairs: np.ndarray              # (E, 2) int, i < j
    facet_measures: np.ndarray | None    # (E,)
    facet_segments: np.ndarray | None    # (E, 2, 2) facet endpoints (2D exact)
    cells: list | None                   # per-cell CCW vertex arrays (2D exact)
    domain_area: float | None
    has_facet_measures: bool
    sample_count: int | None = None

    @property
    def n(self) -> int:
        return len(self.cell_measures)

    def adjacency_set(self) -> set:
        return {(int(i), int(j)) for i, j in self.facet_pairs}

    def neighbors(self, i: int) -> list:
        out = []
        for a, b in self.facet_pairs:
            if a == i:
                out.append(int(b))
            elif b == i:
                out.append(int(a))
        return sorted(out)

    def facet_measure(self, i: int, j: int) -> float:
        if not self.has_facet_measures:
            return 0.0
        i, j = (int(i), int(j)) if i < j else (int(j), int(i))
        for k, (a, b) in enumerate(self.facet_pairs):
            if a == i and b == j:
                return float(self.facet_measures[k])
        return 0.0

    def to_json_dict(self) -> dict:
        return {
            "cell_measures": self.cell_measures.tolist(),
            "facet_pairs": [[int(i), int(j)] for i, j in self.facet_pairs],
            "facet_measures": None if self.facet_measures is None else self.facet_measures.tolist(),
            "facet_segments": None if self.facet_segments is None else self.facet_segments.tolist(),
            "cells": None if self.cells is None else [c.tolist() for c in self.cells],
            "domain_area": self.domain_area,
            "has_facet_measures": self.has_facet_measures,
            "sample_count": self.sample_count,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PowerCellStats":
        return cls(
            cell_measures=np.asarray(data["cell_measures"], dtype=float),
            facet_pairs=np.asarray(data["facet_pairs"], dtype=np.int64).reshape(-1, 2),
            facet_measures=None if data["facet_measures"] is None
            else np.asarray(data["facet_measures"], dtype=float),
            facet_segments=None if data["facet_segments"] is None
            else np.asarray(data["facet_segments"], dtype=float).reshape(-1, 2, 2),
            cells=None if data["cells"] is None
            else [np.asarray(c, dtype=float).reshape(-1, 2) for c in data["cells"]],
            domain_area=data["domain_area"],
            has_facet_measures=bool(data["has_facet_measures"]),
            sample_count=data["sample_count"],
        )


@dataclass(eq=False)
class DualTriangulation:
    """Weighted Delaunay edges dual to the power diagram.

    ``zero_cell_indices`` lists targets whose lifted point is not on the
    lower hull; their cells carry no mass anywhere in the plane.
    """

    edges: np.ndarray                    # (E, 2) int, i < j
    facet_measures: np.ndarray | None    # dual facet masses when stats supplied
    zero_cell_indices: np.ndarray        # (k,) int
    hull_indices: np.ndarray             # (n - k,) int, targets on the lower hull

    def edge_set(self) -> set:
        return {(int(i), int(j)) for i, j in self.edges}


def _cell_vertices(base_verts: np.ndarray, points: np.ndarray, heights: np.ndarray,
                   i: int, order: np.ndarray) -> np.ndarray:
    """Clip the domain polygon down to power cell i.

    Cell i keeps the side <x, y_i - y_j> >= h_j - h_i of every bisector, so
    each clip removes the half-plane <x, y_j - y_i> > h_i - h_j. Only the
    targets in ``order`` are visited, in that order; a constraint that every
    current vertex already satisfies is skipped without clipping.
    """
    verts = base_verts
    yi, hi = points[i], heights[i]
    for j in order:
        a = points[j] - yi
        b = hi - heights[j]
        s = verts @ a - b
        if np.all(s <= 0.0):
            continue
        if np.all(s >= 0.0):
            return _EMPTY
        verts = _clip_vertices(verts, a, b)
        if len(verts) == 0:
            return _EMPTY
    return verts


_EMPTY = np.zeros((0, 2))


def exact_cell_stats_2d(potential: BrenierPotential, domain,
                        adjacency_tol: float = ADJACENCY_TOL) -> PowerCellStats:
    """Exact power-diagram statistics on a 2D domain.

    Cell masses are clipped polygon areas over the domain area; the facet
    mass of an adjacent pair is the shared edge length over the domain area
    (uniform density). Disks are replaced by their inscribed regular
    polygon, whose area is the normalizer.

    A power cell is bounded only by the bisectors of its neighbours in the
    regular triangulation: the edges of the lower hull of the lifted points
    (y_i, -h_i). One qhull pass gives each target its neighbours; its cell
    is clipped against those, nearest first, and facets are sought only
    among neighbour pairs. Every other target is the candidate list instead,
    nearest first, for a target that qhull leaves off the lower hull, and
    for all targets when there is no 3D hull (n <= 3, collinear targets or
    coplanar lifted points). Such a target, if its cell is not empty, is
    also paired with every other target in the facet search.
    """
    if domain.dimension != 2:
        raise DimensionUnsupportedError("exact cell statistics need a 2D domain")
    base = domain.clip_polygon()
    base_verts = base.vertices
    area_domain = _area(base_verts)
    points = potential.target.points
    heights = potential.heights
    n = potential.n

    diam = float(np.linalg.norm(base_verts.max(axis=0) - base_verts.min(axis=0)))
    len_tol = adjacency_tol * (1.0 + diam)

    cells = []
    w = np.zeros(n)
    if n == 1:
        cells.append(base_verts)
        w[0] = 1.0
        return PowerCellStats(w, np.zeros((0, 2), dtype=np.int64), np.zeros(0),
                              np.zeros((0, 2, 2)), cells, area_domain, True)

    triangles = _lower_facets(points, heights)
    on_hull = np.zeros(n, dtype=bool)
    if triangles is None:
        edges = np.zeros((0, 2), dtype=np.int64)
    else:
        edges = _triangle_edges(triangles)
        on_hull[triangles.ravel()] = True
    # neighbour lists: grouped by target, then by distance, then by index
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    gap2 = np.sum((points[src] - points[dst]) ** 2, axis=1)
    order = np.lexsort((dst, gap2, src))
    dst = dst[order]
    bounds = np.searchsorted(src[order], np.arange(n + 1))
    for i in range(n):
        if on_hull[i]:
            candidates = dst[bounds[i]:bounds[i + 1]]
        else:
            d2 = np.sum((points - points[i]) ** 2, axis=1)
            candidates = np.argsort(d2, kind="stable")
            candidates = candidates[candidates != i]
        verts = _cell_vertices(base_verts, points, heights, i, candidates)
        cells.append(verts)
        w[i] = _area(verts) / area_domain

    live_off = [k for k in np.flatnonzero(~on_hull) if len(cells[k])]
    if live_off:
        k = np.repeat(live_off, n)
        j = np.tile(np.arange(n), len(live_off))
        extra = np.sort(np.column_stack([k, j])[k != j], axis=1)
        edges = np.unique(np.vstack([edges, extra]), axis=0)
    gap2 = np.sum((points[edges[:, 0]] - points[edges[:, 1]]) ** 2, axis=1)

    pairs = []
    measures = []
    segments = []
    for (i, j), g2 in zip(edges, gap2):
        verts = cells[i]
        if len(verts) == 0 or len(cells[j]) == 0:
            continue
        u = points[i] - points[j]
        c = heights[j] - heights[i]
        norm_u = np.sqrt(g2)
        # signed distance of cell-i vertices to the bisector line
        dist = (verts @ u - c) / norm_u
        on_line = np.abs(dist) <= len_tol
        if np.count_nonzero(on_line) < 2:
            continue
        pts_on = verts[on_line]
        spread = pts_on @ np.array([-u[1], u[0]]) / norm_u
        length = float(spread.max() - spread.min())
        if length <= len_tol:
            continue
        lo, hi = np.argmin(spread), np.argmax(spread)
        pairs.append((i, j))
        measures.append(length / area_domain)
        segments.append((pts_on[lo], pts_on[hi]))

    facet_pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    facet_measures = np.asarray(measures, dtype=float)
    facet_segments = np.asarray(segments, dtype=float).reshape(-1, 2, 2)
    return PowerCellStats(w, facet_pairs, facet_measures, facet_segments,
                          cells, area_domain, True)


def mc_cell_stats(potential: BrenierPotential, domain, samples: int,
                  rng=None, adjacency_neighbors: int = 4,
                  adjacency_subsample: int = 20000) -> PowerCellStats:
    """Monte Carlo cell masses for any dimension.

    Adjacency is estimated from nearest-sample pairs that straddle a cell
    boundary and is advisory only; facet masses are unavailable in this
    mode.
    """
    if samples < 1:
        raise GeometryError("sample count must be >= 1")
    pts = sample_source(domain, samples, rng=rng)
    return mc_cell_stats_from_samples(potential, pts, adjacency_neighbors,
                                      adjacency_subsample)


def mc_cell_stats_from_samples(potential: BrenierPotential, pts: np.ndarray,
                               adjacency_neighbors: int = 4,
                               adjacency_subsample: int = 20000) -> PowerCellStats:
    """Cell masses from a fixed sample set (common random numbers)."""
    idx = potential.assign_cell(pts)
    counts = np.bincount(idx, minlength=potential.n)
    w = counts / len(pts)

    pairs = set()
    if adjacency_neighbors > 0 and len(pts) > 1:
        sub = pts[:adjacency_subsample]
        sub_idx = idx[:len(sub)]
        k = min(adjacency_neighbors + 1, len(sub))
        _, nbr = cKDTree(sub).query(sub, k=k)
        for col in range(1, k):
            a = sub_idx
            b = sub_idx[nbr[:, col]]
            for i, j in zip(a[a != b], b[a != b]):
                pairs.add((min(int(i), int(j)), max(int(i), int(j))))
    facet_pairs = np.asarray(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    return PowerCellStats(w, facet_pairs, None, None, None, None, False,
                          sample_count=len(pts))


def legendre_dual(potential: BrenierPotential, domain=None,
                  stats: PowerCellStats | None = None) -> DualTriangulation:
    """Weighted Delaunay triangulation from the lifted lower convex hull.

    Each target lifts to ``(y_i, -h_i)``; the lower hull of the lifted
    cloud is the graph of the Legendre transform, and its edges project to
    the weighted Delaunay edges. With a ``domain``, edges whose dual
    power-diagram facet misses the domain are dropped, restoring the exact
    duality with the clipped diagram: edge (i, j) present iff the clipped
    facet mass is positive. When exact ``stats`` are supplied, each edge is
    annotated with the mass of its dual facet.
    """
    if potential.target.dimension != 2:
        raise DimensionUnsupportedError("the dual construction is 2D only")
    points = potential.target.points
    heights = potential.heights
    n = potential.n

    if n == 1:
        edges = np.zeros((0, 2), dtype=np.int64)
        hull = np.array([0], dtype=np.int64)
    elif n == 2:
        edges = np.array([[0, 1]], dtype=np.int64)
        hull = np.array([0, 1], dtype=np.int64)
    else:
        edges, hull = _lower_hull_edges(points, heights)

    if domain is not None and len(edges):
        base = domain.clip_polygon().vertices
        diam = float(np.linalg.norm(base.max(axis=0) - base.min(axis=0)))
        tol = ADJACENCY_TOL * (1.0 + diam)
        keep = [k for k, (i, j) in enumerate(edges)
                if _facet_chord_length(points, heights, int(i), int(j), base) > tol]
        edges = edges[keep]

    zero = np.setdiff1d(np.arange(n, dtype=np.int64), hull)
    measures = None
    if stats is not None and stats.has_facet_measures:
        lookup = {(int(i), int(j)): float(m)
                  for (i, j), m in zip(stats.facet_pairs, stats.facet_measures)}
        measures = np.array([lookup.get((int(i), int(j)), 0.0) for i, j in edges])
    return DualTriangulation(edges, measures, zero, hull)


def _facet_chord_length(points, heights, i, j, domain_verts) -> float:
    """Length of the (i, j) power facet inside the domain polygon.

    The facet lives on the bisector line of planes i and j; every other
    plane's dominance constraint and every domain edge restricts the line
    parameter to an interval. Works directly on the line, independently of
    the polygon-clipping pipeline.
    """
    u = points[i] - points[j]
    c = heights[j] - heights[i]
    nrm2 = float(u @ u)
    p0 = (c / nrm2) * u
    direction = np.array([-u[1], u[0]]) / np.sqrt(nrm2)

    # each constraint reads t*s >= r on the line p0 + t*direction
    others = np.ones(len(points), dtype=bool)
    others[[i, j]] = False
    a = points[i] - points[others]
    r_pts = (heights[others] - heights[i]) - _row_dots(a, p0)
    # inward side of a CCW domain edge: cross(edge, x - v) >= 0,
    # i.e. <a, p0 + t*dir - v> >= 0  ->  t*s >= <a, v - p0>
    edge = np.roll(domain_verts, -1, axis=0) - domain_verts
    a_dom = np.column_stack([-edge[:, 1], edge[:, 0]])
    s = np.concatenate([_row_dots(a, direction), _row_dots(a_dom, direction)])
    r = np.concatenate([r_pts, _row_dots(a_dom, domain_verts - p0)])

    parallel = np.abs(s) <= 1e-15
    if np.any(r[parallel] > 0):
        return 0.0
    s, r = s[~parallel], r[~parallel]
    t = r / s
    lo = t[s > 0].max(initial=-np.inf)
    hi = t[s < 0].min(initial=np.inf)
    if lo >= hi or not np.isfinite(lo) or not np.isfinite(hi):
        return 0.0
    return float(hi - lo)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of (m, 2) ``a`` with ``b`` of shape (2,) or (m, 2).

    Stacked vector-vector matmul runs the same dot kernel as a 1-D
    ``a[k] @ b[k]``, so each row is bit-identical to that scalar product.
    """
    return (a[:, None, :] @ b[..., None])[:, 0, 0]


def _collinear_direction(points: np.ndarray):
    """Unit direction when all points are collinear, else None."""
    base = points[0]
    rel = points - base
    norms = np.linalg.norm(rel, axis=1)
    k = int(np.argmax(norms))
    if norms[k] <= 1e-12:
        raise DegenerateHullError("all target points coincide")
    u = rel[k] / norms[k]
    cross = rel[:, 0] * u[1] - rel[:, 1] * u[0]
    if np.all(np.abs(cross) <= 1e-12 * (1.0 + norms.max())):
        return u
    return None


def _lower_facets(points: np.ndarray, heights: np.ndarray):
    """Lower facets of the lifted targets' hull as (k, 3) target triples.

    Each target lifts to (y_i, -h_i); a facet is lower when its outward
    normal points down. The facets project to the triangles of the regular
    (weighted Delaunay) triangulation. Returns None when there is no 3D
    hull: fewer than four targets, collinear (or coincident) targets, or
    coplanar lifted points.
    """
    try:
        if len(points) <= 3 or _collinear_direction(points) is not None:
            return None
    except DegenerateHullError:
        return None
    lifted = np.column_stack([points, -heights])
    try:
        hull = ConvexHull(lifted)
    except QhullError:
        return None
    return hull.simplices[hull.equations[:, 2] < -1e-12].astype(np.int64)


def _triangle_edges(triangles: np.ndarray) -> np.ndarray:
    """Sorted unique edges (i < j) of a triangle list."""
    sides = np.concatenate([triangles[:, [0, 1]], triangles[:, [1, 2]],
                            triangles[:, [0, 2]]])
    return np.unique(np.sort(sides, axis=1), axis=0)


def _lower_hull_edges(points: np.ndarray, heights: np.ndarray):
    u = _collinear_direction(points)
    if u is not None:
        # degenerate hull: collinear targets fall back to 1D sorted adjacency
        t = points @ u
        order = np.argsort(t, kind="stable")
        edges = np.array([sorted((int(order[k]), int(order[k + 1])))
                          for k in range(len(order) - 1)], dtype=np.int64)
        return edges, order.astype(np.int64)

    triangles = _lower_facets(points, heights)
    if triangles is None:
        # lifted points coplanar: the dual is linear, only the planar hull
        # boundary of the targets carries cells
        from .geometry import convex_hull_2d

        ring = convex_hull_2d(points)
        ring_idx = []
        for v in ring:
            hits = np.nonzero(np.all(np.abs(points - v) <= 1e-12, axis=1))[0]
            ring_idx.append(int(hits[0]))
        edges = {tuple(sorted((ring_idx[k], ring_idx[(k + 1) % len(ring_idx)])))
                 for k in range(len(ring_idx))}
        return (np.asarray(sorted(edges), dtype=np.int64),
                np.asarray(sorted(set(ring_idx)), dtype=np.int64))

    if not len(triangles):
        raise GeometryError("no lower hull facets found")
    return _triangle_edges(triangles), np.unique(triangles)
