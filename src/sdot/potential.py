"""Piecewise-linear Brenier potential and its power-diagram cell statistics.

The potential is the upper envelope of one supporting plane per target
point, ``u(x) = max_i(<x, y_i> + h_i)``. Its gradient is the transport map
(constant equal to ``y_i`` on cell ``i``), and the induced decomposition of
the source domain is a power diagram. Cell masses and facet masses are
computed exactly in 2D by half-plane clipping, and by Monte Carlo counting
in any dimension. The Legendre dual of the potential is built from the 3D
lower convex hull of the lifted points ``(y_i, -h_i)``; its projection is
the weighted Delaunay (regular) triangulation.

The exact 2D statistics use the same lower hull (the 1D upper hull for
collinear targets, the planar hull ring for coplanar lifts): a target has a
cell exactly when it is a hull vertex, bounded only by its triangulation
neighbours. A cell whose fan of lower triangles closes around its target
and whose power centres all lie inside the domain is the ring of those
centres. Every other hull cell is clipped against its neighbours, nearest
first, and a target off the hull is not built at all. The clipping order is
one (rows, K) candidate matrix, padded with -1, and the clipped cells are
clipped together by ``geometry.clip_cells``: sorted by their number of
neighbours, the cells that have an r-th neighbour are a prefix of one
padded array, and round r clips that prefix. The facet search then tests
every neighbour pair against the padded cells in one vectorised pass.
``legendre_dual`` bounds each facet chord by the same neighbours, plus the
domain edges where a chord may leave the domain, and measures every chord
in one pass.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

from .geometry import (
    DimensionUnsupportedError,
    DiscreteTargetMeasure,
    GeometryError,
    _cycled,
    _drop_repeats,
    _ring_next,
    clip_cells,
    polygon_area,
    polygon_moments,
    sample_source,
)

# Rows per block of the batched plane evaluation in ``evaluate`` and
# ``assign_cell``. One (1024, n) float64 buffer (0.9 MB at n = 110) is reused
# for every block, so it stays in the L2 cache across the matmul, the height
# add and the row reduction. Keep it a power of two, a multiple of any BLAS
# row-tile height: blocks then start on tile boundaries, and a kernel that
# rounds the rows of a partial tile differently cannot make a row's plane
# values depend on the block size.
_ASSIGN_CHUNK = 1024

# Relative threshold below which a shared facet is treated as empty.
ADJACENCY_TOL = 1e-9


class DegenerateHullError(GeometryError):
    """Dual construction impossible: all target points coincide.

    Merely collinear targets do not raise; they fall back to the 1D upper
    hull of the lifted targets.
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
        top = np.empty(len(pts))
        self._reduce_planes(pts, top)
        return top

    def assign_cell(self, x):
        """Index of the supporting plane attaining the envelope at x.

        Ties break to the lowest index, so boundary points are assigned
        deterministically.
        """
        pts = np.asarray(x, dtype=float)
        if pts.ndim == 1:
            return int(np.argmax(self.plane_values(pts)))
        return self._reduce_planes(pts)

    def _reduce_planes(self, pts: np.ndarray, top: np.ndarray | None = None) -> np.ndarray:
        """Row-wise argmax of the plane values of an (N, d) batch.

        With ``top`` given, the row maxima are written into it in the same
        pass, read at the argmax, so each equals the row's ``np.max``. The
        batch goes through in blocks of ``_ASSIGN_CHUNK`` rows. Each block
        is copied into the first d columns of a reused (rows, d + 1) buffer
        whose last column is 1, and one matmul with the (d + 1, n) stack of
        the target points and the heights gives its plane values in a
        reused buffer, so no (N, n) array is formed and no separate height
        pass runs. A lone last row joins the block before it: BLAS computes
        a one-row product with its matrix-vector kernel, which rounds
        differently (by up to 1.8e-15 on the dumbbell), so that row's values
        would depend on the batch length.
        """
        n_pts, d = pts.shape
        idx = np.empty(n_pts, dtype=np.int64)
        rows = min(n_pts, _ASSIGN_CHUNK + 1)
        buf = np.empty((rows, self.n))
        lifted = np.ones((rows, d + 1))
        planes = np.vstack([self.target.points.T, self.heights])
        starts = range(0, max(n_pts - 1, 1), _ASSIGN_CHUNK)
        for start, stop in zip(starts, [*starts[1:], n_pts]):
            block = lifted[:stop - start]
            block[:, :d] = pts[start:stop]
            vals = np.matmul(block, planes, out=buf[:stop - start])
            best = np.argmax(vals, axis=1, out=idx[start:stop])
            if top is not None:
                top[start:stop] = vals[np.arange(stop - start), best]
        return idx

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
    # mean of the envelope u_h over the source (not serialised): exact from
    # the cell moments in 2D, the sample mean in Monte Carlo mode
    envelope_mean: float | None = None

    @property
    def n(self) -> int:
        return len(self.cell_measures)

    def adjacency_set(self) -> set:
        return {(int(i), int(j)) for i, j in self.facet_pairs}

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


def exact_cell_stats_2d(potential: BrenierPotential, domain, *,
                        triangulation=None) -> PowerCellStats:
    """Exact power-diagram statistics on a 2D domain.

    Cell masses are clipped polygon areas over the domain area; the facet
    mass of an adjacent pair is the shared edge length over the domain area
    (uniform density). Disks are replaced by their inscribed regular
    polygon, whose area is the normalizer.

    A power cell is bounded only by the bisectors of its neighbours in the
    regular triangulation: the edges of the lower hull of the lifted points
    (y_i, -h_i), from :func:`_lower_hull_edges` as in :func:`legendre_dual`.
    A target off that hull has an empty cell everywhere in the plane: its
    mass is zero and it is not built. A hull target gets its cell one of two
    ways (Aurenhammer 1987):

    - ring: when the target is inside the triangulation and every power
      centre of its fan of lower triangles lies strictly inside the domain,
      its cell is the ring of those centres in CCW fan order
      (:func:`_ring_cells`), with no clipping;
    - clip: every other hull cell (its target is on the triangulation
      boundary, a centre is outside or non-finite, or the ring collapses)
      is clipped from the domain polygon against its neighbours, nearest
      first. The candidate lists form one (rows, K) matrix padded with -1,
      K the largest triangulation degree, and
      :func:`~sdot.geometry.clip_cells` clips these cells together, one
      round per neighbour rank, each round over the cells whose list is
      that long; an empty cell stays empty.

    Both kinds of cell fill one padded vertex array. Facets are sought only
    among neighbour pairs, tested all at once on the padded cells.

    ``triangulation``, when given, is the ``(edges, hull, triangles)``
    triple that :func:`_lower_hull_edges` returned for these targets and
    heights. It is used instead of a qhull call of its own, so a caller that
    already needed the triangulation (the solver, to reject heights that
    hide a target) pays for one qhull call per diagram.
    """
    if domain.dimension != 2:
        raise DimensionUnsupportedError("exact cell statistics need a 2D domain")
    base_verts = domain.clip_polygon().vertices
    area_domain = polygon_area(base_verts)
    points = potential.target.points
    heights = potential.heights
    n = potential.n
    len_tol = _length_tol(base_verts)

    if triangulation is None:
        triangulation = _lower_hull_edges(points, heights)
    edges, hull, triangles = triangulation
    ring_ids, ring_verts, ring_counts = _ring_cells(
        points, heights, edges, triangles, base_verts, len_tol)
    clipped = np.zeros(n, dtype=bool)
    clipped[hull] = True
    clipped[ring_ids] = False
    # clip_cells numbers its sites by row: put the clipped targets first
    order = np.argsort(~clipped, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    candidates = _candidate_matrix(points, edges, np.flatnonzero(clipped))
    clip_verts, clip_counts = clip_cells(
        base_verts, points[order], heights[order],
        np.where(candidates < 0, -1, rank[candidates]))

    width = max(clip_verts.shape[1], ring_verts.shape[1])
    verts = np.zeros((n, width, 2))
    counts = np.zeros(n, dtype=np.int64)
    verts[clipped, :clip_verts.shape[1]], counts[clipped] = clip_verts, clip_counts
    verts[ring_ids, :ring_verts.shape[1]], counts[ring_ids] = ring_verts, ring_counts
    cells = [verts[i, :counts[i]] for i in range(n)]
    a, sx, sy, _, _ = polygon_moments(cells).T
    w = a / area_domain
    envelope = points[:, 0] * sx + points[:, 1] * sy + heights * a

    edges = edges[(counts[edges[:, 0]] > 0) & (counts[edges[:, 1]] > 0)]
    i, j = edges[:, 0], edges[:, 1]
    facet, length, segments = _bisector_spans(
        verts[i], counts[i], points[i] - points[j], heights[j] - heights[i], len_tol)
    return PowerCellStats(w, edges[facet], length[facet] / area_domain,
                          segments[facet], cells, area_domain, True,
                          envelope_mean=float(envelope.sum()) / area_domain)


def _length_tol(domain_verts) -> float:
    """Facet length tolerance: ADJACENCY_TOL x (1 + the domain's bounding-box diagonal)."""
    diam = float(np.linalg.norm(domain_verts.max(axis=0) - domain_verts.min(axis=0)))
    return ADJACENCY_TOL * (1.0 + diam)


def _ring_cells(points, heights, edges, triangles, domain_verts, margin):
    """Power cells that are the ring of their fan's power centres.

    The power centre of a lower triangle (a, b, c) is the point where the
    planes of a, b and c meet: ``<x, y_b - y_a> = h_a - h_b`` and
    ``<x, y_c - y_a> = h_a - h_c``, one batched 2x2 solve by Cramer's rule
    (non-finite for a degenerate triangle). A target qualifies when it is
    inside the triangulation (as many triangles as edges, so its fan
    closes) and every centre of its fan lies inside the domain polygon by
    more than ``margin``. Its ring is the fan's centres in CCW order around
    the target, sorted by the direction of each triangle's centroid. As in
    :func:`~sdot.geometry.clip_cells`, a vertex within DEGENERACY_TOL * (1 +
    largest coordinate magnitude) of its cyclic predecessor is dropped;
    repeated centres come from cocircular fans. A ring that keeps fewer
    than 3 vertices, or whose fan ring has no positive area, is left out.

    Returns the sorted target ids, their zero-padded (R, W, 2) rings and
    the (R,) vertex counts.
    """
    n = len(points)
    fan = np.bincount(triangles.ravel(), minlength=n)
    ring = fan == np.bincount(edges.ravel(), minlength=n)
    ring &= fan > 0
    corners = points[triangles]
    d1 = corners[:, 1] - corners[:, 0]
    d2 = corners[:, 2] - corners[:, 0]
    lift = heights[triangles]
    r1 = lift[:, 0] - lift[:, 1]
    r2 = lift[:, 0] - lift[:, 2]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        centres = np.column_stack([r1 * d2[:, 1] - r2 * d1[:, 1],
                                   d1[:, 0] * r2 - d2[:, 0] * r1]) / det[:, None]
    ring[triangles[~_inside_convex(domain_verts, centres, margin)]] = False
    ids = np.flatnonzero(ring)
    if not len(ids):
        return ids, np.zeros((0, 0, 2)), ids

    # the fan incidences (target, triangle) of ring targets, in CCW order
    owner = triangles.ravel()
    tri = np.flatnonzero(ring[owner]) // 3
    owner = owner[ring[owner]]
    mid = corners.sum(axis=1)[tri] - 3.0 * points[owner]
    order = np.lexsort((np.arctan2(mid[:, 1], mid[:, 0]), owner))
    counts = fan[ids]
    row = np.repeat(np.arange(len(ids)), counts)
    verts = np.zeros((len(ids), counts.max(initial=0), 2))
    verts[row, np.arange(len(row)) - (np.cumsum(counts) - counts)[row]] = centres[tri[order]]
    nxt = _ring_next(verts, counts)
    area2 = np.sum(verts[:, :, 0] * nxt[:, :, 1] - verts[:, :, 1] * nxt[:, :, 0], axis=1)
    verts, counts = _drop_repeats(verts, counts)
    good = (counts > 0) & (area2 > 0.0)
    return ids[good], verts[good], counts[good]


def _inside_convex(verts, pts, margin):
    """Whether each point lies inside the CCW convex polygon by more than ``margin``.

    Seen from the vertex mean, the vertex directions turn once around the
    polygon, so one ``searchsorted`` of a point's direction among them finds
    the wedge that holds it, and the point is inside when it is on the inner
    side of that wedge's edge. Non-finite points are outside.
    """
    o = verts.mean(axis=0)
    angle = np.arctan2(verts[:, 1] - o[1], verts[:, 0] - o[0])
    turn = np.argsort(angle)
    edge = _cycled(verts) - verts
    rel = pts - o
    with np.errstate(invalid="ignore"):
        # wedge p lies between the p-th and (p + 1)-th smallest vertex
        # directions; a direction below the smallest wraps to the last (-1)
        k = turn[np.searchsorted(angle[turn], np.arctan2(rel[:, 1], rel[:, 0]),
                                 side="right") - 1]
        cross = edge[k, 0] * (pts[:, 1] - verts[k, 1]) - edge[k, 1] * (pts[:, 0] - verts[k, 0])
        inside = cross > margin * np.hypot(edge[k, 0], edge[k, 1])
    return inside & np.isfinite(pts).all(axis=1)


def _candidate_matrix(points: np.ndarray, edges: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Clipping order of the targets ``rows`` as a (len(rows), K) matrix padded with -1.

    Row k lists the regular-triangulation neighbours of target rows[k] in
    ``edges``, nearest first with ties by index; K is the largest degree
    among the requested targets. Only the edges at those targets are
    sorted; a target may be requested more than once.
    """
    wanted = np.zeros(len(points), dtype=bool)
    wanted[rows] = True
    slot = np.cumsum(wanted) - 1  # row of each wanted target in the built matrix
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    keep = wanted[src]
    src, dst = src[keep], dst[keep]
    gap2 = np.sum((points[src] - points[dst]) ** 2, axis=1)
    order = np.lexsort((dst, gap2, src))
    src, dst = slot[src[order]], dst[order]
    bounds = np.searchsorted(src, np.arange(slot[-1] + 2))
    candidates = np.full((slot[-1] + 1, int(np.diff(bounds).max(initial=0))), -1, dtype=np.int64)
    candidates[src, np.arange(len(src)) - bounds[src]] = dst
    return candidates[slot[rows]]


def _bisector_spans(verts, counts, u, c, len_tol):
    """Shared-facet test of each padded cell against one bisector line.

    Cell row e is tested against the line <x, u_e> = c_e. Its vertices
    within ``len_tol`` of the line are the facet candidates; there is a
    facet when at least two lie on the line and their spread along it
    exceeds ``len_tol``. Returns the facet mask, the spread length and the
    (E, 2, 2) segments from the first vertex of least spread to the first
    of greatest spread.
    """
    norm_u = np.sqrt(np.sum(u ** 2, axis=1))
    dist = ((verts @ u[:, :, None])[:, :, 0] - c[:, None]) / norm_u[:, None]
    live = np.arange(verts.shape[1]) < counts[:, None]
    on_line = live & (np.abs(dist) <= len_tol)
    perp = np.column_stack([-u[:, 1], u[:, 0]])
    spread = (verts @ perp[:, :, None])[:, :, 0] / norm_u[:, None]
    lo = np.argmin(np.where(on_line, spread, np.inf), axis=1)
    hi = np.argmax(np.where(on_line, spread, -np.inf), axis=1)
    rows = np.arange(len(verts))
    length = spread[rows, hi] - spread[rows, lo]
    facet = (np.count_nonzero(on_line, axis=1) >= 2) & (length > len_tol)
    return facet, length, np.stack([verts[rows, lo], verts[rows, hi]], axis=1)


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
    """Cell masses from a fixed sample set (common random numbers).

    The same pass over the samples gives the envelope's sample mean, which
    the Monte Carlo solver uses as its energy.
    """
    top = np.empty(len(pts))
    idx = potential._reduce_planes(pts, top)
    counts = np.bincount(idx, minlength=potential.n)
    w = counts / len(pts)

    pairs = np.zeros((0, 2), dtype=np.int64)
    sub = pts[:adjacency_subsample]
    if adjacency_neighbors > 0 and len(sub) > 1:
        sub_idx = idx[:len(sub)]
        k = min(adjacency_neighbors + 1, len(sub))
        _, nbr = cKDTree(sub).query(sub, k=range(2, k + 1))
        a = np.repeat(sub_idx, k - 1)
        b = sub_idx[nbr.ravel()]
        pairs = np.column_stack([a[a != b], b[a != b]])
    facet_pairs = _unique_edges(pairs, potential.n)
    return PowerCellStats(w, facet_pairs, None, None, None, None, False,
                          sample_count=len(pts),
                          envelope_mean=float(top.mean()))


def legendre_dual(potential: BrenierPotential, domain=None,
                  stats: PowerCellStats | None = None) -> DualTriangulation:
    """Weighted Delaunay triangulation from the lifted lower convex hull.

    Each target lifts to ``(y_i, -h_i)``; the lower hull of the lifted
    cloud is the graph of the Legendre transform, and its edges project to
    the weighted Delaunay edges. Collinear targets use the 1D upper hull
    of ``(<y_i, u>, h_i)`` along their line direction u instead.

    With a ``domain``, edges whose dual power-diagram facet misses the
    domain are dropped, restoring the exact duality with the clipped
    diagram: edge (i, j) present iff the clipped facet mass is positive.
    The facet is the chord of the (i, j) bisector line left by the
    triangulation neighbours of i and the domain edges; all chords are
    measured in one batched pass. With exact ``stats``, each edge is
    annotated with the mass of its dual facet.
    """
    if potential.target.dimension != 2:
        raise DimensionUnsupportedError("the dual construction is 2D only")
    points = potential.target.points
    heights = potential.heights
    n = potential.n

    edges, hull, _ = _lower_hull_edges(points, heights)

    if domain is not None and len(edges):
        base = domain.clip_polygon().vertices
        edges = edges[_facet_chord_lengths(points, heights, edges, base) > _length_tol(base)]

    zero = np.setdiff1d(np.arange(n, dtype=np.int64), hull)
    measures = None
    if stats is not None and stats.has_facet_measures:
        lookup = {(int(i), int(j)): float(m)
                  for (i, j), m in zip(stats.facet_pairs, stats.facet_measures)}
        measures = np.array([lookup.get((int(i), int(j)), 0.0) for i, j in edges])
    return DualTriangulation(edges, measures, zero, hull)


def _facet_chord_lengths(points, heights, edges, domain_verts) -> np.ndarray:
    """Length of the power facet of every edge (i, j) inside the domain polygon.

    The facet lies on the (i, j) bisector line, in cell i, which only the
    regular-triangulation neighbours of i and the domain edges bound. Each
    bound restricts the line parameter to an interval; all edges are
    measured in one pass, independently of the polygon-clipping pipeline.
    The domain edges are applied only to chords that the neighbours leave
    unbounded, or with an end outside the polygon's inscribed circle about
    its vertex mean (shrunk by the adjacency tolerance): inside it no domain
    edge can cut the chord.
    """
    i, j = edges[:, 0], edges[:, 1]
    u = points[i] - points[j]
    c = heights[j] - heights[i]
    nrm2 = _row_dots(u, u)
    p0 = (c / nrm2)[:, None] * u
    direction = np.column_stack([-u[:, 1], u[:, 0]]) / np.sqrt(nrm2)[:, None]

    # each constraint reads t*s >= r on the line p0 + t*direction; padding
    # and j itself map to i, a zero row that is parallel with r = 0
    nbrs = _candidate_matrix(points, edges, i)
    nbrs = np.where((nbrs < 0) | (nbrs == j[:, None]), i[:, None], nbrs)
    a = points[i][:, None, :] - points[nbrs]
    r = (heights[nbrs] - heights[i][:, None]) - _row_dots(a, p0[:, None])
    lo, hi, blocked = _chord_interval(r, _row_dots(a, direction[:, None]))

    # inward side of a CCW domain edge: cross(edge, x - v) >= 0,
    # i.e. <a, p0 + t*dir - v> >= 0  ->  t*s >= <a, v - p0>
    edge = _cycled(domain_verts) - domain_verts
    a_dom = np.column_stack([-edge[:, 1], edge[:, 0]])
    centre = domain_verts.mean(axis=0)
    radius = np.min(_row_dots(a_dom, centre - domain_verts) / np.hypot(*edge.T))
    radius = max(radius - _length_tol(domain_verts), 0.0)
    bounded = np.isfinite(lo) & np.isfinite(hi)
    ends = p0[:, None] + np.where(bounded, [lo, hi], 0.0).T[:, :, None] * direction[:, None]
    inside = bounded & np.all(np.sum((ends - centre) ** 2, axis=2) < radius * radius, axis=1)
    cut = np.flatnonzero(~blocked & (lo < hi) & ~inside)
    if len(cut):
        lo_dom, hi_dom, blocked[cut] = _chord_interval(
            _row_dots(a_dom, domain_verts - p0[cut, None]),
            _row_dots(a_dom, direction[cut, None]))
        lo[cut] = np.maximum(lo[cut], lo_dom)
        hi[cut] = np.minimum(hi[cut], hi_dom)
    ok = ~blocked & (lo < hi) & np.isfinite(lo) & np.isfinite(hi)
    return np.where(ok, hi - lo, 0.0)


def _chord_interval(r, s):
    """Line-parameter interval [lo, hi] left by the row constraints t*s >= r.

    A parallel constraint (|s| <= 1e-15) bounds neither end and blocks the
    row when r > 0. Returns lo, hi and the blocked mask, one entry per row.
    """
    parallel = np.abs(s) <= 1e-15
    blocked = np.any(parallel & (r > 0), axis=1)
    s[parallel] = np.nan
    t = np.divide(r, s, out=r)  # r is not needed again
    lo = t.max(axis=1, where=s > 0, initial=-np.inf)
    hi = t.min(axis=1, where=s < 0, initial=np.inf)
    return lo, hi, blocked


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis of ``a`` and ``b``, broadcast.

    Stacked vector-vector matmul runs the same dot kernel as a 1-D
    ``a[k] @ b[k]``, so each entry is bit-identical to that scalar product.
    """
    return (a[..., None, :] @ b[..., None])[..., 0, 0]


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
    (weighted Delaunay) triangulation. Returns None when qhull finds no 3D
    hull: fewer than four targets, collinear targets or coplanar lifted
    points.
    """
    lifted = np.column_stack([points, -heights])
    try:
        hull = ConvexHull(lifted)
    except QhullError:
        return None
    return hull.simplices[hull.equations[:, 2] < -1e-12].astype(np.int64)


def _unique_edges(pairs: np.ndarray, n: int) -> np.ndarray:
    """Sorted unique edges (i < j) of an (m, 2) array of pairs over n targets.

    Each edge is keyed by i * n + j, which sorts like the row (i, j).
    """
    pairs = np.sort(pairs, axis=1)
    key = np.unique(pairs[:, 0] * n + pairs[:, 1])
    return np.column_stack([key // n, key % n])


def _lower_hull_edges(points: np.ndarray, heights: np.ndarray):
    """Sorted lower-hull edges (i < j), the sorted targets with a cell, and the lower triangles.

    The triangles are the (k, 3) lower facets of :func:`_lower_facets`, from
    its one qhull call. Collinear targets use the 1D upper hull of
    (<y_i, u>, h_i) along their line direction u; coplanar lifted points
    give the planar hull ring. Neither has triangles.
    """
    n = len(points)
    none = np.zeros((0, 3), dtype=np.int64)
    if n == 1:
        return np.zeros((0, 2), dtype=np.int64), np.zeros(1, dtype=np.int64), none
    u = _collinear_direction(points)
    if u is not None:
        # a target below its neighbours' chord has no cell, and consecutive
        # hull targets are adjacent
        t = points @ u
        tol = 1e-12 * (1.0 + np.abs(t).max() + np.abs(heights).max())
        hull = []
        for k in np.argsort(t, kind="stable"):
            while len(hull) >= 2:
                a, b = hull[-2], hull[-1]
                chord = heights[a] + (heights[k] - heights[a]) * (t[b] - t[a]) / (t[k] - t[a])
                if chord - heights[b] <= tol:
                    break
                hull.pop()
            hull.append(k)
        return (_unique_edges(np.column_stack([hull[:-1], hull[1:]]), n), np.sort(hull),
                none)

    triangles = _lower_facets(points, heights)
    if triangles is None:
        # lifted points coplanar: the dual is linear, only the planar hull
        # ring of the targets carries cells
        ring = ConvexHull(points).vertices.astype(np.int64)
        return (_unique_edges(np.column_stack([ring, np.roll(ring, -1)]), n), np.sort(ring),
                none)

    if not len(triangles):
        raise GeometryError("no lower hull facets found")
    return (_unique_edges(triangles[:, [0, 1, 1, 2, 0, 2]].reshape(-1, 2), n),
            np.unique(triangles), triangles)
