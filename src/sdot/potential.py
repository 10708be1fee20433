"""Piecewise-linear Brenier potential and its power-diagram cell statistics.

The potential is the upper envelope of one supporting plane per target
point, ``u(x) = max_i(<x, y_i> + h_i)``. Its gradient is the transport map
(constant equal to ``y_i`` on cell ``i``), and the induced decomposition of
the source domain is a power diagram. Cell masses and facet masses are
computed exactly in 2D from the regular triangulation, and by Monte Carlo
counting in any dimension. The Legendre dual of the potential is built from
the 3D lower convex hull of the lifted points ``(y_i, -h_i)``; its
projection is the weighted Delaunay (regular) triangulation.

The exact 2D statistics use the same lower hull (the 1D upper hull for
collinear targets, the planar hull ring for coplanar lifts): a target has a
cell exactly when it is a hull vertex, and a target off the hull is not
built. Every triangulation edge has one facet on its bisector, bounded by
the power centres of the edge's lower triangles (one Cramer solve per
triangle) and cut by the domain edges where it leaves the domain; without
triangles, the triangulation neighbours bound it. A cell's corners are the
ends of its facets plus the domain vertices it holds, put in CCW order by
one sort over all cells. The stats keep that triangulation for
``legendre_dual``, which bounds each facet chord a second way, by the
triangulation neighbours and the same domain cut, in one pass.

Work that does not depend on the heights is done once: the domain's clip
ring once per domain object, the targets' collinearity test once per solve.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

from .geometry import (
    DimensionUnsupportedError,
    DiscreteTargetMeasure,
    GeometryError,
    _cycled,
    _drop_repeats,
    _packed_moments,
    polygon_area,
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


# an exact 2D diagram's points, heights, _lower_hull_edges triple and (n, 5) cell moments
_Source = namedtuple("_Source", "points heights triangulation moments")


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
    _source: _Source | None = field(default=None, repr=False)  # exact 2D (not serialised)

    @property
    def n(self) -> int:
        return len(self.cell_measures)

    def adjacency_set(self) -> set:
        return {(int(i), int(j)) for i, j in self.facet_pairs}

    def facet_measure(self, i: int, j: int) -> float:
        """Mass of the (i, j) facet; 0 without one or for an index out of range."""
        i, j = sorted((int(i), int(j)))
        ok = self.has_facet_measures and 0 <= i < j < self.n
        return float(self._facet_masses(np.array([[i, j]]), self.n)[0]) if ok else 0.0

    def _facet_masses(self, pairs: np.ndarray, n: int) -> np.ndarray:
        """Facet mass of each (i < j) row of ``pairs`` over n targets, 0 where there is none."""
        # both sides keyed by i * n + j, facet pairs in key order; a key past
        # the last facet meets the -1 sentinel
        keys = np.append(self.facet_pairs @ [n, 1], -1)
        want = pairs @ [n, 1]
        k = np.searchsorted(keys[:-1], want)
        return np.where(keys[k] == want, np.append(self.facet_measures, 0.0)[k], 0.0)

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

    Cell masses are polygon areas over the domain area; the facet mass of
    an adjacent pair is the shared edge length over the domain area
    (uniform density). Disks are replaced by their inscribed regular
    polygon, whose area is the normalizer.

    The diagram is built from the regular triangulation, the projection of
    the lower hull of the lifted points (y_i, -h_i) (Aurenhammer 1987): the
    ``(edges, hull, triangles)`` triple of :func:`_lower_hull_edges`, or
    ``triangulation`` when a caller already has it for these targets and
    heights (the solver, which rejects heights that hide a target). A
    target off the hull has an empty cell everywhere and is not built. Each
    edge (i, j) has one facet on the (i, j) bisector (:func:`_power_facets`).
    Cell i's corners are the ends of its facets, the same floats in both
    cells of a facet, plus the domain vertices whose highest hull plane is
    i's; :func:`_cell_rings` lays them end to end in CCW order for the
    moments, and each of ``cells`` is a slice of that one array. No cell
    is clipped. The domain's clip ring (:func:`_clip_ring`) is built once per domain.

    The stats keep copies of the points and heights, the triangulation and
    the (n, 5) cell moments (not serialised) for :func:`legendre_dual` and
    :func:`~sdot.solver.transport_cost`.
    """
    if domain.dimension != 2:
        raise DimensionUnsupportedError("exact cell statistics need a 2D domain")
    ring = _clip_ring(domain)
    points = potential.target.points
    heights = potential.heights
    n = potential.n

    if triangulation is None:
        triangulation = _lower_hull_edges(points, heights)
    edges, hull, triangles = triangulation
    ends, length, owner, corners = _power_facets(points, heights, edges, triangles, ring)
    on_hull = BrenierPotential(
        DiscreteTargetMeasure(points[hull], potential.target.weights[hull]), heights[hull])
    verts, sizes = _cell_rings(
        np.concatenate([owner, hull[on_hull._reduce_planes(ring.verts)]]),
        np.concatenate([corners, ring.verts]), n)
    stop = np.cumsum(sizes)
    cells = [verts[lo:hi] for lo, hi in zip((stop - sizes).tolist(), stop.tolist())]
    moments = _packed_moments(verts, sizes)
    a, sx, sy = moments[:, :3].T
    w = a / ring.area
    envelope = points[:, 0] * sx + points[:, 1] * sy + heights * a

    facet = ((length > ring.tol)
             & (sizes[edges[:, 0]] > 0) & (sizes[edges[:, 1]] > 0))
    return PowerCellStats(w, edges[facet], length[facet] / ring.area, ends[facet],
                          cells, ring.area, True,
                          envelope_mean=float(envelope.sum()) / ring.area,
                          _source=_Source(points.copy(), heights.copy(), triangulation, moments))


class _ClipRing:
    """A CCW domain polygon with its area, facet length tolerance ``tol`` and the parts of
    :func:`_domain_cut` that no height changes: inward edge normals, the vertex mean, and
    the inscribed and circumscribed radii about it, with ``tol`` as margin."""

    def __init__(self, verts):
        edge = _cycled(verts) - verts
        self.verts, self.area = verts, polygon_area(verts)
        self.normals = np.column_stack([-edge[:, 1], edge[:, 0]])
        self.centre = centre = verts.mean(axis=0)
        diam = float(np.linalg.norm(verts.max(axis=0) - verts.min(axis=0)))
        self.tol = tol = ADJACENCY_TOL * (1.0 + diam)
        dists = _row_dots(self.normals, centre - verts) / np.hypot(*edge.T)
        self.inner = max(np.min(dists) - tol, 0.0)
        self.outer = np.sqrt(np.max(_row_dots(verts - centre, verts - centre))) + tol


def _clip_ring(domain) -> _ClipRing:
    """The domain's :class:`_ClipRing`, built on first use and kept on the (frozen) domain."""
    if "_clip_ring" not in vars(domain):
        object.__setattr__(domain, "_clip_ring", _ClipRing(domain.clip_polygon().vertices))
    return domain._clip_ring


def _power_facets(points, heights, edges, triangles, ring):
    """The facet of every triangulation edge inside the domain polygon, and the corners at its ends.

    The facet of edge (i, j) lies on the bisector p0 + t*direction
    (:func:`_bisector_lines`), bounded by the power centres of the edge's
    lower triangles (:func:`_centre_bounds`) or, without triangles (n <= 3,
    collinear targets, coplanar lifts), by the triangulation neighbours of
    i as in :func:`_facet_chord_lengths`, and cut by the domain edges
    (:func:`_domain_cut`). An end the domain left in place is its
    triangle's power centre, one float for every facet and cell that meets
    there; any other end is the point at its line parameter.

    Returns the (E, 2, 2) ends from low to high t (least to greatest spread
    along the bisector), the (E,) lengths (0 where the facet misses the
    domain), and the corners as cell ids and points: each used centre once
    per vertex of its triangle, each other end once per cell of its facet.
    """
    p0, direction = _bisector_lines(points, heights, edges)
    if len(triangles):
        centres, tri, bounds = _centre_bounds(points, heights, edges, triangles, p0, direction)
        blocked = np.zeros(len(edges), dtype=bool)
    else:
        centres, tri = np.zeros((0, 2)), np.full((2, len(edges)), -1)
        lo, hi, blocked = _neighbour_interval(points, heights, edges, p0, direction)
        bounds = np.stack([lo, hi])
    lo, hi, blocked = _domain_cut(ring, p0, direction, *bounds.copy(), blocked)
    t = np.stack([lo, hi])
    live = ~blocked & (lo < hi) & np.isfinite(t).all(axis=0)
    t[:, ~live] = 0.0
    ends = p0 + t[:, :, None] * direction
    at_centre = live & (t == bounds) & (tri >= 0)
    ends[at_centre] = centres[tri[at_centre]]
    used = np.zeros(len(triangles), dtype=bool)
    used[tri[at_centre]] = True
    side, e = np.nonzero(live & ~at_centre)
    owner = np.concatenate([triangles[used].ravel(), edges[e].ravel()])
    corners = np.concatenate([np.repeat(centres[used], 3, axis=0),
                              np.repeat(ends[side, e], 2, axis=0)])
    return ends.transpose(1, 0, 2), t[1] - t[0], owner, corners


def _centre_bounds(points, heights, edges, triangles, p0, direction):
    """Power centres of the lower triangles, and the centre at each end of each facet.

    The power centre of a lower triangle (a, b, c) is the point where the
    planes of a, b and c meet: ``<x, y_b - y_a> = h_a - h_b`` and
    ``<x, y_c - y_a> = h_a - h_c``, one batched 2x2 solve by Cramer's rule.
    On the bisector of an edge (i, j), i < j, the facet runs from the
    centre away from the third vertex k: it starts there (low end in t)
    when k is left of i -> j, cross(y_j - y_i, y_k - y_i) > 0, and ends
    there otherwise. Listed as (a, b), (b, c), (c, a), the edges keep the
    triangle's cyclic order, so that cross is the 2x2 determinant when
    a < b and its negative otherwise. A degenerate triangle (non-finite
    centre) bounds nothing.

    Returns the (T, 2) centres, the (2, E) triangle ids at the low and high
    ends (-1 for none) and the (2, E) line parameters of those ends
    (-inf and inf for none).
    """
    n = len(points)
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

    a = triangles.ravel()
    b = triangles[:, [1, 2, 0]].ravel()
    tri = np.arange(len(a)) // 3
    # the edges are the triangles' distinct edges in key order
    e = np.searchsorted(edges[:, 0] * n + edges[:, 1], np.minimum(a, b) * n + np.maximum(a, b))
    with np.errstate(invalid="ignore"):
        t = _row_dots(centres[tri] - p0[e], direction[e])
    turn = np.where(a < b, det[tri], -det[tri])
    ok = np.isfinite(t)
    end = (turn[ok] < 0.0).astype(np.int64)  # 0: the centre starts the facet, 1: it ends it
    ids = np.full((2, len(edges)), -1)
    ids[end, e[ok]] = tri[ok]
    bounds = np.repeat([[-np.inf], [np.inf]], len(edges), axis=1)
    bounds[end, e[ok]] = t[ok]
    return centres, ids, bounds


def _cell_rings(owner, corners, n):
    """Each cell's corners in CCW order, laid end to end by cell, and the (n,) cell sizes.

    One lexsort by (cell, angle about the mean of the cell's corners) orders
    every cell at once. As in :func:`~sdot.geometry.clip_halfplane`, a
    corner within DEGENERACY_TOL * (1 + largest coordinate magnitude) of its
    cyclic predecessor is dropped (:func:`~sdot.geometry._drop_repeats`),
    and a cell left with fewer than 3 corners is empty (size 0).
    """
    total = np.bincount(owner, minlength=n)
    mean = np.column_stack([np.bincount(owner, corners[:, 0], n),
                            np.bincount(owner, corners[:, 1], n)]) / np.maximum(total, 1)[:, None]
    rel = corners - mean[owner]
    order = np.lexsort((np.arctan2(rel[:, 1], rel[:, 0]), owner))
    return _drop_repeats(corners[order], owner[order], n)


def _neighbour_matrix(edges: np.ndarray, n: int) -> np.ndarray:
    """Triangulation neighbours of each of n targets as an (n, K) matrix padded with -1.

    Row k lists the neighbours of target k in ``edges`` order; K is the
    largest degree.
    """
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    degree = np.bincount(src, minlength=n)
    nbrs = np.full((n, degree.max(initial=0)), -1, dtype=np.int64)
    nbrs[src, np.arange(len(src)) - (np.cumsum(degree) - degree)[src]] = dst
    return nbrs


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
    domain are dropped, restoring the exact duality with the power diagram
    restricted to the domain: edge (i, j) present iff its facet mass is
    positive.
    The facet is the chord of the (i, j) bisector line left by the
    triangulation neighbours of i and the domain edges; all chords are
    measured in one batched pass. With exact ``stats`` (facet pairs in key
    order, as :func:`exact_cell_stats_2d` gives them), each edge is
    annotated with the mass of its dual facet, 0 where it has none; stats
    built from equal points and heights also give the triangulation.
    """
    if potential.target.dimension != 2:
        raise DimensionUnsupportedError("the dual construction is 2D only")
    points = potential.target.points
    heights = potential.heights
    n = potential.n

    src = None if stats is None else stats._source
    same = (src is not None and np.array_equal(src.points, points)
            and np.array_equal(src.heights, heights))
    edges, hull, _ = src.triangulation if same else _lower_hull_edges(points, heights)

    if domain is not None and len(edges):
        ring = _clip_ring(domain)
        edges = edges[_facet_chord_lengths(points, heights, edges, ring) > ring.tol]

    zero = np.setdiff1d(np.arange(n, dtype=np.int64), hull)
    measures = None
    if stats is not None and stats.has_facet_measures:
        measures = stats._facet_masses(edges, n)
    return DualTriangulation(edges, measures, zero, hull)


def _facet_chord_lengths(points, heights, edges, ring) -> np.ndarray:
    """Length of the power facet of every edge (i, j) inside the domain's clip ring.

    The facet lies on the (i, j) bisector line, in cell i, which only the
    regular-triangulation neighbours of i and the domain edges bound. Each
    bound restricts the line parameter to an interval; all edges are
    measured in one pass, independently of the triangle centres that
    :func:`exact_cell_stats_2d` bounds its facets by.
    """
    p0, direction = _bisector_lines(points, heights, edges)
    lo, hi, blocked = _domain_cut(ring, p0, direction,
                                  *_neighbour_interval(points, heights, edges, p0, direction))
    ok = ~blocked & (lo < hi) & np.isfinite(lo) & np.isfinite(hi)
    return np.where(ok, hi - lo, 0.0)


def _bisector_lines(points, heights, edges):
    """The (i, j) bisector ``<x, y_i - y_j> = h_j - h_i`` of every edge as p0 + t*direction.

    p0 is the line's point nearest the origin, and ``direction`` is
    y_i - y_j turned a quarter turn counterclockwise, at unit length.
    """
    i, j = edges[:, 0], edges[:, 1]
    u = points[i] - points[j]
    c = heights[j] - heights[i]
    nrm2 = _row_dots(u, u)
    p0 = (c / nrm2)[:, None] * u
    return p0, np.column_stack([-u[:, 1], u[:, 0]]) / np.sqrt(nrm2)[:, None]


def _neighbour_interval(points, heights, edges, p0, direction):
    """Line-parameter interval of each (i, j) bisector left by the neighbours of i.

    Each neighbour k keeps ``<x, y_k - y_i> <= h_i - h_k``, which reads
    t*s >= r on the line; padding and j itself map to i, a zero row that is
    parallel with r = 0. Returns lo, hi and the blocked mask of
    :func:`_chord_interval`.
    """
    i, j = edges[:, 0], edges[:, 1]
    nbrs = _neighbour_matrix(edges, len(points))[i]
    nbrs = np.where((nbrs < 0) | (nbrs == j[:, None]), i[:, None], nbrs)
    a = points[i][:, None, :] - points[nbrs]
    r = (heights[nbrs] - heights[i][:, None]) - _row_dots(a, p0[:, None])
    return _chord_interval(r, _row_dots(a, direction[:, None]))


def _domain_cut(ring, p0, direction, lo, hi, blocked):
    """Narrow each line-parameter interval [lo, hi] to the domain's clip ring, in place.

    Only intervals that may cross the ring's boundary meet its edges. About
    the vertex mean, with the adjacency tolerance as margin: an interval
    whose nearest point lies beyond the farthest vertex misses the polygon
    and is blocked, and one with both ends inside the inscribed circle is
    left as it is. Returns lo, hi and blocked.
    """
    # inward side of a CCW domain edge: cross(edge, x - v) >= 0,
    # i.e. <a, p0 + t*dir - v> >= 0  ->  t*s >= <a, v - p0>
    centre = ring.centre
    nearest = p0 + np.clip(_row_dots(centre - p0, direction), lo, hi)[:, None] * direction
    blocked |= _row_dots(nearest - centre, nearest - centre) > ring.outer * ring.outer
    bounded = np.isfinite(lo) & np.isfinite(hi)
    # (2, E) end coordinates column by column: no numpy loop runs over a length-2 axis
    t = np.where(bounded, [lo, hi], 0.0)
    dx = p0[:, 0] + t * direction[:, 0] - centre[0]
    dy = p0[:, 1] + t * direction[:, 1] - centre[1]
    inside = bounded & np.all(dx * dx + dy * dy < ring.inner ** 2, axis=0)
    cut = np.flatnonzero(~blocked & (lo < hi) & ~inside)
    if len(cut):
        rel = np.empty((len(cut), len(ring.verts), 2))
        for k in range(2):
            np.subtract(ring.verts[:, k], p0[cut, k, None], out=rel[:, :, k])
        lo_dom, hi_dom, blocked[cut] = _chord_interval(
            _row_dots(ring.normals, rel), _row_dots(ring.normals, direction[cut, None]))
        lo[cut] = np.maximum(lo[cut], lo_dom)
        hi[cut] = np.minimum(hi[cut], hi_dom)
    return lo, hi, blocked


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
    key = np.unique(np.minimum(*pairs.T) * n + np.maximum(*pairs.T))
    return np.column_stack([key // n, key % n])


def _lower_hull_edges(points: np.ndarray, heights: np.ndarray, line=False):
    """Sorted lower-hull edges (i < j), the sorted targets with a cell, and the lower triangles.

    The triangles are the (k, 3) lower facets of :func:`_lower_facets`, from
    its one qhull call. Collinear targets use the 1D upper hull of
    (<y_i, u>, h_i) along their line direction u (``line``, their
    :func:`_collinear_direction`, found here unless given); coplanar lifted
    points give the planar hull ring. Neither has triangles.
    """
    n = len(points)
    none = np.zeros((0, 3), dtype=np.int64)
    if n == 1:
        return np.zeros((0, 2), dtype=np.int64), np.zeros(1, dtype=np.int64), none
    if line is False:
        line = _collinear_direction(points)
    if line is not None:
        # a target below its neighbours' chord has no cell, and consecutive
        # hull targets are adjacent
        t = points @ line
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
            np.flatnonzero(np.bincount(triangles.ravel())), triangles)
