"""Brute-force power-diagram oracle for cross-checking ``sdot``.

The oracle owns the scalar clipper: ``_clip_vertices`` clips one convex
polygon against one half-plane with a loop over its edges, and
``_cell_vertices`` chains it over one cell's targets. ``sdot`` clips every
cell at once in ``sdot.geometry.clip_cells``; nothing here imports it.
``all_pairs_cell_stats_2d`` clips every cell against every other target,
nearest first, and scans all i < j pairs for shared facets. It reads no
triangulation, so it stays independent of the lower-hull candidate lists
that ``exact_cell_stats_2d`` clips against.

``_area`` and ``loop_polygon_moments`` are the per-polygon shoelace sums
that ``sdot.geometry.polygon_moments`` computes for many polygons in one
pass. ``loop_facet_chord_length`` and ``loop_hessian`` are the per-target
and per-facet loop forms of ``_facet_chord_length`` and ``solver.hessian``.
From ``sdot`` the oracle imports only the constants ``DEGENERACY_TOL`` and
``ADJACENCY_TOL`` and the ``PowerCellStats`` record.
"""
import numpy as np

from sdot.geometry import DEGENERACY_TOL
from sdot.potential import ADJACENCY_TOL, PowerCellStats

_EMPTY_VERTS = np.zeros((0, 2))


def _area(verts: np.ndarray) -> float:
    if len(verts) < 3:
        return 0.0
    x, y = verts[:, 0], verts[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    return 0.5 * float(np.sum(x * yn - xn * y))


def _clip_vertices(verts: np.ndarray, a: np.ndarray, b: float) -> np.ndarray:
    """Clip a convex CCW vertex array against the half-plane <a,x> <= b."""
    m = len(verts)
    if m == 0:
        return _EMPTY_VERTS
    s = verts @ a - b
    if np.all(s <= 0.0):
        return verts
    if np.all(s >= 0.0):
        # boundary-only contact collapses to a zero-area polygon
        return _EMPTY_VERTS
    out = []
    for k in range(m):
        p, q = verts[k], verts[(k + 1) % m]
        sp, sq = s[k], s[(k + 1) % m]
        if sp <= 0.0:
            out.append(p)
            if sq > 0.0:
                t = sp / (sp - sq)
                out.append(p + t * (q - p))
        elif sq <= 0.0:
            t = sp / (sp - sq)
            out.append(p + t * (q - p))
    if len(out) < 3:
        return _EMPTY_VERTS
    cleaned = _dedupe_ring(np.asarray(out))
    if len(cleaned) < 3:
        return _EMPTY_VERTS
    return cleaned


def _dedupe_ring(verts: np.ndarray) -> np.ndarray:
    """Drop consecutive (cyclically) duplicate vertices."""
    scale = 1.0 + np.abs(verts).max()
    diff = verts - np.roll(verts, 1, axis=0)
    keep = np.abs(diff).max(axis=1) > DEGENERACY_TOL * scale
    if keep.all():
        return verts
    return verts[keep]


def _cell_vertices(base_verts, points, heights, i, order):
    """Clip the domain polygon down to power cell i, visiting ``order``."""
    verts = base_verts
    yi, hi = points[i], heights[i]
    for j in order:
        a = points[j] - yi
        b = hi - heights[j]
        s = verts @ a - b
        if np.all(s <= 0.0):
            continue
        if np.all(s >= 0.0):
            return _EMPTY_VERTS
        verts = _clip_vertices(verts, a, b)
        if len(verts) == 0:
            return _EMPTY_VERTS
    return verts


def all_pairs_cell_stats_2d(potential, domain, adjacency_tol=ADJACENCY_TOL):
    """Exact 2D cell statistics from all-pairs clipping and facet scan."""
    base_verts = domain.clip_polygon().vertices
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

    d2 = np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=2)
    for i in range(n):
        order = np.argsort(d2[i], kind="stable")
        verts = _cell_vertices(base_verts, points, heights, i, order[order != i])
        cells.append(verts)
        w[i] = _area(verts) / area_domain

    pairs = []
    measures = []
    segments = []
    for i in range(n):
        verts = cells[i]
        if len(verts) == 0:
            continue
        for j in range(i + 1, n):
            if len(cells[j]) == 0:
                continue
            u = points[i] - points[j]
            c = heights[j] - heights[i]
            norm_u = np.sqrt(d2[i, j])
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


def loop_facet_chord_length(points, heights, i, j, domain_verts):
    """Length of the (i, j) power facet inside the domain polygon.

    One interval update per other target and per domain edge, with an
    early exit once the interval is empty.
    """
    u = points[i] - points[j]
    c = heights[j] - heights[i]
    nrm2 = float(u @ u)
    p0 = (c / nrm2) * u
    direction = np.array([-u[1], u[0]]) / np.sqrt(nrm2)

    lo, hi = -np.inf, np.inf
    n = len(points)
    for k in range(n):
        if k == i or k == j:
            continue
        a = points[i] - points[k]
        b = heights[k] - heights[i]
        s = float(direction @ a)
        r = b - float(p0 @ a)
        if abs(s) <= 1e-15:
            if r > 0:
                return 0.0
            continue
        t = r / s
        if s > 0:
            lo = max(lo, t)
        else:
            hi = min(hi, t)
        if lo >= hi:
            return 0.0
    m = len(domain_verts)
    for k in range(m):
        v, w_ = domain_verts[k], domain_verts[(k + 1) % m]
        edge = w_ - v
        a = np.array([-edge[1], edge[0]])
        s = float(direction @ a)
        rhs = float(a @ (v - p0))
        if abs(s) <= 1e-15:
            if rhs > 0:
                return 0.0
            continue
        t = rhs / s
        if s > 0:
            lo = max(lo, t)
        else:
            hi = min(hi, t)
        if lo >= hi:
            return 0.0
    if not np.isfinite(lo) or not np.isfinite(hi):
        return 0.0
    return float(hi - lo)


def loop_polygon_moments(verts: np.ndarray):
    """Area, first moments, and axis second moments of one CCW polygon."""
    x, y = verts[:, 0], verts[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    a = 0.5 * float(np.sum(cross))
    sx = float(np.sum((x + xn) * cross)) / 6.0
    sy = float(np.sum((y + yn) * cross)) / 6.0
    ixx = float(np.sum((x * x + x * xn + xn * xn) * cross)) / 12.0
    iyy = float(np.sum((y * y + y * yn + yn * yn) * cross)) / 12.0
    return a, sx, sy, ixx, iyy


def loop_hessian(stats, target):
    """Energy Hessian assembled one facet at a time."""
    n = stats.n
    H = np.zeros((n, n))
    pts = target.points
    for (i, j), s in zip(stats.facet_pairs, stats.facet_measures):
        gap = float(np.linalg.norm(pts[i] - pts[j]))
        v = s / gap
        H[i, j] -= v
        H[j, i] -= v
        H[i, i] += v
        H[j, j] += v
    return H
