"""Brute-force power-diagram oracle for cross-checking ``sdot``.

The oracle owns the scalar clipper: ``_clip_vertices`` clips one convex
polygon against one half-plane with a loop over its edges, and
``_cell_vertices`` chains it over one cell's targets. ``sdot`` has no
half-plane clipper: its cells come from the triangle power centres.
``loop_drop_repeats`` runs the clipper's ``_dedupe_ring`` one ring at a
time, where ``sdot.geometry._drop_repeats`` dedupes rings laid end to end
in one pass.
``all_pairs_cell_stats_2d`` clips every cell against every other target,
nearest first, and scans all i < j pairs for shared facets. It reads no
triangulation, so it stays independent of the triangle power centres that
``exact_cell_stats_2d`` builds its cells from.

``_area`` and ``loop_polygon_moments`` are the per-polygon shoelace sums
that ``sdot.geometry.polygon_moments`` computes for many polygons in one
pass. ``loop_facet_chord_length`` measures one facet chord against every
other target, where ``_facet_chord_lengths`` bounds all chords in one pass
by the triangulation neighbours only; ``loop_hessian`` is the per-facet
loop form of ``solver.hessian``, and ``loop_dual_measures`` looks each
dual edge's facet mass up in a dict, where ``legendre_dual`` runs one
``searchsorted``. ``loop_mc_adjacency`` collects the
straddling nearest-sample pairs of ``mc_cell_stats_from_samples`` in a set,
and ``loop_generated_rows`` formats the ``sdot generate`` CSV one row at a
time. ``exact_cell_masses`` repeats the all-pairs clipping in
``fractions.Fraction`` arithmetic, so its cell masses are exact for the
given float inputs, and ``exact_facet_ends`` reads the facet ends off the
same exact cells. ``dense_transport_lp`` hands HiGHS every one of the
m n transport columns at once, where ``sdot.kantorovich.solve_lp`` prices
columns into a small support; both pass HiGHS the same tolerances.
``loop_diagram_vertices`` and ``loop_singular_chains`` key corners in dicts
of rounded float pairs, the vertices on the cell-corner grid and the chains
on a grid of their own joined by a union-find; ``sdot.singularity`` numbers
all corners on one grid with ``np.unique``. On solved diagrams the two
grids agree, and the tests require equal output there.
From ``sdot`` the oracle imports only the constants ``DEGENERACY_TOL``,
``ADJACENCY_TOL`` and ``_HIGHS_OPTIONS`` and the ``PowerCellStats`` record.
"""
from fractions import Fraction

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.spatial import cKDTree

from sdot.geometry import DEGENERACY_TOL
from sdot.kantorovich import _HIGHS_OPTIONS
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


def loop_drop_repeats(rings):
    """``_dedupe_ring`` on each ring, dropping a ring left with fewer than 3 corners.

    Returns the kept corners end to end and the ring sizes.
    """
    kept = [_dedupe_ring(r) if len(r) else r for r in rings]
    kept = [r if len(r) >= 3 else _EMPTY_VERTS for r in kept]
    return np.concatenate([_EMPTY_VERTS, *kept]), np.array([len(r) for r in kept])


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


def _exact_area(poly) -> Fraction:
    total = Fraction(0)
    for (x0, y0), (x1, y1) in zip(poly, poly[1:] + poly[:1]):
        total += x0 * y1 - x1 * y0
    return total / 2


def _exact_clip(poly, a, b):
    """Clip a CCW rational polygon against <a,x> <= b, exactly."""
    s = [a[0] * x + a[1] * y - b for x, y in poly]
    out = []
    for p, q, sp, sq in zip(poly, poly[1:] + poly[:1], s, s[1:] + s[:1]):
        if sp <= 0:
            out.append(p)
        if (sp < 0 < sq) or (sq < 0 < sp):
            t = sp / (sp - sq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out if len(out) >= 3 else []


def _exact_cells(potential, domain):
    """Every cell from all-pairs clipping in rational arithmetic, with the
    rational points, heights and domain area."""
    base = [tuple(map(Fraction, v)) for v in domain.clip_polygon().vertices.tolist()]
    points = [tuple(map(Fraction, y)) for y in potential.target.points.tolist()]
    heights = [Fraction(h) for h in potential.heights.tolist()]
    cells = []
    for i, (yi, hi) in enumerate(zip(points, heights)):
        poly = base
        for j, (yj, hj) in enumerate(zip(points, heights)):
            if j != i and poly:
                poly = _exact_clip(poly, (yj[0] - yi[0], yj[1] - yi[1]), hi - hj)
        cells.append(poly)
    return cells, points, heights, _exact_area(base)


def exact_cell_masses(potential, domain) -> np.ndarray:
    """Cell masses from all-pairs clipping in exact rational arithmetic.

    Every float converts to a Fraction without rounding, so each mass is
    the exact cell area of the given points, heights and domain polygon
    over the exact domain area, rounded once to float.
    """
    cells, _, _, area_domain = _exact_cells(potential, domain)
    return np.array([float(_exact_area(poly) / area_domain) if poly else 0.0
                     for poly in cells])


def exact_facet_ends(potential, domain, pairs) -> np.ndarray:
    """(F, 2, 2) ends of the facets ``pairs`` in exact rational arithmetic.

    The (i, j) facet is made of the vertices of the exact cell i that lie
    exactly on the (i, j) bisector; its ends are the ones of least and of
    greatest spread along the line, each rounded once to float.
    """
    cells, points, heights, _ = _exact_cells(potential, domain)
    out = []
    for i, j in pairs:
        u = (points[i][0] - points[j][0], points[i][1] - points[j][1])
        c = heights[j] - heights[i]
        on = [v for v in cells[i] if u[0] * v[0] + u[1] * v[1] == c]
        spread = [u[0] * v[1] - u[1] * v[0] for v in on]
        ends = (on[spread.index(min(spread))], on[spread.index(max(spread))])
        out.append([[float(x), float(y)] for x, y in ends])
    return np.array(out).reshape(-1, 2, 2)


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


def loop_dual_measures(stats, edges) -> np.ndarray:
    """Facet mass of each dual edge looked up in a dict of the facet pairs (0 if absent)."""
    lookup = {(int(i), int(j)): float(m)
              for (i, j), m in zip(stats.facet_pairs, stats.facet_measures)}
    return np.array([lookup.get((int(i), int(j)), 0.0) for i, j in edges])


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


def loop_mc_adjacency(pts, idx, neighbors, subsample):
    """Sorted (i < j) cell pairs of nearest samples that straddle a boundary.

    Each of the first ``subsample`` samples is paired with its ``neighbors``
    nearest other samples; a pair counts when their cells ``idx`` differ.
    """
    pairs = set()
    if neighbors > 0 and len(pts) > 1:
        sub = pts[:subsample]
        sub_idx = idx[:len(sub)]
        k = min(neighbors + 1, len(sub))
        _, nbr = cKDTree(sub).query(sub, k=k)
        for col in range(1, k):
            a = sub_idx
            b = sub_idx[nbr[:, col]]
            for i, j in zip(a[a != b], b[a != b]):
                pairs.add((min(int(i), int(j)), max(int(i), int(j))))
    return np.asarray(sorted(pairs), dtype=np.int64).reshape(-1, 2)


def loop_generated_rows(samples, idx, points) -> str:
    """Text of ``generated.csv``: header, then "x..., i, y..." per sample."""
    d = samples.shape[1]
    header = ",".join([f"x{k}" for k in range(d)] + ["target_index"]
                      + [f"y{k}" for k in range(d)])
    out = [header + "\n"]
    for row, i, y in zip(samples, idx, points[idx]):
        coords = ",".join(repr(float(v)) for v in row)
        ycoords = ",".join(repr(float(v)) for v in y)
        out.append(f"{coords},{int(i)},{ycoords}\n")
    return "".join(out)


def dense_transport_lp(cost, a, b):
    """Optimal plan and cost of the transport LP over all m n columns."""
    m, n = cost.shape
    A_rows = sparse.kron(sparse.eye(m, format="csr"), np.ones((1, n)), format="csr")
    A_cols = sparse.kron(np.ones((1, m)), sparse.eye(n, format="csr"), format="csr")
    A_eq = sparse.vstack([A_rows, A_cols], format="csr")
    b_eq = np.concatenate([a, b])

    res = linprog(cost.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs-ds", options=_HIGHS_OPTIONS)
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return res.x.reshape(m, n), float(res.fun)


def _quantize(point: np.ndarray, scale: float):
    return (round(float(point[0]) / scale), round(float(point[1]) / scale))


def loop_diagram_vertices(stats, facets: list) -> list:
    """Diagram vertices as (point, cells, singular degree, is singular)."""
    corners = {}
    all_pts = [v for c in stats.cells if len(c) for v in c]
    if not all_pts:
        return []
    span = float(np.abs(np.asarray(all_pts)).max()) + 1.0
    q = 1e-7 * span

    for idx, cell in enumerate(stats.cells):
        for v in cell:
            key = _quantize(v, q)
            corners.setdefault(key, (np.asarray(v, float), set()))[1].add(idx)

    singular_touch = {}
    for k, f in enumerate(facets):
        for end in f.segment:
            key = _quantize(end, q)
            singular_touch.setdefault(key, set()).add(k)

    vertices = []
    for key, (point, cells) in sorted(corners.items()):
        if len(cells) < 3:
            continue
        degree = len(singular_touch.get(key, ()))
        vertices.append((point, tuple(sorted(cells)), degree, degree >= 3))
    return vertices


def loop_singular_chains(graph) -> list:
    """Flagged facets linked by shared endpoints, keyed on their own grid."""
    if not graph.facets:
        return []
    span = max(float(np.abs(f.segment).max()) for f in graph.facets) + 1.0
    q = 1e-7 * span
    point_to_facets = {}
    for k, f in enumerate(graph.facets):
        for end in f.segment:
            point_to_facets.setdefault(_quantize(end, q), []).append(k)

    parent = list(range(len(graph.facets)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for members in point_to_facets.values():
        for other in members[1:]:
            ra, rb = find(members[0]), find(other)
            if ra != rb:
                parent[rb] = ra

    groups = {}
    for k in range(len(graph.facets)):
        groups.setdefault(find(k), []).append(k)
    return sorted(groups.values())
