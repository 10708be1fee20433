"""Convex source domains, discrete target measures, and exact 2D polygon primitives.

The continuous side of the transport problem lives here: convex compact
domains carrying a uniform probability density, Monte Carlo sampling, and
the polygon arithmetic the exact 2D cell computations are built on: the
ring dedupe and one shoelace pass for the moments of many polygons. Batched
polygon code takes the rings laid end to end, one (m, 2) corner array, with
their (n,) sizes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

# Absolute tolerance for collinearity/degeneracy tests on cross products.
DEGENERACY_TOL = 1e-12

# Number of sides of the inscribed polygon standing in for a 2D disk.
DISK_SIDES = 256

# The unit circle's DISK_SIDES-gon, CCW from angle 0.
_DISK_THETA = 2.0 * math.pi * np.arange(DISK_SIDES) / DISK_SIDES
_UNIT_DISK_RING = np.stack([np.cos(_DISK_THETA), np.sin(_DISK_THETA)], axis=1)


class GeometryError(ValueError):
    """Base class for invalid geometric input."""


class DuplicatePointError(GeometryError):
    """Two target points closer than the duplicate tolerance."""


class NonpositiveWeightError(GeometryError):
    """A target weight is zero, negative, or not finite."""


class MassMismatchError(GeometryError):
    """Total mass deviates from the expected value beyond tolerance."""


class DimensionUnsupportedError(GeometryError):
    """Operation requested in a dimension it does not support."""


# ---------------------------------------------------------------------------
# convex polygons
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ConvexPolygon:
    """Convex polygon as a CCW vertex list; the empty polygon has no vertices."""

    vertices: np.ndarray

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=float).reshape(-1, 2)
        object.__setattr__(self, "vertices", verts)

    @classmethod
    def from_vertices(cls, vertices) -> "ConvexPolygon":
        """Build a polygon after checking it is simple, convex and CCW."""
        verts = np.asarray(vertices, dtype=float).reshape(-1, 2)
        if len(verts) == 0:
            return cls(verts)
        if len(verts) < 3:
            raise GeometryError("polygon needs at least 3 vertices (or none)")
        crosses = _edge_crosses(verts)
        if np.any(crosses < -DEGENERACY_TOL):
            raise GeometryError("polygon is not convex/CCW (negative turn)")
        if np.count_nonzero(crosses > DEGENERACY_TOL) < 3:
            raise GeometryError("polygon is degenerate (fewer than 3 strict turns)")
        return cls(verts)

    @property
    def is_empty(self) -> bool:
        return len(self.vertices) == 0

    def area(self) -> float:
        return polygon_area(self)

    def centroid(self) -> np.ndarray:
        return polygon_centroid(self)

    def contains(self, points, tol: float = 1e-12) -> np.ndarray:
        """Membership test, vectorized over rows of ``points``."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.is_empty:
            return np.zeros(len(pts), dtype=bool)
        verts = self.vertices
        edge = _cycled(verts) - verts
        # cross((v2-v1), (p-v1)) >= 0 for all edges of a CCW convex polygon
        rel = pts[:, None, :] - verts[None, :, :]
        cross = edge[None, :, 0] * rel[:, :, 1] - edge[None, :, 1] * rel[:, :, 0]
        scale = 1.0 + np.abs(verts).max()
        return np.all(cross >= -tol * scale, axis=1)


def _edge_crosses(verts: np.ndarray) -> np.ndarray:
    """Cross products of consecutive edge pairs of a closed polygon."""
    e = _cycled(verts) - verts
    e_next = _cycled(e)
    return e[:, 0] * e_next[:, 1] - e[:, 1] * e_next[:, 0]


def _cycled(x: np.ndarray) -> np.ndarray:
    """``x`` shifted one place back along axis 0, cyclically: row k holds x[k + 1]."""
    return np.concatenate((x[1:], x[:1]))


def polygon_area(poly) -> float:
    """Shoelace area; CCW input gives a nonnegative result."""
    verts = poly.vertices if isinstance(poly, ConvexPolygon) else np.asarray(poly, float)
    return float(polygon_moments([verts])[0, 0])


def polygon_centroid(poly) -> np.ndarray:
    """Exact area centroid; falls back to the vertex mean for slivers."""
    verts = poly.vertices if isinstance(poly, ConvexPolygon) else np.asarray(poly, float)
    if len(verts) == 0:
        raise GeometryError("centroid of empty polygon")
    a, sx, sy, _, _ = polygon_moments([verts])[0]
    if abs(a) < 1e-300:
        return verts.mean(axis=0)
    return np.array([sx / a, sy / a])


def polygon_moments(polygons) -> np.ndarray:
    """Area, first moments (x, y) and axis second moments (xx, yy) of CCW rings.

    Returns an (n, 5) array; a ring with fewer than 3 vertices gives a zero row.
    """
    rings = [p if len(p) >= 3 else np.zeros((0, 2)) for p in polygons]
    return _packed_moments(np.concatenate([np.zeros((0, 2)), *rings], dtype=float),
                           np.array([len(p) for p in rings], dtype=np.int64))


def _packed_moments(verts, sizes) -> np.ndarray:
    """:func:`polygon_moments` of rings laid end to end with their sizes, each 0 or >= 3.

    ``np.add.reduceat`` sums each ring's shoelace terms. Empty rings are left out first:
    it returns the element at a start index, not 0, when two starts are equal.
    """
    out = np.zeros((len(sizes), 5))
    real = sizes > 0
    if not real.any():
        return out
    sizes = sizes[real]
    starts = np.cumsum(sizes) - sizes
    succ = np.arange(1, len(verts) + 1)
    succ[starts + sizes - 1] = starts
    x, y = verts[:, 0], verts[:, 1]
    xn, yn = x[succ], y[succ]
    cross = x * yn - xn * y
    terms = np.stack([cross, (x + xn) * cross, (y + yn) * cross,
                      (x * x + x * xn + xn * xn) * cross,
                      (y * y + y * yn + yn * yn) * cross])
    out[real] = np.add.reduceat(terms, starts, axis=1).T / [2.0, 6.0, 6.0, 12.0, 12.0]
    return out


def _drop_repeats(verts, owner, n):
    """Drop each corner within DEGENERACY_TOL of its cyclic predecessor in its own ring.

    ``verts`` holds n rings laid end to end and ``owner`` (sorted) the ring of
    each corner. The tolerance scales with 1 + the ring's largest coordinate
    magnitude, and each corner is compared with its original predecessor.
    Returns the kept corners, still end to end, and the (n,) ring sizes; a
    ring left with fewer than 3 corners is dropped whole and has size 0.
    """
    ends = np.cumsum(np.bincount(owner, minlength=n))
    first = np.diff(owner, prepend=-1) > 0
    prev = np.where(first, ends[owner], np.arange(len(verts))) - 1
    peak = np.maximum.reduceat(np.maximum(*np.abs(verts).T), np.flatnonzero(first))
    scale = 1.0 + peak[np.cumsum(first) - 1]
    keep = np.maximum(*np.abs(verts - verts[prev]).T) > DEGENERACY_TOL * scale
    sizes = np.bincount(owner[keep], minlength=n)
    keep &= (sizes >= 3)[owner]
    return verts[keep], np.where(sizes < 3, 0, sizes)


def convex_hull_2d(points: np.ndarray) -> np.ndarray:
    """CCW hull vertices of a 2D point set (monotone chain).

    Collinear input collapses to the two extreme points.
    """
    pts = np.unique(np.asarray(points, dtype=float).reshape(-1, 2), axis=0)
    if len(pts) <= 2:
        return pts
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]

    def half(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2:
                o, q = chain[-2], chain[-1]
                if (q[0] - o[0]) * (p[1] - o[1]) - (q[1] - o[1]) * (p[0] - o[0]) <= DEGENERACY_TOL:
                    chain.pop()
                else:
                    break
            chain.append(p)
        return chain

    lower = half(pts)
    upper = half(pts[::-1])
    hull = np.asarray(lower[:-1] + upper[:-1])
    return hull


# ---------------------------------------------------------------------------
# source domains
# ---------------------------------------------------------------------------


def _batched_rejection(rng, count, lo, hi, accept):
    """Draw uniform points in a box, keep those passing ``accept``, in order."""
    d = len(lo)
    kept = []
    got = 0
    while got < count:
        batch = max(2 * (count - got), 64)
        pts = rng.uniform(lo, hi, size=(batch, d))
        ok = accept(pts)
        sel = pts[ok]
        kept.append(sel)
        got += len(sel)
    return np.concatenate(kept)[:count]


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box with per-axis bounds, uniform density."""

    bounds: np.ndarray  # (d, 2)
    seed: int = 0

    def __post_init__(self):
        b = np.array(self.bounds, dtype=float).reshape(-1, 2)
        b.flags.writeable = False  # a copy no one can move under a built domain
        if not np.all(np.isfinite(b)):
            raise GeometryError("box bounds must be finite")
        if np.any(b[:, 1] <= b[:, 0]):
            raise GeometryError("box bounds must satisfy lo < hi on every axis")
        object.__setattr__(self, "bounds", b)

    @property
    def dimension(self) -> int:
        return len(self.bounds)

    def volume(self) -> float:
        return float(np.prod(self.bounds[:, 1] - self.bounds[:, 0]))

    def density(self) -> float:
        return 1.0 / self.volume()

    def bounding_box(self) -> np.ndarray:
        return self.bounds

    def contains(self, points, tol: float = 1e-12) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        lo, hi = self.bounds[:, 0], self.bounds[:, 1]
        scale = 1.0 + np.abs(self.bounds).max()
        return np.all((pts >= lo - tol * scale) & (pts <= hi + tol * scale), axis=1)

    def interior_ball(self):
        center = self.bounds.mean(axis=1)
        radius = float((self.bounds[:, 1] - self.bounds[:, 0]).min()) / 2.0
        return center, radius

    def sample(self, count: int, rng=None) -> np.ndarray:
        rng = np.random.default_rng(self.seed) if rng is None else rng
        lo, hi = self.bounds[:, 0], self.bounds[:, 1]
        return rng.uniform(lo, hi, size=(count, self.dimension))

    def clip_polygon(self) -> ConvexPolygon:
        if self.dimension != 2:
            raise DimensionUnsupportedError("exact clipping needs a 2D domain")
        (x0, x1), (y0, y1) = self.bounds
        return ConvexPolygon(np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]]))


@dataclass(frozen=True, eq=False)
class Ball:
    """Euclidean ball (disk in 2D) with uniform density."""

    center: np.ndarray
    radius: float
    seed: int = 0

    def __post_init__(self):
        c = np.array(self.center, dtype=float).reshape(-1)
        c.flags.writeable = False
        if not (np.all(np.isfinite(c)) and np.isfinite(self.radius) and self.radius > 0):
            raise GeometryError("ball needs a finite center and positive radius")
        object.__setattr__(self, "center", c)

    @property
    def dimension(self) -> int:
        return len(self.center)

    def volume(self) -> float:
        d = self.dimension
        return float(math.pi ** (d / 2) / math.gamma(d / 2 + 1) * self.radius**d)

    def density(self) -> float:
        return 1.0 / self.volume()

    def bounding_box(self) -> np.ndarray:
        lo = self.center - self.radius
        hi = self.center + self.radius
        return np.stack([lo, hi], axis=1)

    def contains(self, points, tol: float = 1e-12) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        dist = np.linalg.norm(pts - self.center, axis=1)
        return dist <= self.radius * (1.0 + tol) + tol

    def interior_ball(self):
        return self.center, self.radius

    def sample(self, count: int, rng=None) -> np.ndarray:
        rng = np.random.default_rng(self.seed) if rng is None else rng
        bb = self.bounding_box()
        return _batched_rejection(
            rng, count, bb[:, 0], bb[:, 1],
            lambda pts: np.linalg.norm(pts - self.center, axis=1) <= self.radius,
        )

    def clip_polygon(self) -> ConvexPolygon:
        """Inscribed regular polygon used by the exact 2D cell computations.

        Its area (not pi r^2) is the mass normalizer, so cell fractions still
        sum to one exactly.
        """
        if self.dimension != 2:
            raise DimensionUnsupportedError("exact clipping needs a 2D domain")
        return ConvexPolygon(self.center + self.radius * _UNIT_DISK_RING)


@dataclass(frozen=True, eq=False)
class PolygonDomain:
    """Convex polygonal 2D domain with uniform density."""

    polygon: ConvexPolygon
    seed: int = 0

    def __post_init__(self):
        verts = self.polygon.vertices if isinstance(self.polygon, ConvexPolygon) else self.polygon
        poly = ConvexPolygon.from_vertices(np.array(verts, dtype=float))
        poly.vertices.flags.writeable = False
        object.__setattr__(self, "polygon", poly)
        if poly.is_empty or poly.area() <= 0:
            raise GeometryError("polygon domain must have positive area")

    @property
    def dimension(self) -> int:
        return 2

    def volume(self) -> float:
        return self.polygon.area()

    def density(self) -> float:
        return 1.0 / self.volume()

    def bounding_box(self) -> np.ndarray:
        verts = self.polygon.vertices
        return np.stack([verts.min(axis=0), verts.max(axis=0)], axis=1)

    def contains(self, points, tol: float = 1e-12) -> np.ndarray:
        return self.polygon.contains(points, tol=tol)

    def interior_ball(self):
        center = self.polygon.centroid()
        verts = self.polygon.vertices
        edge = _cycled(verts) - verts
        lengths = np.linalg.norm(edge, axis=1)
        rel = center - verts
        # distance from the centroid to each edge line
        dists = (edge[:, 0] * rel[:, 1] - edge[:, 1] * rel[:, 0]) / lengths
        return center, float(dists.min())

    def sample(self, count: int, rng=None) -> np.ndarray:
        rng = np.random.default_rng(self.seed) if rng is None else rng
        bb = self.bounding_box()
        return _batched_rejection(rng, count, bb[:, 0], bb[:, 1], self.polygon.contains)

    def clip_polygon(self) -> ConvexPolygon:
        return self.polygon


def box_domain(bounds, seed: int = 0) -> Box:
    return Box(np.asarray(bounds, dtype=float), seed=seed)


def ball_domain(center, radius: float, seed: int = 0) -> Ball:
    return Ball(np.asarray(center, dtype=float), float(radius), seed=seed)


# a disk is just the 2D ball; kept as a named alias for config readability
disk_domain = ball_domain


def polygon_domain(vertices, seed: int = 0) -> PolygonDomain:
    return PolygonDomain(ConvexPolygon.from_vertices(vertices), seed=seed)


def sample_source(domain, count: int, rng=None) -> np.ndarray:
    """Draw ``count`` i.i.d. samples from the domain's uniform measure.

    Deterministic for a fixed domain seed when no generator is passed;
    callers running in parallel should pass their own ``rng``.
    """
    if count < 1:
        raise GeometryError("sample count must be >= 1")
    return domain.sample(count, rng=rng)


# ---------------------------------------------------------------------------
# discrete target measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DiscreteTargetMeasure:
    """Finite weighted point cloud with weights summing to one."""

    points: np.ndarray   # (n, d)
    weights: np.ndarray  # (n,)

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def dimension(self) -> int:
        return self.points.shape[1]


def validate_target(points, weights=None, mass_tolerance: float = 1e-6) -> DiscreteTargetMeasure:
    """Validate and normalize a discrete target measure.

    Weights may be omitted, in which case the measure is uniform. Weights
    whose sum is within ``mass_tolerance`` of one are rescaled to sum to one
    exactly; a larger deviation raises :class:`MassMismatchError`.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if len(pts) < 1:
        raise GeometryError("target measure needs at least one point")
    if not np.all(np.isfinite(pts)):
        raise GeometryError("target points must be finite")
    if weights is None:
        w = np.full(len(pts), 1.0 / len(pts))
    else:
        w = np.asarray(weights, dtype=float).reshape(-1)
        if len(w) != len(pts):
            raise GeometryError("weights and points disagree in length")
        if not np.all(np.isfinite(w)):
            raise NonpositiveWeightError("weights must be finite")
        if np.any(w <= 0):
            raise NonpositiveWeightError("weights must all be positive")
        total = float(w.sum())
        if abs(total - 1.0) > mass_tolerance:
            raise MassMismatchError(
                f"weights sum to {total:.12g}, outside tolerance {mass_tolerance:g} of 1"
            )
        w = w / total

    pairs = cKDTree(pts).query_pairs(DEGENERACY_TOL)
    if pairs:
        i, j = min(pairs)
        raise DuplicatePointError(f"target points {i} and {j} coincide")
    return DiscreteTargetMeasure(pts, w)


def load_target_csv(path, dimension: int | None = None,
                    mass_tolerance: float = 1e-6) -> DiscreteTargetMeasure:
    """Load a target measure from CSV: one row per point, coordinates then
    an optional trailing weight column.

    A header row is detected by a non-numeric first token and skipped. When
    ``dimension`` is given, a row of ``dimension + 1`` numbers carries a
    weight; without it every column is read as a coordinate.
    """
    rows = []
    with open(path, newline="") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rows.append([tok.strip() for tok in line.split(",")])
    if not rows:
        raise GeometryError(f"no rows in target file {path}")

    def _numeric(row):
        try:
            return [float(tok) for tok in row]
        except ValueError:
            return None

    first = _numeric(rows[0])
    if first is None:
        rows = rows[1:]
        if not rows:
            raise GeometryError(f"target file {path} has a header but no data")
    data = []
    for k, row in enumerate(rows):
        vals = _numeric(row)
        if vals is None:
            raise GeometryError(f"non-numeric row {k} in target file {path}")
        data.append(vals)
    widths = {len(r) for r in data}
    if len(widths) != 1:
        raise GeometryError(f"ragged rows in target file {path}")
    width = widths.pop()

    arr = np.asarray(data, dtype=float)
    if dimension is None:
        return validate_target(arr, None, mass_tolerance)
    if width == dimension:
        return validate_target(arr, None, mass_tolerance)
    if width == dimension + 1:
        return validate_target(arr[:, :dimension], arr[:, dimension], mass_tolerance)
    raise GeometryError(
        f"target file {path} has {width} columns; expected {dimension} or {dimension + 1}"
    )
