"""Discrete singular-set extraction and segment probes.

Where the transport map jumps between far-apart targets, the potential has
a ridge over the shared facet; flagging facets whose target gap exceeds a
threshold gives a discrete surrogate for the codimension-1 singular set.
Diagram vertices where at least three flagged facets meet play the role of
higher-order singular points, and the convex hull of the targets reachable
around a vertex approximates the subgradient there.

One table identifies the diagram corners: every cell corner and flagged
facet end is rounded to one grid, and equal rounded points share a corner
id. Vertices, singular degrees and chains (facets linked through a shared
end id) all read these ids.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix

from .geometry import GeometryError, convex_hull_2d
from .potential import BrenierPotential, PowerCellStats, _row_dots


class ThresholdNonpositiveError(ValueError):
    """Singularity threshold must be positive."""


class PointOutsideDomainError(GeometryError):
    """Probe endpoint falls outside the source domain."""


class VertexNotFoundError(KeyError):
    """Requested diagram vertex does not exist."""


@dataclass(frozen=True, eq=False)
class SingularFacet:
    i: int
    j: int
    segment: np.ndarray  # (2, 2) endpoints in the source plane
    gap: float           # distance between the two targets


@dataclass(frozen=True, eq=False)
class DiagramVertex:
    point: np.ndarray
    cells: tuple        # indices of incident cells
    singular_degree: int
    is_singular: bool


@dataclass(eq=False)
class SingularityGraph:
    """Flagged facets and diagram vertices at a fixed threshold."""

    facets: list
    vertices: list
    theta: float
    target_points: np.ndarray
    facet_corners: np.ndarray  # (F, 2) corner ids of each flagged facet's ends

    def singular_vertices(self) -> list:
        return [v for v in self.vertices if v.is_singular]

    def to_json_dict(self) -> dict:
        return {
            "theta": self.theta,
            "facets": [
                {"i": f.i, "j": f.j, "gap": f.gap, "segment": f.segment.tolist()}
                for f in self.facets
            ],
            "vertices": [
                {"point": v.point.tolist(), "cells": list(v.cells),
                 "singular_degree": v.singular_degree, "is_singular": v.is_singular}
                for v in self.vertices
            ],
        }


def _target_gaps(points: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Distance between the two targets of every facet pair."""
    diff = points[pairs[:, 0]] - points[pairs[:, 1]]
    return np.sqrt(_row_dots(diff, diff))


def default_theta(stats: PowerCellStats, target) -> float:
    """Calibrated threshold: three times the median adjacent-target gap (3 with no facets)."""
    if len(stats.facet_pairs) == 0:
        return 3.0
    return 3.0 * float(np.median(_target_gaps(target.points, stats.facet_pairs)))


def detect_singular_facets(stats: PowerCellStats, target, theta: float) -> SingularityGraph:
    """Flag facets whose adjacent targets are farther apart than ``theta``.

    Requires exact 2D statistics (facet geometry). Also assembles the
    diagram vertices (corners shared by at least three cells) with their
    incident cells, marking as singular those meeting >= 3 flagged facets.
    Vertices come in the order of their rounded coordinates.
    """
    if theta <= 0:
        raise ThresholdNonpositiveError("theta must be positive")
    if not stats.has_facet_measures or stats.cells is None:
        raise GeometryError("singularity detection needs exact 2D statistics")

    pts = target.points
    gaps = _target_gaps(pts, stats.facet_pairs)
    flagged = np.flatnonzero(gaps > theta)
    facets = [SingularFacet(int(i), int(j), np.array(seg), float(gap))
              for (i, j), seg, gap in zip(stats.facet_pairs[flagged],
                                          stats.facet_segments[flagged], gaps[flagged])]

    corner_ids, end_ids, corner_points = _corner_table(
        stats.cells, stats.facet_segments[flagged])
    n_ids = len(corner_points)
    cell_of_corner = np.repeat(np.arange(stats.n), [len(c) for c in stats.cells])
    # distinct (corner, cell) incidences, sorted by corner id then cell
    incidences = np.unique(np.column_stack([corner_ids, cell_of_corner]), axis=0)
    cell_counts = np.bincount(incidences[:, 0], minlength=n_ids)
    cells_at = np.split(incidences[:, 1], np.cumsum(cell_counts)[:-1])
    # a facet whose two ends share an id counts once at that corner
    first, second = end_ids.T
    degrees = (np.bincount(first, minlength=n_ids)
               + np.bincount(second[second != first], minlength=n_ids)).tolist()
    vertices = [DiagramVertex(corner_points[v], tuple(cells_at[v].tolist()),
                              degrees[v], degrees[v] >= 3)
                for v in np.flatnonzero(cell_counts >= 3)]
    return SingularityGraph(facets, vertices, float(theta), pts, end_ids)


def _corner_table(cells: list, ends: np.ndarray):
    """Corner ids of the cell corners (cells in order) and of ``ends`` (F, 2, 2).

    Points share an id when they round to one point of the grid of pitch
    1e-7 x (largest |cell-corner coordinate| + 1); ids follow the rounded
    points in lexicographic order. Also returns each id's first point.
    """
    corners = np.concatenate(cells)
    pitch = 1e-7 * (float(np.abs(corners).max(initial=0.0)) + 1.0)
    points = np.concatenate([corners, ends.reshape(-1, 2)])
    keys = np.rint(points / pitch).astype(np.int64)
    _, first, ids = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    ids = ids.reshape(-1)
    return ids[:len(corners)], ids[len(corners):].reshape(-1, 2), points[first]


def singular_chains(graph: SingularityGraph) -> list:
    """Connected components of the flagged facets, as lists of facet indices.

    Facets are linked when they have an end of the same corner id; each
    component is one discrete singular chain. The components come from one
    ``connected_components`` call on the graph that links facet f (node f)
    to the corner ids of its ends (nodes F + id). Facets come first, so the
    labels follow each chain's least facet index.
    """
    # imported on use, so that ``import sdot`` skips csgraph (about 1.2 MB RSS)
    from scipy.sparse.csgraph import connected_components

    f = len(graph.facet_corners)
    n_nodes = f + int(graph.facet_corners.max(initial=-1)) + 1
    links = coo_matrix((np.ones(2 * f), (np.tile(np.arange(f), 2),
                                          f + graph.facet_corners.T.ravel())),
                       shape=(n_nodes, n_nodes))
    label = connected_components(links, directed=False)[1][:f]
    return [np.flatnonzero(label == root).tolist() for root in np.unique(label)]


@dataclass(frozen=True)
class Crossing:
    t: float
    from_cell: int
    to_cell: int
    jump: float
    is_singular: bool


def probe_segment(potential: BrenierPotential, domain, graph: SingularityGraph,
                  p, q, steps: int = 10000) -> list:
    """Walk the segment from p to q and record every cell change.

    Uniform stepping with the crossing parameter reported at the midpoint
    of the bracketing samples; a crossing is singular when the target jump
    exceeds the graph's threshold.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    for name, pt in (("p", p), ("q", q)):
        if not bool(domain.contains(pt[None, :])[0]):
            raise PointOutsideDomainError(f"probe endpoint {name} lies outside the domain")

    ts = np.linspace(0.0, 1.0, steps + 1)
    samples = p[None, :] + ts[:, None] * (q - p)[None, :]
    cells = potential.assign_cell(samples)
    changes = np.nonzero(cells[1:] != cells[:-1])[0]

    pairs = np.column_stack([cells[changes], cells[changes + 1]])
    jumps = _target_gaps(potential.target.points, pairs).tolist()
    return [Crossing(t=float(0.5 * (ts[k] + ts[k + 1])), from_cell=int(a), to_cell=int(b),
                     jump=jump, is_singular=jump > graph.theta)
            for k, (a, b), jump in zip(changes, pairs, jumps)]


def cell_subgradient_extent(graph: SingularityGraph, vertex_index: int) -> np.ndarray:
    """Convex hull of the targets of all cells meeting at a diagram vertex.

    This is the discrete subgradient of the potential at the vertex; its
    diameter measures how violently the map jumps there.
    """
    try:
        vertex = graph.vertices[vertex_index]
    except IndexError:
        raise VertexNotFoundError(f"no diagram vertex {vertex_index}") from None
    targets = graph.target_points[list(vertex.cells)]
    return convex_hull_2d(targets)
