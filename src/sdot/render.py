"""Deterministic SVG rendering of solved diagrams.

One filled polygon per cell, colored by target cluster (or by index),
singular facets stroked on top, target points as dots, and an optional
probe segment with crossing markers. Output is a pure function of the
scene, so identical inputs give byte-identical files.
"""
from __future__ import annotations

import colorsys
from dataclasses import dataclass, field

import numpy as np

# Categorical palette used when cluster labels are available.
PALETTE = [
    "#4c78a8", "#f58518", "#54a24b", "#e45756", "#72b7b2", "#eeca3b",
    "#b279a2", "#ff9da6", "#9d755d", "#bab0ac", "#637939", "#843c39",
]

SINGULAR_COLOR = "#d62728"
PROBE_COLOR = "#1f1f1f"


def index_color(i: int) -> str:
    """Stable per-index color from a golden-angle hue walk."""
    hue = (0.61803398875 * i) % 1.0
    r, g, b = colorsys.hls_to_rgb(hue, 0.62, 0.55)
    return "#%02x%02x%02x" % (round(255 * r), round(255 * g), round(255 * b))


@dataclass
class RenderScene:
    """Geometry staged for rendering, all in world coordinates."""

    domain_outline: np.ndarray             # (m, 2)
    cells: list = field(default_factory=list)        # (vertices, fill color)
    points: np.ndarray | None = None       # target points
    singular_segments: list = field(default_factory=list)  # (2, 2) arrays
    probe: np.ndarray | None = None        # (2, 2) endpoints
    crossings: list = field(default_factory=list)    # (point, is_singular)

    def bounds(self) -> np.ndarray:
        chunks = [self.domain_outline]
        chunks += [verts for verts, _ in self.cells if len(verts)]
        if self.points is not None and len(self.points):
            chunks.append(self.points)
        for seg in self.singular_segments:
            chunks.append(np.asarray(seg))
        if self.probe is not None:
            chunks.append(self.probe)
        allpts = np.concatenate([np.atleast_2d(c) for c in chunks])
        return np.stack([allpts.min(axis=0), allpts.max(axis=0)], axis=1)


def build_scene(domain_outline, stats, target_points, labels=None, graph=None,
                probe=None, crossings=None, show_targets=True) -> RenderScene:
    """Assemble a scene from solved artifacts.

    Cell fills are keyed by the targets' cluster labels when given, else by
    cell index.
    """
    scene = RenderScene(domain_outline=np.asarray(domain_outline, dtype=float))
    if stats.cells is not None:
        for i, verts in enumerate(stats.cells):
            if len(verts) < 3:
                continue
            if labels is not None:
                color = PALETTE[int(labels[i]) % len(PALETTE)]
            else:
                color = index_color(i)
            scene.cells.append((np.asarray(verts, dtype=float), color))
    if show_targets and target_points is not None:
        scene.points = np.asarray(target_points, dtype=float)
    if graph is not None:
        scene.singular_segments = [np.asarray(f.segment, dtype=float)
                                   for f in graph.facets]
    if probe is not None:
        scene.probe = np.asarray(probe, dtype=float)
        if crossings:
            p, q = scene.probe
            scene.crossings = [(p + c.t * (q - p), c.is_singular) for c in crossings]
    return scene


def scene_to_svg(scene: RenderScene, size: int = 640) -> str:
    """Serialize the scene to an SVG document string."""
    bb = scene.bounds()
    span = bb[:, 1] - bb[:, 0]
    span[span <= 0] = 1.0
    margin = 0.05 * float(span.max())
    lo = bb[:, 0] - margin
    world = float(span.max()) + 2 * margin
    scale = size / world

    def sx(x: float) -> str:
        return f"{(x - lo[0]) * scale:.4f}"

    def sy(y: float) -> str:
        # SVG y runs downward
        return f"{size - (y - lo[1]) * scale:.4f}"

    def pts_attr(verts) -> str:
        return " ".join(f"{sx(vx)},{sy(vy)}" for vx, vy in verts)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="#ffffff"/>',
    ]
    for verts, color in scene.cells:
        out.append(f'<polygon points="{pts_attr(verts)}" fill="{color}" '
                   f'stroke="#3b3b3b" stroke-width="0.6"/>')
    out.append(f'<polygon points="{pts_attr(scene.domain_outline)}" fill="none" '
               f'stroke="#000000" stroke-width="1.5"/>')
    for seg in scene.singular_segments:
        (x1, y1), (x2, y2) = seg
        out.append(f'<line x1="{sx(x1)}" y1="{sy(y1)}" x2="{sx(x2)}" y2="{sy(y2)}" '
                   f'stroke="{SINGULAR_COLOR}" stroke-width="3"/>')
    if scene.probe is not None:
        (x1, y1), (x2, y2) = scene.probe
        out.append(f'<line x1="{sx(x1)}" y1="{sy(y1)}" x2="{sx(x2)}" y2="{sy(y2)}" '
                   f'stroke="{PROBE_COLOR}" stroke-width="1.2" stroke-dasharray="6,4"/>')
        for point, is_singular in scene.crossings:
            color = SINGULAR_COLOR if is_singular else PROBE_COLOR
            out.append(f'<circle cx="{sx(point[0])}" cy="{sy(point[1])}" r="3.5" '
                       f'fill="none" stroke="{color}" stroke-width="1.5"/>')
    if scene.points is not None:
        for px, py in scene.points:
            out.append(f'<circle cx="{sx(px)}" cy="{sy(py)}" r="2.2" fill="#111111"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
