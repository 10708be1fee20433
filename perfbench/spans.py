"""In-memory span tracing around sdot's public entry points.

A traced run replaces each entry point, under the name its caller looks
up, with a wrapper that records a span: name, start, end, the index of
the enclosing span and the id of the benchmark task it belongs to. Spans
stay in memory until the run ends. The untraced run installs nothing.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

# (module, attribute path inside it, span name). Several patch points may
# share a span name when callers reach one function under different names.
ENTRY_POINTS = [
    ("sdot", "solve", "solver.solve"),
    ("sdot", "transport_cost", "solver.transport_cost"),
    ("sdot.solver", "hessian", "solver.hessian"),
    ("sdot.solver", "exact_cell_stats_2d", "potential.cell_stats"),
    ("sdot", "exact_cell_stats_2d", "potential.cell_stats"),
    ("sdot", "legendre_dual", "potential.legendre_dual"),
    ("sdot.potential", "BrenierPotential.assign_cell", "potential.assign_cell"),
    ("sdot", "sample_source", "geometry.sample_source"),
    ("sdot.cli", "sample_source", "geometry.sample_source"),
    ("sdot.singularity", "default_theta", "singularity.theta"),
    ("sdot.singularity", "detect_singular_facets", "singularity.detect"),
    ("sdot.singularity", "singular_chains", "singularity.chains"),
    ("sdot.singularity", "probe_segment", "singularity.probe"),
    ("sdot.render", "build_scene", "render.build_scene"),
    ("sdot.render", "scene_to_svg", "render.scene_to_svg"),
    ("sdot.kantorovich", "solve_lp", "kantorovich.solve_lp"),
    ("sdot.cli", "cmd_solve", "cli.solve"),
    ("sdot.cli", "cmd_generate", "cli.generate"),
    ("sdot.cli", "load_config", "config.load"),
    ("sdot.cli", "build_domain", "config.build_domain"),
    ("sdot.cli", "build_target", "config.build_target"),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "task", "child")

    def __init__(self, name, start, parent, task):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.task = task
        self.child = 0.0  # time covered by direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def own(self) -> float:
        """Self time: duration minus the time direct children cover."""
        return self.duration - self.child


class Tracer:
    """Collects spans; ``task`` tags new spans (None outside timed tasks)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.task = None
        self._stack: list[int] = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), parent, self.task)
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()
                if parent >= 0:
                    self.spans[parent].child += span.duration
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every entry point for the duration of the block.

        A missing attribute raises AttributeError, so a renamed entry point
        stops the traced run instead of silently recording nothing.
        """
        saved = []
        try:
            for module_name, path, span_name in ENTRY_POINTS:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                setattr(owner, attr, self.wrap(span_name, original))
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def task_spans(self) -> dict:
        """Spans recorded inside timed tasks, grouped by task id."""
        out: dict = {}
        for span in self.spans:
            if span.task is not None:
                out.setdefault(span.task, []).append(span)
        return out

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.task is not None and s.name == name)

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for k, s in enumerate(self.spans):
                fh.write(json.dumps({"id": k, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "task": s.task}) + "\n")


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of one wrapper call, for the tracing-overhead estimate."""
    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer.wrap("noop", noop)
    start = time.perf_counter()
    for _ in range(samples):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(samples):
        wrapped()
    return max((time.perf_counter() - start - bare) / samples, 0.0)
