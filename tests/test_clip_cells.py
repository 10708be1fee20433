"""Batched polygon clipper against the chained scalar clipper of the oracle.

``clip_cells`` clips every row of a padded candidate matrix in one pass.
Each row must come out as ``oracle._cell_vertices``, which chains the
scalar ``_clip_vertices`` over the same half-planes in the same order:
same vertex count (so the same empty cells) and vertices within 1e-14.
Coordinates are dyadic on the box and the pentagon, so a half-plane drawn
through a vertex meets it with s == 0 exactly there.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import sdot
from sdot.geometry import clip_cells
from oracle import _cell_vertices

BASES = {
    "box": sdot.box_domain([[-1.0, 1.0], [-1.0, 1.0]]).clip_polygon().vertices,
    "disk": sdot.disk_domain([0.0, 0.0], 1.0).clip_polygon().vertices,
    "pentagon": sdot.polygon_domain([(-1.0, -0.875), (0.75, -1.0), (1.0, 0.625),
                                     (0.125, 1.0), (-0.875, 0.75)]).polygon.vertices,
}
DYADIC = st.integers(-16, 16).map(lambda k: k / 8.0)
# offsets that put a line just off a vertex: some crossings land within the
# dedupe tolerance of the vertex, some just outside it
NUDGES = st.sampled_from([0.0, 1e-16, 1e-15, 1e-13, 1e-12, 3e-12, 1e-9])


@st.composite
def halfplanes(draw, base):
    """(a, b) of a half-plane <a, x> <= b: an arbitrary offset, or a line
    through (or nudged off) a base vertex, which cuts, misses or only
    touches the polygon depending on the direction of a."""
    a = np.array([draw(DYADIC), draw(DYADIC)])
    if draw(st.booleans()):
        return a, 2.0 * draw(DYADIC)
    vertex = base[draw(st.integers(0, len(base) - 1))]
    return a, float(vertex @ a) + draw(st.sampled_from([-1.0, 1.0])) * draw(NUDGES)


@st.composite
def clip_problems(draw):
    """A base polygon, a pool of half-planes and rows of pool indices.

    Row r is site r at the origin with height 0; pool half-plane (a, b) is
    site ``rows + k`` at ``a`` with height ``-b``, so row r clips against
    <x, a - 0> <= 0 - (-b), exactly the drawn half-plane.
    """
    base = BASES[draw(st.sampled_from(sorted(BASES)))]
    pool = draw(st.lists(halfplanes(base), min_size=1, max_size=8))
    rows = draw(st.lists(st.lists(st.integers(0, len(pool) - 1), max_size=7),
                         min_size=1, max_size=6))
    points = np.vstack([np.zeros((len(rows), 2)), [a for a, _ in pool]])
    heights = np.concatenate([np.zeros(len(rows)), [-b for _, b in pool]])
    candidates = np.full((len(rows), max(map(len, rows))), -1, dtype=np.int64)
    for r, row in enumerate(rows):
        candidates[r, :len(row)] = np.asarray(row, dtype=np.int64) + len(rows)
    return base, points, heights, candidates


def row_candidates(candidates, r):
    row = candidates[r]
    return row[row >= 0]


@given(clip_problems())
@settings(max_examples=300, deadline=None)
def test_clip_cells_matches_scalar_chain(problem):
    base, points, heights, candidates = problem
    verts, counts = clip_cells(base, points, heights, candidates)
    assert verts.shape == (len(candidates), counts.max(initial=0), 2)
    for r in range(len(candidates)):
        want = _cell_vertices(base, points, heights, r, row_candidates(candidates, r))
        assert counts[r] == len(want)
        assert np.abs(verts[r, :counts[r]] - want).max(initial=0.0) <= 1e-14
        assert not verts[r, counts[r]:].any()


def test_boundary_only_contact_empties_and_touching_line_skips():
    box = BASES["box"]
    # lines through the corner (1, 1): the box lies on the far side of the
    # first (boundary-only contact), on the kept side of the second
    points = np.array([[0.0, 0.0], [0.0, 0.0], [-1.0, -1.0], [1.0, 1.0]])
    heights = np.array([0.0, 0.0, -(-2.0), -2.0])
    verts, counts = clip_cells(box, points, heights, [[2], [3]])
    assert counts.tolist() == [0, 4]
    assert np.array_equal(verts[1], box)
