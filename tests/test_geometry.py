import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sdot
from sdot.geometry import (
    DEGENERACY_TOL,
    ConvexPolygon,
    DuplicatePointError,
    GeometryError,
    MassMismatchError,
    NonpositiveWeightError,
    _drop_repeats,
    load_target_csv,
    polygon_area,
    polygon_centroid,
)
from oracle import loop_drop_repeats

UNIT_SQUARE = ConvexPolygon.from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)])


def planted(ring, k, factor, axis=(1.0, 0.0)):
    """``ring`` with corner k moved to ``factor`` times the dedupe tolerance past
    its cyclic predecessor; the tolerance is the ring's own, from before the move."""
    ring = np.array(ring, dtype=float)
    tol = DEGENERACY_TOL * (1.0 + np.abs(ring).max())
    ring[k] = ring[k - 1] + factor * tol * np.asarray(axis)
    return ring


SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
COORD = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
AXES = [(1.0, 0.0), (0.0, -1.0), (-1.0, 1.0)]
# one of each case, with the sizes the dedupe must give them
PLANTED_RINGS = [
    np.zeros((0, 2)),
    np.array([[0.5, 0.5]]),
    np.array([[0.0, 0.0], [1.0, 0.0]]),
    planted(1e-3 * SQUARE[:3], 0, 0.5),               # last-to-first repeat: 2 left
    planted(planted(1e3 * SQUARE, 0, 2.0), 2, 0.5),   # keeps the 2x, drops the 0.5x
    planted(1e-3 * SQUARE, 2, 2.0, (0.0, -1.0)),      # 2x of its own, far below 1e3's
]
PLANTED_SIZES = [0, 0, 0, 0, 3, 4]


@st.composite
def ring_runs(draw):
    """1-6 rings of 0-7 corners at scales 1e-3, 1 and 1e3, with repeats planted at
    0.5x and 2x their own ring's tolerance (corner 0 last, against the ring's final
    last corner); a ring may start on the previous ring's last corner."""
    rings = []
    for _ in range(draw(st.integers(1, 6))):
        m = draw(st.integers(0, 7))
        scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
        ring = scale * np.array(draw(st.lists(st.tuples(COORD, COORD),
                                              min_size=m, max_size=m))).reshape(-1, 2)
        for k in [*range(1, m), 0][:m]:
            factor = draw(st.sampled_from([None, 0.5, 2.0]))
            if factor is not None:
                ring = planted(ring, k, factor, draw(st.sampled_from(AXES)))
        if m and rings and len(rings[-1]) and draw(st.booleans()):
            ring[0] = rings[-1][-1]
        rings.append(ring)
    return rings


class TestDropRepeats:
    def test_planted_sizes(self):
        verts = np.concatenate(PLANTED_RINGS)
        owner = np.repeat(np.arange(len(PLANTED_RINGS)), [len(r) for r in PLANTED_RINGS])
        kept, sizes = _drop_repeats(verts, owner, len(PLANTED_RINGS))
        assert sizes.tolist() == PLANTED_SIZES
        assert len(kept) == sum(PLANTED_SIZES)

    @given(ring_runs())
    @example(PLANTED_RINGS)
    @settings(max_examples=200, deadline=None)
    def test_matches_per_ring_loop(self, rings):
        """One pass over rings laid end to end keeps what a loop over the rings
        keeps: no ring's predecessor or scale comes from the ring next to it."""
        owner = np.repeat(np.arange(len(rings)), [len(r) for r in rings])
        kept, sizes = _drop_repeats(np.concatenate([np.zeros((0, 2)), *rings]),
                                    owner, len(rings))
        want_kept, want_sizes = loop_drop_repeats(rings)
        assert np.array_equal(kept, want_kept)
        assert np.array_equal(sizes, want_sizes)


class TestPolygonPrimitives:
    def test_unit_square_area(self):
        assert polygon_area(UNIT_SQUARE) == 1.0

    def test_triangle_area(self):
        tri = ConvexPolygon.from_vertices([(0, 0), (1, 0), (0, 1)])
        assert polygon_area(tri) == pytest.approx(0.5)

    def test_square_centroid(self):
        assert polygon_centroid(UNIT_SQUARE) == pytest.approx([0.5, 0.5])

    def test_cw_polygon_rejected(self):
        with pytest.raises(GeometryError):
            ConvexPolygon.from_vertices([(0, 0), (0, 1), (1, 1), (1, 0)])

    def test_nonconvex_polygon_rejected(self):
        with pytest.raises(GeometryError):
            ConvexPolygon.from_vertices([(0, 0), (2, 0), (1, 0.2), (1, 2)])


class TestDomains:
    def test_uniform_density_normalizes(self, unit_square, unit_disk):
        assert unit_square.density() * unit_square.volume() == pytest.approx(1.0, abs=1e-12)
        assert unit_disk.density() * unit_disk.volume() == pytest.approx(1.0, abs=1e-12)

    def test_box_mean_close_to_center(self):
        dom = sdot.box_domain([[0.0, 1.0], [0.0, 1.0]], seed=42)
        pts = sdot.sample_source(dom, 10**6)
        # CLT: 3 sigma / sqrt(N) for a uniform coordinate is ~8.7e-4
        assert np.all(np.abs(pts.mean(axis=0) - 0.5) < 0.005)

    def test_single_sample_inside(self, unit_disk):
        pt = sdot.sample_source(unit_disk, 1)
        assert bool(unit_disk.contains(pt)[0])

    def test_same_seed_same_stream(self, unit_disk):
        a = sdot.sample_source(unit_disk, 1000)
        b = sdot.sample_source(unit_disk, 1000)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("domain_fixture", ["unit_square", "unit_disk"])
    def test_samples_inside(self, domain_fixture, request):
        dom = request.getfixturevalue(domain_fixture)
        pts = sdot.sample_source(dom, 20000, rng=np.random.default_rng(5))
        assert bool(np.all(dom.contains(pts, tol=1e-12)))

    def test_polygon_domain_sampling(self):
        dom = sdot.polygon_domain([(0, 0), (2, 0), (2, 1), (0, 1)], seed=8)
        pts = sdot.sample_source(dom, 5000)
        assert bool(np.all(dom.contains(pts)))

    def test_ball_3d(self):
        dom = sdot.ball_domain([0.0, 0.0, 0.0], 1.0, seed=9)
        pts = sdot.sample_source(dom, 2000)
        assert pts.shape == (2000, 3)
        assert bool(np.all(np.linalg.norm(pts, axis=1) <= 1.0))

    def test_degenerate_box_rejected(self):
        with pytest.raises(GeometryError):
            sdot.box_domain([[0.0, 0.0], [0.0, 1.0]])

    def test_domains_copy_and_freeze_their_arrays(self):
        """A write to the caller's array leaves the domain as it was, and
        the domain's own arrays refuse writes."""
        bounds = np.array([[-1.0, 1.0], [-1.0, 1.0]])
        center = np.array([0.0, 0.0])
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        domains = [sdot.box_domain(bounds), sdot.disk_domain(center, 1.0),
                   sdot.polygon_domain(square), sdot.geometry.PolygonDomain(ConvexPolygon(square))]
        volumes = [d.volume() for d in domains]
        bounds[0, 1] = 3.0
        center[0] = 5.0
        square[1, 0] = 4.0
        assert [d.volume() for d in domains] == volumes == [4.0, np.pi, 1.0, 1.0]
        assert domains[1].center.tolist() == [0.0, 0.0]
        owned = [domains[0].bounds, domains[1].center,
                 domains[2].polygon.vertices, domains[3].polygon.vertices]
        for values in owned:
            with pytest.raises(ValueError):
                values[0] = 9.0


class TestValidateTarget:
    def test_single_dirac(self):
        m = sdot.validate_target([(0.0, 0.0)], [1.0])
        assert m.n == 1
        assert m.weights[0] == 1.0

    def test_mass_mismatch(self):
        with pytest.raises(MassMismatchError):
            sdot.validate_target([(0, 0), (1, 0)], [0.3, 0.3], mass_tolerance=0.05)

    def test_grid25(self, grid25_target):
        assert grid25_target.n == 25
        assert grid25_target.weights.sum() == pytest.approx(1.0, abs=0)

    def test_rescaling_within_tolerance(self):
        m = sdot.validate_target([(0, 0), (1, 0)], [0.5 + 1e-8, 0.5], mass_tolerance=1e-6)
        assert m.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_duplicate_points(self):
        with pytest.raises(DuplicatePointError):
            sdot.validate_target([(0, 0), (0, 0)], [0.5, 0.5])

    def test_duplicate_reports_smallest_pair(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.0, 0.0)]
        with pytest.raises(DuplicatePointError, match="target points 0 and 3 coincide"):
            sdot.validate_target(pts)

    def test_nonpositive_weight(self):
        with pytest.raises(NonpositiveWeightError):
            sdot.validate_target([(0, 0), (1, 0)], [1.2, -0.2])

    def test_uniform_when_weights_missing(self):
        m = sdot.validate_target([(0, 0), (1, 0), (2, 0)])
        assert np.allclose(m.weights, 1 / 3)


class TestTargetCsv:
    def test_with_header_and_weights(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("x,y,w\n0,0,0.25\n1,0,0.75\n")
        m = load_target_csv(f, dimension=2)
        assert m.n == 2
        assert m.weights == pytest.approx([0.25, 0.75])

    def test_no_header_no_weights(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("0,0\n1,0\n0,1\n")
        m = load_target_csv(f, dimension=2)
        assert np.allclose(m.weights, 1 / 3)

    def test_column_mismatch(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("0,0,1,2\n")
        with pytest.raises(GeometryError):
            load_target_csv(f, dimension=2)
