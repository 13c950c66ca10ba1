"""Linking numbers and the interlock phase rule."""

import math

import numpy as np
import pytest

from phaselab import qcore, scenarios, topology
from phaselab.errors import GeometryError, ResolutionError
from phaselab.topology import Curve3D, RealFieldHamiltonian


def hopf_pair(samples=200):
    """Two unit circles, each threading the other once."""
    a = Curve3D.circle((0.0, 0.0, 0.0), 1.0, (0.0, 0.0, 1.0), samples)
    b = Curve3D.circle((1.0, 0.0, 0.0), 1.0, (0.0, 1.0, 0.0), samples)
    return a, b


class TestCurve3D:
    def test_closure_enforced(self):
        pts = np.zeros((10, 3))
        pts[:, 0] = np.linspace(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            Curve3D(pts)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            Curve3D(np.zeros((5, 3)))

    def test_wrong_shape(self):
        with pytest.raises(ValueError):
            Curve3D(np.zeros((20, 2)))

    def test_non_finite(self):
        pts = np.zeros((10, 3))
        pts[3, 1] = math.nan
        with pytest.raises(ValueError):
            Curve3D(pts)

    def test_points_read_only(self):
        c = Curve3D.circle((0, 0, 0), 1.0, (0, 0, 1), 16)
        with pytest.raises(ValueError):
            c.points[0, 0] = 5.0

    def test_circle_geometry(self):
        c = Curve3D.circle((1.0, 2.0, 3.0), 0.5, (0.0, 0.0, 1.0), 64)
        r = np.linalg.norm(c.points - np.array([1.0, 2.0, 3.0]), axis=1)
        assert np.allclose(r, 0.5)
        assert np.allclose(c.points[:, 2], 3.0)
        assert len(c.points) == 65


class TestLinkingNumber:
    def test_hopf_link(self):
        a, b = hopf_pair()
        assert topology.linking_number(a, b) == 1
        # polygon sum is exact, not a quadrature estimate
        raw = topology.gauss_linking_sum(a, b)
        assert abs(raw - round(raw)) < 1e-9

    def test_orientation_flips(self):
        a, b = hopf_pair()
        assert topology.linking_number(a.reversed(), b) == -1
        assert topology.linking_number(a, b.reversed()) == -1
        assert topology.linking_number(a.reversed(), b.reversed()) == 1

    def test_symmetric_in_arguments(self):
        a, b = hopf_pair()
        assert topology.linking_number(a, b) == topology.linking_number(b, a)

    def test_double_wind(self):
        a, b = hopf_pair()
        bb = Curve3D.circle((1.0, 0.0, 0.0), 1.0, (0.0, 1.0, 0.0), 400,
                            turns=2)
        assert topology.linking_number(a, bb) == 2

    def test_rigid_motion_invariance(self):
        a, b = hopf_pair()
        ang = 0.7
        rot = np.array([[math.cos(ang), -math.sin(ang), 0.0],
                        [math.sin(ang), math.cos(ang), 0.0],
                        [0.0, 0.0, 1.0]])
        am = a.transformed(rotation=rot, scale=2.0, translation=(4.0, -1.0, 2.5))
        bm = b.transformed(rotation=rot, scale=2.0, translation=(4.0, -1.0, 2.5))
        assert topology.linking_number(am, bm) == 1

    def test_separated_circles_unlinked(self):
        a = Curve3D.circle((0.0, 0.0, 0.0), 1.0, (0.0, 0.0, 1.0), 100)
        b = Curve3D.circle((5.0, 0.0, 0.0), 1.0, (0.0, 1.0, 0.0), 100)
        assert topology.linking_number(a, b) == 0

    def test_coplanar_disjoint_circles_unlinked(self):
        a = Curve3D.circle((0.0, 0.0, 0.0), 1.0, (0.0, 0.0, 1.0), 100)
        b = Curve3D.circle((3.0, 0.0, 0.0), 1.0, (0.0, 0.0, 1.0), 100)
        assert topology.linking_number(a, b) == 0

    def test_touching_curves_rejected(self):
        a = Curve3D.circle((0.0, 0.0, 0.0), 1.0, (0.0, 0.0, 1.0), 16)
        with pytest.raises(GeometryError):
            topology.linking_number(a, a)
        # one shared vertex is enough, and the raw sum refuses as well
        b = Curve3D.circle((1.0, 0.0, 0.0), 1.0, (0.0, 1.0, 0.0), 16)
        moved = b.transformed(translation=a.points[3] - b.points[5])
        with pytest.raises(GeometryError):
            topology.gauss_linking_sum(a, moved)
        with pytest.raises(GeometryError):
            topology.gauss_linking_sum(moved, a)

    def test_crossing_segments_raise_resolution_error(self):
        # the two polygons cross at (1, -0.5, 0), inside a segment of each,
        # so no vertex pair is near and the sum is left half-way
        square = [(1.0, -1.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0),
                  (-1.0, 1.0), (-1.0, 0.0), (-1.0, -1.0), (0.0, -1.0),
                  (1.0, -1.0)]
        a = Curve3D(np.array([(x, y, 0.0) for x, y in square]))
        frame = [(1.0, -0.5), (1.0, 0.5), (1.5, 0.5), (2.0, 0.5), (2.0, 0.0),
                 (2.0, -0.5), (1.5, -0.5), (1.0, -0.5)]
        b = Curve3D(np.array([(x, -0.5, z) for x, z in frame]))
        raw = topology.gauss_linking_sum(a, b)
        assert abs(abs(raw - round(raw)) - 0.5) < 1e-12
        with pytest.raises(ResolutionError):
            topology.linking_number(a, b)
        # moved off the crossing, the same polygons link once
        assert abs(topology.linking_number(
            a, b.transformed(translation=(-0.25, 0.0, 0.0)))) == 1


def _reference_gauss_sum(a, b):
    """Segment by segment: four face normals per pair, each from its own
    cross product, and the exact solid angle as four arcsin terms."""
    def unit(v):
        norm = np.linalg.norm(v, axis=-1, keepdims=True)
        return np.where(norm > 1e-300, v / np.maximum(norm, 1e-300), 0.0)

    def dots(u, v):
        return np.clip(np.einsum("ijk,ijk->ij", u, v), -1.0, 1.0)

    pa, pb = a.points[:-1, None, :], a.points[1:, None, :]
    qa, qb = b.points[None, :-1, :], b.points[None, 1:, :]
    r1, r2, r3, r4 = qa - pa, qb - pa, qb - pb, qa - pb
    n1, n2 = unit(np.cross(r1, r2)), unit(np.cross(r2, r3))
    n3, n4 = unit(np.cross(r3, r4)), unit(np.cross(r4, r1))
    omega = (np.arcsin(dots(n1, n2)) + np.arcsin(dots(n2, n3))
             + np.arcsin(dots(n3, n4)) + np.arcsin(dots(n4, n1)))
    sign = np.sign(np.einsum("ijk,ijk->ij", np.cross(qb - qa, pb - pa), r1))
    return float(np.sum(omega * sign)) / (4.0 * math.pi)


def _wobbly_pair(rng, na, nb, linked):
    """A unit circle and a partner that threads it (or sits beside it), each
    vertex pushed off the circle by up to 0.1, closed again afterwards."""
    a = Curve3D.circle((0.0, 0.0, 0.0), 1.0, (0.0, 0.0, 1.0), na)
    b = Curve3D.circle((1.0 if linked else 3.5, 0.0, 0.0), 1.0,
                       (0.0, 1.0, 0.0), nb)

    def wobble(curve):
        pts = curve.points + rng.uniform(-0.1, 0.1, curve.points.shape)
        pts[-1] = pts[0]
        return Curve3D(pts)

    return wobble(a), wobble(b)


class TestSharedNormalKernel:
    """gauss_linking_sum against an independent per-pair formula."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_on_random_polygons(self, seed):
        rng = np.random.default_rng(seed)
        na, nb = rng.integers(8, 90, size=2)
        linked = seed % 3 != 0
        a, b = _wobbly_pair(rng, int(na), int(nb), linked)
        raw = topology.gauss_linking_sum(a, b)
        assert abs(raw - _reference_gauss_sum(a, b)) <= 1e-12
        assert abs(topology.gauss_linking_sum(b, a) - raw) <= 1e-12
        assert topology.linking_number(a, b) == int(linked)

    @pytest.mark.parametrize("offset", (-1, 0, 1))
    def test_block_edges(self, offset):
        # the first curve's segment count below, at and just above one block
        rng = np.random.default_rng(100 + offset)
        rows = topology._ROW_BLOCK + offset
        a, b = _wobbly_pair(rng, rows, 37, linked=True)
        assert len(a.points) - 1 == rows
        raw = topology.gauss_linking_sum(a, b)
        assert abs(raw - _reference_gauss_sum(a, b)) <= 1e-12
        assert abs(abs(raw) - 1.0) <= 1e-9

    @pytest.mark.parametrize("rows", (9, 32, 33, 130))
    def test_folded_min_distance_is_brute_force(self, rows):
        rng = np.random.default_rng(rows)
        a, b = _wobbly_pair(rng, rows, 23, linked=True)
        _, nearest = topology._gauss_pass(a.points, b.points)
        brute = min(float(np.sum((p - q) ** 2))
                    for p in a.points for q in b.points)
        assert nearest == brute


class TestLinkingScenario:
    def test_catalog_defaults(self, scenario):
        results, checks, tables = scenario("linking")
        table = tables["linking.csv"]
        assert list(table["linking_number"]) == [0, 0, 1, -1, 1, 2, 1, 1, 1,
                                                 1, 1]
        assert list(table["expected"]) == list(table["linking_number"])
        assert results["pair_count"] == 11
        assert results["max_integer_residual"] <= 1e-12
        assert checks and all(checks.values())

    @pytest.mark.parametrize("samples", range(7, 13))
    def test_coarse_catalogs_sum_to_integers(self, samples):
        # near a degenerate pair an arcsin of face normals turns roundoff
        # into about sqrt(eps): 1.19e-9 at 7, 9 and 11 samples
        for name, a, b, expected in scenarios._linking_catalog(samples):
            raw = topology.gauss_linking_sum(a, b)
            assert abs(raw - expected) <= 1e-12, name


class TestPhasePrediction:
    def test_parity_rule(self):
        a, b = hopf_pair()
        assert topology.topological_phase_predict(a, b) == math.pi
        bb = Curve3D.circle((1.0, 0.0, 0.0), 1.0, (0.0, 1.0, 0.0), 400,
                            turns=2)
        assert topology.topological_phase_predict(a, bb) == 0.0
        far = Curve3D.circle((5.0, 0.0, 0.0), 1.0, (0.0, 1.0, 0.0), 100)
        assert topology.topological_phase_predict(a, far) == 0.0


class TestRealFieldLoopPhase:
    # degeneracy set of (a1, a3) = (x, y) is the z-axis

    H_AXIS = RealFieldHamiltonian(a1=lambda x: x[0], a3=lambda x: x[1])

    def test_probe_around_axis(self):
        probe = Curve3D.circle((0.0, 0.0, 0.0), 1.0, (0.0, 0.0, 1.0), 400)
        phase = topology.real_field_loop_phase(self.H_AXIS, probe)
        assert qcore.circle_distance(phase, math.pi) < 1e-6

    def test_probe_beside_axis(self):
        probe = Curve3D.circle((3.0, 0.0, 0.0), 1.0, (0.0, 0.0, 1.0), 400)
        phase = topology.real_field_loop_phase(self.H_AXIS, probe)
        assert abs(phase) < 1e-6

    def test_double_circuit_cancels(self):
        probe = Curve3D.circle((0.0, 0.0, 0.0), 1.0, (0.0, 0.0, 1.0), 800,
                               turns=2)
        phase = topology.real_field_loop_phase(self.H_AXIS, probe)
        assert qcore.circle_distance(phase, 0.0) < 1e-6

    def test_tilted_probe_still_odd(self):
        # only the winding of (a1, a3) about zero matters, not the shape
        t = np.linspace(0.0, 2.0 * math.pi, 601)
        pts = np.column_stack((1.4 * np.cos(t), 0.6 * np.sin(t),
                               0.3 * np.sin(2.0 * t)))
        pts[-1] = pts[0]
        probe = Curve3D(pts)
        phase = topology.real_field_loop_phase(self.H_AXIS, probe)
        assert qcore.circle_distance(phase, math.pi) < 1e-6


@pytest.fixture(scope="module")
def ring():
    # the zero set of (x^2 + y^2 - 1, z) is the unit circle in the z = 0 plane
    h = RealFieldHamiltonian(a1=lambda x: x[0] ** 2 + x[1] ** 2 - 1.0,
                             a3=lambda x: x[2])
    return h, Curve3D.circle((0.0, 0.0, 0.0), 1.0, (0.0, 0.0, 1.0), 400)


class TestTracedCurveInterlock:
    """Predictions from a degeneracy ring against direct loop phases."""

    def test_threading_probe(self, ring):
        h, curve = ring
        probe = Curve3D.circle((1.0, 0.0, 0.0), 0.5, (0.0, 1.0, 0.0), 400)
        assert topology.topological_phase_predict(probe, curve) == math.pi
        direct = topology.real_field_loop_phase(h, probe)
        assert qcore.circle_distance(direct, math.pi) < 1e-6

    def test_outside_probe(self, ring):
        h, curve = ring
        probe = Curve3D.circle((3.0, 0.0, 0.0), 0.5, (0.0, 1.0, 0.0), 400)
        assert topology.topological_phase_predict(probe, curve) == 0.0
        assert abs(topology.real_field_loop_phase(h, probe)) < 1e-6

    def test_double_threading_probe(self, ring):
        h, curve = ring
        probe = Curve3D.circle((1.0, 0.0, 0.0), 0.5, (0.0, 1.0, 0.0), 800,
                               turns=2)
        assert topology.topological_phase_predict(probe, curve) == 0.0
        assert qcore.circle_distance(
            topology.real_field_loop_phase(h, probe), 0.0) < 1e-6

    def test_probe_around_symmetry_axis(self, ring):
        h, curve = ring
        # encircles the z-axis but never the degeneracy ring
        probe = Curve3D.circle((0.0, 0.0, 2.0), 0.3, (0.0, 0.0, 1.0), 400)
        assert topology.topological_phase_predict(probe, curve) == 0.0
        assert abs(topology.real_field_loop_phase(h, probe)) < 1e-6
