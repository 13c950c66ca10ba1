"""Linking numbers and the interlock phase rule."""

import math

import numpy as np
import pytest

from phaselab import qcore, topology
from phaselab.errors import GeometryError
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
        assert c.segment_count == 64

    def test_from_function_requires_closure(self):
        with pytest.raises(ValueError):
            Curve3D.from_function(lambda t: (t, 0.0, 0.0), 32)


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
        probe = Curve3D.from_function(
            lambda t: (1.4 * math.cos(2.0 * math.pi * t),
                       0.6 * math.sin(2.0 * math.pi * t),
                       0.3 * math.sin(4.0 * math.pi * t)), 600)
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
