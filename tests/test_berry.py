"""Loop phases on the sphere, slow-sweep corrections, field momentum.

Runs at catalog defaults come from the session fixture ``scenario``.
"""

import math

import numpy as np
import pytest

from phaselab import berry, qcore
from phaselab.errors import ResolutionError

LATITUDES = (math.pi / 6.0, math.pi / 3.0, math.pi / 2.0, 2.0 * math.pi / 3.0)


class TestLatitudeDirections:
    def test_shape_and_cone_angle(self):
        d = berry.latitude_directions(math.pi / 3.0, 64)
        assert d.shape == (64, 3)
        assert np.allclose(np.linalg.norm(d, axis=1), 1.0)
        assert np.allclose(d[:, 2], 0.5)

    def test_rejects_degenerate_sampling(self):
        with pytest.raises(ValueError):
            berry.latitude_directions(math.pi / 3.0, 2)


class TestWilsonLoop:
    def test_latitude_law(self):
        # half the enclosed solid angle, 2 pi (1 - cos theta)
        for theta in LATITUDES:
            loop = berry.latitude_directions(theta, 400)
            phase = berry.wilson_loop_phase(loop)
            target = math.pi * (1.0 - math.cos(theta))
            assert qcore.circle_distance(phase, target) < 2.5e-5

    def test_equator_is_pi(self):
        loop = berry.latitude_directions(math.pi / 2.0, 800)
        assert qcore.circle_distance(berry.wilson_loop_phase(loop),
                                     math.pi) < 1e-3

    def test_scale_blind(self):
        loop = berry.latitude_directions(math.pi / 3.0, 400)
        assert abs(berry.wilson_loop_phase(loop)
                   - berry.wilson_loop_phase(5.0 * loop)) < 1e-12

    def test_orientation_reversal_flips_sign(self):
        loop = berry.latitude_directions(math.pi / 3.0, 400)
        fwd = berry.wilson_loop_phase(loop)
        rev = berry.wilson_loop_phase(loop[::-1])
        assert qcore.circle_distance(fwd, -rev) < 1e-10

    def test_bargmann_identity_with_solid_angle(self):
        # the discrete loop phase equals half the geodesic-polygon solid
        # angle exactly, not only in the refinement limit
        for theta in LATITUDES:
            loop = berry.latitude_directions(theta, 24)
            phase = berry.wilson_loop_phase(loop)
            omega = berry.solid_angle(loop)
            assert qcore.circle_distance(phase, 0.5 * omega) < 1e-12

    def test_coarse_loop_rejected(self):
        # antipodal-ish neighbours make the band overlap collapse
        coarse = np.array([[0.0, 0.0, 1.0], [0.0, 0.05, -1.0],
                           [0.05, 0.0, 1.0]])
        with pytest.raises(ResolutionError):
            berry.wilson_loop_phase(coarse)


class TestSolidAngle:
    def test_latitude_caps(self):
        for theta in LATITUDES:
            loop = berry.latitude_directions(theta, 400)
            target = 2.0 * math.pi * (1.0 - math.cos(theta))
            assert abs(berry.solid_angle(loop) - target) < 5e-5

    def test_octant(self):
        octant = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                           [0.0, 0.0, 1.0]])
        assert berry.solid_angle(octant) == pytest.approx(math.pi / 2.0,
                                                          abs=1e-12)

    def test_tiny_cap_no_cancellation(self):
        loop = berry.latitude_directions(1e-4, 400)
        target = 2.0 * math.pi * (1.0 - math.cos(1e-4))
        assert abs(berry.solid_angle(loop) - target) / target < 1e-4

    def test_retraced_path_encloses_nothing(self):
        seg = np.array([[math.sin(0.3 + 0.01 * k), 0.0,
                         math.cos(0.3 + 0.01 * k)] for k in range(20)])
        retraced = np.vstack([seg, seg[-2:0:-1]])
        assert abs(berry.solid_angle(retraced)) < 1e-12

    def test_anchor_cascade_near_north_pole(self):
        # a loop running over the default anchor forces re-anchoring
        loop = berry.latitude_directions(0.02, 600)
        target = 2.0 * math.pi * (1.0 - math.cos(0.02))
        assert abs(berry.solid_angle(loop) - target) / target < 1e-4

    def test_orientation_sign(self):
        loop = berry.latitude_directions(math.pi / 3.0, 256)
        assert berry.solid_angle(loop) > 0.0
        assert berry.solid_angle(loop[::-1]) == pytest.approx(
            -berry.solid_angle(loop), abs=1e-12)


class TestCyclicDecomposition:
    def test_equatorial_geometric_phase(self, scenario):
        results = scenario("berry-equator")[0]
        dev = qcore.circle_distance(results["geometric_phase"], math.pi)
        # the leading slow-sweep deviation (3/4) pi w/A, not a numerics bug
        assert dev == pytest.approx(0.75 * math.pi * 0.005, rel=0.02)
        assert results["overlap_modulus"] > 0.999

    def test_faster_field_tightens_the_phase(self, scenario):
        # the same sweep at field amplitude 1 and 5
        results = scenario("berry-wilson-sweep")[0]
        dev1 = qcore.circle_distance(results["geometric_base"], math.pi)
        dev5 = qcore.circle_distance(results["geometric_scaled"], math.pi)
        assert dev5 < dev1
        assert qcore.circle_distance(results["geometric_base"],
                                     results["geometric_scaled"]) \
            < 2.0 * 0.005 / 1.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            berry.spin_rotation_schedule(0.0, math.pi / 2.0, 10.0)
        with pytest.raises(ValueError):
            berry.spin_rotation_schedule(1.0, math.pi / 2.0, -1.0)


class TestRotatingFrame:
    def test_numeric_long_time_average(self):
        # evolved <sigma3> averages to w/2A within O((w/A)^2)
        amplitude, wobble = 1.0, 0.02
        dec = berry.cyclic_phase_decomposition(
            amplitude, math.pi / 2.0, 2.0 * math.pi / wobble, 0.02)
        assert abs(dec.sigma3_mean - wobble / (2.0 * amplitude)) \
            < 2.0 * (wobble / amplitude) ** 2


class TestFieldAngularMomentum:
    def test_one_unit_for_any_separation(self, scenario):
        # monopole-angmom at separations 0.7, 1 and 2.5, charge = pole = 1
        table = scenario("monopole-angmom")[2]["field_momentum.csv"]
        assert np.all(np.abs(table["coefficient"] - 1.0) < 1e-6)
        assert np.all(np.abs(table["refinement_difference"]) < 1e-3)

    def test_scales_with_charge_and_pole(self):
        fam = berry.field_angular_momentum(2.0, 0.5, 1.0)
        assert fam.component == pytest.approx(1.0, abs=1e-6)

    def test_minimal_pole(self):
        # half-unit pole carries half a unit of field angular momentum
        fam = berry.field_angular_momentum(1.0, 0.5, 1.3)
        assert fam.component == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize("separation, excision", [(1.0, 0.01),
                                                      (2.5, 0.025)])
    @pytest.mark.parametrize("z_over_s", [
        -1e3, -3.0, -0.004, 0.0, 0.003, 0.5, 0.996, 1.0, 1.008, 40.0])
    def test_rho_integral_matches_quadrature(self, separation, excision,
                                             z_over_s):
        # both tails, both excised disks, the midpoint and the two points
        from scipy.integrate import quad

        z = z_over_s * separation
        floor2 = max(excision ** 2 - z ** 2,
                     excision ** 2 - (z - separation) ** 2, 0.0)

        def integrand(rho):
            return rho ** 3 / ((rho * rho + z * z) ** 1.5
                               * (rho * rho + (z - separation) ** 2) ** 1.5)

        split = max(2.0 * separation, 1.0)
        numeric = sum(quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13,
                           limit=400)[0]
                      for lo, hi in ((math.sqrt(floor2), split),
                                     (split, np.inf)))
        exact = berry._rho_integral(z, separation, excision)
        assert abs(exact - numeric) <= 1e-14 * numeric

    @pytest.mark.parametrize("separation", np.geomspace(0.01, 1e4, 13))
    @pytest.mark.parametrize("fraction", [0.01, 0.005])
    def test_axial_integral_matches_closed_form_and_quadrature(
            self, separation, fraction):
        # the excised integral is 1 - (2/3) (delta/s)^2 exactly; the
        # reference is the adaptive quadrature over the five pieces cut at
        # the disk edges that the closed forms and disk rule replaced
        from scipy.integrate import quad

        excision = fraction * separation
        value = berry._angular_momentum_integral(separation, excision)
        assert abs(value - (1.0 - 2.0 / 3.0 * fraction ** 2)) <= 2e-15
        cuts = [-np.inf, -excision, excision, separation - excision,
                separation + excision, np.inf]
        reference = 0.5 * separation * sum(
            quad(berry._rho_integral, a, b, args=(separation, excision),
                 epsabs=1e-13, epsrel=1e-10, limit=200)[0]
            for a, b in zip(cuts[:-1], cuts[1:]))
        assert abs(value - reference) <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            berry.field_angular_momentum(1.0, 1.0, 0.0)
