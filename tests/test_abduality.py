"""Probe-side and system-side readings of the capacitor phase."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaselab import abduality
from phaselab.abduality import CapacitorScenario

pos = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)


class TestDualityReport:
    @given(e=pos, E=pos, x=pos, t=pos)
    @settings(max_examples=200, deadline=None)
    def test_two_descriptions_agree_exactly(self, e, E, x, t):
        rep = abduality.duality_report(CapacitorScenario(e=e, E=E, x=x, t=t))
        # bitwise equality, not closeness: both sides share one product
        assert rep.match is True
        assert rep.probe_phase == 2.0 * (e * E * x * t)

    def test_formulas(self):
        rep = abduality.duality_report(
            CapacitorScenario(e=1.5, E=0.7, x=2.0, t=3.0))
        assert rep.probe_phase == pytest.approx(2.0 * 1.5 * 0.7 * 2.0 * 3.0,
                                                rel=1e-15)

    def test_zero_dwell_zero_phase(self):
        rep = abduality.duality_report(
            CapacitorScenario(e=1.0, E=1.0, x=1.0, t=0.0))
        assert rep.probe_phase == 0.0
        assert rep.match

    def test_validation(self):
        with pytest.raises(ValueError):
            CapacitorScenario(e=0.0, E=1.0, x=1.0, t=1.0)
        with pytest.raises(ValueError):
            CapacitorScenario(e=1.0, E=-1.0, x=1.0, t=1.0)
        with pytest.raises(ValueError):
            CapacitorScenario(e=1.0, E=1.0, x=0.0, t=1.0)
        with pytest.raises(ValueError):
            CapacitorScenario(e=1.0, E=1.0, x=1.0, t=-0.1)
        with pytest.raises(ValueError):
            CapacitorScenario(e=np.array([1.0, 0.0]), E=1.0, x=1.0, t=1.0)
        with pytest.raises(ValueError):
            CapacitorScenario(e=1.0, E=1.0, x=1.0, t=np.array([1.0, -0.1]))

    def test_arrays_equal_per_setting_calls(self):
        rng = np.random.default_rng(3)
        e, E, x, t = rng.uniform(0.5, 2.0, size=(4, 50))
        t[7] = 0.0
        batch = CapacitorScenario(e=e, E=E, x=x, t=t)
        rep = abduality.duality_report(batch)
        ratio = abduality.which_path_ratio(batch, 0.25 * x)
        assert rep.match.all()
        for k in range(50):
            one = CapacitorScenario(e=e[k], E=E[k], x=x[k], t=t[k])
            assert rep.probe_phase[k] == abduality.duality_report(
                one).probe_phase
            assert ratio[k] == abduality.which_path_ratio(one, 0.25 * x[k])
        assert ratio[7] == math.inf


class TestWhichPath:
    def test_ratio_formula(self):
        s = CapacitorScenario(e=1.0, E=0.5, x=1.0, t=2.0)
        ratio = abduality.which_path_ratio(s, localization=0.25)
        assert ratio == pytest.approx((1.0 / 0.25) / (1.0 * 0.5 * 2.0),
                                      rel=1e-15)

    def test_modest_phase_blocks_the_record(self):
        # phase held at pi: localization tight enough to resolve the kick
        # costs more momentum spread than the kick itself
        s = CapacitorScenario(e=1.0, E=1.0, x=1.0, t=math.pi / 2.0)
        assert abduality.duality_report(s).probe_phase <= math.pi
        assert abduality.which_path_ratio(s, localization=0.25 * s.x) > 1.0

    def test_large_phase_allows_a_record(self):
        s = CapacitorScenario(e=1.0, E=1.0, x=1.0, t=50.0)
        assert abduality.duality_report(s).probe_phase > math.pi
        assert abduality.which_path_ratio(s, localization=0.25) < 1.0

    def test_zero_dwell(self):
        s = CapacitorScenario(e=1.0, E=1.0, x=1.0, t=0.0)
        assert abduality.which_path_ratio(s, localization=0.1) == math.inf

    def test_localization_validated(self):
        s = CapacitorScenario(e=1.0, E=1.0, x=1.0, t=1.0)
        with pytest.raises(ValueError):
            abduality.which_path_ratio(s, localization=0.0)


class TestFringeVisibility:
    def test_closed_form(self):
        for kick, width in ((0.5, 1.0), (2.0, 0.3), (0.0, 1.0)):
            assert abduality.fringe_visibility(kick, width) == pytest.approx(
                math.exp(-0.5 * (kick * width) ** 2), rel=1e-15)

    def test_monotone_in_kick(self):
        v = [abduality.fringe_visibility(k, 1.0) for k in (0.0, 0.5, 1.0, 2.0)]
        assert v[0] == 1.0
        assert all(a > b for a, b in zip(v, v[1:]))

    def test_width_validated(self):
        with pytest.raises(ValueError):
            abduality.fringe_visibility(1.0, 0.0)
        with pytest.raises(ValueError):
            abduality.sampled_visibility(1.0, 0.0)

    def test_sampled_overlap_within_its_bound(self):
        for kick, width in ((2.0, 0.5), (0.5, 1.0), (2.0, 0.3), (0.0, 1.0),
                            (3.0, 1.0)):
            overlap, bound = abduality.sampled_visibility(kick, width)
            assert bound < 1e-12
            assert abs(overlap - abduality.fringe_visibility(kick, width)) <= bound
        # a closed form off by a factor in the exponent is caught
        overlap, bound = abduality.sampled_visibility(2.0, 0.5)
        assert abs(overlap - math.exp(-(2.0 * 0.5) ** 2)) > 1e6 * bound

    def test_unresolved_kick_rejected(self):
        # 4,096 points over 24 widths resolve kicks below about 1,070/width
        with pytest.raises(ValueError, match="does not resolve"):
            abduality.sampled_visibility(2000.0, 1.0)
