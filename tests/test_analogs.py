"""Coupled pendulums, two-level sweeps, and the rectangle loop."""

import math
import warnings

import numpy as np
import pytest

from phaselab import analogs, qcore
from phaselab.analogs import (ArctanDetuningRamp, FrozenLength,
                              PendulumSystem, TwoLevelSweep)
from phaselab.errors import GeometryError, RegimeWarning, ResolutionError


def central_second(fn, t, h=1e-4):
    return (fn(t + h) - 2.0 * fn(t) + fn(t - h)) / (h * h)


class TestLengthSchedules:
    def test_frozen(self):
        s = FrozenLength(1.3)
        assert s.value(0.0) == 1.3
        assert s.value(57.0) == 1.3
        assert s.second(2.0) == 0.0
        with pytest.raises(ValueError):
            FrozenLength(0.0)

    def test_arctan_ramp_geometry(self):
        ramp = ArctanDetuningRamp(l_mu=1.0, g=1.0, delta_max=0.34,
                                  crossing_rate=0.001, width=0.025)
        width, rate = 0.025, 0.001
        expected = 2.0 * math.atan(0.34 / width) / (rate / width)
        assert ramp.duration == pytest.approx(expected, rel=1e-14)
        # detuning runs from +delta_max down to -delta_max
        omega = 1.0
        assert ramp.value(0.0) == pytest.approx(1.0 / (omega - 0.34) ** 2,
                                                rel=1e-12)
        assert ramp.value(ramp.duration) == pytest.approx(
            1.0 / (omega + 0.34) ** 2, rel=1e-12)

    def test_arctan_ramp_second_derivative(self):
        ramp = ArctanDetuningRamp(l_mu=1.0, g=1.0, delta_max=0.3,
                                  crossing_rate=0.01, width=0.05)
        for frac in (0.2, 0.5, 0.8):
            t = frac * ramp.duration
            assert ramp.second(t) == pytest.approx(
                central_second(ramp.value, t), rel=1e-4)
        assert ramp.second(-1.0) == 0.0
        assert ramp.second(ramp.duration + 1.0) == 0.0

    def test_arctan_ramp_validation(self):
        with pytest.raises(ValueError):
            ArctanDetuningRamp(l_mu=0.0, g=1.0, delta_max=0.3,
                               crossing_rate=0.01, width=0.05)
        with pytest.raises(ValueError):
            ArctanDetuningRamp(l_mu=1.0, g=1.0, delta_max=0.3,
                               crossing_rate=0.01, width=0.0)
        with pytest.raises(ValueError):
            # length diverges when the detuning reaches the mu frequency
            ArctanDetuningRamp(l_mu=1.0, g=1.0, delta_max=1.0,
                               crossing_rate=0.01, width=0.05)


class TestPendulumTransfer:
    def test_slow_sweep_converts(self, adiabatic_pendulum):
        rep = adiabatic_pendulum
        assert rep.fraction >= 0.99
        assert rep.fraction == pytest.approx(0.9951510297129077, rel=1e-9)
        assert rep.energy_drift is None
        assert rep.weak_coupling_ratio < 0.1

    def test_report_bookkeeping(self, adiabatic_pendulum):
        rep = adiabatic_pendulum
        n = rep.times.shape[0]
        assert rep.flavor_energies.shape == (n, 3)
        assert rep.mode_energies.shape == (n, 2)
        assert np.allclose(rep.flavor_energies.sum(axis=1), rep.total_energy)

    def test_sudden_jump_leaves_energy_behind(self):
        system, _ = analogs.msw_benchmark_system()
        rep = analogs.pendulum_sweep(system, 0.0)
        assert rep.fraction <= 0.05
        assert rep.fraction == pytest.approx(0.006278976699103181, rel=1e-9)

    def test_rate_ladder_is_monotone(self):
        eps = 0.025 / 2.0
        base = 0.01 * eps * eps
        fractions = []
        for mult in (2816.0, 453.0, 137.0):
            system, duration = analogs.msw_benchmark_system(
                crossing_rate=mult * base)
            fractions.append(analogs.pendulum_sweep(system, duration).fraction)
        assert fractions[0] == pytest.approx(0.024739025215911852, rel=1e-9)
        assert fractions[1] == pytest.approx(0.7318220772872159, rel=1e-9)
        assert fractions[2] == pytest.approx(0.99733558072327, rel=1e-9)
        assert fractions[0] < fractions[1] < fractions[2]

    def test_frozen_lengths_conserve_energy(self):
        system = PendulumSystem(length_schedule=FrozenLength(1.3), l_mu=1.0,
                                kappa=0.025)
        rep = analogs.pendulum_sweep(system, 50.0)
        assert rep.energy_drift is not None
        assert rep.energy_drift < 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            PendulumSystem(length_schedule=FrozenLength(1.0), l_mu=0.0,
                           kappa=0.1)
        with pytest.raises(ValueError):
            PendulumSystem(length_schedule=FrozenLength(1.0), l_mu=1.0,
                           kappa=-0.1)
        with pytest.raises(ValueError):
            PendulumSystem(length_schedule=FrozenLength(1.0), l_mu=1.0,
                           kappa=0.1, state=(1.0, 0.0))
        good = PendulumSystem(length_schedule=FrozenLength(1.0), l_mu=1.0,
                              kappa=0.1)
        with pytest.raises(ValueError):
            analogs.pendulum_sweep(good, -1.0)

        class Sinking:
            def value(self, t):
                return 5.0 - t

            def second(self, t):
                return 0.0

        sinking = PendulumSystem(length_schedule=Sinking(), l_mu=1.0,
                                 kappa=0.1)
        with pytest.raises(ValueError):
            analogs.pendulum_sweep(sinking, 10.0)


class TestTwoLevelSweep:
    PAIRS = ((0.5, 1.0, 0.54403299074243838),
             (0.4, 0.8, 0.46647386380239914),
             (0.4, 0.4, 0.71540738672929016),
             (0.3, 0.5, 0.43187621730169007),
             (0.75, 0.8, 0.89026859038154493))

    def test_linear_sweeps_track_the_crossing_formula(self):
        worst = 0.0
        for eps, rate, frozen in self.PAIRS:
            rep = analogs.two_level_sweep(
                analogs.linear_two_level_sweep(eps, rate))
            assert rep.conversion == pytest.approx(frozen, rel=1e-9)
            target = 1.0 - math.exp(-math.pi * eps * eps / rate)
            assert rep.lz_conversion == pytest.approx(target, rel=1e-14)
            worst = max(worst, abs(rep.conversion - target) / target)
        assert worst <= 0.02

    def test_uncoupled_levels_cross_freely(self):
        rep = analogs.two_level_sweep(analogs.linear_two_level_sweep(0.0, 0.5))
        assert rep.conversion <= 1e-12
        assert rep.survival == pytest.approx(1.0, abs=1e-12)

    def test_deep_adiabatic_limit(self):
        sweep = analogs.linear_two_level_sweep(0.5, 0.01 * 0.25,
                                               span_factor=6.0)
        rep = analogs.two_level_sweep(sweep)
        assert rep.conversion == pytest.approx(0.9999999999928921, rel=1e-9)

    def test_custom_sweep_has_no_crossing_reference(self):
        sweep = TwoLevelSweep(epsilon=0.5,
                              detuning=lambda t: np.sin(t) - 2.0 + t,
                              duration=4.0)
        rep = analogs.two_level_sweep(sweep)
        assert rep.lz_conversion is None
        assert rep.lz_deviation is None
        assert 0.0 <= rep.conversion <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TwoLevelSweep(epsilon=-0.1, detuning=lambda t: t, duration=1.0)
        with pytest.raises(ValueError):
            TwoLevelSweep(epsilon=0.1, detuning=lambda t: t, duration=0.0)
        with pytest.raises(ValueError):
            TwoLevelSweep(epsilon=0.1, detuning=3.0, duration=1.0)
        with pytest.raises(ValueError):
            # scalar-only detuning: the kernel samples it on arrays of times
            TwoLevelSweep(epsilon=0.1, detuning=math.sin, duration=1.0)
        with pytest.raises(ValueError):
            analogs.linear_two_level_sweep(0.5, 0.0)


class TestRectanglePath:
    def test_geometry(self):
        path = analogs.rectangle_path(2.0, 0.5, 800, center=(1.0, -0.5))
        assert path.shape == (800, 2)
        assert path[0] == pytest.approx([3.0, 0.0])
        on_edge = (np.isclose(np.abs(path[:, 0] - 1.0), 2.0)
                   | np.isclose(np.abs(path[:, 1] + 0.5), 0.5))
        assert on_edge.all()
        steps = np.linalg.norm(np.diff(path, axis=0), axis=1)
        assert np.allclose(steps, steps[0])

    def test_winding(self):
        around = analogs.rectangle_path(2.0, 0.5, 400)
        assert analogs._winding(around) == 1
        assert analogs._winding(around[::-1]) == -1
        beside = analogs.rectangle_path(2.0, 0.5, 400, center=(10.0, 0.0))
        assert analogs._winding(beside) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            analogs.rectangle_path(0.0, 1.0, 100)
        with pytest.raises(ValueError):
            analogs.rectangle_path(1.0, 1.0, 4)


class TestRectangleLoop:
    def test_enclosing_loop(self, rectangle_transport):
        rec = rectangle_transport
        assert rec.winding == 1
        assert qcore.circle_distance(rec.wilson_phase, math.pi) < 1e-3
        assert rec.wilson_phase == pytest.approx(math.pi, abs=1e-12)
        assert rec.half_loop_square_deviation < 1e-2
        assert rec.half_loop_square_deviation == pytest.approx(
            0.005697642834566676, rel=1e-6)
        assert rec.half_loop_geometric == pytest.approx(-3.1359516602827213,
                                                        rel=1e-6)
        assert rec.half_loop_overlap > 0.999
        assert rec.transposition_fidelity > 0.999
        assert rec.transport_duration == pytest.approx(3046.6717017181018,
                                                       rel=1e-9)

    def test_displaced_loop_encloses_nothing(self):
        rec = analogs.rectangular_loop_phase(0.5, 10.0, samples=2000,
                                             center=(30.0, 0.0),
                                             adiabaticity=1e-3,
                                             transport_step=0.01)
        assert rec.winding == 0
        assert abs(rec.wilson_phase) < 1e-12
        assert rec.half_loop_square_deviation < 1e-2

    def test_resonant_corners_warn(self):
        with pytest.warns(RegimeWarning):
            analogs.rectangular_loop_phase(1.0, 5.0, samples=400,
                                           adiabaticity=0.5,
                                           transport_step=0.05)

    def test_edge_through_degeneracy(self):
        # direct time-table construction refuses the touching edge
        with pytest.raises(GeometryError):
            analogs._warped_rectangle(10.0, 0.5, (10.0, 0.0), 1e-3)
        # through the full entry point the loop sampling straddles the
        # degeneracy and the band overlap collapses first
        with pytest.raises(ResolutionError):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                analogs.rectangular_loop_phase(0.5, 10.0, samples=2000,
                                               center=(10.0, 0.0),
                                               adiabaticity=0.5)
