"""Coupled pendulums, two-level sweeps, and the rectangle loop.

Runs at catalog defaults come from the session fixture ``scenario``.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from phaselab import analogs
from phaselab.analogs import (ArctanDetuningRamp, FrozenLength,
                              PendulumSystem, TwoLevelSweep)
from phaselab.errors import (GeometryError, IntegratorError, RegimeWarning,
                             ResolutionError)
from phaselab.scenarios import SCENARIOS

# the form for which pendulum Magnus generators are Hamiltonian: J W symmetric
J4 = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
# the pendulums' start: all energy in the e displacement
START = (1.0, 0.0, 0.0, 0.0)
# pendulum-msw's catalog pendulums, as msw_benchmark_system takes them
MSW = {name: SCENARIOS["pendulum-msw"].parameters[name].default
       for name in ("kappa", "delta_max", "l_mu", "g")}
# rect-loop's catalog rectangle and transport
RECT = {name: SCENARIOS["rect-loop"].parameters[name].default
        for name in ("delta0", "epsilon0", "adiabaticity")}


def magnus_commutator_generator(a1, a2, a3):
    """Sixth-order Magnus generator from h A at the three Gauss-Legendre
    nodes, in the commutator form of Blanes, Casas, Oteo & Ros, Phys. Rep.
    470 (2009) 151: the reference definition of the closed form."""
    def commutator(x, y):
        return x @ y - y @ x

    alpha1 = a2
    alpha2 = (math.sqrt(15.0) / 3.0) * (a3 - a1)
    alpha3 = (10.0 / 3.0) * (a3 - 2.0 * a2 + a1)
    c1 = commutator(alpha1, alpha2)
    c2 = -(1.0 / 60.0) * commutator(alpha1, 2.0 * alpha3 + c1)
    return (alpha1 + alpha3 / 12.0 + (1.0 / 240.0) * commutator(
        -20.0 * alpha1 - alpha3 + c1, alpha2 + c2))


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

    def test_schedules_take_arrays(self):
        ramp = ArctanDetuningRamp(l_mu=1.0, g=1.0, delta_max=0.3,
                                  crossing_rate=0.01, width=0.1)
        t = np.array([-1.0, 0.0, 0.3 * ramp.duration, ramp.duration,
                      ramp.duration + 1.0])
        assert ramp.value(t) == pytest.approx(
            [ramp.value(float(x)) for x in t], rel=1e-15)
        second = ramp.second(t)
        assert second[0] == 0.0 and second[-1] == 0.0
        assert second[2] == pytest.approx(ramp.second(float(t[2])), rel=1e-15)
        frozen = FrozenLength(1.3)
        assert np.array_equal(frozen.value(t), np.full(5, 1.3))
        assert np.array_equal(frozen.second(t), np.zeros(5))

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
        with pytest.raises(ValueError):
            # an overflowed rate would sweep in no time and turn theta NaN
            ArctanDetuningRamp(l_mu=1.0, g=1.0, delta_max=0.3,
                               crossing_rate=math.inf, width=0.05)


class TestPendulumTransfer:
    def test_slow_sweep_converts(self, scenario):
        results = scenario("pendulum-msw")[0]
        assert results["transfer_fraction"] == pytest.approx(
            0.9951510297129077, rel=1e-9)
        assert results["weak_coupling_ratio"] < 0.1

    def test_report_bookkeeping(self):
        # the fastest sweep of the rate ladder
        system, duration = analogs.msw_benchmark_system(
            crossing_rate=2816.0 * 0.01 * 0.0125 ** 2, **MSW)
        rep = analogs.pendulum_sweep(system, duration)
        assert rep.energy_drift is None

    def test_sudden_jump_leaves_energy_behind(self, scenario):
        fraction = scenario("pendulum-msw")[0]["sudden_fraction"]
        assert fraction == pytest.approx(0.006278976699103181, rel=1e-9)

    def test_rate_ladder_is_monotone(self, scenario):
        ladder = scenario("pendulum-msw")[2]["rate_ladder.csv"]
        assert ladder["rate_multiplier"].tolist() == [2816.0, 906.0, 453.0,
                                                      249.0, 137.0]
        fractions = ladder["transfer_fraction"]
        assert fractions[0] == pytest.approx(0.024739025215911852, rel=1e-9)
        assert fractions[2] == pytest.approx(0.7318220772872159, rel=1e-9)
        assert fractions[4] == pytest.approx(0.99733558072327, rel=1e-9)
        assert np.all(np.diff(fractions) > 0.0)

    def test_frozen_lengths_conserve_energy(self):
        system = PendulumSystem(length_schedule=FrozenLength(1.3), l_mu=1.0,
                                kappa=0.025, g=1.0, state=START)
        rep = analogs.pendulum_sweep(system, 50.0)
        assert rep.energy_drift is not None
        assert rep.energy_drift < 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            PendulumSystem(length_schedule=FrozenLength(1.0), l_mu=0.0,
                           kappa=0.1, g=1.0, state=START)
        with pytest.raises(ValueError):
            PendulumSystem(length_schedule=FrozenLength(1.0), l_mu=1.0,
                           kappa=-0.1, g=1.0, state=START)
        with pytest.raises(ValueError):
            PendulumSystem(length_schedule=FrozenLength(1.0), l_mu=1.0,
                           kappa=0.1, g=1.0, state=(1.0, 0.0))
        good = PendulumSystem(length_schedule=FrozenLength(1.0), l_mu=1.0,
                              kappa=0.1, g=1.0, state=START)
        with pytest.raises(ValueError):
            analogs.pendulum_sweep(good, -1.0)

        class Sinking:
            def value(self, t):
                return 5.0 - t

            def second(self, t):
                return 0.0

        sinking = PendulumSystem(length_schedule=Sinking(), l_mu=1.0,
                                 kappa=0.1, g=1.0, state=START)
        with pytest.raises(ValueError):
            analogs.pendulum_sweep(sinking, 10.0)


class TestMagnusPropagator:
    KAPPA = 0.025
    # a fast ramp: the length and its support term change within a few
    # periods, so the step size, not roundoff, sets the error
    FAST_RAMP = dict(l_mu=1.0, g=1.0, delta_max=0.3, crossing_rate=0.01,
                     width=0.1)

    def fast_system(self):
        return PendulumSystem(length_schedule=ArctanDetuningRamp(
            **self.FAST_RAMP), l_mu=1.0, kappa=self.KAPPA, g=1.0, state=START)

    def test_start_steps_count_the_first_two_runs(self, monkeypatch):
        system = self.fast_system()
        duration = system.length_schedule.duration
        substeps = []
        run = analogs._magnus_run

        def record(system, times, steps):
            substeps.append(steps)
            return run(system, times, steps)

        monkeypatch.setattr(analogs, "_magnus_run", record)
        monkeypatch.setattr(analogs, "_SWEEP_SAMPLES", 200)
        analogs.pendulum_sweep(system, duration)
        assert substeps[1] == 2 * substeps[0]
        assert analogs.magnus_start_steps(system, duration) \
            == 199 * (substeps[0] + substeps[1])
        # m from the closed-form stiffest mode equals m from eigh
        times = np.linspace(0.0, duration, 200)
        we2 = 1.0 / system.length_schedule.value(times)
        stiffness = np.empty((200, 2, 2))
        stiffness[:, 0, 0] = we2 + self.KAPPA
        stiffness[:, 0, 1] = stiffness[:, 1, 0] = -self.KAPPA
        stiffness[:, 1, 1] = 1.0 + self.KAPPA
        omega_max = math.sqrt(np.linalg.eigvalsh(stiffness).max())
        assert substeps[0] == math.ceil(np.diff(times).max() * omega_max
                                        / 0.5)
        assert analogs.magnus_start_steps(system, 0.0) == 0

    def test_constant_schedule_matches_normal_modes(self):
        we2, wm2 = 1.0 / 1.3, 1.0
        state = np.array([1.0, 0.2, -0.3, 0.1])
        system = PendulumSystem(length_schedule=FrozenLength(1.3), l_mu=1.0,
                                kappa=self.KAPPA, g=1.0, state=tuple(state))
        times = np.linspace(0.0, 50.0, 240)
        ys = analogs._magnus_run(system, times, 3)
        k2, vecs = np.linalg.eigh(np.array([[we2 + self.KAPPA, -self.KAPPA],
                                            [-self.KAPPA, wm2 + self.KAPPA]]))
        w = np.sqrt(k2)
        q0 = vecs.T @ state[[0, 2]]
        p0 = vecs.T @ state[[1, 3]]
        wt = np.outer(times, w)
        q = q0 * np.cos(wt) + p0 / w * np.sin(wt)
        p = -q0 * w * np.sin(wt) + p0 * np.cos(wt)
        exact = np.column_stack((q @ vecs.T, p @ vecs.T))[:, [0, 2, 1, 3]]
        assert np.max(np.abs(ys - exact)) < 1e-12

    def test_sixth_order(self):
        system = self.fast_system()
        times = np.array([0.0, system.length_schedule.duration])
        ref = analogs._magnus_run(system, times, 1024)[-1]
        err = [np.max(np.abs(analogs._magnus_run(system, times, m)[-1] - ref))
               for m in (64, 128)]
        assert err[1] > 1e-12  # still above roundoff
        assert err[0] / err[1] >= 40.0

    def test_ladder_sweep_matches_dop853(self):
        eps = self.KAPPA / 2.0
        system, duration = analogs.msw_benchmark_system(
            crossing_rate=137.0 * 0.01 * eps * eps, **MSW)
        sched = system.length_schedule

        def rhs(t, y):
            we2 = (1.0 - sched.second(t)) / sched.value(t)
            return (y[1], -we2 * y[0] - self.KAPPA * (y[0] - y[2]),
                    y[3], -y[2] - self.KAPPA * (y[2] - y[0]))

        sol = solve_ivp(rhs, (0.0, duration), system.state, method="DOP853",
                        rtol=1e-13, atol=1e-15)
        assert sol.success
        # the sudden path attributes a state at the lengths it is given
        reference = analogs.pendulum_sweep(PendulumSystem(
            length_schedule=FrozenLength(sched.value(duration)), l_mu=1.0,
            kappa=self.KAPPA, g=1.0, state=tuple(sol.y[:, -1])),
            0.0).fraction
        fraction = analogs.pendulum_sweep(system, duration).fraction
        assert fraction == pytest.approx(reference, rel=1e-10)

    def test_hamiltonian_exponential_matches_expm(self):
        # Omega = R^-1 K R, K = J S with S diagonal (mu real) or the block
        # of eigenvalues +-a +-ib (mu complex), R symplectic, unconjugated
        # for the first quarter; |mu| up to the end of the series range,
        # which covers the steps the step rule takes (|mu| about 0.25)
        rng = np.random.default_rng(7)
        n = 400
        top = analogs._EXP_RHO * rng.uniform(0.0, 1.0, n)
        r1, r2 = np.sqrt(top), np.sqrt(rng.uniform(0.1, 1.0, n) * top)
        diagonals = {"separated": (r1, r1, r2, r2),
                     "equal": (r1, r1, r1, r1),
                     "positive real": (-r1, r1, r2, r2)}
        kernels = {name: J4 @ (np.stack(d, -1)[:, :, None] * np.eye(4))
                   for name, d in diagonals.items()}
        angle = rng.uniform(0.1, 1.4, n)
        a, b = r1 * np.cos(angle), r1 * np.sin(angle)
        block = np.zeros((n, 4, 4))
        block[:, 0, 0] = block[:, 1, 1] = a
        block[:, 0, 1] = block[:, 1, 0] = b
        block[:, 1, 0] *= -1.0
        block[:, 2:, 2:] = -np.swapaxes(block[:, :2, :2], 1, 2)
        order = [0, 2, 1, 3]  # (q1, q2, p1, p2) to (q1, p1, q2, p2)
        kernels["complex"] = block[:, order][:, :, order]
        sym = rng.standard_normal((n, 4, 4))
        conj = expm(J4 @ (0.1 * (sym + np.swapaxes(sym, 1, 2))))
        conj[: n // 4] = np.eye(4)
        for name, kernel in kernels.items():
            omega = -J4 @ np.swapaxes(conj, 1, 2) @ J4 @ kernel @ conj
            assert np.all(np.abs(J4 @ omega - np.swapaxes(J4 @ omega, 1, 2))
                          < 1e-14)
            mu = np.linalg.eigvals(kernel) ** 2
            if name == "complex":
                assert np.all(np.abs(mu.imag) > 0.0)
            elif name == "positive real":
                assert np.all(mu.real.max(axis=1) > 0.0)
            ref = np.array([expm(x) for x in omega])
            assert np.max(np.abs(analogs._expm_hamiltonian(omega) - ref)) \
                <= 1e-15, name
        zero = analogs._expm_hamiltonian(np.zeros((3, 4, 4)))
        assert np.array_equal(zero, np.broadcast_to(np.eye(4), (3, 4, 4)))

    def test_exponential_scales_beyond_the_series_range(self):
        rng = np.random.default_rng(7)
        sym = rng.standard_normal((500, 4, 4))
        w = J4 @ (sym + np.swapaxes(sym, 1, 2))
        w *= (10.0 * rng.uniform(0.0, 1.0, 500)
              / np.abs(w).sum(axis=1).max(axis=1))[:, None, None]
        rho = np.abs(np.linalg.eigvals(w)).max(axis=1) ** 2
        assert np.mean(rho > analogs._EXP_RHO) > 0.5
        ref = expm(w)
        rel = (np.abs(analogs._expm_hamiltonian(w) - ref).max(axis=(1, 2))
               / np.abs(ref).max(axis=(1, 2)))
        assert rel.max() < 1e-12
        w[3, 1, 0] = math.inf
        with np.errstate(invalid="ignore"), pytest.raises(IntegratorError):
            analogs._expm_hamiltonian(w)

    def test_closed_form_generator_matches_commutators(self):
        rng = np.random.default_rng(7)
        n = 1000
        h = rng.uniform(0.0, 0.6, n)
        f = rng.uniform(-3.0, 0.5, (3, n))
        f[:, : n // 10] = f[0, : n // 10]  # a constant schedule
        kappa = rng.uniform(0.0, 0.3, n)
        k_mu = rng.uniform(0.5, 2.0, n)
        a = np.zeros((3, n, 4, 4))
        a[..., 0, 1] = a[..., 2, 3] = 1.0
        a[..., 1, 0] = f
        a[..., 1, 2] = a[..., 3, 0] = kappa
        a[..., 3, 2] = -k_mu
        ref = magnus_commutator_generator(*(h[:, None, None] * a))
        omega = analogs._magnus_generator(h, *f, kappa, k_mu)
        rel = (np.abs(omega - ref).max(axis=(1, 2))
               / np.abs(ref).max(axis=(1, 2)))
        assert rel.max() <= 1e-15
        assert np.array_equal(omega[: n // 10], h[: n // 10, None, None]
                              * a[0, : n // 10])

    def test_prefix_states_match_sequential_products(self):
        system = self.fast_system()
        times = np.linspace(0.0, system.length_schedule.duration, 300)
        substeps = 5
        h = np.diff(times) / substeps
        products = analogs._fold(analogs._magnus_steps(system, times[:-1], h,
                                                       0, substeps))
        ys = np.empty((len(times), 4))
        ys[0] = system.state
        for i, product in enumerate(products):
            ys[i + 1] = product @ ys[i]
        states = analogs._magnus_run(system, times, substeps)
        assert np.max(np.abs(states - ys)) <= 1e-13

    def test_unreachable_rtol_raises(self, monkeypatch):
        system = self.fast_system()
        monkeypatch.setattr(analogs, "_SWEEP_RTOL", 1e-20)
        monkeypatch.setattr(analogs, "_SWEEP_SAMPLES", 40)
        with pytest.raises(IntegratorError):
            analogs.pendulum_sweep(system, system.length_schedule.duration)

    def test_unreachable_rtol_fails_fast(self, monkeypatch):
        # a constant schedule steps exactly, so the first estimate is
        # roundoff and the next doubling cannot cut it 8-fold
        system = PendulumSystem(length_schedule=FrozenLength(1.3), l_mu=1.0,
                                kappa=self.KAPPA, g=1.0, state=START)
        runs = []
        magnus_run = analogs._magnus_run

        def counted(*args):
            runs.append(args[2])
            return magnus_run(*args)

        monkeypatch.setattr(analogs, "_magnus_run", counted)
        monkeypatch.setattr(analogs, "_SWEEP_RTOL", 1e-20)
        monkeypatch.setattr(analogs, "_SWEEP_SAMPLES", 40)
        with pytest.raises(IntegratorError):
            analogs.pendulum_sweep(system, 50.0)
        assert len(runs) <= 3

    def test_chunk_boundaries(self, monkeypatch):
        system = self.fast_system()
        times = np.linspace(0.0, system.length_schedule.duration, 9)
        whole = analogs._magnus_run(system, times, 24)
        # 7 < 24: every interval spans four chunks, the last one ragged;
        # 50: two whole intervals per chunk and a single one at the end
        for chunk in (7, 50):
            monkeypatch.setattr(analogs, "_CHUNK", chunk)
            ys = analogs._magnus_run(system, times, 24)
            assert np.max(np.abs(ys - whole)) < 1e-13


class TestTwoLevelSweep:
    PAIRS = ((0.5, 1.0, 0.54403299074243838),
             (0.4, 0.8, 0.46647386380239914),
             (0.4, 0.4, 0.71540738672929016),
             (0.3, 0.5, 0.43187621730169007),
             (0.75, 0.8, 0.89026859038154493))

    def test_linear_sweeps_track_the_crossing_formula(self, scenario):
        # the catalog pairs, as two-level-sweep runs them
        table = scenario("two-level-sweep")[2]["conversion.csv"]
        assert len(table["epsilon"]) == len(self.PAIRS)
        worst = 0.0
        for k, (eps, rate, frozen) in enumerate(self.PAIRS):
            assert (table["epsilon"][k], table["sweep_rate"][k]) == (eps, rate)
            assert table["conversion"][k] == pytest.approx(frozen, rel=1e-9)
            target = 1.0 - math.exp(-math.pi * eps * eps / rate)
            assert table["landau_zener"][k] == pytest.approx(target, rel=1e-14)
            worst = max(worst, abs(table["conversion"][k] - target) / target)
        assert worst <= 0.02

    def test_uncoupled_levels_cross_freely(self):
        rep = analogs.two_level_sweep(TwoLevelSweep(0.0, 0.5))
        assert rep.conversion <= 1e-12

    def test_deep_adiabatic_limit(self, monkeypatch):
        monkeypatch.setattr(analogs, "_SPAN_FACTOR", 6.0)
        rep = analogs.two_level_sweep(TwoLevelSweep(0.5, 0.01 * 0.25))
        assert rep.conversion == pytest.approx(0.9999999999928921, rel=1e-9)

    def test_window(self):
        # span 14 max(eps, sqrt(rate)) on either side of the crossing
        sweep = TwoLevelSweep(0.5, 1.0)
        assert sweep.duration == 28.0
        assert sweep.detuning(np.array([0.0, 14.0, 28.0])).tolist() == [
            -14.0, 0.0, 14.0]
        assert TwoLevelSweep(2.0, 1.0).span == 28.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TwoLevelSweep(-0.1, 1.0)
        with pytest.raises(ValueError):
            TwoLevelSweep(0.5, 0.0)
        with pytest.raises(ValueError, match="overflows"):
            TwoLevelSweep(1e308, 1.0)


class TestRectanglePath:
    def test_geometry(self):
        corners = analogs.rectangle_corners(2.0, 0.5, (1.0, -0.5))
        path = analogs.rectangle_path(corners)
        assert path.shape == (analogs._LOOP_SAMPLES, 2)
        assert path[0] == pytest.approx([3.0, 0.0])
        on_edge = (np.isclose(np.abs(path[:, 0] - 1.0), 2.0)
                   | np.isclose(np.abs(path[:, 1] + 0.5), 0.5))
        assert on_edge.all()
        steps = np.linalg.norm(np.diff(path, axis=0), axis=1)
        assert np.allclose(steps, steps[0])

    def test_winding(self):
        around = analogs.rectangle_path(
            analogs.rectangle_corners(2.0, 0.5, (0.0, 0.0)))
        assert analogs._winding(around) == 1
        assert analogs._winding(around[::-1]) == -1
        beside = analogs.rectangle_path(
            analogs.rectangle_corners(2.0, 0.5, (10.0, 0.0)))
        assert analogs._winding(beside) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            analogs.rectangle_corners(0.0, 1.0, (0.0, 0.0))

    def test_table_knots_are_the_corners(self):
        # the corners rectangular_loop_phase reads off the table's knots:
        # the catalog's enclosing and shifted rectangles, then seeded draws
        d0, e0, mu = RECT["delta0"], RECT["epsilon0"], RECT["adiabaticity"]
        draws = [(d0, e0, (0.0, 0.0), mu), (d0, e0, (3.0 * d0, 0.0), mu)]
        rng = np.random.default_rng(7)
        for _ in range(1000):
            delta0, epsilon0 = rng.uniform(0.05, 20.0, 2).tolist()
            center = tuple(rng.uniform(-30.0, 30.0, 2).tolist())
            draws.append((delta0, epsilon0, center,
                          float(rng.uniform(1e-4, 1e-1))))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            for delta0, epsilon0, center, mu in draws:
                _, deltas, epsilons = analogs.rectangle_transport(
                    delta0, epsilon0, center, mu)
                corners = np.column_stack((deltas[::analogs._KNOTS],
                                           epsilons[::analogs._KNOTS]))
                assert np.array_equal(corners, analogs.rectangle_corners(
                    delta0, epsilon0, center)), (delta0, epsilon0, center)


class TestRectangleLoop:
    def test_enclosing_loop(self, scenario):
        rec = scenario("rect-loop")[0]
        assert rec["winding"] == 1
        assert rec["wilson_phase"] == pytest.approx(math.pi, abs=1e-12)
        assert rec["half_loop_square_deviation"] == pytest.approx(
            0.005697642834566676, rel=1e-6)
        assert rec["half_loop_geometric"] == pytest.approx(
            -3.1359516602827213, rel=1e-6)
        assert rec["transport_duration"] == pytest.approx(3046.6717017181018,
                                                          rel=1e-9)

    def test_displaced_loop_encloses_nothing(self, scenario):
        # the scenario's second loop sits at center (3 delta0, 0) = (30, 0)
        rec = scenario("rect-loop")[0]
        assert rec["shifted_winding"] == 0
        assert abs(rec["shifted_wilson_phase"]) < 1e-12
        assert rec["shifted_square_deviation"] < 1e-2

    def test_transport_domain(self):
        origin, mu = (0.0, 0.0), RECT["adiabaticity"]
        for adiabaticity in (0.0, -1e-3):
            with pytest.raises(ValueError):
                analogs.rectangle_transport(10.0, 0.5, origin, adiabaticity)
        # 2000 samples 0.02 apart on a loop passing 0.01 from the crossing
        with pytest.raises(ResolutionError):
            analogs.rectangle_transport(10.0, 0.01, origin, mu)
        # squares that overflow are rejected before numpy forms them
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for delta0, epsilon0 in ((1e300, 0.5), (10.0, 1e300)):
                with pytest.raises(ValueError, match="overflows"):
                    analogs.rectangle_transport(delta0, epsilon0, origin, mu)
        table = analogs.rectangle_transport(10.0, 0.5, origin, mu)
        assert table[0][-1] == pytest.approx(3046.6717017181018, rel=1e-12)
        with pytest.raises(ValueError):
            analogs.rectangular_loop_phase(table, 0.0)

    def test_resonant_corners_warn(self):
        with pytest.warns(RegimeWarning):
            analogs.rectangle_transport(5.0, 1.0, (0.0, 0.0), 0.5)

    def test_edge_through_degeneracy(self):
        # the time table, which the loop phase needs, refuses the touching
        # edge
        with pytest.raises(GeometryError):
            analogs.rectangle_transport(10.0, 0.5, (10.0, 0.0),
                                        RECT["adiabaticity"])
