"""Perturbed orbit clock: frozen-probe periods and the adiabatic residual.

Runs at catalog defaults come from the session fixture ``scenario``.
"""

import itertools
import math
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from phaselab import analogs, dop853
from phaselab.analogs import CelestialConfig
from phaselab.errors import DynamicsError
from phaselab.scenarios import SCENARIOS

TWO_PI = 2.0 * math.pi
# the celestial scenarios' catalog configuration
CONFIG = CelestialConfig(**{
    name: SCENARIOS["celestial-frozen"].parameters[name].default
    for name in ("m_jupiter", "r_jupiter", "eccentricity")})


def single_lane_period(cfg, phi, orbits=8.5):
    """Reference definition of the frozen period at angle phi: one lane
    solved on its own from t = 0, once forward to t_half and once backward
    to -t_half, each branch's perihelia read through the time-reflected
    state tau -> state(+-tau), whose r.v flips sign on the backward one."""
    t_half = 0.5 * orbits * TWO_PI
    muj = cfg.m_jupiter
    px, pz = cfg.r_jupiter * math.cos(phi), cfg.r_jupiter * math.sin(phi)

    def rhs(t, y):
        x, z, vx, vz = y
        r3 = (x * x + z * z) ** 1.5
        dx, dz = x - px, z - pz
        d3 = (dx * dx + dz * dz) ** 1.5
        return (vx, vz, -x / r3 - muj * dx / d3, -z / r3 - muj * dz / d3)

    gaps = []
    for sign in (-1.0, 1.0):
        sol = solve_ivp(rhs, (0.0, sign * t_half), cfg.initial_state(),
                        method="DOP853", rtol=1e-12, atol=1e-13,
                        dense_output=True)
        flip = np.array([[1.0], [1.0], [sign], [sign]])
        # one lane: a read of lane 0's rows reads every row
        reflected = SimpleNamespace(
            ts=sign * sol.t,
            sol=lambda tau, lane=None: sol.sol(sign * tau) * flip)
        times = analogs._perihelion_times(reflected)[0]
        gaps.append(np.diff(times))
    return float(np.mean(np.concatenate(gaps)))


def frozen_period(cfg, phi):
    """The frozen period at one angle, measured in a stack of its own."""
    return float(analogs.celestial_frozen_period(cfg, [phi])[0])


@pytest.fixture
def grid(scenario):
    """(perturber angles, periods) of celestial-frozen's 32-node grid."""
    table = scenario("celestial-frozen")[2]["frozen_grid.csv"]
    return table["perturber_angle"], table["radial_period"]


class TestConfig:
    def test_closed_form_scales(self):
        assert analogs.KEPLER_PERIOD == TWO_PI
        # m_j (r_e / (r_j - r_e))^2 at closest approach
        assert analogs.force_ratio(CONFIG) == pytest.approx(
            1e-3 / 4.2 ** 2, rel=1e-15)
        assert CONFIG.jupiter_period == pytest.approx(
            TWO_PI * 5.2 ** 1.5, rel=1e-15)

    def test_initial_state_is_perihelion(self):
        x, z, vx, vz = CONFIG.initial_state()
        e = CONFIG.eccentricity
        assert x == pytest.approx(1.0 - e, rel=1e-15)
        assert z == 0.0 and vx == 0.0
        # angular momentum of an a = 1 ellipse
        assert x * vz == pytest.approx(math.sqrt(1.0 - e * e), rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            replace(CONFIG, m_jupiter=-1e-3, r_jupiter=5.2)
        with pytest.raises(ValueError):
            replace(CONFIG, m_jupiter=0.2, r_jupiter=5.2)
        with pytest.raises(ValueError):
            replace(CONFIG, m_jupiter=1e-3, r_jupiter=0.9)
        with pytest.raises(ValueError):
            replace(CONFIG, eccentricity=0.2)


class TestFrozenPeriod:
    def test_unperturbed_recovers_kepler(self):
        cfg = replace(CONFIG, m_jupiter=0.0, r_jupiter=5.2)
        assert abs(frozen_period(cfg, 0.0) - TWO_PI) < 1e-8

    def test_angle_dependence(self, grid):
        phis, periods = grid
        # conjunction stretches the period most, quadrature compresses it
        assert periods[0] == pytest.approx(6.275461594868436, abs=1e-8)
        assert periods[8] == pytest.approx(6.2831873837580074, abs=1e-8)
        assert periods[16] == pytest.approx(6.2912546580101285, abs=1e-8)
        shifts = (periods - TWO_PI) / TWO_PI
        assert shifts.min() == pytest.approx(-0.0012292669933392478,
                                             rel=1e-6)
        assert shifts.max() == pytest.approx(0.0012842770722234944,
                                             rel=1e-6)

    def test_even_in_angle(self):
        plus = frozen_period(CONFIG, 0.7)
        minus = frozen_period(CONFIG, -0.7)
        assert plus == pytest.approx(6.277271002784782, abs=1e-8)
        # mirror construction makes the measurement even in phi exactly
        assert abs(plus - minus) < 1e-13

    def test_grid_symmetry_and_smoothness(self, grid):
        phis, periods = grid
        shifts = (periods - TWO_PI) / TWO_PI
        asym = np.max(np.abs(shifts[1:] - shifts[:0:-1]))
        assert asym < 1e-10
        wrapped = np.concatenate((shifts, shifts[:2]))
        second = wrapped[2:] - 2.0 * wrapped[1:-1] + wrapped[:-2]
        assert np.max(np.abs(second)) < 1e-4

    def test_shift_scales_linearly_in_mass(self, scenario):
        # the conjunction shift at full over half the perturber mass
        halving = scenario("celestial-frozen")[0]["halving_ratio"]
        assert halving == pytest.approx(2.0, abs=0.04)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            analogs.frozen_grid_angles(7)
        with pytest.raises(ValueError):
            analogs.frozen_grid_angles(2)


class TestLaneStacks:
    def test_stack_matches_single_lanes(self, grid):
        phis, periods = grid
        for k in (0, 5, 27):
            alone = frozen_period(CONFIG, phis[k])
            assert abs(alone - periods[k]) < 1e-11

    def test_failing_lane_is_named(self):
        # at r_jupiter 1.2 the heavy lane falls into the sun near t = 11.7;
        # the free lane beside it would run to the end
        cfg = replace(CONFIG, m_jupiter=0.05, r_jupiter=1.2)
        with pytest.raises(DynamicsError, match=r"collided.* lane 1 "
                           r"\(perturber angle 0, mass 0\.05\)"):
            analogs.celestial_frozen_period(cfg, [0.0, 0.0],
                                            masses=[0.0, 0.05])

    def test_reversed_lanes_are_the_backward_run(self, grid):
        # the velocity-reversed half of the stack against a backward solve
        phis, periods = grid
        for k in (3, 10, 21):
            reference = single_lane_period(CONFIG, phis[k])
            assert abs(reference - periods[k]) < 1e-11

    def test_one_run_per_measurement(self, monkeypatch):
        calls = []
        forward = analogs.solve_ivp
        monkeypatch.setattr(analogs, "solve_ivp", lambda *args, **kwargs:
                            calls.append(1) or forward(*args, **kwargs))
        analogs.celestial_frozen_period(CONFIG, [0.0, 1.0, 2.0])
        assert len(calls) == 1

    def test_failing_reversed_lane_is_named(self):
        # at angle -0.5 the backward branch falls into the sun first, at
        # t = -15.851, before the forward one does at t = 20.197
        cfg = replace(CONFIG, m_jupiter=0.05, r_jupiter=1.2)
        with pytest.raises(DynamicsError, match=r"^planet collided with the "
                           r"sun at t = -15\.851 in lane 0 \(perturber angle "
                           r"-0\.5, mass 0\.05\) on the backward branch$"):
            analogs.celestial_frozen_period(cfg, [-0.5])

    def test_lane_validation(self, monkeypatch):
        with pytest.raises(ValueError):
            analogs.celestial_frozen_period(CONFIG, [0.0, 1.0],
                                            masses=[1e-3])
        with pytest.raises(ValueError):
            analogs.celestial_frozen_period(CONFIG, [0.0],
                                            masses=[-1e-3])
        with pytest.raises(ValueError):
            analogs.celestial_frozen_period(CONFIG, 0.0)
        # a window shorter than the grid's 0.3 t_kep start holds no grid
        monkeypatch.setattr(analogs, "_ORBITS", 0.5)
        with pytest.raises(DynamicsError, match="fewer than four"):
            analogs.celestial_frozen_period(CONFIG, [0.0])


def _moving(cfg):
    """The moving perturber's angle t -> 2 pi t / t_jupiter."""
    return lambda t: TWO_PI / cfg.jupiter_period * t


def _coasting(t, y):
    """Straight-line motion of every lane of a flat (4, N) state."""
    return np.concatenate((y[len(y) // 2:], np.zeros(len(y) // 2)))


class TestRunStops:
    """How an orbit run ends early: the stop events and a failed step."""

    def test_moving_perturber_collision(self):
        # a heavy perturber close in and turning slowly drags the planet
        # into the sun
        cfg = replace(CONFIG, m_jupiter=0.05, r_jupiter=1.2)
        with pytest.raises(DynamicsError, match=r"^planet collided with the "
                           r"sun at t = 11\.693$"):
            analogs._integrate(cfg, lambda t: 0.01 * t, 40.0, 1e-12, 1e-13)

    def test_moving_perturber_escape(self):
        cfg = replace(CONFIG, m_jupiter=0.03, r_jupiter=1.3)
        with pytest.raises(DynamicsError, match=r"^planet escaped past 2\.5 "
                           r"r_jupiter at t = 19\.203$"):
            analogs._integrate(cfg, _moving(cfg), 60.0, 1e-12, 1e-13)

    @pytest.mark.parametrize("cfg, angle, t_max, event", [
        (replace(CONFIG, m_jupiter=0.05, r_jupiter=1.2), lambda t: 0.01 * t,
         40.0, 0),
        (replace(CONFIG, m_jupiter=0.03, r_jupiter=1.3),
         _moving(replace(CONFIG, m_jupiter=0.03, r_jupiter=1.3)), 60.0, 1)],
        ids=["collision", "escape"])
    def test_stops_are_scipys_terminal_events(self, dop853_runs, cfg, angle,
                                              t_max, event):
        # the two runs above, against solve_ivp's terminal events on the
        # same radius bounds
        with pytest.raises(DynamicsError):
            analogs._integrate(cfg, angle, t_max, 1e-12, 1e-13)
        (args, run), = dop853_runs
        rhs, y0, t_end, rtol, atol, _ = args

        def collision(t, y):
            return analogs._radii(y).min() - 0.01

        def escape(t, y):
            return analogs._radii(y).max() - 2.5 * cfg.r_jupiter

        collision.terminal = escape.terminal = True
        reference = solve_ivp(rhs, (0.0, t_end), y0, method="DOP853",
                              rtol=rtol, atol=atol, events=(collision, escape))
        k, t, state = run.stop
        assert k == event
        assert t == reference.t_events[event][0]
        assert np.array_equal(state, reference.y_events[event][0])

    def test_failed_step(self):
        # the perturber's circle at 1.1 runs through the planet's orbit
        cfg = replace(CONFIG, m_jupiter=0.05, r_jupiter=1.1)
        with pytest.raises(DynamicsError, match=r"^orbit integration failed: "
                           r"Required step size is less than spacing between "
                           r"numbers\.$"):
            analogs._integrate(cfg, _moving(cfg), 60.0, 1e-12, 1e-13)

    def test_escape_through_solve(self):
        # (1 + t, t / 2) leaves r = 2.5 r_jupiter = 5 at
        # t = (sqrt(124) - 2) / 2.5 = 3.6542
        cfg = replace(CONFIG, m_jupiter=0.0, r_jupiter=2.0)
        with pytest.raises(DynamicsError, match=r"^planet escaped past 2\.5 "
                           r"r_jupiter at t = 3\.654$"):
            analogs.solve_ivp(cfg, _coasting,
                              np.array([1.0, 0.0, 1.0, 0.5]), 20.0, 1e-12,
                              1e-13)

    @pytest.mark.parametrize("speed, message", [
        (1.25, "escaped past 2.5 r_jupiter at t = 1.600 in lane 1"),
        (2.0 / 2.001, "collided with the sun at t = 1.990 in lane 0")])
    def test_both_stops_in_one_step(self, speed, message):
        # lane 0 coasts into the sun, crossing r = 0.01 at t = 1.99; lane 1
        # coasts out past r = 3 at 2 / speed.  Both cross inside the same
        # step, and the earlier crossing ends the run
        from scipy.integrate import DOP853
        cfg = replace(CONFIG, m_jupiter=0.0, r_jupiter=1.2)
        y0 = np.array([2.0, 1.0, 0.0, 0.0, -1.0, speed, 0.0, 0.0])
        stepper = DOP853(_coasting, 0.0, y0, 10.0, rtol=1e-12, atol=1e-13)
        while stepper.status == "running":
            stepper.step()
            r = np.abs(stepper.y[:2])
            if r[0] <= 0.01 or r[1] >= 3.0:
                break
        assert r[0] <= 0.01 and r[1] >= 3.0
        with pytest.raises(DynamicsError,
                           match=f"^planet {re.escape(message)}$"):
            analogs.solve_ivp(cfg, _coasting, y0, 10.0, 1e-12, 1e-13,
                              lambda t, k: f" at t = {t:.3f} in lane {k}")


@pytest.fixture
def dop853_runs(monkeypatch):
    """(arguments, result) of each dop853.run call a test makes; a stopped
    run is recorded before analogs.solve_ivp raises on it."""
    runs = []
    forward = dop853.run

    def recording(*args):
        runs.append((args, forward(*args)))
        return runs[-1][1]

    monkeypatch.setattr(dop853, "run", recording)
    return runs


class TestDenseRun:
    """The orbit runs (dop853.run, as analogs.solve_ivp makes it) against
    scipy's solve_ivp on the same RHS: the same step ends, RHS calls and
    dense output, bit for bit.  A scipy whose
    DOP853 step, error norm, step control or dense output changes fails
    here."""

    @pytest.mark.parametrize("measure, rejects", [
        (lambda: analogs._integrate(CONFIG, _moving(CONFIG),
                                    CONFIG.jupiter_period + 1.5 * TWO_PI,
                                    1e-12, 1e-13), False),
        (lambda: analogs._integrate(
            replace(CONFIG, m_jupiter=0.0, r_jupiter=5.2), _moving(CONFIG),
            20.0, 1e-9, 1e-10), False),
        (lambda: analogs.celestial_frozen_period(CONFIG, [0.0, 1.0, 2.5]),
         False),
        # a heavy perturber close in: steps fail the error test and are
        # retried shorter
        (lambda: analogs.celestial_frozen_period(
            replace(CONFIG, m_jupiter=0.05, r_jupiter=1.5), [0.0, 1.0, 2.5]),
         True),
        (lambda: analogs._integrate(
            replace(CONFIG, m_jupiter=0.05, r_jupiter=2.0),
            _moving(replace(CONFIG, m_jupiter=0.05, r_jupiter=2.0)),
            40.0, 1e-12, 1e-13), True)],
        ids=["moving", "massless", "frozen-stack", "frozen-rejecting",
             "moving-rejecting"])
    def test_matches_scipy(self, dop853_runs, measure, rejects):
        measure()
        (args, run), = dop853_runs
        rhs, y0, t_end, rtol, atol = args[:5]
        reference = solve_ivp(rhs, (0.0, t_end), y0, method="DOP853",
                              rtol=rtol, atol=atol, dense_output=True)
        # 2 RHS calls to start, 12 a tried step and 3 more for an accepted
        # step's dense output
        rejected = reference.nfev - 2 - 15 * (len(reference.t) - 1)
        assert (rejected > 0) == rejects
        assert run.nfev == reference.nfev
        assert np.array_equal(run.ts, reference.t)
        grid = np.arange(0.3 * TWO_PI, t_end, TWO_PI / 400.0)
        steps = reference.t
        outside = np.array([-1e-3, -1.0, t_end + 1e-3, t_end + 1.0])
        mixed = np.random.default_rng(5).permutation(
            np.concatenate((grid, steps, 0.5 * (steps[1:] + steps[:-1]))))
        for t in (grid, steps, outside, mixed):
            assert np.array_equal(run.sol(t), reference.sol(t))

    @pytest.mark.parametrize("cfg", [CONFIG,
                                     replace(CONFIG, m_jupiter=0.0,
                                                     r_jupiter=5.2)])
    def test_scalar_rhs_floats_match_numpy_scalars(self, dop853_runs, cfg):
        # the single-lane RHS unpacks y.tolist(); handing it numpy scalars
        # instead runs the same arithmetic on np.float64
        analogs._integrate(cfg, _moving(cfg), 20.0, 1e-9, 1e-10)
        (args, run), = dop853_runs
        rhs = args[0]
        for t, y in zip(run.ts, run.sol(run.ts).T):
            scalars = SimpleNamespace(tolist=lambda: list(y))
            assert rhs(t, y) == rhs(t, scalars)

    def test_lane_rhs_matches_row_formula(self, monkeypatch):
        # the stacked RHS works on (2, n) position rows; the formula written
        # out per coordinate row gives the same bits
        monkeypatch.setattr(analogs, "solve_ivp", lambda cfg, rhs, *rest: rhs)
        rng = np.random.default_rng(11)
        lanes = 32
        phis = rng.uniform(0.0, TWO_PI, lanes)
        masses = rng.uniform(0.0, 0.05, lanes)
        rhs = analogs._integrate_lanes(CONFIG, np.zeros((lanes, 4)), phis,
                                       masses, 1.0, None)
        px = CONFIG.r_jupiter * np.cos(phis)
        pz = CONFIG.r_jupiter * np.sin(phis)
        for _ in range(20):
            y = rng.uniform(-2.0, 2.0, 4 * lanes)
            x, z, vx, vz = y.reshape(4, lanes)
            r3 = (x * x + z * z) ** 1.5
            dx = x - px
            dz = z - pz
            d3 = (dx * dx + dz * dz) ** 1.5
            reference = np.concatenate((vx, vz, -x / r3 - masses * dx / d3,
                                        -z / r3 - masses * dz / d3))
            assert np.array_equal(rhs(0.0, y), reference)

    def test_steps_own_their_arrays(self, dop853_runs):
        # the loop writes into arrays of the run; what a step keeps must not
        # be one of them, nor shared with another run
        analogs.celestial_frozen_period(CONFIG, [0.0, 1.0, 2.5])
        (_, first), = dop853_runs
        grid = np.arange(0.3 * TWO_PI, first.ts[-1], TWO_PI / 400.0)
        reads = [first.sol(first.ts), first.sol(grid)]
        analogs._integrate(CONFIG, _moving(CONFIG), 20.0, 1e-9, 1e-10)
        analogs.celestial_frozen_period(CONFIG, [0.5, 2.0, 3.0])
        assert len(dop853_runs) == 3
        for t, before in zip((first.ts, grid), reads):
            assert np.array_equal(first.sol(t), before)
        for _, run in dop853_runs:
            kept = [array for step in run.steps for array in step]
            assert not any(np.shares_memory(a, b)
                           for a, b in itertools.combinations(kept, 2))


def _reference_root(g):
    """Real root nearest u = 0 of np.polyfit + np.roots on the unit window."""
    roots = np.roots(np.polyfit(analogs._APSIS_U, g, 2))
    real = roots[np.isreal(roots)].real
    return real[np.argmin(np.abs(real))] if real.size else math.nan


class TestApsisFit:
    def test_matches_polyfit_roots(self):
        rng = np.random.default_rng(3)
        u = analogs._APSIS_U
        # exact quadratics with a root inside the window, and noisy ones
        roots = rng.uniform(-0.9, 0.9, 40)
        curv = rng.uniform(-2.0, 2.0, 40)
        slope = rng.choice((-1.0, 1.0), 40) * rng.uniform(0.5, 3.0, 40)
        g = curv[:, None] * (u - roots[:, None]) ** 2 \
            + slope[:, None] * (u - roots[:, None])
        g = np.concatenate((g, g + 1e-3 * rng.standard_normal(g.shape)))
        got = analogs._quadratic_root(g)
        want = np.array([_reference_root(row) for row in g])
        assert np.max(np.abs(got - want)) < 1e-12

    def test_nearly_linear_window(self):
        # b^2 >> |4ac|: the textbook formula subtracts nearly equal numbers
        a, b, c = 1e-8, 1.0, 1e-3
        g = np.polyval((a, b, c), analogs._APSIS_U)
        got = float(analogs._quadratic_root(g[None])[0])
        want = _reference_root(g)
        assert got == pytest.approx(want, rel=1e-13)
        coeff = np.polyfit(analogs._APSIS_U, g, 2)
        textbook = (-coeff[1] + math.sqrt(coeff[1] ** 2 - 4.0 * coeff[0]
                                          * coeff[2])) / (2.0 * coeff[0])
        assert abs(textbook - want) > 1e-9 * abs(want)

    def test_linear_and_rootless_windows(self):
        u = analogs._APSIS_U
        g = np.stack((2.0 * u - 0.5, u * u + 1.0))
        got = analogs._quadratic_root(g)
        assert got[0] == pytest.approx(0.25, rel=1e-14)
        assert math.isnan(got[1])


class TestAdiabaticResidual:
    def test_residual_is_subleading(self, scenario):
        residual = scenario("celestial-residual")[0]
        assert residual["residual"] == pytest.approx(0.0005398639405456152,
                                                     rel=1e-6)
        assert residual["dynamical_correction"] == pytest.approx(
            0.010122667922189521, rel=1e-6)

    def test_bookkeeping(self, scenario):
        residual = scenario("celestial-residual")[0]
        assert residual["perihelion_count"] == 13
        assert residual["per_cycle_residual"] == pytest.approx(
            0.0005335431031690366, rel=1e-6)

    def test_converged(self, scenario):
        gap = scenario("celestial-residual")[0]["convergence_gap"]
        assert gap is not None
        assert gap < 1e-4

    def test_unperturbed_control(self):
        cfg = replace(CONFIG, m_jupiter=0.0, r_jupiter=5.2)
        res = analogs.celestial_adiabatic_residual(
            cfg, analogs.frozen_grid_angles(32), check_convergence=False)
        assert abs(res.residual) < 1e-8
        assert res.convergence_gap is None

    def test_strong_perturber_breaks_first_order(self):
        # ten-fold mass at close range: the frozen-field prediction is no
        # longer the whole story and the residual overtakes the dynamical
        # correction instead of hiding under it
        cfg = replace(CONFIG, m_jupiter=1e-2, r_jupiter=3.0)
        res = analogs.celestial_adiabatic_residual(
            cfg, analogs.frozen_grid_angles(32), check_convergence=False)
        assert res.residual == pytest.approx(0.1034337003866952, rel=1e-4)
        assert abs(res.residual) > abs(res.dynamical_correction)

    def test_regime_guard(self):
        # a perturber at r_jupiter 2.5 circles in 3.95 t_earth
        cfg = replace(CONFIG, m_jupiter=1e-3, r_jupiter=2.5)
        with pytest.raises(ValueError):
            analogs.celestial_adiabatic_residual(
                cfg, analogs.frozen_grid_angles(32))

    def test_regime_edge_in_r_jupiter(self):
        # Kepler's third law puts t_jupiter = 5 t_earth at r = 5^(2/3)
        edge = 5.0 ** (2.0 / 3.0)
        t_j, t_e = analogs.adiabatic_periods(
            replace(CONFIG, m_jupiter=1e-3, r_jupiter=1.001 * edge))
        assert t_j == pytest.approx(5.0 * t_e, rel=2e-3)
        with pytest.raises(ValueError, match="adiabatic regime"):
            analogs.adiabatic_periods(
                replace(CONFIG, m_jupiter=1e-3, r_jupiter=0.999 * edge))
