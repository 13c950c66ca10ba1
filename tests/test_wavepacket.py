"""Time-dependent packet in the mirror+barrier channel.

One expensive run (the scatter-wavepacket catalog defaults: p = 1.5,
gamma = 3, X = 20, 8192-point grid) is shared across the module; every
number frozen here comes from it and is deterministic.  The Crank-Nicolson
step and the closed-form ledger terms are checked on their own against
the dense operators they replace (the central-difference momentum P and
the kinetic stencil T written out in full), and short boxes drive the run
into its far-wall and norm-drift errors.
"""

import numpy as np
import pytest

from phaselab import scattering
from phaselab.errors import GeometryError, StabilityError
from phaselab.scattering import DeltaBarrier, ScatteringConfig, WavepacketRun
from tests.conftest import WAVEPACKET_CONFIG

# a cheap channel and coarse grid for runs that take well under a second
SHORT_CONFIG = ScatteringConfig(p=1.5, m=1.0, X=10.0, barrier=DeltaBarrier(2.0))


def short_run(length=200.0, center=25.0, round_trips=3):
    return WavepacketRun(grid_points=1024, dt=0.02, length=length,
                         center=center, width=2.0, round_trips=round_trips)


def dense_p(psi, dx):
    out = np.zeros_like(psi)
    out[:-1] = psi[1:]
    out[1:] -= psi[:-1]
    return -0.5j * out / dx


def dense_t(psi, kin):
    out = -2.0 * psi
    out[:-1] += psi[1:]
    out[1:] += psi[:-1]
    return -kin * out


class TestRunValidation:
    def test_grid_floor(self):
        with pytest.raises(ValueError):
            WavepacketRun(grid_points=32, dt=0.01, length=100.0, center=35.0,
                          width=2.5)

    def test_center_inside_box(self):
        with pytest.raises(ValueError):
            WavepacketRun(grid_points=256, dt=0.01, length=100.0,
                          center=120.0, width=2.5)
        with pytest.raises(ValueError):
            WavepacketRun(grid_points=256, dt=0.01, length=100.0,
                          center=0.0, width=2.5)

    def test_positive_step_and_width(self):
        with pytest.raises(ValueError):
            WavepacketRun(grid_points=256, dt=0.0, length=100.0, center=35.0,
                          width=2.5)
        with pytest.raises(ValueError):
            WavepacketRun(grid_points=256, dt=0.01, length=100.0,
                          center=35.0, width=-1.0)
        with pytest.raises(ValueError):
            WavepacketRun(grid_points=256, dt=0.01, length=100.0,
                          center=35.0, width=2.5, round_trips=0)

    def test_barrier_cell_inside_grid(self):
        # dx is about 0.195: X = 0.05 rounds to cell -1, which used to put
        # the barrier at the far wall; X = 0.2 rounds to cell 0, the wall
        for X in (0.05, 0.2):
            cfg = ScatteringConfig(p=1.5, m=1.0, X=X, barrier=DeltaBarrier(2.0))
            with pytest.raises(ValueError, match="barrier cell"):
                scattering.wavepacket_run(short_run(), cfg)


class TestConservation:
    def test_momentum_ledger_closes_to_roundoff(self, wavepacket_result):
        scale = 2.0 * WAVEPACKET_CONFIG.p
        assert wavepacket_result.ledger_residual < 1e-12 * scale
        # records the roundoff value; approx's default abs of 1e-12 is
        # wider than rel=1e-6 here, so the bound above is the check
        assert wavepacket_result.ledger_residual == pytest.approx(
            3.06604242862607e-15, rel=1e-6)

    def test_norm_is_preserved(self, wavepacket_result):
        assert wavepacket_result.norm_drift < 1e-8
        assert abs(wavepacket_result.norm[0] - 1.0) < 1e-12


class TestMomentumLedger:
    def test_first_kick_matches_single_encounter(self, wavepacket_result):
        res = wavepacket_result
        target = 2.0 * WAVEPACKET_CONFIG.p * (1.0 - res.epsilon_packet)
        assert abs(res.first_kick - target) < 0.1 * target
        assert res.first_kick == pytest.approx(2.3550535898015488, rel=1e-9)

    def test_long_time_transfer_decays(self, wavepacket_result):
        res = wavepacket_result
        assert abs(res.long_kick) < 0.05 * 2.0 * WAVEPACKET_CONFIG.p
        assert res.long_kick == pytest.approx(0.11841579821818275, rel=1e-9)

    def test_escape_rate_matches_transparency(self, wavepacket_result):
        res = wavepacket_result
        # survival decays by 1/e in about 1/eps round trips
        assert res.efold_roundtrips * res.epsilon_packet == pytest.approx(
            1.0, abs=0.2)
        assert res.efold_roundtrips == pytest.approx(5.106058738792495,
                                                     rel=1e-9)

    def test_packet_transparency_near_plane_wave(self, wavepacket_result):
        res = wavepacket_result
        assert res.epsilon_plane == pytest.approx(0.2, rel=1e-12)
        assert abs(res.epsilon_packet - res.epsilon_plane) < 0.1 * res.epsilon_plane
        assert res.epsilon_packet == pytest.approx(0.19741598264319232,
                                                   rel=1e-9)

    def test_round_trip_time(self, wavepacket_result):
        # 2X at speed p/m
        cfg = WAVEPACKET_CONFIG
        assert wavepacket_result.round_trip_time == pytest.approx(
            2.0 * cfg.X / cfg.velocity, rel=1e-12)

    def test_time_series_shapes_agree(self, wavepacket_result):
        res = wavepacket_result
        n = res.times.shape[0]
        for series in (res.survival, res.barrier_momentum,
                       res.wall_momentum, res.packet_momentum, res.norm):
            assert series.shape == (n,)
        # in-channel probability: empty before arrival, peaks at the
        # trapped fraction, then leaks out through the barrier
        assert res.survival[0] < 1e-6
        peak = float(res.survival.max())
        assert peak == pytest.approx(res.epsilon_packet, rel=0.05)
        assert res.survival[-1] < 0.1 * peak


class TestClosedForms:
    """The per-step terms against the dense expressions on random states."""

    @pytest.mark.parametrize("n", [64, 257])
    def test_ledger_terms_match_dense_commutators(self, n):
        rng = np.random.default_rng(n)
        length, m, dt = 50.0, 1.3, 0.01
        dx = length / (n + 1)
        x = dx * np.arange(1, n + 1)
        kin = 1.0 / (2.0 * m * dx * dx)
        left_half = x <= 0.5 * length
        for j in (1, n // 3, n - 2):
            mid = rng.normal(size=n) + 1j * rng.normal(size=n)
            pot = np.zeros(n)
            pot[j] = 3.0 / dx
            pv = pot * dense_p(mid, dx) - dense_p(pot * mid, dx)
            barrier = (1j * np.vdot(mid, pv)).real * dx * dt
            tp = dense_t(dense_p(mid, dx), kin) - dense_p(dense_t(mid, kin), dx)
            comm = (1j * mid.conj() * tp).real * dx * dt
            closed = scattering._ledger_kicks(mid, j, pot[j], kin, dt)
            dense = (barrier, comm[left_half].sum(), comm[~left_half].sum())
            assert closed == pytest.approx(dense, rel=1e-12)
            momentum = np.vdot(mid, dense_p(mid, dx)).real * dx
            assert scattering._packet_momentum(mid) == pytest.approx(
                momentum, rel=1e-12)

    @pytest.mark.parametrize("n", [64, 257])
    def test_midpoint_solve_is_the_crank_nicolson_step(self, n):
        rng = np.random.default_rng(n + 1)
        dx, m, dt = 0.3, 0.8, 0.05
        kin = 1.0 / (2.0 * m * dx * dx)
        pot = np.zeros(n)
        pot[n // 2] = 2.0 / dx
        h = np.diag(pot) + np.column_stack(
            [dense_t(col, kin) for col in np.eye(n, dtype=complex)])
        a = 0.5j * dt * h
        eye = np.eye(n)
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        explicit = np.linalg.solve(eye + a, (eye - a) @ psi)
        step = 2.0 * scattering._cn_midpoint_solver(pot, kin, dt)(psi) - psi
        assert np.linalg.norm(step - explicit) <= 1e-12 * np.linalg.norm(explicit)


class TestRunErrors:
    def test_far_wall_reached(self):
        # the reflected front crosses x = 57 about 48 time units in,
        # well inside the 62-unit measurement window
        with pytest.raises(GeometryError):
            scattering.wavepacket_run(short_run(length=60.0, center=35.0),
                                      SHORT_CONFIG)

    def test_norm_drift(self, monkeypatch):
        # a solve that loses 1e-7 of the midpoint per step leaks norm
        exact = scattering._cn_midpoint_solver

        def leaky(pot, kin, dt):
            solve = exact(pot, kin, dt)
            return lambda psi: solve(psi) * (1.0 - 1e-7)
        monkeypatch.setattr(scattering, "_cn_midpoint_solver", leaky)
        with pytest.raises(StabilityError, match="norm drift"):
            scattering.wavepacket_run(short_run(round_trips=1), SHORT_CONFIG)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_state(self):
        # an infinite barrier turns the state to NaN, which no comparison
        # against the 1e-6 limit may let through
        cfg = ScatteringConfig(p=1.5, m=1.0, X=10.0,
                               barrier=DeltaBarrier(float("inf")))
        with pytest.raises(StabilityError, match="norm drift"):
            scattering.wavepacket_run(short_run(round_trips=1), cfg)


class TestSmallRun:
    def test_coarse_run_still_balances(self):
        # cheap configuration exercising the stepper end to end
        res = scattering.wavepacket_run(short_run(), SHORT_CONFIG)
        assert res.ledger_residual < 1e-10
        assert res.norm_drift < 1e-6
        assert 0.0 < res.epsilon_packet < 1.0
        assert res.first_kick > 0.0
