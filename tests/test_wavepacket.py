"""Time-dependent packet in the mirror+barrier channel.

The scatter-wavepacket scenario's run at its catalog defaults (p = 1.5,
gamma = 3, X = 20, 8192-point grid), from the session fixture ``scenario``,
is the one expensive run; every number frozen here comes from its summary
and time series and is deterministic.  The Crank-Nicolson
step and the closed-form ledger terms are checked on their own against
the dense operators they replace (the central-difference momentum P and
the kinetic stencil T written out in full), short boxes drive the run
into its far-wall and norm-drift errors, and a small grid shows that a
run and its CSV hold 8 bytes a step.
"""

import tracemalloc

import numpy as np
import pytest

from phaselab import cli, scattering
from phaselab.errors import GeometryError, StabilityError
from phaselab.scattering import ScatteringConfig, WavepacketRun
from phaselab.scenarios import SCENARIOS

TWO_P = 2.0 * SCENARIOS["scatter-wavepacket"].parameters["p"].default

# a cheap channel and coarse grid for runs that take well under a second
SHORT_CONFIG = ScatteringConfig(p=1.5, m=1.0, X=10.0, strength=2.0)


def short_run(length=200.0, center=25.0, round_trips=3):
    return WavepacketRun(grid_points=1024, dt=0.02, length=length,
                         center=center, width=2.0, round_trips=round_trips)


def drop(block):
    """A run's row sink that keeps nothing."""


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
                          width=2.5, round_trips=16)

    def test_center_inside_box(self):
        with pytest.raises(ValueError):
            WavepacketRun(grid_points=256, dt=0.01, length=100.0,
                          center=120.0, width=2.5, round_trips=16)
        with pytest.raises(ValueError):
            WavepacketRun(grid_points=256, dt=0.01, length=100.0,
                          center=0.0, width=2.5, round_trips=16)

    def test_positive_step_and_width(self):
        with pytest.raises(ValueError):
            WavepacketRun(grid_points=256, dt=0.0, length=100.0, center=35.0,
                          width=2.5, round_trips=16)
        with pytest.raises(ValueError):
            WavepacketRun(grid_points=256, dt=0.01, length=100.0,
                          center=35.0, width=-1.0, round_trips=16)
        with pytest.raises(ValueError):
            WavepacketRun(grid_points=256, dt=0.01, length=100.0,
                          center=35.0, width=2.5, round_trips=0)

    def test_barrier_cell_inside_grid(self):
        # dx is about 0.195: X = 0.05 rounds to cell -1, which used to put
        # the barrier at the far wall; X = 0.2 rounds to cell 0, the wall
        for X in (0.05, 0.2):
            cfg = ScatteringConfig(p=1.5, m=1.0, X=X, strength=2.0)
            with pytest.raises(ValueError, match="barrier cell"):
                scattering.wavepacket_run(short_run(), cfg, drop)


@pytest.fixture
def packet(scenario):
    """(summary results, timeseries.csv columns) of the catalog run."""
    results, _, tables = scenario("scatter-wavepacket")
    return results, tables["timeseries.csv"]


class TestConservation:
    def test_momentum_ledger_closes_to_roundoff(self, packet):
        # measured 3.07e-15: the bound sits 100x above roundoff, so it
        # holds on any BLAS and still fails a ledger term gone missing
        assert packet[0]["ledger_residual"] <= 1e-13 * TWO_P

    def test_norm_is_preserved(self, packet):
        res, series = packet
        assert res["norm_drift"] < 1e-8
        assert abs(series["norm"][0] - 1.0) < 1e-12


class TestMomentumLedger:
    def test_first_kick_matches_single_encounter(self, packet):
        # 2p(1 - eps) = 2.408 within 10% is criterion 7; pinned here
        assert packet[0]["first_kick"] == pytest.approx(2.3550535898015488,
                                                        rel=1e-9)

    def test_long_time_transfer_decays(self, packet):
        assert packet[0]["long_kick"] == pytest.approx(0.11841579821818275,
                                                       rel=1e-9)

    def test_escape_rate_matches_transparency(self, packet):
        # survival decays by 1/e in about 1/eps = 5.07 round trips
        assert packet[0]["efold_roundtrips"] == pytest.approx(
            5.106058738792495, rel=1e-9)

    def test_packet_transparency_near_plane_wave(self, packet):
        res = packet[0]
        assert res["epsilon_plane"] == pytest.approx(0.2, rel=1e-12)
        assert abs(res["epsilon_packet"] - res["epsilon_plane"]) \
            < 0.1 * res["epsilon_plane"]
        assert res["epsilon_packet"] == pytest.approx(0.19741598264319232,
                                                      rel=1e-9)

    def test_time_series_shapes_agree(self, packet):
        res, series = packet
        n = series["time"].shape[0]
        for name in ("survival", "barrier_momentum", "wall_momentum",
                     "packet_momentum", "norm"):
            assert series[name].shape == (n,)
        # in-channel probability: empty before arrival, peaks at the
        # trapped fraction, then leaks out through the barrier
        survival = series["survival"]
        assert survival[0] < 1e-6
        peak = float(survival.max())
        assert peak == pytest.approx(res["epsilon_packet"], rel=0.05)
        assert survival[-1] < 0.1 * peak


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


def cn_tridiagonal(n, strength, dt=0.01, length=1000.0, m=1.0):
    """Off-diagonal and diagonal of I + i dt H / 2 on the scenario's box,
    with a barrier of the given strength on the middle cell."""
    dx = length / (n + 1)
    kin = 1.0 / (2.0 * m * dx * dx)
    pot = np.zeros(n)
    pot[n // 2] = strength / dx
    off = np.full(n - 1, -0.5j * dt * kin)
    return pot, kin, dt, off, 1.0 + 0.5j * dt * (2.0 * kin + pot)


class TestLdltSolve:
    """The solve relies on zgttrf never swapping rows of the CN matrix."""

    @pytest.mark.parametrize("n", [64, 257, 3200])
    @pytest.mark.parametrize("strength", [0.0, 3.0, 1e6])
    def test_factor_swaps_no_rows(self, n, strength):
        from scipy.linalg.lapack import zgttrf
        *_, off, diag = cn_tridiagonal(n, strength)
        *_, ipiv, info = zgttrf(off, diag, off)
        assert info == 0
        assert np.array_equal(ipiv, np.arange(1, n + 1))

    @pytest.mark.parametrize("n", [64, 257, 3200])
    @pytest.mark.parametrize("strength", [0.0, 3.0, 1e6])
    def test_solve_matches_general_tridiagonal_solve(self, n, strength):
        from scipy.linalg.lapack import zgttrf, zgttrs
        pot, kin, dt, off, diag = cn_tridiagonal(n, strength)
        *factors, _ = zgttrf(off, diag, off)
        rng = np.random.default_rng(n)
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        before = psi.copy()
        reference = zgttrs(*factors, psi)[0]
        mid = scattering._cn_midpoint_solver(pot, kin, dt)(psi)
        assert np.array_equal(psi, before)
        assert np.linalg.norm(mid - reference) <= \
            1e-14 * np.linalg.norm(reference)

    def test_row_swap_on_a_finite_diagonal_is_refused(self):
        # a well of depth kin on one cell breaks the diagonal dominance
        # that no barrier of strength >= 0 can break; zgttrf swaps there
        kin = 1e4
        pot = np.zeros(64)
        pot[32] = -kin
        with pytest.raises(StabilityError, match="swapped rows"):
            scattering._cn_midpoint_solver(pot, kin, 0.01)


class TestRunErrors:
    def test_far_wall_reached(self):
        # the reflected front crosses x = 57 about 48 time units in,
        # well inside the 62-unit measurement window
        with pytest.raises(GeometryError):
            scattering.wavepacket_run(short_run(length=60.0, center=35.0),
                                      SHORT_CONFIG, drop)

    def test_norm_drift(self, monkeypatch):
        # a solve that loses 1e-7 of the midpoint per step leaks norm
        exact = scattering._cn_midpoint_solver

        def leaky(pot, kin, dt):
            solve = exact(pot, kin, dt)
            return lambda psi: solve(psi) * (1.0 - 1e-7)
        monkeypatch.setattr(scattering, "_cn_midpoint_solver", leaky)
        with pytest.raises(StabilityError, match="norm drift"):
            scattering.wavepacket_run(short_run(round_trips=1), SHORT_CONFIG,
                                      drop)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_state(self):
        # an infinite barrier turns the state to NaN, which no comparison
        # against the 1e-6 limit may let through
        cfg = ScatteringConfig(p=1.5, m=1.0, X=10.0, strength=float("inf"))
        with pytest.raises(StabilityError, match="norm drift"):
            scattering.wavepacket_run(short_run(round_trips=1), cfg, drop)


class TestSmallRun:
    def test_coarse_run_still_balances(self):
        # cheap configuration exercising the stepper end to end
        res = scattering.wavepacket_run(short_run(), SHORT_CONFIG, drop)
        assert res.ledger_residual < 1e-10
        assert res.norm_drift < 1e-6
        assert 0.0 < res.epsilon_packet < 1.0
        assert res.first_kick > 0.0

    def test_blocks_carry_the_series_the_summary_reads(self):
        blocks = []
        run = short_run()
        res = scattering.wavepacket_run(run, SHORT_CONFIG, blocks.append)
        sizes = [len(block[0]) for block in blocks]
        assert len(sizes) > 2
        assert set(sizes[:-1]) == {scattering.ROW_BLOCK}
        time, survival, barrier, wall, packet, norm = (
            np.concatenate(column) for column in zip(*blocks))
        assert np.array_equal(time, res.times)
        t_first, _, steps = scattering.wavepacket_schedule(run, SHORT_CONFIG)
        assert len(time) == steps + 1
        first = round(t_first / run.dt)
        assert (survival[first], barrier[first]) == (res.epsilon_packet,
                                                     res.first_kick)
        assert barrier[-1] == res.long_kick
        assert barrier[0] == wall[0] == 0.0
        assert np.max(np.abs(norm - norm[0])) == res.norm_drift


class TestMemory:
    def test_run_and_its_csv_hold_eight_bytes_a_step(self, tmp_path):
        # the series streams to the CSV a block at a time, so only times
        # (8 bytes a step) grows with the run; holding the six series
        # until the end took 48 bytes a step, and formatting them all
        # 1 MB more at 3,900 steps than at 1,900
        cfg = ScatteringConfig(p=1.5, m=1.0, X=5.0, strength=2.0)

        def run(round_trips):
            return WavepacketRun(grid_points=512, dt=0.02, length=150.0,
                                 center=26.0, width=4.0,
                                 round_trips=round_trips)

        # imports and first-call caches, outside the traced runs
        cli._execute("scatter-wavepacket", (cfg, run(1)), 0, tmp_path)
        peaks, steps = {}, {}
        for round_trips in (2, 8):
            tracemalloc.start()
            try:
                cli._execute("scatter-wavepacket", (cfg, run(round_trips)), 0,
                             tmp_path)
                peaks[round_trips] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            steps[round_trips] = scattering.wavepacket_schedule(
                run(round_trips), cfg)[2]
        assert peaks[8] - peaks[2] <= 8 * (steps[8] - steps[2]) + 32_000
        assert steps[2] > scattering.ROW_BLOCK  # a full block in both runs
