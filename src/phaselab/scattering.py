"""1D scattering off a wall-plus-barrier channel, and the momentum ledger.

The setup throughout: a hard mirror at x = 0, a delta barrier at x = X > 0,
and a particle of momentum p arriving from the right.  Stationary solves
give the reflection phase of the closed channel; the bounce-chain algebra
shows the expected momentum handed to the barrier is exactly zero; the
wavepacket simulation shows the same thing in real time with an exact
discrete momentum ledger (the commutator identity of the Crank-Nicolson
step closes the books to roundoff, not to a tolerance).  The simulation
keeps its ledger online and hands its time series to the caller in blocks
of ROW_BLOCK steps, so its memory does not grow with the series.

Units: hbar = 1; velocities are p/m.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import qcore
from .errors import GeometryError, StabilityError

_UNIT_R_TOL = 1e-10
ROW_BLOCK = 1024  # steps of a wavepacket run's time series per block
_STRATA_BLOCK = 4096  # trapped strata of a bounce sample evaluated at once


@dataclass(frozen=True)
class ScatteringConfig:
    """Channel geometry: mirror at x = 0, a zero-width barrier of integrated
    strength gamma (energy * length) at x = X, momentum p."""

    p: float
    m: float
    X: float
    strength: float

    def __post_init__(self):
        if self.p <= 0.0 or self.m <= 0.0 or self.X <= 0.0:
            raise ValueError("p, m, X must all be positive")
        if self.strength < 0.0:
            raise ValueError("strength must be non-negative")

    @property
    def velocity(self) -> float:
        return self.p / self.m


def barrier_matrix(config: ScatteringConfig) -> np.ndarray:
    """Transfer matrix M with (A, B)_left = M (C, D)_right for coefficients
    of exp(+-ipx) on the two sides of the barrier.

    Closed form with u = m gamma / p; it satisfies |r|^2 + |t|^2 = 1.
    """
    p, m, X = config.p, config.m, config.X
    u = m * config.strength / p
    ph = cmath.exp(2j * p * X)
    return np.array([[1 + 1j * u, 1j * u / ph],
                     [-1j * u * ph, 1 - 1j * u]], dtype=complex)


def transmission_probability(config: ScatteringConfig) -> float:
    """|t|^2 for a wave incident on the barrier alone (no mirror)."""
    mat = barrier_matrix(config)
    return float(1.0 / abs(mat[0, 0]) ** 2)


def reflection_phase(config: ScatteringConfig) -> float:
    """Phase of the reflection amplitude of the full mirror+barrier channel.

    The mirror closes the channel, so |r| = 1 identically; a deviation
    beyond 1e-10 means the solve is inconsistent and raises StabilityError.
    Returned angle lies in (-pi, pi].  gamma = 0 gives arg r = pi (bare
    mirror); an opaque barrier gives pi - 2pX mod 2pi, the extra phase of
    the shortened channel.
    """
    mat = barrier_matrix(config)
    denominator = mat[0, 0] + mat[1, 0]
    if abs(denominator) < 1e-300:
        raise StabilityError("channel is exactly on a resonance pole")
    r = -(mat[1, 1] + mat[0, 1]) / denominator
    if abs(abs(r) - 1.0) > _UNIT_R_TOL:
        raise StabilityError(f"|r| = {abs(r)!r} off unity in a closed channel")
    return qcore.wrap_angle(cmath.phase(r))


# ---------------------------------------------------------------------------
# Bounce chain

@dataclass(frozen=True)
class BounceChain:
    """Reflect/tunnel chain: tunneling probability epsilon per encounter."""

    epsilon: float
    p: float

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must lie strictly inside (0, 1)")
        if self.p <= 0.0:
            raise ValueError("p must be positive")


class BounceExpectation(NamedTuple):
    """Closed-form expectations; momenta counted along the incident direction."""

    net_momentum: float
    first_kick: float
    trapped_contribution: float
    trapped_dwell: float
    trapped_dwell_square: float


def bounce_chain_expectation(chain: BounceChain) -> BounceExpectation:
    """Exact geometric-series expectations for the bounce chain.

    First encounter: reflect with probability 1 - eps (kick +2p toward the
    mirror) or tunnel in with probability eps.  Each inner round trip:
    escape with probability eps, else reflect with kick -2p.  The trapped
    branch therefore contributes eps * [(1-eps)/eps] * (-2p) = -2p(1-eps),
    cancelling the first kick identically: the net is written as the same
    float expression negated, so the zero is exact, not a rounding accident.
    The dwell D, the inner reflections of a trapped chain, has
    P(D = k) = (1-eps)^k eps, mean (1-eps)/eps and second moment
    E[D^2] = (1-eps)(2-eps)/eps^2.
    """
    eps, p = chain.epsilon, chain.p
    first = 2.0 * p * (1.0 - eps)
    trapped = -(2.0 * p * (1.0 - eps))
    dwell = (1.0 - eps) / eps
    return BounceExpectation(net_momentum=first + trapped,
                             first_kick=first,
                             trapped_contribution=trapped,
                             trapped_dwell=dwell,
                             trapped_dwell_square=dwell * (2.0 - eps) / eps)


class BounceSample(NamedTuple):
    """Stratified sample of the bounce chain: each measured deviation from
    bounce_chain_expectation beside the bound the sampling guarantees for
    it (see bounce_chain_sample).  With no trapped stratum the dwell
    deviations are nan and their bounds inf."""

    trials: int
    trapped: int
    shift: float
    net_deviation: float
    net_bound: float
    dwell_deviation: float
    dwell_bound: float
    dwell_square_deviation: float
    dwell_square_bound: float


def bounce_chain_sample(chain: BounceChain, trials: int, seed: int) -> BounceSample:
    """Sample n = trials bounce histories by stratified inverse-CDF draws;
    deterministic for a given seed.

    One seeded shift s in [0, 1) places chain i at u_i = (i + s)/n.  Chain
    i is trapped when u_i < eps, so the trapped count is, in closed form,
    n_t = #{i < n : i < n eps - s} = ceil(n eps - s), and
    |n_t - n eps| < 1.  Trapped stratum j < n_t gets the dwell
    D_j = F^-1(v_j) at v_j = (j + s)/n_t, where F(k) = 1 - (1-eps)^(k+1)
    is the CDF of the geometric dwell law, so
    F^-1(v) = max(0, ceil(L(v)) - 1) with L(v) = log(1-v)/log(1-eps).
    The dwells are evaluated _STRATA_BLOCK strata at a time, from
    1 - v_j = (n_t - j - s)/n_t, which stays positive for the last
    stratum.  Strata with v_j <= F(0) = eps dwell 0, so only those after
    the first floor(n_t eps - s) + 1 are evaluated.  The sums of D and D^2
    are exact Python integers, so no dwell overflows as eps nears 0, and
    nothing is sized by n or n_t.

    The dwell.  f = F^-1 is nondecreasing with f(0) = 0, and its mean over
    [0, 1) is mu = (1-eps)/eps.  Let I_j be the mean of f over stratum j,
    [j/n_t, (j+1)/n_t).  For j < n_t - 1,
    f(j/n_t) - f((j+1)/n_t) <= f(v_j) - I_j <= f((j+1)/n_t) - f(j/n_t),
    and these telescope; the last stratum, where f is unbounded, gives
    f(1 - 1/n_t) - I_last <= f(v_last) - I_last <= f(v_last) - f(1 - 1/n_t).
    Summed, mean(D) - mu lies in [-I_last, f(v_last)]/n_t.  With
    lam = -log(1-eps) >= eps, f < L = -log(1-v)/lam, so
    f(v_last) < b/lam with b = log(n_t) - log(1-s), and
    I_last <= n_t * integral of L over the last stratum = (a + 1)/lam with
    a = log(n_t).  So
        |mean(D) - mu| <= max(a + 1, b) / (n_t lam) = dwell_bound,
    about log(n_t)/(n_t eps), plus -log(1-s) when the shift lands near 1.
    The same argument for the nondecreasing f^2, with the integral of L^2
    over the last stratum ((a + 1)^2 + 1)/(n_t lam^2), gives
        |mean(D^2) - E[D^2]| <= max((a + 1)^2 + 1, b^2) / (n_t lam^2).

    The net momentum.  A chain nets +2p untrapped and -2p D trapped, so the
    mean net is 2p [(n - n_t) - sum D]/n.  With 1 + mu = 1/eps it is
    2p [(n eps - n_t)/(n eps) - (n_t/n)(mean(D) - mu)], and from the two
    bounds above
        |mean net| <= 2p [1/(n eps) + max(a + 1, b)/(n lam)] = net_bound,
    the second term absent when n_t = 0.

    The bounds hold for the exact quantile f; in floating point a dwell
    can come out one off only where L(v) is within rounding of an integer,
    a set of strata whose width is at the level of the rounding itself.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    eps, p = chain.epsilon, chain.p
    exact = bounce_chain_expectation(chain)
    shift = float(np.random.default_rng(seed).random())
    trapped = min(trials, max(0, math.ceil(trials * eps - shift)))
    log_keep = math.log1p(-eps)
    dwell_sum = square_sum = 0
    zeros = min(trapped, max(0, math.floor(trapped * eps - shift) + 1))
    for start in range(zeros, trapped, _STRATA_BLOCK):
        tail = np.arange(trapped - start,
                         trapped - min(start + _STRATA_BLOCK, trapped), -1,
                         dtype=float)
        tail -= shift
        tail /= trapped
        ceiling = np.ceil(np.log(tail) / log_keep)
        # the dwells rise with j, so equal ones form runs: sum run by run
        first = np.flatnonzero(np.diff(ceiling, prepend=-1.0))
        counts = np.diff(first, append=ceiling.size)
        for value, count in zip(ceiling[first].tolist(), counts.tolist()):
            dwell = max(int(value) - 1, 0)
            dwell_sum += count * dwell
            square_sum += count * dwell * dwell
    net = 2.0 * p * ((trials - trapped - dwell_sum) / trials)
    count_term = 1.0 / (trials * eps)
    if trapped:
        rate = -log_keep
        a = math.log(trapped)
        b = a - math.log1p(-shift)
        spread = max(a + 1.0, b) / rate
        dwell_deviation = dwell_sum / trapped - exact.trapped_dwell
        dwell_bound = spread / trapped
        square_deviation = square_sum / trapped - exact.trapped_dwell_square
        square_bound = max((a + 1.0) ** 2 + 1.0, b * b) / trapped / rate / rate
        net_bound = 2.0 * p * (count_term + spread / trials)
    else:
        dwell_deviation = square_deviation = math.nan
        dwell_bound = square_bound = math.inf
        net_bound = 2.0 * p * count_term
    return BounceSample(trials=trials, trapped=trapped, shift=shift,
                        net_deviation=net - exact.net_momentum,
                        net_bound=net_bound,
                        dwell_deviation=dwell_deviation,
                        dwell_bound=dwell_bound,
                        dwell_square_deviation=square_deviation,
                        dwell_square_bound=square_bound)


# ---------------------------------------------------------------------------
# Wavepacket simulation

@dataclass(frozen=True)
class WavepacketRun:
    """Grid and packet for a time-dependent run.

    grid_points counts interior nodes of the Dirichlet box [0, length];
    the packet starts Gaussian at center with spatial width sigma, moving
    toward the mirror (mean momentum -p from the config).
    """

    grid_points: int
    dt: float
    length: float
    center: float
    width: float
    round_trips: int

    def __post_init__(self):
        if self.grid_points < 64:
            raise ValueError("grid_points must be at least 64")
        if self.dt <= 0.0 or self.length <= 0.0:
            raise ValueError("dt and length must be positive")
        if not (0.0 < self.center < self.length):
            raise ValueError("center must lie inside the box")
        if self.width <= 0.0:
            raise ValueError("width must be positive")
        if self.round_trips < 1:
            raise ValueError("round_trips must be >= 1")

    @property
    def dx(self) -> float:
        """Node spacing of the Dirichlet box."""
        return self.length / (self.grid_points + 1)


class WavepacketResult(NamedTuple):
    """Summary and momentum ledger of one wavepacket run; the time series
    itself went to the run's ``rows`` as it was stepped.

    Momenta handed to barrier and mirror are counted along the incident
    direction of travel (toward the mirror); then the first-encounter
    barrier kick is positive, about 2p(1 - eps).  ledger_residual is the
    worst violation of (packet momentum change) + (barrier) + (walls) = 0,
    which the discrete stepper satisfies to roundoff.  times holds the
    steps + 1 sample times of the series.
    """

    times: np.ndarray
    epsilon_plane: float
    epsilon_packet: float
    first_kick: float
    long_kick: float
    efold_roundtrips: float
    ledger_residual: float
    norm_drift: float


def _gaussian_packet(x: np.ndarray, center: float, width: float, p: float,
                     dx: float) -> np.ndarray:
    psi = np.exp(-((x - center) ** 2) / (4.0 * width * width) - 1j * p * x)
    return psi / math.sqrt(float(np.sum(np.abs(psi) ** 2) * dx))


def _cn_midpoint_solver(pot: np.ndarray, kin: float, dt: float):
    """Factor A = I + i dt H / 2 once (H = T + diag(pot), Dirichlet walls)
    and return the solve psi -> m, the Crank-Nicolson midpoint state; the
    step is then psi_new = 2 m - psi = A^-1 (I - i dt H/2) psi.

    A is complex symmetric and strictly diagonally dominant for any finite
    pot >= 0, since |1 + iy| > |y| >= 2 |off| on every row, so zgttrf
    swaps no rows and its factors are A = L D L^T with L unit lower
    bidiagonal.  A solve is then two unit-bidiagonal ztbsv sweeps around a
    product with the stored 1/D, with no division per step."""
    from scipy.linalg.blas import ztbsv
    from scipy.linalg.lapack import zgttrf

    n = pot.shape[0]
    half = 0.5j * dt
    off = np.full(n - 1, -half * kin)
    diag = 1.0 + half * (2.0 * kin + pot)
    dl, d, du, _, ipiv, info = zgttrf(off, diag, off)
    if info != 0:
        raise StabilityError(f"Crank-Nicolson matrix is singular "
                             f"(zgttrf info {info})")
    # an infinite barrier leaves NaN factors, which the run's norm check
    # reports; on a finite diagonal a row swap breaks A = L D L^T
    if np.isfinite(diag).all() and (ipiv != np.arange(1, n + 1)).any():
        raise StabilityError("Crank-Nicolson matrix is not diagonally "
                             "dominant (zgttrf swapped rows)")
    # banded storage for ztbsv: L's subdiagonal, and D^-1 U's superdiagonal
    lower = np.zeros((2, n), dtype=complex, order="F")
    lower[1, :-1] = dl
    upper = np.zeros((2, n), dtype=complex, order="F")
    upper[0, 1:] = du / d[:-1]
    inv_d = 1.0 / d

    def solve(psi: np.ndarray) -> np.ndarray:
        y = ztbsv(1, lower, psi, lower=1, diag=1)
        y *= inv_d
        return ztbsv(1, upper, y, lower=0, diag=1, overwrite_x=1)
    return solve


def _ledger_kicks(mid: np.ndarray, j: int, v: float, kin: float,
                  dt: float) -> tuple[float, float, float]:
    """Momentum handed to the particle in one step by the barrier, the left
    and the right wall: i dt <m|[V, P]|m> and the two wall parts of
    i dt <m|[T, P]|m> in closed form, for V = v on cell j (1 <= j <= n-2)."""
    a, b, c = mid[j - 1:j + 2].tolist()
    barrier = v * ((b.conjugate() * c).real - (a.conjugate() * b).real)
    return (dt * barrier, dt * kin * abs(complex(mid[0])) ** 2,
            -dt * kin * abs(complex(mid[-1])) ** 2)


def _packet_momentum(psi: np.ndarray) -> float:
    """<psi|P|psi> dx for the central-difference P: Im sum psi_k* psi_k+1."""
    return float(np.vdot(psi[:-1], psi[1:]).imag)


def wavepacket_barrier_cell(run: WavepacketRun, config: ScatteringConfig) -> int:
    """Grid index j = round(X / dx) - 1 of the barrier cell, once the grid
    is checked to hold the run: the packet resolved (width >= 8 dx, p dx <
    0.5), its start five widths clear of the barrier and of the far wall,
    and the barrier cell inside the grid.  Raises ValueError otherwise."""
    n, dx = run.grid_points, run.dx
    if run.width < 8.0 * dx:
        raise ValueError("packet width must be well resolved (width >= 8 dx)")
    if config.p * dx >= 0.5:
        raise ValueError("momentum not resolved on the grid (p dx >= 0.5)")
    if run.center <= config.X + 5.0 * run.width:
        raise ValueError("packet must start well to the right of the barrier")
    if run.length <= run.center + 5.0 * run.width:
        raise ValueError("box must extend well beyond the packet start")
    j = int(round(config.X / dx)) - 1
    if not 1 <= j <= n - 2:
        raise ValueError(f"barrier cell {j} must lie in [1, {n - 2}]")
    return j


def wavepacket_schedule(run: WavepacketRun,
                        config: ScatteringConfig) -> tuple[float, float, int]:
    """(t_first, round_trip, steps) of a run: the time by which the packet
    has met the barrier once (its start distance plus four widths, at the
    group velocity), one round trip 2 X / v of the channel, and the
    Crank-Nicolson steps that cover t_first plus round_trips round trips."""
    v = config.velocity
    round_trip = 2.0 * config.X / v
    t_first = ((run.center - config.X) + 4.0 * run.width) / v
    t_end = t_first + run.round_trips * round_trip
    return t_first, round_trip, int(math.ceil(t_end / run.dt))


def wavepacket_run(run: WavepacketRun, config: ScatteringConfig,
                   rows) -> WavepacketResult:
    """Crank-Nicolson evolution of a packet thrown at the mirror+barrier.

    The barrier is the grid cell j = round(X / dx) - 1, V = gamma / dx.
    Per step, the change of <P> equals i dt <m|[H, P]|m> exactly for the
    Crank-Nicolson midpoint state m.  For the central-difference P and
    T = -kin (psi[k+1] - 2 psi[k] + psi[k-1]), kin = 1 / (2 m dx^2), the
    commutators live on a few cells, and the ledger terms are
      barrier     dt V (Re(m_j* m_j+1) - Re(m_j-1* m_j)),
      walls       dt kin |m_0|^2 (left) and -dt kin |m_n-1|^2 (right);
    they close against <P> = Im sum psi_k* psi_k+1, measured on each new
    state.  Survival in [0, X] is fit stroboscopically, one sample per
    round trip, to extract the trapping decay.

    The time series is not kept.  Each block of up to ROW_BLOCK steps, from
    t = 0 on, goes to ``rows`` as six float64 arrays: time, survival, the
    barrier and wall momenta (running sums of the per-step kicks, in
    order), packet momentum and norm.  The ledger residual, the norm drift,
    the first-encounter values and the strobe samples are taken block by
    block, so a run holds its grid state, ``times`` and one block.

    Raises ValueError if the packet or the barrier cell does not fit the
    grid (wavepacket_barrier_cell), StabilityError on norm drift > 1e-6,
    and GeometryError if more than 1e-3 of probability reaches the far 5%
    of the box at any step; a run that raises may have handed blocks to
    ``rows`` already.
    """
    j = wavepacket_barrier_cell(run, config)
    n, dx = run.grid_points, run.dx
    x = dx * np.arange(1, n + 1)
    p, m, X = config.p, config.m, config.X

    pot = np.zeros(n)
    pot[j] = config.strength / dx
    kin = 1.0 / (2.0 * m * dx * dx)
    solve = _cn_midpoint_solver(pot, kin, run.dt)

    psi = _gaussian_packet(x, run.center, run.width, p, dx)

    t_first, round_trip, steps = wavepacket_schedule(run, config)

    # the channel x <= X is a prefix of the grid, the far zone a suffix
    channel_end = int(np.searchsorted(x, X, side="right"))
    far_start = int(np.searchsorted(x, 0.95 * run.length, side="left"))

    def prob(segment):
        return float(np.vdot(segment, segment).real) * dx

    # the first-encounter step, and the stroboscopic samples, skipping the
    # first post-encounter round trip
    idx_first = min(int(round(t_first / run.dt)), steps)
    ks = np.arange(2, run.round_trips)
    idx_strobe = [min(int(round((t_first + kk * round_trip) / run.dt)), steps)
                  for kk in ks]
    picked = {}  # step -> (survival, barrier momentum) there

    times = run.dt * np.arange(steps + 1)
    norm0 = prob(psi)
    momentum = _packet_momentum(psi)
    barrier_mom = wall_mom = 0.0
    ledger_residual = norm_drift = 0.0
    for start in range(0, steps + 1, ROW_BLOCK):
        stop = min(start + ROW_BLOCK, steps + 1)
        # a push dp along +x on the particle is a kick dp along the
        # incident direction -x handed to the barrier or the walls; step
        # 0 has no kick and no ledger term
        block = np.zeros((6, stop - start))
        survival, barrier, wall, packet, norms, ledger = block
        if start == 0:
            survival[0], packet[0], norms[0] = (prob(psi[:channel_end]),
                                                momentum, norm0)
        for k in range(max(start, 1), stop):
            mid = solve(psi)
            kick, left, right = _ledger_kicks(mid, j, pot[j], kin, run.dt)
            wall_kick = left + right
            # psi_new = 2 m - psi, built in the solve's output array
            mid *= 2.0
            mid -= psi
            psi = mid
            previous, momentum = momentum, _packet_momentum(psi)
            barrier_mom += kick
            wall_mom += wall_kick
            i = k - start
            ledger[i] = (momentum - previous) - (kick + wall_kick)
            barrier[i], wall[i], packet[i] = barrier_mom, wall_mom, momentum
            survival[i] = prob(psi[:channel_end])
            norms[i] = prob(psi)
            if prob(psi[far_start:]) > 1e-3:
                raise GeometryError("packet reached the far wall inside the "
                                    "measurement window; enlarge the box")
        # np.maximum keeps a NaN
        ledger_residual = np.maximum(ledger_residual, np.max(np.abs(ledger)))
        norm_drift = np.maximum(norm_drift, np.max(np.abs(norms - norm0)))
        picked.update((k, (survival[k - start], barrier[k - start]))
                      for k in [idx_first, *idx_strobe] if start <= k < stop)
        rows((times[start:stop], survival, barrier, wall, packet, norms))

    norm_drift = float(norm_drift)
    if not norm_drift <= 1e-6:  # NaN included
        raise StabilityError(f"norm drift {norm_drift:.3e} exceeds 1e-6")

    eps_plane = transmission_probability(config)
    eps_packet, first_kick = picked[idx_first]

    # stroboscopic decay fit
    strobe = np.array([picked[k][0] for k in idx_strobe])
    good = strobe > 1e-12
    if good.sum() >= 3:
        slope = np.polyfit(ks[good], np.log(strobe[good]), 1)[0]
        efold = -1.0 / slope if slope < 0 else math.inf
    else:
        efold = math.nan
    return WavepacketResult(times=times,
                            epsilon_plane=eps_plane,
                            epsilon_packet=float(eps_packet),
                            first_kick=float(first_kick),
                            long_kick=float(barrier_mom),
                            efold_roundtrips=float(efold),
                            ledger_residual=float(ledger_residual),
                            norm_drift=norm_drift)
