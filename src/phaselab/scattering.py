"""1D scattering off a wall-plus-barrier channel, and the momentum ledger.

The setup throughout: a hard mirror at x = 0, a delta barrier at x = X > 0,
and a particle of momentum p arriving from the right.  Stationary solves
give the reflection phase of the closed channel; the bounce-chain algebra
shows the expected momentum handed to the barrier is exactly zero; the
wavepacket simulation shows the same thing in real time with an exact
discrete momentum ledger (the commutator identity of the Crank-Nicolson
step closes the books to roundoff, not to a tolerance).

Units: hbar = 1; velocities are p/m.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import zgttrf, zgttrs

from . import qcore
from .errors import GeometryError, StabilityError

_UNIT_R_TOL = 1e-10


@dataclass(frozen=True)
class DeltaBarrier:
    """Zero-width barrier of integrated strength gamma (energy * length)."""

    strength: float

    def __post_init__(self):
        if self.strength < 0.0:
            raise ValueError("strength must be non-negative")


@dataclass(frozen=True)
class ScatteringConfig:
    """Channel geometry: mirror at x = 0, barrier at x = X, momentum p."""

    p: float
    m: float
    X: float
    barrier: DeltaBarrier

    def __post_init__(self):
        if self.p <= 0.0 or self.m <= 0.0 or self.X <= 0.0:
            raise ValueError("p, m, X must all be positive")
        if not isinstance(self.barrier, DeltaBarrier):
            raise ValueError("barrier must be a DeltaBarrier")

    @property
    def velocity(self) -> float:
        return self.p / self.m


def barrier_matrix(config: ScatteringConfig) -> np.ndarray:
    """Transfer matrix M with (A, B)_left = M (C, D)_right for coefficients
    of exp(+-ipx) on the two sides of the barrier.

    Closed form with u = m gamma / p; it satisfies |r|^2 + |t|^2 = 1.
    """
    p, m, X = config.p, config.m, config.X
    u = m * config.barrier.strength / p
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


@dataclass(frozen=True)
class BounceExpectation:
    """Closed-form expectations; momenta counted along the incident direction."""

    net_momentum: float
    first_kick: float
    trapped_contribution: float
    trapped_dwell: float


def bounce_chain_expectation(chain: BounceChain) -> BounceExpectation:
    """Exact geometric-series expectations for the bounce chain.

    First encounter: reflect with probability 1 - eps (kick +2p toward the
    mirror) or tunnel in with probability eps.  Each inner round trip:
    escape with probability eps, else reflect with kick -2p.  The trapped
    branch therefore contributes eps * [(1-eps)/eps] * (-2p) = -2p(1-eps),
    cancelling the first kick identically: the net is written as the same
    float expression negated, so the zero is exact, not a rounding accident.
    """
    eps, p = chain.epsilon, chain.p
    first = 2.0 * p * (1.0 - eps)
    trapped = -(2.0 * p * (1.0 - eps))
    return BounceExpectation(net_momentum=first + trapped,
                             first_kick=first,
                             trapped_contribution=trapped,
                             trapped_dwell=(1.0 - eps) / eps)


@dataclass(frozen=True)
class BounceSample:
    """Monte Carlo summary of the bounce chain."""

    trials: int
    mean_net_momentum: float
    net_standard_error: float
    mean_trapped_dwell: float
    dwell_standard_error: float
    trapped_count: int


def bounce_chain_sample(chain: BounceChain, trials: int, seed: int) -> BounceSample:
    """Sample full bounce histories; deterministic for a given seed.

    Per trial the net momentum is +2p (immediate reflection) or -2p times
    the count of inner reflections before escape (geometric with success
    probability eps).  The sample mean must agree with the exact zero of
    bounce_chain_expectation within a few standard errors.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    eps, p = chain.epsilon, chain.p
    rng = np.random.default_rng(seed)
    trapped = rng.random(trials) < eps
    n_trapped = int(trapped.sum())
    nets = np.full(trials, 2.0 * p)
    dwells = np.zeros(n_trapped)
    if n_trapped:
        # geometric draw = encounters until escape; reflections are one fewer
        dwells = rng.geometric(eps, size=n_trapped) - 1.0
        nets[trapped] = -2.0 * p * dwells
    mean_net = float(nets.mean())
    se_net = float(nets.std(ddof=1) / math.sqrt(trials)) if trials > 1 else math.inf
    if n_trapped > 1:
        mean_dwell = float(dwells.mean())
        se_dwell = float(dwells.std(ddof=1) / math.sqrt(n_trapped))
    elif n_trapped == 1:
        mean_dwell, se_dwell = float(dwells[0]), math.inf
    else:
        mean_dwell, se_dwell = math.nan, math.inf
    return BounceSample(trials=trials, mean_net_momentum=mean_net,
                        net_standard_error=se_net,
                        mean_trapped_dwell=mean_dwell,
                        dwell_standard_error=se_dwell,
                        trapped_count=n_trapped)


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
    round_trips: int = 16

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


@dataclass(frozen=True)
class WavepacketResult:
    """Time series and momentum ledger of one wavepacket run.

    Momenta handed to barrier and mirror are counted along the incident
    direction of travel (toward the mirror); then the first-encounter
    barrier kick is positive, about 2p(1 - eps).  ledger_residual is the
    worst violation of (packet momentum change) + (barrier) + (walls) = 0,
    which the discrete stepper satisfies to roundoff.
    """

    times: np.ndarray
    survival: np.ndarray
    barrier_momentum: np.ndarray
    wall_momentum: np.ndarray
    packet_momentum: np.ndarray
    norm: np.ndarray
    epsilon_plane: float
    epsilon_packet: float
    first_kick: float
    first_window_end: float
    long_kick: float
    efold_roundtrips: float
    round_trip_time: float
    ledger_residual: float
    norm_drift: float


def _gaussian_packet(x: np.ndarray, center: float, width: float, p: float,
                     dx: float) -> np.ndarray:
    psi = np.exp(-((x - center) ** 2) / (4.0 * width * width) - 1j * p * x)
    return psi / math.sqrt(float(np.sum(np.abs(psi) ** 2) * dx))


def _cn_midpoint_solver(pot: np.ndarray, kin: float, dt: float):
    """Factor I + i dt H / 2 once (H = T + diag(pot), Dirichlet walls) and
    return the solve psi -> m, the Crank-Nicolson midpoint state; the step
    is then psi_new = 2 m - psi = (I + i dt H/2)^-1 (I - i dt H/2) psi."""
    half = 0.5j * dt
    off = np.full(pot.shape[0] - 1, -half * kin)
    *factors, info = zgttrf(off, 1.0 + half * (2.0 * kin + pot), off)
    if info != 0:
        raise StabilityError(f"Crank-Nicolson matrix is singular "
                             f"(zgttrf info {info})")

    def solve(psi: np.ndarray) -> np.ndarray:
        return zgttrs(*factors, psi)[0]
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


def wavepacket_run(run: WavepacketRun, config: ScatteringConfig) -> WavepacketResult:
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

    Raises ValueError if the packet or the barrier cell does not fit the
    grid, StabilityError on norm drift > 1e-6, and GeometryError if more
    than 1e-3 of probability reaches the far 5% of the box at any step.
    """
    n = run.grid_points
    dx = run.length / (n + 1)
    x = dx * np.arange(1, n + 1)
    p, m, X = config.p, config.m, config.X

    if run.width < 8.0 * dx:
        raise ValueError("packet width must be well resolved (width >= 8 dx)")
    if p * dx >= 0.5:
        raise ValueError("momentum not resolved on the grid (p dx >= 0.5)")
    if run.center <= X + 5.0 * run.width:
        raise ValueError("packet must start well to the right of the barrier")
    if run.length <= run.center + 5.0 * run.width:
        raise ValueError("box must extend well beyond the packet start")
    j = int(round(X / dx)) - 1
    if not 1 <= j <= n - 2:
        raise ValueError(f"barrier cell {j} must lie in [1, {n - 2}]")

    pot = np.zeros(n)
    pot[j] = config.barrier.strength / dx
    kin = 1.0 / (2.0 * m * dx * dx)
    solve = _cn_midpoint_solver(pot, kin, run.dt)

    psi = _gaussian_packet(x, run.center, run.width, p, dx)

    v = config.velocity
    round_trip = 2.0 * X / v
    t_first = ((run.center - X) + 4.0 * run.width) / v
    t_end = t_first + run.round_trips * round_trip
    steps = int(math.ceil(t_end / run.dt))

    # the channel x <= X is a prefix of the grid, the far zone a suffix
    channel_end = int(np.searchsorted(x, X, side="right"))
    far_start = int(np.searchsorted(x, 0.95 * run.length, side="left"))

    def prob(segment):
        return float(np.vdot(segment, segment).real) * dx

    times = run.dt * np.arange(steps + 1)
    survival, barrier_kick, wall_kick, packet_mom, norms = np.zeros((5, steps + 1))
    survival[0] = prob(psi[:channel_end])
    packet_mom[0] = _packet_momentum(psi)
    norms[0] = prob(psi)

    for k in range(1, steps + 1):
        mid = solve(psi)
        barrier_kick[k], left, right = _ledger_kicks(mid, j, pot[j], kin, run.dt)
        wall_kick[k] = left + right
        # psi_new = 2 m - psi, built in the solve's output array
        mid *= 2.0
        mid -= psi
        psi = mid
        packet_mom[k] = _packet_momentum(psi)
        survival[k] = prob(psi[:channel_end])
        norms[k] = prob(psi)
        if prob(psi[far_start:]) > 1e-3:
            raise GeometryError("packet reached the far wall inside the "
                                "measurement window; enlarge the box")

    ledger_residual = float(np.max(np.abs(
        np.diff(packet_mom) - (barrier_kick + wall_kick)[1:])))
    # a push dp along +x on the particle is a kick dp along the incident
    # direction -x handed to the barrier or the walls
    barrier_mom = np.cumsum(barrier_kick, out=barrier_kick)
    wall_mom = np.cumsum(wall_kick, out=wall_kick)

    norm_drift = float(np.max(np.abs(norms - norms[0])))
    if not norm_drift <= 1e-6:  # NaN included
        raise StabilityError(f"norm drift {norm_drift:.3e} exceeds 1e-6")

    eps_plane = transmission_probability(config)
    idx_first = min(int(round(t_first / run.dt)), steps)
    eps_packet = survival[idx_first]
    first_kick = barrier_mom[idx_first]
    long_kick = barrier_mom[steps]

    # stroboscopic decay fit, skipping the first post-encounter round trip
    ks = np.arange(2, run.round_trips)
    strobe = np.array([survival[min(int(round((t_first + kk * round_trip) / run.dt)),
                                    steps)] for kk in ks])
    good = strobe > 1e-12
    if good.sum() >= 3:
        slope = np.polyfit(ks[good], np.log(strobe[good]), 1)[0]
        efold = -1.0 / slope if slope < 0 else math.inf
    else:
        efold = math.nan
    return WavepacketResult(times=times, survival=survival,
                            barrier_momentum=barrier_mom,
                            wall_momentum=wall_mom,
                            packet_momentum=packet_mom, norm=norms,
                            epsilon_plane=eps_plane,
                            epsilon_packet=float(eps_packet),
                            first_kick=float(first_kick),
                            first_window_end=float(times[idx_first]),
                            long_kick=float(long_kick),
                            efold_roundtrips=float(efold),
                            round_trip_time=round_trip,
                            ledger_residual=ledger_residual,
                            norm_drift=norm_drift)
