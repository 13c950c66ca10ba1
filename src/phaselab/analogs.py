"""Classical adiabatic analogs: pendulum flavor transfer and orbital delay.

Three families live here.  First, two weakly coupled pendulums whose length
sweep drags the system through a normal-mode avoided crossing: the classical
analog of adiabatic flavor conversion, with the matching quantum two-level
sweep and its Landau-Zener oracle.  Second, the rectangular loop in the
(detuning, coupling) plane around the degeneracy at the origin, whose Wilson
phase is pi and whose half-loop transport squares to -1:
rectangle_transport(delta0, epsilon0, center, adiabaticity) builds its time
table, and rectangular_loop_phase(transport, transport_step) reads the
rectangle off that table's corner knots.  Third, a planet orbiting a fixed
sun while a slow outer perturber circles: the frozen-probe period
prediction versus the fully integrated orbital phase, whose mismatch is the
adiabatic residual.

Orbit integrations use DOP853 with rtol 1e-12 / atol 1e-13, stepped by the
loop of phaselab.dop853 bit for bit as scipy's solve_ivp.  Every orbit run
is one solve_ivp(cfg, rhs, y0, t_end, rtol, atol, where), which binds the
sun band of cfg and raises at the step where a lane leaves it.  The
frozen-perturber periods are measured in lane stacks: every perturber angle
(and mass) of a grid is two lanes of a (4, N) state, one forward in time and
one with the velocity reversed for the backward branch, integrated by one
DOP853 run with a numpy right-hand side, and the apsis search reads the
dense output in blocks of 112 time points, each in one pass; a run of fewer
than 36 lanes reads as many lane-points a block, in longer blocks.  The
moving-perturber runs are single lanes with a scalar right-hand side on
Python floats, which is faster for one planet.  The pendulum equations are
linear, y' = A(t) y, and are stepped with a sixth-order Magnus integrator
whose step exponentials are built in batches, in closed form for the
generator and from two traces for the exponential; an rtol of 1e-10 bounds
the Richardson estimate of the global error over the sampled states.
Method settings such as these are module constants beside the code that
reads them; a convergence study patches them.  All units are G = hbar = 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (DynamicsError, GeometryError, IntegratorError,
                     QuadratureError, RegimeWarning, ResolutionError)
from . import berry, dop853
from .qcore import (TWO_PI, HamiltonianSchedule, evolve_with_energy,
                    ground_state, wrap_angle)


# ---------------------------------------------------------------------------
# length schedules

class FrozenLength:
    """Constant pendulum length; value and second broadcast over arrays."""

    def __init__(self, length: float):
        if length <= 0.0:
            raise ValueError("length must be positive")
        self.length = float(length)

    def value(self, t):
        return np.full(np.shape(t), self.length)[()]

    def second(self, t):
        return np.zeros(np.shape(t))[()]


class ArctanDetuningRamp:
    """Constant-adiabaticity sweep of the frequency detuning.

    The detuning delta = omega_mu - omega_e runs from +delta_max down to
    -delta_max with local rate crossing_rate * (1 + (delta/width)^2): slowest
    where the normal modes hybridize (|delta| < width), accelerating in the
    far wings where nothing happens.  width should be the detuning scale of
    the avoided crossing, kappa/omega for spring coupling kappa.  The length
    l_e(t) = g/(omega_mu - delta(t))^2 follows, with analytic second
    derivative for the support term.  value and second take a time or an
    array of times; outside [0, duration] the length is held at its end
    value and its second derivative is 0.
    """

    def __init__(self, l_mu: float, g: float, delta_max: float,
                 crossing_rate: float, width: float):
        if l_mu <= 0.0 or g <= 0.0:
            raise ValueError("l_mu and g must be positive")
        if not all(0.0 < v < math.inf for v in (delta_max, crossing_rate,
                                                width)):
            raise ValueError("delta_max, crossing_rate, width must be "
                             "positive and finite")
        omega_mu = math.sqrt(g / l_mu)
        if delta_max >= omega_mu:
            raise ValueError("delta_max must stay below omega_mu (length blows up)")
        self.g = float(g)
        self.omega_mu = omega_mu
        self.width = float(width)
        self.theta0 = math.atan(delta_max / width)
        self.theta_rate = crossing_rate / width
        self.duration = 2.0 * self.theta0 / self.theta_rate

    def _theta(self, t):
        return self.theta0 - self.theta_rate * np.clip(t, 0.0, self.duration)

    def value(self, t):
        delta = self.width * np.tan(self._theta(t))
        return (self.g / (self.omega_mu - delta) ** 2)[()]

    def second(self, t):
        theta = self._theta(t)
        sec2 = 1.0 / np.cos(theta) ** 2
        d = self.width * np.tan(theta)
        d1 = -self.width * self.theta_rate * sec2
        d2 = 2.0 * self.width * self.theta_rate ** 2 * sec2 * np.tan(theta)
        w = self.omega_mu - d
        inside = (t >= 0.0) & (t <= self.duration)
        return np.where(inside, 2.0 * self.g * d2 / w ** 3
                        + 6.0 * self.g * d1 * d1 / w ** 4, 0.0)[()]


# ---------------------------------------------------------------------------
# coupled pendulums

@dataclass(frozen=True)
class PendulumSystem:
    """Two pendulums, spring-coupled; the 'e' length follows a schedule
    whose value(t) and second(t), the length and its second derivative,
    map an array of times to an array of the same shape.

    kappa is the spring constant per unit mass (1/time^2).  The weak-coupling
    regime kappa << g/l is recorded by pendulum_sweep, never enforced.
    """

    length_schedule: object
    l_mu: float
    kappa: float
    g: float
    state: tuple

    def __post_init__(self):
        if self.l_mu <= 0.0 or self.g <= 0.0:
            raise ValueError("l_mu and g must be positive")
        if self.kappa < 0.0:
            raise ValueError("kappa must be non-negative")
        if len(self.state) != 4:
            raise ValueError("state is (x_e, v_e, x_mu, v_mu)")


class TransferReport(NamedTuple):
    """Energy bookkeeping of a length sweep.

    fraction is the share of the final energy attributed to the mu pendulum
    in the instantaneous normal-mode basis at the lengths of t = duration.
    energy_drift is filled only when the schedule is constant (conservation
    check), else None.
    """

    fraction: float
    energy_drift: float | None
    weak_coupling_ratio: float


# pendulum_sweep samples the state at _SWEEP_SAMPLES times, and the
# Richardson estimate of its global error there must not exceed
# _SWEEP_RTOL times the largest state entry
_SWEEP_SAMPLES = 1200
_SWEEP_RTOL = 1e-10
# Magnus steps built as arrays at once: a (512, 4, 4) float stack is 64 kB,
# and the temporaries of one chunk stay near 1 MB
_CHUNK = 512
# 3-point Gauss-Legendre nodes on [0, 1]
_GAUSS_NODES = 0.5 + np.array([-1.0, 0.0, 1.0]) * (math.sqrt(15.0) / 10.0)
# start at h = _STEP_PHASE / omega_max, then halve h until the Richardson
# estimate meets _SWEEP_RTOL, at most _MAX_DOUBLINGS times, and give up as soon
# as one halving cuts the estimate by less than _MIN_CUT
_STEP_PHASE = 0.5
_MAX_DOUBLINGS = 5
_MIN_CUT = 8.0
# exp(W) sums its series in M = W^2 while |mu| <= _EXP_RHO for every
# eigenvalue mu of M (a step at h omega = 0.5 has |mu| about 0.25); a
# matrix above is scaled by 2^-j to below and squared j times back
_EXP_RHO = 0.5
# bound on the series terms left out, relative to 1: half an ulp of 1
_EXP_TAIL = 2.0 ** -53


def _series_degree(rho: float) -> int:
    """Least n for which the terms k > n of S(mu) = sum mu^k / (2k+1)!, each
    weighted by k + 1, sum below _EXP_TAIL for |mu| <= rho <= 1.  The
    weights bound the divided differences at mu1, mu2 that the coefficients
    of I and M are; the terms of C1(mu) = (C(mu) - 1) / mu are smaller."""
    n, term = 0, rho / 6.0  # term = rho^(n+1) / (2n+3)!
    # each weighted term is below 3/40 of the one before, so the tail after
    # the first adds less than 1/10 of it
    while 1.1 * (n + 2) * term > _EXP_TAIL:
        n += 1
        term *= rho / ((2 * n + 2) * (2 * n + 3))
    return n


def _expm_hamiltonian(w: np.ndarray) -> np.ndarray:
    """exp of each matrix of a (..., 4, 4) stack of Hamiltonian matrices:
    J W symmetric for J = diag([[0, 1], [-1, 0]], [[0, 1], [-1, 0]]).

    M = W^2 has eigenvalues mu1, mu1, mu2, mu2 and obeys M^2 = s M - p,
    with s = mu1 + mu2 = tr(M) / 2 and p = mu1 mu2 = (tr(M)^2 - 2 tr(M^2))
    / 8.  So the even and odd series C(M) = sum M^k / (2k)! and
    S(M) = sum M^k / (2k+1)! are each h0 I + h1 M, found by Horner on the
    pair (h0, h1), and exp(W) = C(M) + W S(M) takes two matrix products:
    no eigenvalues, and no case for equal, real or complex mu.  The degree
    follows from |mu| <= |s|/2 + sqrt(|s^2/4 - p|); a matrix with that
    bound above _EXP_RHO is scaled by 2^-j to below it, and its exponential
    squared j times.  Raises IntegratorError for a matrix that is not
    finite.
    """
    m = w @ w
    tr = np.einsum("...ii->...", m)
    s = 0.5 * tr
    p = 0.125 * (tr * tr - 2.0 * np.einsum("...ij,...ji->...", m, m))
    rho = 0.5 * np.abs(s) + np.sqrt(np.abs(0.25 * s * s - p))
    top = float(rho.max(initial=0.0))
    if not math.isfinite(top):
        raise IntegratorError("Magnus step generator is not finite")
    j = 0
    if top > _EXP_RHO:
        # W by 2^-j takes M and s by 4^-j and p by 16^-j
        _, e = np.frexp(rho / _EXP_RHO)
        j = np.where(rho > _EXP_RHO, (e + 1) // 2, 0)
        w = np.ldexp(w, -j[..., None, None])
        m = np.ldexp(m, -2 * j[..., None, None])
        s, p = np.ldexp(s, -2 * j), np.ldexp(p, -4 * j)
        top = float(np.ldexp(rho, -2 * j).max())
    # Horner on C1(mu) = (C(mu) - 1) / mu = sum mu^k / (2k+2)! and S(mu),
    # stacked on a first axis; (h0, h1) M = (-p h1, h0 + s h1)
    n = _series_degree(top)
    coef = np.reshape([[1.0 / math.factorial(2 * k + 2),
                        1.0 / math.factorial(2 * k + 1)] for k in range(n + 1)],
                      (n + 1, 2) + (1,) * s.ndim)
    h0 = coef[n] + np.zeros_like(s)
    h1 = np.zeros_like(h0)
    for k in range(n - 1, -1, -1):
        h0, h1 = coef[k] - p * h1, h0 + s * h1
    # C(M) = I + M C1(M) and W S(M); the 1 goes on the diagonal last, so
    # that its rounding is not a scale error shared by the four entries
    out = (h0[0] + s * h1[0])[..., None, None] * m
    out += h0[1][..., None, None] * w
    out += h1[1][..., None, None] * (w @ m)
    diagonal = out.reshape(out.shape[:-2] + (16,))[..., ::5]
    diagonal -= (p * h1[0])[..., None]
    diagonal += 1.0
    for i in range(int(np.max(j))):
        out = np.where((j > i)[..., None, None], out @ out, out)
    return out


def _fold(steps: np.ndarray) -> np.ndarray:
    """Ordered product over axis -3 of a (..., k, n, n) stack, later steps
    on the left, by pairwise products in log2(k) rounds."""
    while steps.shape[-3] > 1:
        if steps.shape[-3] % 2:
            pad = np.broadcast_to(np.eye(steps.shape[-1]),
                                  steps.shape[:-3] + (1,) + steps.shape[-2:])
            steps = np.concatenate((steps, pad), axis=-3)
        steps = steps[..., 1::2, :, :] @ steps[..., 0::2, :, :]
    return steps[..., 0, :, :]


def _magnus_generator(h, f1, f2, f3, kappa, k_mu) -> np.ndarray:
    """Sixth-order Magnus generator Omega of steps of length h for
    y' = A(t) y, y = (x_e, v_e, x_mu, v_mu), with
    A = [[0, 1, 0, 0], [f, 0, kappa, 0], [0, 0, 0, 1], [kappa, 0, -k_mu, 0]]
    and f1, f2, f3 the entry f at the three Gauss-Legendre nodes (Blanes,
    Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151); shape: the arguments
    broadcast, plus (4, 4).

    With alpha1 = h A(t2), alpha2 = sqrt(15)/3 h (A(t3) - A(t1)) and
    alpha3 = 10/3 h (A(t3) - 2 A(t2) + A(t1)), C1 = [alpha1, alpha2] and
    C2 = -[alpha1, 2 alpha3 + C1] / 60, the scheme's generator is
    alpha1 + alpha3 / 12 + [-20 alpha1 - alpha3 + C1, alpha2 + C2] / 240.
    Only f changes in time, so alpha2 and alpha3 are multiples of E_10 and
    the commutators reduce to these entries.  Each is h A(t2) plus a
    correction that vanishes for f1 = f2 = f3, where Omega = h A exactly.
    """
    d = f1 - f3
    curve = f1 - 2.0 * f2 + f3
    h2 = h * h
    h4d2 = h2 * h2 * d * d
    r15 = math.sqrt(15.0)
    w = np.zeros(np.broadcast_shapes(*map(np.shape, (h, f1, f2, f3, kappa,
                                                    k_mu))) + (4, 4))
    w[..., 0, 0] = r15 * h2 * d * (180.0 - h2 * (f1 + 10.0 * f2 + f3)) / 6480.0
    w[..., 1, 1] = -w[..., 0, 0]
    w[..., 0, 1] = h + h * (h4d2 - 40.0 * h2 * curve) / 2160.0
    w[..., 1, 0] = h * f2 + h * (
        1800.0 * curve + 3.0 * h4d2 * f2
        + h2 * (20.0 * curve * (curve + 6.0 * f2) - 90.0 * d * d)) / 6480.0
    w[..., 1, 2] = w[..., 3, 0] = (h * kappa
                                   + h * kappa * (h4d2 + 80.0 * h2 * curve)
                                   / 8640.0)
    skew = r15 * h2 * h2 * kappa * d / 2160.0
    w[..., 1, 3] = skew
    w[..., 2, 0] = -skew
    w[..., 0, 2] = -3.0 * skew
    w[..., 3, 1] = 3.0 * skew
    w[..., 2, 3] = h
    w[..., 3, 2] = -h * k_mu
    return w


def _magnus_steps(system: PendulumSystem, starts: np.ndarray, h: np.ndarray,
                  first: int, stop: int) -> np.ndarray:
    """Sixth-order Magnus step exponentials, shape (intervals, stop - first,
    4, 4): substeps first..stop-1 of length h of the sample intervals that
    begin at starts."""
    g, kappa = system.g, system.kappa
    sched = system.length_schedule
    t = starts[:, None, None] + (np.arange(first, stop)[None, :, None]
                                 + _GAUSS_NODES) * h[:, None, None]
    f = -(g - sched.second(t)) / sched.value(t) - kappa
    omega = _magnus_generator(h[:, None], f[..., 0], f[..., 1], f[..., 2],
                              kappa, g / system.l_mu + kappa)
    return _expm_hamiltonian(omega)


def _magnus_run(system: PendulumSystem, times: np.ndarray,
                substeps: int) -> np.ndarray:
    """States at the sample times, each sample interval cut into substeps
    equal Magnus steps.  Step exponentials are built _CHUNK at a time and
    folded per sample interval (a chunk holds whole intervals, or part of
    one when substeps > _CHUNK).  The interval propagators are then
    multiplied into prefix products, in log2(intervals) rounds of stacked
    products, and the states are those applied to the initial state."""
    starts = times[:-1]
    h = np.diff(times) / substeps
    n = len(starts)
    products = np.empty((n, 4, 4))
    per_chunk = max(1, _CHUNK // substeps)
    span = min(substeps, _CHUNK)
    for i in range(0, n, per_chunk):
        block = slice(i, i + per_chunk)
        for first in range(0, substeps, span):
            folded = _fold(_magnus_steps(system, starts[block], h[block],
                                         first, min(first + span, substeps)))
            products[block] = (folded if first == 0
                               else folded @ products[block])
    # after the round at stride d, products[i] runs over intervals
    # max(0, i - 2d + 1)..i
    stride = 1
    while stride < n:
        products[stride:] = products[stride:] @ products[:-stride]
        stride *= 2
    ys = np.empty((n + 1, 4))
    ys[0] = system.state
    ys[1:] = products @ ys[0]
    return ys


def _sweep_samples(system: PendulumSystem, duration: float):
    """(times, lengths, m) of a sweep: the sample times (one at t = 0 for
    duration 0), the lengths there, and the Magnus steps per sample
    interval it starts with, m = ceil(interval * omega_max / 0.5), 0 for
    duration 0.  omega_max^2 is the largest normal-mode stiffness at the
    samples, the larger root of [[g/l + k, -k], [-k, g/l_mu + k]] in closed
    form."""
    times = (np.linspace(0.0, duration, _SWEEP_SAMPLES) if duration > 0.0
             else np.zeros(1))
    lengths = system.length_schedule.value(times)
    if np.any(lengths <= 0.0):
        raise ValueError("length schedule must stay positive")
    if duration == 0.0:
        return times, lengths, 0
    we2 = system.g / lengths
    wm2 = system.g / system.l_mu
    kappa = system.kappa
    stiffest = float(np.max(0.5 * (we2 + wm2) + kappa
                            + np.hypot(0.5 * (we2 - wm2), kappa)))
    m = max(1, math.ceil(float(np.max(np.diff(times))) * math.sqrt(stiffest)
                         / _STEP_PHASE))
    return times, lengths, m


def magnus_start_steps(system: PendulumSystem, duration: float) -> int:
    """Magnus steps pendulum_sweep takes before any doubling: m per sample
    interval in the first run and 2m in the second, (_SWEEP_SAMPLES - 1) *
    3m.  Raises what pendulum_sweep raises for the schedule's lengths."""
    times, _, m = _sweep_samples(system, duration)
    return (len(times) - 1) * 3 * m


def pendulum_sweep(system: PendulumSystem, duration: float) -> TransferReport:
    """Integrate the coupled small-angle equations through a length sweep.

    Displacement coordinates x = l * angle obey
    x_e'' = -((g - l_e'')/l_e) x_e - kappa (x_e - x_mu); the l'' term is the
    support-acceleration correction.  duration = 0 steps nothing and reads
    the schedule at t = 0 only: the unchanged start state is attributed at
    the lengths there, which for a ramp are its start lengths, not its end.

    The linear system y' = A(t) y is stepped with the sixth-order Magnus
    integrator (three Gauss-Legendre samples of A per step, exact when A is
    constant).  Only A[1, 0] changes in time, so each step's generator has
    closed-form entries, and its exponential is a series in its square with
    coefficients from two traces; the states at the samples are prefix
    products of the interval propagators.  Each of the _SWEEP_SAMPLES - 1
    intervals starts with m = ceil(interval * omega_max / 0.5) steps,
    omega_max the fastest normal-mode frequency at the samples; the run is
    repeated with 2m, and the Richardson estimate max|y_2m - y_m| / 63 of
    the global error over all samples must not exceed _SWEEP_RTOL * max|y|,
    else m doubles.  The 2m run is reported.

    Raises ValueError for a negative duration or a non-positive length;
    IntegratorError when _SWEEP_RTOL is still not met after five doublings
    or a doubling cuts the estimate less than 8-fold (about 64-fold is
    due), or when a constant schedule shows relative energy drift above
    1e-6 (the integrator, not the physics, is then at fault), or when a
    step generator is not finite.
    """
    if duration < 0.0:
        raise ValueError("duration must be non-negative")
    g = system.g
    kappa = system.kappa
    wm2 = g / system.l_mu
    times, lengths, m = _sweep_samples(system, duration)
    frozen = float(np.ptp(lengths)) <= 1e-12 * float(np.max(lengths))
    weak = kappa / min(wm2, g / float(np.max(lengths)))

    # normal modes at the last sample: stiffness [[we2 + k, -k], [-k, wm2 + k]]
    we2 = g / lengths
    mode_k, mode_vecs = np.linalg.eigh(
        [[we2[-1] + kappa, -kappa], [-kappa, wm2 + kappa]])

    if duration == 0.0:
        ys = np.asarray(system.state, dtype=float).reshape(1, 4)
    else:
        coarse = _magnus_run(system, times, m)
        previous = math.inf
        for doubling in range(_MAX_DOUBLINGS):
            ys = _magnus_run(system, times, 2 * m)
            estimate = float(np.max(np.abs(ys - coarse))) / 63.0
            if estimate <= _SWEEP_RTOL * float(np.max(np.abs(ys))):
                break
            # a sixth-order step cuts the estimate about 64-fold per
            # doubling; less than _MIN_CUT-fold means roundoff or a fault,
            # not the step size, sets it, and more doublings cannot help
            if (estimate > previous / _MIN_CUT
                    or doubling == _MAX_DOUBLINGS - 1):
                raise IntegratorError(
                    f"Richardson error estimate {estimate:.3e} still above "
                    f"rtol {_SWEEP_RTOL:.3e} times the state scale at {2 * m} "
                    f"steps per sample interval")
            coarse, m, previous = ys, 2 * m, estimate

    xe, ve, xm, vm = ys.T
    # e pendulum, mu pendulum and spring
    total = (0.5 * ve * ve + 0.5 * we2 * xe * xe
             + (0.5 * vm * vm + 0.5 * wm2 * xm * xm)
             + 0.5 * kappa * (xe - xm) ** 2)
    # energy per normal mode at the end
    qx = np.einsum("ji,j->i", mode_vecs, ys[-1, 0::2])
    qv = np.einsum("ji,j->i", mode_vecs, ys[-1, 1::2])
    modes = 0.5 * qv ** 2 + 0.5 * mode_k * qx ** 2

    drift = None
    if frozen:
        drift = float(np.max(np.abs(total - total[0])) / total[0])
        if drift > 1e-6:
            raise IntegratorError(
                f"energy drift {drift:.3e} with frozen lengths exceeds 1e-6")

    mu_share = float(np.dot(modes, mode_vecs[1, :] ** 2))
    tot_end = float(total[-1])
    fraction = mu_share / tot_end if tot_end > 0.0 else 0.0
    return TransferReport(fraction=fraction, energy_drift=drift,
                          weak_coupling_ratio=float(weak))


def msw_benchmark_system(kappa: float, delta_max: float,
                         crossing_rate: float | None, l_mu: float,
                         g: float) -> tuple[PendulumSystem, float]:
    """Standard flavor-transfer setup: returns (system, sweep duration).

    The e pendulum starts longer (detuning +delta_max), sweeps through the
    crossing, ends shorter.  All initial energy sits in the e displacement.
    The effective two-level coupling is epsilon = kappa/(2 omega_mu); a
    crossing_rate of None means the base rate 0.01 epsilon^2, deep in the
    adiabatic regime.

    A pure flavor start is not an exact normal mode, so the transfer
    fraction saturates below 1 at roughly 1 - 2 (kappa / d(omega^2))^2,
    the endpoint misalignment; kappa = 0.025 puts the ceiling near 0.995.
    """
    if not l_mu > 0.0:
        raise ValueError(f"l_mu must be positive, got {l_mu!r}")
    if not g > 0.0:
        raise ValueError(f"g must be positive, got {g!r}")
    omega_mu = math.sqrt(g / l_mu)
    epsilon = kappa / (2.0 * omega_mu)
    if crossing_rate is None:
        crossing_rate = 0.01 * epsilon * epsilon
    width = kappa / omega_mu
    ramp = ArctanDetuningRamp(l_mu=l_mu, g=g, delta_max=delta_max,
                              crossing_rate=crossing_rate, width=width)
    system = PendulumSystem(length_schedule=ramp, l_mu=l_mu, kappa=kappa, g=g,
                            state=(1.0, 0.0, 0.0, 0.0))
    return system, ramp.duration


# ---------------------------------------------------------------------------
# quantum two-level sweep

# the sweep window is _SPAN_FACTOR times the larger of the gap and the
# Landau-Zener time on either side of the crossing, which keeps the
# finite-window ripple comfortably inside the 2% oracle tolerance
_SPAN_FACTOR = 14.0
# the propagator step is _STEP_SCALE over the largest coefficient of H
_STEP_SCALE = 0.04


@dataclass(frozen=True)
class TwoLevelSweep:
    """H(t) = epsilon sigma1 + delta(t) sigma3 over [0, duration], with the
    linear detuning delta = -span + sweep_rate t and span = _SPAN_FACTOR *
    max(epsilon, sqrt(sweep_rate)).  epsilon = 0 is allowed (levels cross
    freely, nothing converts)."""

    epsilon: float
    sweep_rate: float

    def __post_init__(self):
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be non-negative")
        if self.sweep_rate <= 0.0:
            raise ValueError("rate must be positive")
        if not self.duration < math.inf:
            raise ValueError("the sweep window overflows")

    @property
    def span(self) -> float:
        return _SPAN_FACTOR * max(self.epsilon, math.sqrt(self.sweep_rate))

    @property
    def duration(self) -> float:
        return 2.0 * self.span / self.sweep_rate

    def detuning(self, t):
        return -self.span + self.sweep_rate * t


class ConversionReport(NamedTuple):
    conversion: float
    lz_conversion: float


def two_level_step(s: TwoLevelSweep) -> float:
    """Propagator step of two_level_sweep: _STEP_SCALE over the largest
    coefficient of H at the ends of the sweep."""
    h_scale = max(abs(s.detuning(0.0)), abs(s.detuning(s.duration)),
                  s.epsilon, 1e-12)
    return _STEP_SCALE / h_scale


def two_level_sweep(s: TwoLevelSweep) -> ConversionReport:
    """Evolve the ground-flavor state through the sweep; report conversion.

    Starts in the instantaneous ground state at t = 0 (the 'e' flavor up to
    an O(epsilon/|delta|) tilt when delta << -epsilon) and measures the
    final weight on the instantaneous ground state at t = duration (the
    'mu' flavor up to the same tilt).  Reading out in the eigenbasis keeps
    the finite sweep window from polluting the comparison with mixing-angle
    interference; the Landau-Zener diabatic probability exp(-pi eps^2 /
    rate) gives lz_conversion = 1 - that.
    """
    eps = s.epsilon
    sched = HamiltonianSchedule(lambda t: (eps, 0.0, s.detuning(t)),
                                s.duration)
    psi0 = ground_state(sched, 0.0)
    final, _ = evolve_with_energy(sched, psi0, two_level_step(s))
    ground_end = ground_state(sched, s.duration)
    conversion = abs(ground_end.overlap(final)) ** 2
    lz = 1.0 - math.exp(-math.pi * eps * eps / s.sweep_rate)
    return ConversionReport(conversion=conversion, lz_conversion=lz)


# ---------------------------------------------------------------------------
# rectangular loop around the degeneracy

# samples of the rectangle's Wilson loop
_LOOP_SAMPLES = 2000
# knots per edge of a rectangle_transport table
_KNOTS = 2000


def rectangle_corners(delta0: float, epsilon0: float,
                      center: tuple) -> np.ndarray:
    """The five (delta, epsilon) corners of the closed rectangle (center +-
    delta0, center +- epsilon0), from (+delta0, +epsilon0) towards negative
    detuning and back.  Raises ValueError unless delta0, epsilon0 > 0."""
    if delta0 <= 0.0 or epsilon0 <= 0.0:
        raise ValueError("delta0 and epsilon0 must be positive")
    cd, ce = float(center[0]), float(center[1])
    return np.array([[cd + delta0, ce + epsilon0],
                     [cd - delta0, ce + epsilon0],
                     [cd - delta0, ce - epsilon0],
                     [cd + delta0, ce - epsilon0],
                     [cd + delta0, ce + epsilon0]])


def rectangle_path(corners: np.ndarray) -> np.ndarray:
    """The closed rectangle through the five corners of rectangle_corners,
    sampled uniformly by arc length at _LOOP_SAMPLES points.  Columns:
    (delta, epsilon)."""
    seg = np.linalg.norm(np.diff(corners, axis=0), axis=1)
    perimeter = seg.sum()
    arc = np.linspace(0.0, perimeter, _LOOP_SAMPLES, endpoint=False)
    bounds = np.concatenate(([0.0], np.cumsum(seg)))
    idx = np.clip(np.searchsorted(bounds, arc, side="right") - 1, 0, 3)
    local = (arc - bounds[idx]) / seg[idx]
    pts = corners[idx] + (corners[idx + 1] - corners[idx]) * local[:, None]
    return pts


def _segment_origin_distance(p: np.ndarray, q: np.ndarray) -> float:
    d = q - p
    t = -float(np.dot(p, d)) / float(np.dot(d, d))
    t = min(max(t, 0.0), 1.0)
    return float(np.linalg.norm(p + t * d))


def rectangle_transport(delta0: float, epsilon0: float, center: tuple,
                        adiabaticity: float):
    """Time table for traversing the rectangle (rectangle_corners) at speed
    mu * gap^2, with mu the adiabaticity.

    gap^2 means 4 (delta^2 + epsilon^2), the squared level splitting, so the
    local adiabaticity parameter speed/gap^2 is held constant at mu: slow
    through the resonance crossings, fast in the far wings.  Per-edge times
    come from the exact arctan antiderivative of 1/(x^2 + c^2).  Returns
    (times, deltas, epsilons): knot arrays, _KNOTS knots per edge after the
    start, so the corners are the knots deltas[::_KNOTS], epsilons[::_KNOTS].

    Raises ValueError unless adiabaticity is positive (and for the corners,
    rectangle_corners) or when gap^2 overflows at a corner, GeometryError
    when the boundary passes through the degeneracy,
    and ResolutionError when the loop's _LOOP_SAMPLES samples lie further
    apart than sqrt(3) times its distance from the degeneracy: only then
    can neighbouring band states of the Wilson loop turn by more than 120
    degrees (overlap below 0.5).  Warns (RegimeWarning) when delta0 < 10
    epsilon0: the corners then sit too close to resonance for the 'nothing
    further happens there' reading of the coupling-sign flip.
    """
    if not adiabaticity > 0.0:
        raise ValueError(f"adiabaticity must be positive, got {adiabaticity!r}")
    corners = rectangle_corners(delta0, epsilon0, center)
    # gap^2 at the farthest corner bounds every square formed below, the
    # squared edge lengths included
    if not max(4.0 * (d * d + e * e) for d, e in corners.tolist()) < math.inf:
        raise ValueError("rectangle too large: its squared level splitting "
                         "overflows")
    clearance = min(_segment_origin_distance(corners[k], corners[k + 1])
                    for k in range(4))
    if clearance < 1e-9:
        raise GeometryError("loop boundary passes through the degeneracy")
    if 4.0 * (delta0 + epsilon0) / _LOOP_SAMPLES > math.sqrt(3.0) * clearance:
        raise ResolutionError("loop samples lie further apart than sqrt(3) "
                              "times the loop's distance from the degeneracy")
    if delta0 < 10.0 * epsilon0:
        warnings.warn("corners at delta0 < 10*epsilon0 sit close to resonance",
                      RegimeWarning, stacklevel=2)

    mu = adiabaticity
    ts = [np.array([0.0])]
    ds = [np.array([corners[0, 0]])]
    es = [np.array([corners[0, 1]])]
    t0 = 0.0
    for k in range(4):
        (d1, e1), (d2, e2) = corners[k], corners[k + 1]
        if e1 == e2:
            x1, x2, c = d1, d2, e1
        else:
            x1, x2, c = e1, e2, d1

        def anti(x):
            if abs(c) > 1e-12:
                return np.arctan(x / c) / c / (4.0 * mu)
            return -1.0 / (4.0 * mu * x)

        xs = np.linspace(x1, x2, _KNOTS + 1)[1:]
        tk = t0 + np.abs(anti(xs) - anti(x1))
        if e1 == e2:
            ds.append(xs)
            es.append(np.full(_KNOTS, e1))
        else:
            ds.append(np.full(_KNOTS, d1))
            es.append(xs)
        ts.append(tk)
        t0 = float(tk[-1])
    return np.concatenate(ts), np.concatenate(ds), np.concatenate(es)


def transport_halves(times: np.ndarray) -> tuple[float, float]:
    """(t_half, t_full) of a rectangle_transport table's times: the loop is
    transported from the start to the opposite corner at t_half, then on
    to the start again at t_full."""
    return float(times[len(times) // 2]), float(times[-1])


def _winding(path: np.ndarray) -> int:
    ang = np.arctan2(path[:, 1], path[:, 0])
    closed = np.append(ang, ang[0])
    turns = np.remainder(np.diff(closed) + math.pi, TWO_PI) - math.pi
    return int(round(np.sum(turns) / TWO_PI))


class RectangleLoop(NamedTuple):
    """wilson_phase from the discrete loop; the rest from real-time transport.

    The transport runs the full rectangle as two composed half-circuits
    (sweep through resonance plus coupling-sign flip, applied twice).
    half_loop_square_deviation is || psi_final * exp(+i int E dt)
    - (-1)^winding psi_0 ||, the distance from the transposition-squared
    prediction after dynamical-phase removal.
    """

    wilson_phase: float
    winding: int
    half_loop_geometric: float
    half_loop_square_deviation: float
    transport_duration: float


def rectangular_loop_phase(transport, transport_step: float) -> RectangleLoop:
    """Wilson phase and adiabatic transport around the (delta, epsilon)
    rectangle of the rectangle_transport table ``transport``.

    For H = epsilon sigma1 + delta sigma3 the degeneracy sits at the origin;
    a rectangle enclosing it carries Wilson phase pi, one that misses it
    carries 0.  The Wilson loop takes the _LOOP_SAMPLES samples of
    rectangle_path through the table's corner knots.  The loop is traversed
    along the table, at parameter speed adiabaticity * gap^2, which keeps
    the residual cone correction to the geometric phase at O(adiabaticity)
    uniformly along the path.
    """
    times, dk, ek = transport
    path = rectangle_path(np.column_stack((dk[::_KNOTS], ek[::_KNOTS])))
    directions = np.column_stack(
        (path[:, 1], np.zeros(len(path)), path[:, 0]))
    wilson = berry.wilson_loop_phase(directions)
    winding = _winding(path)

    t_half, t_full = transport_halves(times)

    def coefficients(t: np.ndarray):
        return np.interp(t, times, ek), 0.0, np.interp(t, times, dk)

    sched_a = HamiltonianSchedule(coefficients, t_half)
    sched_b = HamiltonianSchedule(lambda t: coefficients(t + t_half),
                                  t_full - t_half)
    psi0 = ground_state(sched_a, 0.0)
    mid, energy_a = evolve_with_energy(sched_a, psi0, transport_step)
    final, energy_b = evolve_with_energy(sched_b, mid, transport_step)

    energy = energy_a + energy_b
    geometric = wrap_angle(np.angle(psi0.overlap(final)) + energy)
    corrected = final.amplitudes * np.exp(1j * energy)
    target = psi0.amplitudes if winding % 2 == 0 else -psi0.amplitudes
    deviation = float(np.linalg.norm(corrected - target))
    return RectangleLoop(wilson_phase=wilson, winding=winding,
                         half_loop_geometric=geometric,
                         half_loop_square_deviation=deviation,
                         transport_duration=t_full)


# ---------------------------------------------------------------------------
# celestial adiabatic period shift

# Kepler period of the planet's unperturbed orbit, semi-major axis 1
KEPLER_PERIOD = TWO_PI
# DOP853 tolerances of every orbit run; the convergence check of
# celestial_adiabatic_residual reruns at a thousandfold looser
_ORBIT_RTOL = 1e-12
_ORBIT_ATOL = 1e-13
# the frozen-period window spans _ORBITS Kepler periods centred on the start
_ORBITS = 8.5


@dataclass(frozen=True)
class CelestialConfig:
    """Planet around a fixed sun, outer perturber on a prescribed circle.

    Units G = m_sun = r_earth = 1.  The perturber circles at r_jupiter with
    its Kepler period about the sun.  The planet starts at perihelion on
    the +x axis of a near-circular orbit with the given eccentricity
    (semi-major axis 1, so the unperturbed period is KEPLER_PERIOD exactly).

    The catalog's eccentricity 0.05 keeps the apsis line stiff: the free
    radial oscillation must dominate the perturber-forced wiggles or
    perihelion bookkeeping stops being first order in m_jupiter (at e ~
    1e-3 the Kepler start rings against the perturbed orbit for tens of
    periods).
    """

    m_jupiter: float
    r_jupiter: float
    eccentricity: float

    def __post_init__(self):
        if self.m_jupiter < 0.0:
            raise ValueError("m_jupiter must be non-negative")
        if self.m_jupiter > 0.05:
            raise ValueError("perturber mass must stay small, m_j <= 0.05 m_sun")
        if self.r_jupiter <= 1.0:
            raise ValueError("perturber must orbit outside the planet")
        if not 0.0 <= self.eccentricity <= 0.1:
            raise ValueError("eccentricity limited to [0, 0.1]")

    @property
    def jupiter_period(self) -> float:
        return TWO_PI * math.sqrt(self.r_jupiter ** 3)

    def initial_state(self) -> np.ndarray:
        e = self.eccentricity
        rp = 1.0 - e
        vp = math.sqrt((1.0 + e) / rp)
        return np.array([rp, 0.0, 0.0, vp])


def adiabatic_periods(cfg: CelestialConfig) -> tuple[float, float]:
    """(t_jupiter, t_earth), once the perturber is checked slow enough for
    the adiabatic reading: t_jupiter >= 5 t_earth, which the Kepler period
    of r_jupiter meets above 5^(2/3) r_earth, about 2.92.  Raises
    ValueError otherwise."""
    t_j, t_e = cfg.jupiter_period, KEPLER_PERIOD
    if t_j < 5.0 * t_e:
        raise ValueError("adiabatic regime requires t_jupiter >= 5 t_earth")
    return t_j, t_e


def force_ratio(cfg: CelestialConfig) -> float:
    """Perturber-to-sun force ratio at closest approach geometry."""
    return cfg.m_jupiter / (cfg.r_jupiter - 1.0) ** 2


def _radii(y: np.ndarray) -> np.ndarray:
    """Sun distance of each lane of a flat (4, N) state (x, z, vx, vz rows)."""
    lanes = y.reshape(4, -1)
    return np.hypot(lanes[0], lanes[1])


def solve_ivp(cfg: CelestialConfig, rhs, y0: np.ndarray, t_end: float,
              rtol: float, atol: float,
              where=lambda t, k: f" at t = {t:.3f}") -> dop853.DenseRun:
    """One DOP853 run (dop853.run) from t = 0 to t_end with dense output,
    over a flat (4, N) lane state.  A lane closing on the sun (r < 0.01)
    or escaping (r > 2.5 r_jupiter) ends the run at the step where it
    leaves that band, and the DynamicsError says where through where(t,
    k), with t the crossing time and k the closest or the farthest lane
    there.  The name is kept for the benchmark's ``ode`` hook until the
    program reports its own counts (ROADMAP item 1); the celestial code
    calls it through this module's global, so the hook sees every run."""
    r_min, r_max = 0.01, 2.5 * cfg.r_jupiter

    def band(y):
        radii = _radii(y)
        return radii.min() - r_min, r_max - radii.max()

    try:
        run = dop853.run(rhs, y0, t_end, rtol, atol, band)
    except DynamicsError as exc:
        raise DynamicsError(f"orbit integration failed: {exc}") from None
    if run.stop is not None:
        k, t, state = run.stop
        pick, what = ((np.argmin, "collided with the sun"),
                      (np.argmax, "escaped past 2.5 r_jupiter"))[k]
        raise DynamicsError(f"planet {what}"
                            f"{where(t, int(pick(_radii(state))))}")
    return run


def _integrate(cfg: CelestialConfig, jupiter_angle, t_max: float,
               rtol: float, atol: float):
    """Integrate one planet; jupiter_angle is a callable t -> angle of the
    moving perturber, which a massless perturber leaves out.  Raises
    DynamicsError on collision or escape."""
    muj = cfg.m_jupiter
    rj = cfg.r_jupiter

    if muj == 0.0:
        def rhs(t, y):
            x, z, vx, vz = y.tolist()
            r3 = (x * x + z * z) ** 1.5
            return (vx, vz, -x / r3, -z / r3)
    else:
        def rhs(t, y):
            x, z, vx, vz = y.tolist()
            r3 = (x * x + z * z) ** 1.5
            ax = -x / r3
            az = -z / r3
            ang = jupiter_angle(t)
            dx = x - rj * math.cos(ang)
            dz = z - rj * math.sin(ang)
            d3 = (dx * dx + dz * dz) ** 1.5
            return (vx, vz, ax - muj * dx / d3, az - muj * dz / d3)

    return solve_ivp(cfg, rhs, cfg.initial_state(), t_max, rtol, atol)


def _integrate_lanes(cfg: CelestialConfig, starts: np.ndarray,
                     phis: np.ndarray, masses: np.ndarray, t_end: float,
                     where):
    """One DOP853 run from t = 0 to t_end of N planets side by side, lane k
    starting from the state starts[k] = (x, z, vx, vz) in the static field
    of the sun and a perturber of mass masses[k] frozen at angle phis[k].
    All lanes share one step sequence; where(t, k) names a failing lane
    (solve_ivp)."""
    n = len(phis)
    perturber = cfg.r_jupiter * np.array([np.cos(phis), np.sin(phis)])
    # the (x, z) rows squared of the sun offsets and of the perturber
    # offsets, and the two squared distances of each lane, which one power
    # call raises to 1.5; views made once, as making one costs about as
    # much as the arithmetic on it
    squares = np.empty((2, 2, n))
    sun_squares, perturber_squares = squares
    x_squares, z_squares = squares[:, 0], squares[:, 1]
    cubes = np.empty((2, n))
    r3, d3 = cubes

    def rhs(t, y):
        pos = y[:2 * n].reshape(2, n)
        d = pos - perturber
        np.multiply(pos, pos, out=sun_squares)
        np.multiply(d, d, out=perturber_squares)
        # x * x + z * z and dx * dx + dz * dz
        np.add(x_squares, z_squares, out=cubes)
        np.power(cubes, 1.5, out=cubes)
        return np.concatenate((y[2 * n:],
                               (-pos / r3 - masses * d / d3).ravel()))

    return solve_ivp(cfg, rhs, starts.T.ravel(), t_end, _ORBIT_RTOL,
                     _ORBIT_ATOL, where)


def _lane_name(phis: np.ndarray, masses: np.ndarray, k: int) -> str:
    return f"lane {k} (perturber angle {phis[k]:.6g}, mass {masses[k]:.6g})"


# apsis refinement: r.v sampled at 7 points of a window, u its coordinate
# in [-1, 1]; rows of _APSIS_FIT map the samples to the least-squares
# coefficients (a, b, c) of a u^2 + b u + c.  On the symmetric window the
# odd coefficient b decouples, and (a, c) solve the 2x2 normal equations
# of (u^2, 1): the pseudo-inverse in closed form, with no LAPACK call at
# import
_APSIS_U = np.linspace(-1.0, 1.0, 7)
_S2 = float(np.sum(_APSIS_U ** 2))
_S4 = float(np.sum(_APSIS_U ** 4))
_APSIS_FIT = np.stack(((7.0 * _APSIS_U ** 2 - _S2) / (7.0 * _S4 - _S2 ** 2),
                       _APSIS_U / _S2,
                       (_S4 - _S2 * _APSIS_U ** 2) / (7.0 * _S4 - _S2 ** 2)))
_APSIS_ROUNDS = 3


def _quadratic_root(g: np.ndarray) -> np.ndarray:
    """Root nearest u = 0 of the quadratic fitted to each row of 7 samples
    of g at _APSIS_U; nan where that quadratic has no real root.

    The roots are q/a and c/q with q = -(b + sign(b) sqrt(b^2 - 4ac))/2,
    which never subtracts nearly equal numbers.  A window on a crossing
    is nearly linear (|ac| << b^2), and there the textbook
    (-b +- sqrt(b^2 - 4ac))/2a loses the wanted small root to cancellation.
    """
    a, b, c = np.moveaxis(g @ _APSIS_FIT.T, -1, 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
        r1 = np.nan_to_num(q / a, nan=np.inf)
        r2 = np.nan_to_num(c / q, nan=np.inf)
    root = np.where(np.abs(r1) <= np.abs(r2), r1, r2)
    return np.where(np.isfinite(root), root, np.nan)


def _radial_velocity(states: np.ndarray, lanes: int) -> np.ndarray:
    """r.v of each lane from dense-output states of shape (4 * lanes, ...)."""
    x, z, vx, vz = states.reshape((4, lanes) + states.shape[1:])
    return x * vx + z * vz


# time points per dense-output call of _perihelion_times on a stack of 36
# lanes or more, and 16 refinement windows per call.  A call holds the
# interpolant coefficients of the steps its points fall in and a few copies
# of every lane's state at each point, so a fixed count keeps the memory
# beside the dense solution linear in the lane count, and small.  More
# points spread the fixed cost of a call: 112 read in 0.6-0.85 of the time
# 56 took; 224 gained little more on a 36-lane stack and raised a catalog
# lane's peak memory by a quarter, 112 by 8%.  A grid scan of fewer lanes
# reads _READ_POINTS * 36 // lanes times a call, as many lane-points as 36
# lanes read: a single-lane run's 5,224 grid points in 2 calls
_READ_POINTS = 112


def _perihelion_times(sol, lanes: int = 1) -> list:
    """Perihelion times of each lane of a dense solution, one array per lane.

    Upward sign changes of r.v are found on a grid of step KEPLER_PERIOD /
    400 from 0.3 KEPLER_PERIOD to the run's end sol.ts[-1].  Each is
    refined by _APSIS_ROUNDS quadratic fits on a window centred on the
    current estimate, shrinking tenfold per round; a crossing whose fit has
    no real root keeps its estimate for that round.  Each dense-output call
    reads max(_READ_POINTS, _READ_POINTS * 36 // lanes) grid points, or
    the windows of _READ_POINTS / 7 crossings in a round, all in one pass
    (dop853.DenseRun.sol); a window reads only the rows (x, z, vx, vz) of
    the lane it refines in the flat (4, lanes) state.
    """
    grid = np.arange(0.3 * KEPLER_PERIOD, sol.ts[-1], KEPLER_PERIOD / 400.0)
    rising = np.empty((lanes, max(len(grid) - 1, 0)), dtype=bool)
    points = max(_READ_POINTS, _READ_POINTS * 36 // lanes)
    for k in range(0, len(grid) - 1, points):
        # one point of overlap, so a sign change on a block edge is seen
        g = _radial_velocity(sol.sol(grid[k:k + points + 1]), lanes)
        rising[:, k:k + points] = (g[:, :-1] < 0.0) & (g[:, 1:] >= 0.0)
    # in time order, so that the windows of a block share few steps
    i, lane = np.nonzero(rising.T)
    root = 0.5 * (grid[i] + grid[i + 1])
    half = 0.5 * (grid[i + 1] - grid[i])
    per_call = _READ_POINTS // len(_APSIS_U)
    for start in range(0, len(root), per_call):
        block = slice(start, start + per_call)
        r, h = root[block], half[block]
        for _ in range(_APSIS_ROUNDS):
            ts = r[:, None] + h[:, None] * _APSIS_U
            rows = np.repeat(lane[block], ts.shape[1])
            states = sol.sol(ts.ravel(), rows[:, None] + lanes * np.arange(4))
            g = _radial_velocity(states, 1)[0].reshape(ts.shape)
            r = r + h * np.nan_to_num(_quadratic_root(g))
            h = h / 10.0
        root[block] = r
    by_lane = np.argsort(lane, kind="stable")
    return np.split(root[by_lane],
                    np.cumsum(np.bincount(lane, minlength=lanes))[:-1])


def frozen_grid_angles(nodes: int) -> np.ndarray:
    """Uniform perturber-angle grid 2 pi k / nodes; nodes even and >= 4,
    so the grid holds each angle's mirror image -phi."""
    if nodes < 4 or nodes % 2:
        raise ValueError("nodes must be an even number >= 4")
    return TWO_PI * np.arange(nodes) / nodes


def celestial_frozen_period(cfg: CelestialConfig, phis, masses=None):
    """Radial periods with the perturber frozen at the angles phis.

    phis is an array of angles, one lane each; masses, when given, is the
    perturber mass of each lane (default cfg.m_jupiter for all).  Returns
    the array of periods.

    All lanes are integrated side by side as one stack, in one DOP853 run
    over half of _ORBITS Kepler periods with a single step sequence.
    Each lane is there twice: once from cfg.initial_state() forward in
    time, and once from the same state with the velocity reversed, whose
    orbit u(tau) = (x, z, -vx, -vz)(-tau) solves the same equations and
    is the lane's backward branch over the other half.  Each lane's period
    is the mean of its perihelion-to-perihelion gaps, apsis times taken
    from sign changes of r.v refined by local quadratic fits on the dense
    output (_perihelion_times).

    The window is short and centred on purpose.  Short: the frozen
    perturber slowly precesses the apsis line, so a long average would
    blur periods across orientations instead of measuring the
    instantaneous one.  Centred: the leading precession bias is odd in
    time and cancels between the two half-windows.  The measurement is
    even in phi: the backward branch at angle phi is the mirror image
    (z, vx -> -z, -vx) of the forward branch at -phi.  The backward branch
    is integrated, not built from the forward one; for a grid that holds
    each angle's mirror image it is the mirror of the forward half of the
    stack with its lanes permuted, so the two agree up to the roundoff of
    the order in which the step control sums the lanes' errors, and a
    period profile that is not even in phi points at the integration.
    """
    angles = np.asarray(phis, dtype=float)
    if masses is None:
        masses = np.full(angles.shape, cfg.m_jupiter)
    masses = np.asarray(masses, dtype=float)
    if angles.ndim != 1 or masses.shape != angles.shape:
        raise ValueError("phis and masses must be one angle and mass per lane")
    if not np.all(masses >= 0.0):
        raise ValueError("perturber masses must be non-negative")
    t_half = 0.5 * _ORBITS * KEPLER_PERIOD
    n = len(angles)
    start = cfg.initial_state()
    starts = np.repeat([start, start * (1.0, 1.0, -1.0, -1.0)], n, axis=0)

    def where(t, k):
        if k < n:
            return f" at t = {t:.3f} in {_lane_name(angles, masses, k)}"
        return (f" at t = {-t:.3f} in {_lane_name(angles, masses, k - n)}"
                " on the backward branch")

    times = _perihelion_times(
        _integrate_lanes(cfg, starts, np.tile(angles, 2), np.tile(masses, 2),
                         t_half, where), 2 * n)
    ahead, behind = times[:n], times[n:]
    periods = np.empty(n)
    for k in range(n):
        if len(ahead[k]) + len(behind[k]) < 4:
            raise DynamicsError("fewer than four perihelion passages "
                                f"detected in {_lane_name(angles, masses, k)}")
        # gaps within each branch only: the start apsis sits between the
        # two detection windows, so a gap across t = 0 would span two
        # periods; four passages leave at least one gap on one side
        periods[k] = np.mean(np.concatenate((np.diff(behind[k]),
                                             np.diff(ahead[k]))))
    return periods


def _adiabatic_phase(rates: np.ndarray, phi0: float, omega_j: float,
                     times: np.ndarray, varpi: np.ndarray,
                     axis: np.ndarray) -> float:
    """Frozen-probe phase from the first perihelion time to the last.

    Between two passages the apsis angle varpi is linear, so the rate
    f(phi0 + omega_j t - varpi), with f the trig polynomial through rates
    on the uniform angle grid, has an affine argument mid + w tau about its
    midpoint value mid, with w = omega_j - (varpi_k+1 - varpi_k) / s on a
    segment of span s.  The segment's phase is then exactly
    s Re sum_m c_m e^(i m mid) sinc(m w s / 2 pi), with c_m the rfft
    coefficients of rates over n, those below Nyquist doubled; at w = 0 the
    sinc is 1.  The Kepler scaling T ~ a^(3/2) rescales each segment to the
    osculating orbit by the mean semi-major axis of its two ends (the
    covariance of the two factors is ~1e-6 here).
    """
    n = len(rates)
    c = np.fft.rfft(rates) / n
    c[1:(n + 1) // 2] *= 2.0
    m = np.arange(len(c))
    span = np.diff(times)
    mid = phi0 + omega_j * 0.5 * (times[1:] + times[:-1]) \
        - 0.5 * (varpi[1:] + varpi[:-1])
    w = omega_j - np.diff(varpi) / span
    segments = span * np.sum((c * np.exp(1j * np.outer(mid, m))).real
                             * np.sinc(np.outer(w * span, m) / TWO_PI),
                             axis=1)
    return float(np.sum(segments * (0.5 * (axis[1:] + axis[:-1])) ** -1.5))


class CelestialResidual(NamedTuple):
    """Full orbital phase minus the frozen-probe adiabatic prediction.

    dynamical_correction is the adiabatic prediction minus the unperturbed
    Kepler phase over the same window: the ordinary (non-geometric) part of
    the delay.  convergence_gap is the change of the residual when the
    integration tolerance is loosened a thousandfold; None when the
    convergence check is skipped.
    """

    residual: float
    dynamical_correction: float
    perihelion_count: int
    per_cycle_residual: float
    convergence_gap: float | None


def celestial_adiabatic_residual(cfg: CelestialConfig, phis: np.ndarray,
                                 phi0: float = 0.0,
                                 check_convergence: bool = True) -> CelestialResidual:
    """Adiabatic residual of the orbital phase over one perturber cycle.

    The full run integrates the planet with the perturber moving on its
    circle, starting at angle phi0.  The orbital phase between the first
    and last perihelion is 2 pi (count - 1); the adiabatic prediction
    integrates 2 pi / T'(phi_rel) with T' the frozen-probe period
    interpolated trigonometrically from the grid phis of
    frozen_grid_angles.  Two slow osculating elements of the run itself
    enter the prediction: the apsis angle (the frozen problem is
    parametrized by the perturber angle measured from the apsis line,
    which precesses) and the semi-major axis (the moving perturber
    exchanges energy with the planet, and T' must be rescaled by a^(3/2) to
    the orbit the planet is actually on).  Skipping either correction
    misattributes ordinary first-order element drift to the residual and
    inflates it by orders of magnitude.  The residual is the leftover after
    the frozen-field prediction is accounted for.

    Raises QuadratureError when the residual fails to stabilize under
    tolerance refinement.
    """
    t_j, t_e = adiabatic_periods(cfg)
    omega_j = TWO_PI / t_j
    t_max = t_j + 1.5 * t_e

    def run(rt, at):
        sol = _integrate(cfg, lambda t: phi0 + omega_j * t, t_max, rt, at)
        times = _perihelion_times(sol)[0]
        if len(times) < 3:
            raise DynamicsError("fewer than three perihelion passages detected")
        x, z, vx, vz = sol.sol(times)
        varpi = np.unwrap(np.arctan2(z, x))
        # osculating semi-major axis at each passage: the moving perturber
        # exchanges energy with the planet, and the frozen comparison must
        # target the orbit the planet is currently on, not the initial one
        axis = 1.0 / (2.0 / np.hypot(x, z) - (vx * vx + vz * vz))
        return times, varpi, axis

    times, varpi, axis = run(_ORBIT_RTOL, _ORBIT_ATOL)
    t1, t2 = float(times[0]), float(times[-1])
    count = len(times)
    full_phase = TWO_PI * (count - 1)

    if cfg.m_jupiter > 0.0:
        rates = TWO_PI / celestial_frozen_period(cfg, phis)
    else:
        rates = np.full(len(phis), TWO_PI / t_e)
    adiabatic = _adiabatic_phase(rates, phi0, omega_j, times, varpi, axis)
    residual = full_phase - adiabatic
    dynamical = adiabatic - TWO_PI * (t2 - t1) / t_e

    gap = None
    if check_convergence:
        times_loose, varpi_loose, axis_loose = run(_ORBIT_RTOL * 1e3,
                                                   _ORBIT_ATOL * 1e3)
        if len(times_loose) != count:
            raise QuadratureError("perihelion count changed under tolerance refinement")
        adiab_loose = _adiabatic_phase(rates, phi0, omega_j, times_loose,
                                       varpi_loose, axis_loose)
        gap = abs((full_phase - adiab_loose) - residual)
        floor = 1e-5
        if gap > floor and gap > 0.3 * abs(residual):
            raise QuadratureError(
                f"residual not converged: gap {gap:.3e} vs residual {residual:.3e}")

    cycles = (t2 - t1) / t_j
    return CelestialResidual(residual=residual,
                             dynamical_correction=dynamical,
                             perihelion_count=count,
                             per_cycle_residual=residual / cycles,
                             convergence_gap=gap)
