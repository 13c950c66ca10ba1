"""Classical adiabatic analogs: pendulum flavor transfer and orbital delay.

Three families live here.  First, two weakly coupled pendulums whose length
sweep drags the system through a normal-mode avoided crossing: the classical
analog of adiabatic flavor conversion, with the matching quantum two-level
sweep and its Landau-Zener oracle.  Second, the rectangular loop in the
(detuning, coupling) plane around the degeneracy at the origin, whose Wilson
phase is pi and whose half-loop transport squares to -1.  Third, a planet
orbiting a fixed sun while a slow outer perturber circles: the frozen-probe
period prediction versus the fully integrated orbital phase, whose mismatch
is the adiabatic residual.

Orbit integrations use DOP853 with rtol 1e-12 / atol 1e-13 by default; the
pendulum ODE runs at rtol 1e-10 / atol 1e-12.  All units are G = hbar = 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (DynamicsError, GeometryError, IntegratorError,
                     QuadratureError, RegimeWarning)
from . import berry
from .qcore import (HamiltonianSchedule, StateVector, evolve_with_energy,
                    instantaneous_eigensystem, wrap_angle)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# length schedules

class FrozenLength:
    """Constant pendulum length."""

    def __init__(self, length: float):
        if length <= 0.0:
            raise ValueError("length must be positive")
        self.length = float(length)

    def value(self, t: float) -> float:
        return self.length

    def second(self, t: float) -> float:
        return 0.0


class ArctanDetuningRamp:
    """Constant-adiabaticity sweep of the frequency detuning.

    The detuning delta = omega_mu - omega_e runs from +delta_max down to
    -delta_max with local rate crossing_rate * (1 + (delta/width)^2): slowest
    where the normal modes hybridize (|delta| < width), accelerating in the
    far wings where nothing happens.  width should be the detuning scale of
    the avoided crossing, kappa/omega for spring coupling kappa.  The length
    l_e(t) = g/(omega_mu - delta(t))^2 follows, with analytic second
    derivative for the support term.
    """

    def __init__(self, l_mu: float, g: float, delta_max: float,
                 crossing_rate: float, width: float):
        if l_mu <= 0.0 or g <= 0.0:
            raise ValueError("l_mu and g must be positive")
        if delta_max <= 0.0 or crossing_rate <= 0.0 or width <= 0.0:
            raise ValueError("delta_max, crossing_rate, width must be positive")
        omega_mu = math.sqrt(g / l_mu)
        if delta_max >= omega_mu:
            raise ValueError("delta_max must stay below omega_mu (length blows up)")
        self.g = float(g)
        self.omega_mu = omega_mu
        self.width = float(width)
        self.theta0 = math.atan(delta_max / width)
        self.theta_rate = crossing_rate / width
        self.duration = 2.0 * self.theta0 / self.theta_rate

    def _delta(self, t: float) -> float:
        theta = self.theta0 - self.theta_rate * min(max(t, 0.0), self.duration)
        return self.width * math.tan(theta)

    def value(self, t: float) -> float:
        return self.g / (self.omega_mu - self._delta(t)) ** 2

    def second(self, t: float) -> float:
        if t < 0.0 or t > self.duration:
            return 0.0
        theta = self.theta0 - self.theta_rate * t
        sec2 = 1.0 / math.cos(theta) ** 2
        d = self.width * math.tan(theta)
        d1 = -self.width * self.theta_rate * sec2
        d2 = 2.0 * self.width * self.theta_rate ** 2 * sec2 * math.tan(theta)
        w = self.omega_mu - d
        return 2.0 * self.g * d2 / w ** 3 + 6.0 * self.g * d1 * d1 / w ** 4


# ---------------------------------------------------------------------------
# coupled pendulums

@dataclass(frozen=True)
class PendulumSystem:
    """Two pendulums, spring-coupled; the 'e' length follows a schedule
    with value(t) and second(t), the length and its second derivative.

    kappa is the spring constant per unit mass (1/time^2).  The weak-coupling
    regime kappa << g/l is recorded by pendulum_sweep, never enforced.
    """

    length_schedule: object
    l_mu: float
    kappa: float
    g: float = 1.0
    state: tuple = (1.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        if self.l_mu <= 0.0 or self.g <= 0.0:
            raise ValueError("l_mu and g must be positive")
        if self.kappa < 0.0:
            raise ValueError("kappa must be non-negative")
        if len(self.state) != 4:
            raise ValueError("state is (x_e, v_e, x_mu, v_mu)")


@dataclass(frozen=True)
class TransferReport:
    """Energy bookkeeping of a length sweep.

    fraction is the share of the final energy attributed to the mu pendulum
    in the instantaneous normal-mode basis at the frozen final lengths.
    flavor_energies columns: e pendulum, mu pendulum, spring.  mode_energies
    columns: lower mode, upper mode.  energy_drift is filled only when the
    schedule is constant (conservation check), else None.
    """

    fraction: float
    times: np.ndarray
    flavor_energies: np.ndarray
    mode_energies: np.ndarray
    total_energy: np.ndarray
    energy_drift: float | None
    weak_coupling_ratio: float


def _stiffness(we2: float, wm2: float, kappa: float) -> np.ndarray:
    return np.array([[we2 + kappa, -kappa], [-kappa, wm2 + kappa]])


def _mode_split(x: np.ndarray, v: np.ndarray, stiffness: np.ndarray):
    # energy per normal mode and its mu-flavor attribution
    vals, vecs = np.linalg.eigh(stiffness)
    qx = vecs.T @ x
    qv = vecs.T @ v
    energies = 0.5 * qv ** 2 + 0.5 * vals * qx ** 2
    mu_share = float(np.dot(energies, vecs[1, :] ** 2))
    return energies, mu_share


def pendulum_sweep(system: PendulumSystem, duration: float,
                   rtol: float = 1e-10, atol: float = 1e-12,
                   samples: int = 1200) -> TransferReport:
    """Integrate the coupled small-angle equations through a length sweep.

    Displacement coordinates x = l * angle obey
    x_e'' = -((g - l_e'')/l_e) x_e - kappa (x_e - x_mu); the l'' term is the
    support-acceleration correction.  duration = 0 is the sudden limit:
    state unchanged, attributed directly at the final lengths.

    Raises IntegratorError when a constant schedule shows relative energy
    drift above 1e-6 (the integrator, not the physics, is then at fault).
    """
    if duration < 0.0:
        raise ValueError("duration must be non-negative")
    sched = system.length_schedule
    g = system.g
    kappa = system.kappa
    wm2 = g / system.l_mu

    probe = np.linspace(0.0, duration, 33) if duration > 0.0 else np.zeros(1)
    lengths = np.array([sched.value(t) for t in probe])
    if np.any(lengths <= 0.0):
        raise ValueError("length schedule must stay positive")
    frozen = float(np.ptp(lengths)) <= 1e-12 * float(np.max(lengths))
    weak = kappa / min(wm2, g / float(np.max(lengths)))

    y0 = np.asarray(system.state, dtype=float)
    if duration == 0.0:
        times = np.zeros(1)
        ys = y0.reshape(1, 4)
    else:
        if frozen:
            we2_const = g / float(lengths[0])  # skip schedule calls in the hot loop

            def rhs(t, y):
                ax_e = -we2_const * y[0] - kappa * (y[0] - y[2])
                ax_m = -wm2 * y[2] - kappa * (y[2] - y[0])
                return (y[1], ax_e, y[3], ax_m)
        else:
            def rhs(t, y):
                le = sched.value(t)
                acc = sched.second(t)
                ax_e = -((g - acc) / le) * y[0] - kappa * (y[0] - y[2])
                ax_m = -wm2 * y[2] - kappa * (y[2] - y[0])
                return (y[1], ax_e, y[3], ax_m)

        times = np.linspace(0.0, duration, samples)
        sol = solve_ivp(rhs, (0.0, duration), y0, method="DOP853",
                        rtol=rtol, atol=atol, t_eval=times, dense_output=False)
        if not sol.success:
            raise IntegratorError(f"pendulum integration failed: {sol.message}")
        ys = sol.y.T

    n = len(times)
    flavor = np.empty((n, 3))
    modes = np.empty((n, 2))
    total = np.empty(n)
    for i, t in enumerate(times):
        le = sched.value(t) if duration > 0.0 else sched.value(0.0)
        we2 = g / le
        xe, ve, xm, vm = ys[i]
        flavor[i] = (0.5 * ve * ve + 0.5 * we2 * xe * xe,
                     0.5 * vm * vm + 0.5 * wm2 * xm * xm,
                     0.5 * kappa * (xe - xm) ** 2)
        x = np.array([xe, xm])
        v = np.array([ve, vm])
        energies, _ = _mode_split(x, v, _stiffness(we2, wm2, kappa))
        modes[i] = energies
        total[i] = flavor[i].sum()

    drift = None
    if frozen:
        drift = float(np.max(np.abs(total - total[0])) / total[0])
        if drift > 1e-6:
            raise IntegratorError(
                f"energy drift {drift:.3e} with frozen lengths exceeds 1e-6")

    le_end = sched.value(times[-1]) if duration > 0.0 else sched.value(0.0)
    xe, ve, xm, vm = ys[-1]
    _, mu_share = _mode_split(np.array([xe, xm]), np.array([ve, vm]),
                              _stiffness(g / le_end, wm2, kappa))
    tot_end = float(total[-1])
    fraction = mu_share / tot_end if tot_end > 0.0 else 0.0
    return TransferReport(fraction=fraction, times=times,
                          flavor_energies=flavor, mode_energies=modes,
                          total_energy=total, energy_drift=drift,
                          weak_coupling_ratio=float(weak))


def msw_benchmark_system(kappa: float = 0.025, delta_max: float = 0.34,
                         crossing_rate: float | None = None, l_mu: float = 1.0,
                         g: float = 1.0) -> tuple[PendulumSystem, float]:
    """Standard flavor-transfer setup: returns (system, sweep duration).

    The e pendulum starts longer (detuning +delta_max), sweeps through the
    crossing, ends shorter.  All initial energy sits in the e displacement.
    The effective two-level coupling is epsilon = kappa/(2 omega_mu); the
    default crossing rate 0.01 epsilon^2 is deep in the adiabatic regime.

    A pure flavor start is not an exact normal mode, so the transfer
    fraction saturates below 1 at roughly 1 - 2 (kappa / d(omega^2))^2,
    the endpoint misalignment; kappa = 0.025 puts the ceiling near 0.995.
    """
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

@dataclass(frozen=True)
class TwoLevelSweep:
    """H(t) = epsilon sigma1 + delta(t) sigma3 over [0, duration].

    The detuning must be vectorized: it maps an array of times to a finite
    real array of the same shape (checked on [0, duration] at construction).
    sweep_rate is metadata set by linear_two_level_sweep; when present the
    outcome carries the Landau-Zener comparison.  epsilon = 0 is allowed
    (levels cross freely, nothing converts).
    """

    epsilon: float
    detuning: Callable[[np.ndarray], np.ndarray]
    duration: float
    sweep_rate: float | None = None

    def __post_init__(self):
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be non-negative")
        if self.duration <= 0.0:
            raise ValueError("duration must be positive")
        if not callable(self.detuning):
            raise ValueError("detuning must be callable")
        try:
            probe = np.asarray(self.detuning(np.array([0.0, self.duration])))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"detuning must accept an array of times: {exc}") from exc
        if (probe.shape != (2,) or probe.dtype.kind not in "fiu"
                or not np.isfinite(probe).all()):
            raise ValueError("detuning must map an array of times to a finite "
                             "real array of the same shape")


def linear_two_level_sweep(epsilon: float, rate: float,
                           span_factor: float = 14.0) -> TwoLevelSweep:
    """Linear detuning delta = -D + rate*t with D = span_factor * max(eps, sqrt(rate)).

    The window must dwarf both the gap (epsilon) and the Landau-Zener time
    sqrt(rate); span_factor 14 keeps the finite-window ripple comfortably
    inside the 2% oracle tolerance.
    """
    if rate <= 0.0:
        raise ValueError("rate must be positive")
    span = span_factor * max(epsilon, math.sqrt(rate))
    duration = 2.0 * span / rate
    return TwoLevelSweep(epsilon=epsilon,
                         detuning=lambda t: -span + rate * t,
                         duration=duration, sweep_rate=rate)


@dataclass(frozen=True)
class ConversionReport:
    conversion: float
    survival: float
    lz_conversion: float | None
    lz_deviation: float | None


def two_level_sweep(s: TwoLevelSweep, step_scale: float = 0.04) -> ConversionReport:
    """Evolve the ground-flavor state through the sweep; report conversion.

    Starts in the instantaneous ground state at t = 0 (the 'e' flavor up to
    an O(epsilon/|delta|) tilt when delta << -epsilon) and measures the
    final weight on the instantaneous ground state at t = duration (the
    'mu' flavor up to the same tilt).  Reading out in the eigenbasis keeps
    the finite sweep window from polluting the comparison with mixing-angle
    interference; for a linear sweep the Landau-Zener diabatic probability
    exp(-pi eps^2 / rate) gives lz_conversion = 1 - that.
    """
    eps = s.epsilon
    sched = HamiltonianSchedule(lambda t: (0.0, eps, 0.0, s.detuning(t)),
                                s.duration)
    h_scale = max(abs(s.detuning(0.0)), abs(s.detuning(s.duration)), eps, 1e-12)
    step = step_scale / h_scale
    psi0 = StateVector(
        instantaneous_eigensystem(sched.operator(0.0)).vectors[:, 0])
    final, _ = evolve_with_energy(sched, psi0, step)
    ground_end = instantaneous_eigensystem(
        sched.operator(s.duration)).vectors[:, 0]
    conversion = float(abs(np.vdot(ground_end, final.amplitudes)) ** 2)
    survival = 1.0 - conversion
    lz = None
    dev = None
    if s.sweep_rate is not None:
        lz = 1.0 - math.exp(-math.pi * eps * eps / s.sweep_rate)
        dev = abs(conversion - lz)
    return ConversionReport(conversion=conversion, survival=survival,
                            lz_conversion=lz, lz_deviation=dev)


# ---------------------------------------------------------------------------
# rectangular loop around the degeneracy

def rectangle_path(delta0: float, epsilon0: float, samples: int,
                   center: tuple = (0.0, 0.0)) -> np.ndarray:
    """Closed rectangle (center +- delta0, center +- epsilon0), sampled
    uniformly by arc length.  Columns: (delta, epsilon).  Starts at the
    (+delta0, +epsilon0) corner and first crosses to negative detuning."""
    if delta0 <= 0.0 or epsilon0 <= 0.0:
        raise ValueError("delta0 and epsilon0 must be positive")
    if samples < 8:
        raise ValueError("need at least 8 samples")
    cd, ce = float(center[0]), float(center[1])
    corners = np.array([[cd + delta0, ce + epsilon0],
                        [cd - delta0, ce + epsilon0],
                        [cd - delta0, ce - epsilon0],
                        [cd + delta0, ce - epsilon0],
                        [cd + delta0, ce + epsilon0]])
    seg = np.linalg.norm(np.diff(corners, axis=0), axis=1)
    perimeter = seg.sum()
    arc = np.linspace(0.0, perimeter, samples, endpoint=False)
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


def _warped_rectangle(delta0: float, epsilon0: float, center: tuple,
                      mu: float, knots_per_edge: int = 2000):
    """Time table for traversing the rectangle at speed mu * gap^2.

    gap^2 means 4 (delta^2 + epsilon^2), the squared level splitting, so the
    local adiabaticity parameter speed/gap^2 is held constant at mu: slow
    through the resonance crossings, fast in the far wings.  Per-edge times
    come from the exact arctan antiderivative of 1/(x^2 + c^2).  Returns
    (times, deltas, epsilons) knot arrays.
    """
    cd, ce = float(center[0]), float(center[1])
    corners = np.array([[cd + delta0, ce + epsilon0],
                        [cd - delta0, ce + epsilon0],
                        [cd - delta0, ce - epsilon0],
                        [cd + delta0, ce - epsilon0],
                        [cd + delta0, ce + epsilon0]])
    for k in range(4):
        if _segment_origin_distance(corners[k], corners[k + 1]) < 1e-9:
            raise GeometryError("loop boundary passes through the degeneracy")

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

        xs = np.linspace(x1, x2, knots_per_edge + 1)[1:]
        tk = t0 + np.abs(anti(xs) - anti(x1))
        if e1 == e2:
            ds.append(xs)
            es.append(np.full(knots_per_edge, e1))
        else:
            ds.append(np.full(knots_per_edge, d1))
            es.append(xs)
        ts.append(tk)
        t0 = float(tk[-1])
    return np.concatenate(ts), np.concatenate(ds), np.concatenate(es)


def _winding(path: np.ndarray) -> int:
    ang = np.arctan2(path[:, 1], path[:, 0])
    closed = np.append(ang, ang[0])
    return int(round(np.sum(np.vectorize(wrap_angle)(np.diff(closed))) / TWO_PI))


@dataclass(frozen=True)
class RectangleLoop:
    """wilson_phase from the discrete loop; the rest from real-time transport.

    The transport runs the full rectangle as two composed half-circuits
    (sweep through resonance plus coupling-sign flip, applied twice).
    half_loop_square_deviation is || psi_final * exp(+i int E dt)
    - (-1)^winding psi_0 ||, the distance from the transposition-squared
    prediction after dynamical-phase removal.  transposition_fidelity is the
    overlap modulus of the midpoint state with the instantaneous ground
    state there.
    """

    wilson_phase: float
    winding: int
    half_loop_geometric: float
    half_loop_overlap: float
    transposition_fidelity: float
    half_loop_square_deviation: float
    transport_duration: float


def rectangular_loop_phase(epsilon0: float, delta0: float, samples: int = 2000,
                           center: tuple = (0.0, 0.0),
                           adiabaticity: float = 1e-3,
                           transport_step: float = 0.01) -> RectangleLoop:
    """Wilson phase and adiabatic transport around the (delta, epsilon) rectangle.

    For H = epsilon sigma1 + delta sigma3 the degeneracy sits at the origin;
    a rectangle enclosing it carries Wilson phase pi, one that misses it
    carries 0.  The transport traverses the loop at parameter speed
    adiabaticity * gap^2, which keeps the residual cone correction to the
    geometric phase at O(adiabaticity) uniformly along the path.  Warns
    (RegimeWarning) when delta0 < 10 epsilon0: the corners then sit too
    close to resonance for the 'nothing further happens there' reading of
    the coupling-sign flip.
    """
    if delta0 < 10.0 * epsilon0:
        warnings.warn("corners at delta0 < 10*epsilon0 sit close to resonance",
                      RegimeWarning, stacklevel=2)
    path = rectangle_path(delta0, epsilon0, samples, center)
    directions = np.column_stack(
        (path[:, 1], np.zeros(len(path)), path[:, 0]))
    wilson = berry.wilson_loop_phase(directions)
    winding = _winding(path)

    knots = 2000
    times, dk, ek = _warped_rectangle(delta0, epsilon0, center, adiabaticity,
                                      knots)
    t_half = float(times[2 * knots])
    t_full = float(times[-1])

    def coefficients(t: np.ndarray):
        return 0.0, np.interp(t, times, ek), 0.0, np.interp(t, times, dk)

    sched_a = HamiltonianSchedule(coefficients, t_half)
    sched_b = HamiltonianSchedule(lambda t: coefficients(t + t_half),
                                  t_full - t_half)
    psi0 = StateVector(
        instantaneous_eigensystem(sched_a.operator(0.0)).vectors[:, 0])
    mid, energy_a = evolve_with_energy(sched_a, psi0, transport_step)
    ground_mid = instantaneous_eigensystem(sched_b.operator(0.0)).vectors[:, 0]
    fidelity = float(abs(np.vdot(ground_mid, mid.amplitudes)))
    final, energy_b = evolve_with_energy(sched_b, mid, transport_step)

    energy = energy_a + energy_b
    overlap = complex(np.vdot(psi0.amplitudes, final.amplitudes))
    geometric = wrap_angle(np.angle(overlap) + energy)
    corrected = final.amplitudes * np.exp(1j * energy)
    target = psi0.amplitudes if winding % 2 == 0 else -psi0.amplitudes
    deviation = float(np.linalg.norm(corrected - target))
    return RectangleLoop(wilson_phase=wilson, winding=winding,
                         half_loop_geometric=geometric,
                         half_loop_overlap=float(abs(overlap)),
                         transposition_fidelity=fidelity,
                         half_loop_square_deviation=deviation,
                         transport_duration=t_full)


# ---------------------------------------------------------------------------
# celestial adiabatic period shift

@dataclass(frozen=True)
class CelestialConfig:
    """Planet around a fixed sun, outer perturber on a prescribed circle.

    Units G = m_sun = r_earth = 1.  t_jupiter defaults to the Kepler period
    for r_jupiter about the sun.  The planet starts at perihelion on the +x
    axis of a near-circular orbit with the given eccentricity (semi-major
    axis r_earth, so the unperturbed period is the Kepler one exactly).

    The default eccentricity keeps the apsis line stiff: the free radial
    oscillation must dominate the perturber-forced wiggles or perihelion
    bookkeeping stops being first order in m_jupiter (at e ~ 1e-3 the
    Kepler start rings against the perturbed orbit for tens of periods).
    """

    m_jupiter: float
    r_jupiter: float
    m_sun: float = 1.0
    g_const: float = 1.0
    r_earth: float = 1.0
    eccentricity: float = 0.05
    t_jupiter: float | None = None

    def __post_init__(self):
        if self.m_sun <= 0.0 or self.g_const <= 0.0 or self.r_earth <= 0.0:
            raise ValueError("m_sun, g_const, r_earth must be positive")
        if self.m_jupiter < 0.0:
            raise ValueError("m_jupiter must be non-negative")
        if self.m_jupiter > 0.05 * self.m_sun:
            raise ValueError("perturber mass must stay small, m_j <= 0.05 m_sun")
        if self.r_jupiter <= self.r_earth:
            raise ValueError("perturber must orbit outside the planet")
        if not 0.0 <= self.eccentricity <= 0.1:
            raise ValueError("eccentricity limited to [0, 0.1]")
        if self.t_jupiter is not None and self.t_jupiter <= 0.0:
            raise ValueError("t_jupiter must be positive")

    @property
    def jupiter_period(self) -> float:
        if self.t_jupiter is not None:
            return self.t_jupiter
        return TWO_PI * math.sqrt(self.r_jupiter ** 3 /
                                  (self.g_const * self.m_sun))

    def initial_state(self) -> np.ndarray:
        mu = self.g_const * self.m_sun
        a = self.r_earth
        e = self.eccentricity
        rp = a * (1.0 - e)
        vp = math.sqrt(mu * (1.0 + e) / rp)
        return np.array([rp, 0.0, 0.0, vp])


def kepler_period(cfg: CelestialConfig) -> float:
    return TWO_PI * math.sqrt(cfg.r_earth ** 3 / (cfg.g_const * cfg.m_sun))


def force_ratio(cfg: CelestialConfig) -> float:
    """Perturber-to-sun force ratio at closest approach geometry."""
    return (cfg.m_jupiter / cfg.m_sun) * cfg.r_earth ** 2 / \
        (cfg.r_jupiter - cfg.r_earth) ** 2


def _make_events(cfg: CelestialConfig):
    r_min = 0.01 * cfg.r_earth
    r_max = 2.5 * cfg.r_jupiter

    def collision(t, y):
        return math.hypot(y[0], y[1]) - r_min

    def escape(t, y):
        return math.hypot(y[0], y[1]) - r_max

    collision.terminal = True
    escape.terminal = True
    return collision, escape


def _integrate(cfg: CelestialConfig, jupiter_angle, t_max: float,
               rtol: float, atol: float):
    """Integrate the planet; jupiter_angle is a callable t -> angle, or None
    for no perturber.  Raises DynamicsError on collision or escape."""
    mu = cfg.g_const * cfg.m_sun
    muj = cfg.g_const * cfg.m_jupiter
    rj = cfg.r_jupiter

    if jupiter_angle is None or muj == 0.0:
        def rhs(t, y):
            x, z, vx, vz = y
            r3 = (x * x + z * z) ** 1.5
            return (vx, vz, -mu * x / r3, -mu * z / r3)
    else:
        def rhs(t, y):
            x, z, vx, vz = y
            r3 = (x * x + z * z) ** 1.5
            ax = -mu * x / r3
            az = -mu * z / r3
            ang = jupiter_angle(t)
            dx = x - rj * math.cos(ang)
            dz = z - rj * math.sin(ang)
            d3 = (dx * dx + dz * dz) ** 1.5
            return (vx, vz, ax - muj * dx / d3, az - muj * dz / d3)

    collision, escape = _make_events(cfg)
    sol = solve_ivp(rhs, (0.0, t_max), cfg.initial_state(), method="DOP853",
                    rtol=rtol, atol=atol, dense_output=True,
                    events=(collision, escape))
    if sol.t_events[0].size:
        raise DynamicsError(f"planet collided with the sun at t = {sol.t_events[0][0]:.3f}")
    if sol.t_events[1].size:
        raise DynamicsError(f"planet escaped past 2.5 r_jupiter at t = {sol.t_events[1][0]:.3f}")
    if not sol.success:
        raise DynamicsError(f"orbit integration failed: {sol.message}")
    return sol


def _refine_apsis(geval, ta: float, tb: float, rounds: int = 3) -> float:
    # quadratic fit of r.v on a shrinking window; error ~ (window)^3
    lo, hi = ta, tb
    root = 0.5 * (ta + tb)
    for _ in range(rounds):
        ts = np.linspace(lo, hi, 7)
        gs = geval(ts)
        coeff = np.polyfit(ts - root, gs, 2)
        cand = np.roots(coeff) + root
        cand = cand[np.isreal(cand)].real
        if cand.size == 0:
            break
        root = float(cand[np.argmin(np.abs(cand - 0.5 * (lo + hi)))])
        span = (hi - lo) / 20.0
        lo, hi = root - span, root + span
    return root


def _radial_velocity_eval(sol, mirror: bool = False):
    """r.v along the dense solution; mirror evaluates the time-reflected
    trajectory tau -> state(-tau), whose r.v flips sign."""
    if mirror:
        def geval(ts):
            ys = sol.sol(-np.asarray(ts))
            return -(ys[0] * ys[2] + ys[1] * ys[3])
    else:
        def geval(ts):
            ys = sol.sol(np.asarray(ts))
            return ys[0] * ys[2] + ys[1] * ys[3]
    return geval


def _perihelion_times(sol, cfg: CelestialConfig, t_end: float,
                      mirror: bool = False) -> np.ndarray:
    t_kep = kepler_period(cfg)
    geval = _radial_velocity_eval(sol, mirror)
    grid = np.arange(0.3 * t_kep, t_end, t_kep / 400.0)
    g = geval(grid)
    crossings = np.nonzero((g[:-1] < 0.0) & (g[1:] >= 0.0))[0]
    times = [_refine_apsis(geval, grid[i], grid[i + 1]) for i in crossings]
    return np.asarray(times)


def celestial_frozen_period(cfg: CelestialConfig, phi: float,
                            rtol: float = 1e-12, atol: float = 1e-13,
                            orbits: float = 8.5) -> float:
    """Radial period with the perturber frozen at angle phi.

    Integrates the static two-center field over a window centred on the
    start time (half of `orbits` each way) and averages successive
    perihelion-to-perihelion gaps, apsis times taken from sign changes of
    r.v refined by local quadratic fits on the dense output.

    The window is short and centred on purpose.  Short: the frozen
    perturber slowly precesses the apsis line, so a long average would
    blur periods across orientations instead of measuring the
    instantaneous one.  Centred: the leading precession bias is odd in
    time and cancels between the two half-windows, and mirroring the
    backward branch makes the measurement even in phi exactly (the
    time-reversed run at angle phi is the mirror of the forward run at
    -phi).
    """
    t_half = 0.5 * orbits * kepler_period(cfg)
    ang = (lambda t: phi) if cfg.m_jupiter > 0.0 else None
    fwd = _integrate(cfg, ang, t_half, rtol, atol)
    back = _integrate(cfg, ang, -t_half, rtol, atol)
    ahead = _perihelion_times(fwd, cfg, t_half)
    behind = _perihelion_times(back, cfg, t_half, mirror=True)
    if len(ahead) + len(behind) < 4:
        raise DynamicsError("fewer than four perihelion passages detected")
    # gaps within each branch only: the start apsis sits between the two
    # detection windows, so a gap across t = 0 would span two periods
    gaps = np.concatenate((np.diff(behind), np.diff(ahead)))
    if gaps.size == 0:
        raise DynamicsError("no perihelion-to-perihelion gap on either side")
    return float(np.mean(gaps))


def frozen_period_grid(cfg: CelestialConfig, nodes: int = 32,
                       rtol: float = 1e-12, atol: float = 1e-13,
                       orbits: float = 8.5):
    """Frozen-probe period on a uniform perturber-angle grid.

    Returns (angles, periods).
    """
    if nodes < 4 or nodes % 2:
        raise ValueError("nodes must be an even number >= 4")
    phis = TWO_PI * np.arange(nodes) / nodes
    periods = [celestial_frozen_period(cfg, p, rtol, atol, orbits)
               for p in phis]
    return phis, np.asarray(periods)


def orbit_conservation(cfg: CelestialConfig, orbits: float = 100.0,
                       rtol: float = 1e-12, atol: float = 1e-13,
                       samples: int = 2000) -> tuple[float, float]:
    """Worst relative drift of (energy, angular momentum) along the orbit.

    Meaningful as a conservation check only with the perturber removed;
    with m_jupiter > 0 the returned numbers include the real physical
    exchange with the moving perturber, not integrator error.
    """
    t_max = orbits * kepler_period(cfg)
    omega_j = TWO_PI / cfg.jupiter_period
    ang = (lambda t: omega_j * t) if cfg.m_jupiter > 0.0 else None
    sol = _integrate(cfg, ang, t_max, rtol, atol)
    ts = np.linspace(0.0, t_max, samples)
    x, z, vx, vz = sol.sol(ts)
    mu = cfg.g_const * cfg.m_sun
    energy = 0.5 * (vx * vx + vz * vz) - mu / np.hypot(x, z)
    angmom = x * vz - z * vx
    e_drift = float(np.abs(energy - energy[0]).max() / abs(energy[0]))
    l_drift = float(np.abs(angmom - angmom[0]).max() / abs(angmom[0]))
    return e_drift, l_drift


def _trig_series_integral(values: np.ndarray, phi0: float, omega: float,
                          t1: float, t2: float) -> float:
    """Integral over [t1, t2] of f(phi0 + omega t) where f is the unique
    trig polynomial through values on the uniform angle grid.  Exact."""
    n = len(values)
    c = np.fft.rfft(values)
    total = (c[0].real / n) * (t2 - t1)
    for m in range(1, n // 2 + 1):
        a = 2.0 * c[m].real / n
        b = -2.0 * c[m].imag / n
        if m == n // 2:
            a *= 0.5
            b = 0.0
        if omega == 0.0:
            total += (a * math.cos(m * phi0) + b * math.sin(m * phi0)) * \
                (t2 - t1)
            continue
        w = m * omega
        s2, s1 = math.sin(m * phi0 + w * t2), math.sin(m * phi0 + w * t1)
        c2, c1 = math.cos(m * phi0 + w * t2), math.cos(m * phi0 + w * t1)
        total += a * (s2 - s1) / w - b * (c2 - c1) / w
    return total


@dataclass(frozen=True)
class CelestialResidual:
    """Full orbital phase minus the frozen-probe adiabatic prediction.

    dynamical_correction is the adiabatic prediction minus the unperturbed
    Kepler phase over the same window: the ordinary (non-geometric) part of
    the delay.  convergence_gap is the change of the residual when the
    integration tolerance is loosened a thousandfold; None when the
    convergence check is skipped.
    """

    residual: float
    full_phase: float
    adiabatic_phase: float
    dynamical_correction: float
    perihelion_count: int
    window: tuple
    per_cycle_residual: float
    per_cycle_dynamical: float
    convergence_gap: float | None


def celestial_adiabatic_residual(cfg: CelestialConfig, n_periods: float = 1.0,
                                 phi0: float = 0.0, nodes: int = 32,
                                 rtol: float = 1e-12, atol: float = 1e-13,
                                 check_convergence: bool = True) -> CelestialResidual:
    """Adiabatic residual of the orbital phase over n perturber cycles.

    The full run integrates the planet with the perturber moving on its
    circle.  The orbital phase between the first and last perihelion is
    2 pi (count - 1); the adiabatic prediction integrates 2 pi / T'(phi_rel)
    with T' the frozen-probe period interpolated trigonometrically from the
    node grid.  Two slow osculating elements of the run itself enter the
    prediction: the apsis angle (the frozen problem is parametrized by the
    perturber angle measured from the apsis line, which precesses) and the
    semi-major axis (the moving perturber exchanges energy with the planet,
    and T' must be rescaled by a^(3/2) to the orbit the planet is actually
    on).  Skipping either correction misattributes ordinary first-order
    element drift to the residual and inflates it by orders of magnitude.
    The residual is the leftover after the frozen-field prediction is
    accounted for.

    Raises QuadratureError when the residual fails to stabilize under
    tolerance refinement.
    """
    t_j = cfg.jupiter_period
    t_e = kepler_period(cfg)
    if t_j < 5.0 * t_e:
        raise ValueError("adiabatic regime requires t_jupiter >= 5 t_earth")
    omega_j = TWO_PI / t_j
    t_max = n_periods * t_j + 1.5 * t_e

    mu = cfg.g_const * cfg.m_sun

    def run(rt, at):
        sol = _integrate(cfg, lambda t: phi0 + omega_j * t, t_max, rt, at)
        times = _perihelion_times(sol, cfg, t_max)
        if len(times) < 3:
            raise DynamicsError("fewer than three perihelion passages detected")
        x, z, vx, vz = sol.sol(times)
        varpi = np.unwrap(np.arctan2(z, x))
        # osculating semi-major axis at each passage: the moving perturber
        # exchanges energy with the planet, and the frozen comparison must
        # target the orbit the planet is currently on, not the initial one
        axis = 1.0 / (2.0 / np.hypot(x, z) - (vx * vx + vz * vz) / mu)
        return times, varpi, axis

    def adiabatic_phase(rates, times, varpi, axis):
        # piecewise-linear apsis angle keeps each segment's grid argument
        # affine in t, so the trig-series integral stays exact per segment;
        # the Kepler scaling T ~ a^(3/2) rescales the segment's rate to the
        # osculating orbit (covariance of the two factors is ~1e-6 here)
        total = 0.0
        for k in range(len(times) - 1):
            ta, tb = float(times[k]), float(times[k + 1])
            slope = (varpi[k + 1] - varpi[k]) / (tb - ta)
            w = omega_j - slope
            if abs(w) < 1e-12 * omega_j:
                mid = phi0 + omega_j * 0.5 * (ta + tb) - \
                    0.5 * (varpi[k] + varpi[k + 1])
                seg = _trig_series_integral(rates, mid, 0.0, ta, tb)
            else:
                off = phi0 - varpi[k] + slope * ta
                seg = _trig_series_integral(rates, off, w, ta, tb)
            a_mid = 0.5 * (axis[k] + axis[k + 1]) / cfg.r_earth
            total += seg * a_mid ** -1.5
        return total

    times, varpi, axis = run(rtol, atol)
    t1, t2 = float(times[0]), float(times[-1])
    count = len(times)
    full_phase = TWO_PI * (count - 1)

    if cfg.m_jupiter > 0.0:
        phis, periods = frozen_period_grid(cfg, nodes, rtol, atol)
        rates = TWO_PI / periods
    else:
        rates = np.full(nodes, TWO_PI / t_e)
    adiabatic = adiabatic_phase(rates, times, varpi, axis)
    residual = full_phase - adiabatic
    dynamical = adiabatic - TWO_PI * (t2 - t1) / t_e

    gap = None
    if check_convergence:
        times_loose, varpi_loose, axis_loose = run(rtol * 1e3, atol * 1e3)
        if len(times_loose) != count:
            raise QuadratureError("perihelion count changed under tolerance refinement")
        adiab_loose = adiabatic_phase(rates, times_loose, varpi_loose,
                                      axis_loose)
        gap = abs((full_phase - adiab_loose) - residual)
        floor = 1e-5
        if gap > floor and gap > 0.3 * abs(residual):
            raise QuadratureError(
                f"residual not converged: gap {gap:.3e} vs residual {residual:.3e}")

    cycles = (t2 - t1) / t_j
    return CelestialResidual(residual=residual, full_phase=full_phase,
                             adiabatic_phase=adiabatic,
                             dynamical_correction=dynamical,
                             perihelion_count=count, window=(t1, t2),
                             per_cycle_residual=residual / cycles,
                             per_cycle_dynamical=dynamical / cycles,
                             convergence_gap=gap)
