"""Two-level quantum kernel: states, propagation, phase bookkeeping.

Conventions used throughout the package: hbar = 1, the propagator over a step
is exp(-i H dt), and reported angles live in (-pi, pi].  States hold two
amplitudes, and a time-dependent Hamiltonian is its field, H = a . sigma,
given as a vectorized function of time; everything is solved in closed
form, so that evolution is exactly unitary up to roundoff.  The one
propagator kernel, _propagate, samples the field over whole chunks of its
midpoint grid and builds every step, an SU(2) matrix, as an array of its
Cayley-Klein pair (its first column); the states come from a blocked prefix
product of those steps, recursive over the block starts, so that at most
_BLOCK of them per chunk march one by one.  The one eigenbasis,
field_eigenvectors, comes for a whole stack of fields at once: the Wilson
loop in berry uses it, and so does ground_state, which gives the
propagator its start and end states.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import CyclicityError, ScheduleError

_NORM_TOL = 1e-12
_HERM_TOL = 1e-12
_CYCLIC_OVERLAP = 0.99
# propagator steps built as arrays at once: bounds memory, not accuracy
_CHUNK = 4096
# steps per block on each level of the state march, _march.  Per 4,096-step
# chunk on a shared 2-vCPU machine (medians of seven) the march takes
# 0.48 ms at 16, 0.47-0.61 ms at 8, 0.60 ms at 32 and 0.62-0.95 ms at 64,
# against 2.6-3.7 ms for a step-by-step loop.  At 16 its long-run errors
# against a long-double march stay below the loop's on berry-equator
# (tests/test_qcore.py::TestLongRunAccuracy)
_BLOCK = 16

TWO_PI = 2.0 * math.pi


def wrap_angle(angle: float) -> float:
    """Reduce an angle to the interval (-pi, pi]."""
    w = math.remainder(float(angle), TWO_PI)
    if w <= -math.pi:
        w = math.pi
    return w


def circle_distance(a: float, b: float) -> float:
    """Distance between two angles on the circle, in [0, pi]."""
    return abs(wrap_angle(float(a) - float(b)))


@dataclass(frozen=True)
class StateVector:
    """Normalized two-level state: two amplitudes, norm 1 within 1e-12."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (2,):
            raise ValueError(f"state vector must hold 2 amplitudes, not {amp.shape}")
        norm = float(np.linalg.norm(amp))
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm {norm!r} deviates from 1 by more than {_NORM_TOL}")
        amp = amp.copy()
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    def overlap(self, other: "StateVector") -> complex:
        """Inner product <self|other>."""
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class HamiltonianSchedule:
    """Time-dependent Hamiltonian H(t) = a(t) . sigma on [0, duration].

    ``coefficients`` maps an array of times to the field (a1, a2, a3), each
    an array of the same shape or a scalar that broadcasts to it.  A global
    energy shift only adds a phase, and nothing here uses one.  H is
    Hermitian exactly when the field is real, so that is what gets checked:
    on every ground_state query, and by the propagator once per chunk over
    all of its midpoints.  A non-finite coefficient, or one whose imaginary
    part exceeds 1e-12 of the local scale, raises ScheduleError.
    """

    coefficients: Callable[[np.ndarray], Sequence]
    duration: float

    def __post_init__(self):
        if not callable(self.coefficients):
            raise ValueError("coefficients must be callable")
        if not (self.duration >= 0.0) or not math.isfinite(self.duration):
            raise ValueError("duration must be finite and non-negative")


def _coefficients(schedule: HamiltonianSchedule, times: np.ndarray) -> np.ndarray:
    """The schedule's field (a1, a2, a3) on a time grid, as a real (3, N) array.

    Raises ScheduleError unless every coefficient is finite and real (an
    imaginary part up to 1e-12 of max(1, |coefficients|) at that time is
    roundoff and dropped).
    """
    values = np.array([np.broadcast_to(c, times.shape)
                       for c in schedule.coefficients(times)])
    finite = np.isfinite(values).all(axis=0)
    if not finite.all():
        t = float(times[np.argmin(finite)])
        raise ScheduleError(f"schedule at t={t!r}: non-finite coefficient")
    if np.iscomplexobj(values):
        dev = np.abs(values.imag).max(axis=0)
        over = dev > _HERM_TOL * np.maximum(1.0, np.abs(values).max(axis=0))
        if over.any():
            k = int(np.argmax(over))
            raise ScheduleError(
                f"schedule at t={float(times[k])!r}: complex coefficient, "
                f"H deviates from Hermitian by {dev[k]:.3e}")
        values = values.real
    return values.astype(float, copy=False)


def field_eigenvectors(fields) -> np.ndarray:
    """Closed-form eigenvectors of a . sigma for a stack of field vectors a.

    ``fields`` is an (N, 3) array; the result is (N, 2, 2) with [:, :, 0]
    the ground state (spin against a, eigenvalue -|a|) and [:, :, 1] the
    excited state (+|a|), spin-coherent states built from the polar angles
    of a.  The phase rule makes the largest-modulus component of each
    column real and positive.  A zero field has no axis; it gets the basis
    of a field along +z.
    """
    a = np.asarray(fields, dtype=float)
    theta = np.arctan2(np.hypot(a[:, 0], a[:, 1]), a[:, 2])
    phi = np.arctan2(a[:, 1], a[:, 0])
    ch = np.cos(0.5 * theta)
    sh = np.sin(0.5 * theta)
    eph = np.exp(1j * phi)
    vectors = np.empty((a.shape[0], 2, 2), dtype=complex)
    vectors[:, 0, 0] = -sh
    vectors[:, 0, 1] = ch
    vectors[:, 1, 0] = eph * ch
    vectors[:, 1, 1] = eph * sh
    # unit columns, so the pivot is never zero
    rows = np.argmax(np.abs(vectors), axis=1)
    pivots = np.take_along_axis(vectors, rows[:, None, :], axis=1)
    return vectors * (np.abs(pivots) / pivots)


def ground_state(schedule: HamiltonianSchedule, t: float) -> StateVector:
    """The ground state of H(t), field_eigenvectors of the checked field."""
    field = _coefficients(schedule, np.array([float(t)])).T
    return StateVector(field_eigenvectors(field)[0, :, 0])


class PhaseDecomposition(NamedTuple):
    """Dynamical/geometric phase split of a cyclic evolution.

    geometric is (total - dynamical) reduced to (-pi, pi], where total is
    the argument of the final overlap and dynamical is -integral of
    <psi|H|psi> dt.  sigma3_mean is the time average of <psi|sigma3|psi> on
    the same midpoint grid (nan for a run of zero length).
    """

    dynamical: float
    geometric: float
    overlap_modulus: float
    sigma3_mean: float


def _step_count(duration: float, step: float) -> tuple[int, float]:
    if not (step > 0.0):
        raise ValueError("step must be positive")
    if duration == 0.0:
        return 0, 0.0
    n = max(1, math.ceil(duration / step - 1e-12))
    return n, duration / n


def _march(alpha: np.ndarray, beta: np.ndarray, p0: complex, p1: complex):
    """Apply a stack of n SU(2) steps in turn to (p0, p1).

    Step k is [[alpha[k], -conj(beta[k])], [beta[k], conj(alpha[k])]], given
    by its Cayley-Klein pair.  Returns (b0, b1, p0, p1): each step's starting
    amplitudes as arrays, and the amplitudes after the last step.

    A blocked prefix product: the steps are padded with identities to whole
    blocks of _BLOCK, and the running products inside every block are formed
    at once in _BLOCK rounds of products over the blocks.  A product of SU(2)
    matrices is in SU(2), so a running product is kept as its first column
    alone.  The block totals are again a stack of SU(2) steps, whose starting
    amplitudes, the block starts, are marched the same way one level up;
    only a stack of at most _BLOCK steps marches one by one.

    Every block start, and every start of the one-by-one march, is put back
    to norm 1.  A float64 step unitary scales the norm by 1 + O(eps), and
    while the size of the field holds still that factor hardly changes from
    step to step, so the norm error would otherwise build up coherently over
    the run.
    """
    return _march_blocks(alpha, beta, p0, p1)


def _march_blocks(alpha, beta, p0, p1):
    """_march's body.  It recurses through this name, so that a test that
    wraps _march sees each call from _propagate once."""
    n = len(alpha)
    if n <= _BLOCK:
        b0 = []
        b1 = []
        for a, b in zip(alpha.tolist(), beta.tolist()):
            norm = math.hypot(abs(p0), abs(p1))
            p0 /= norm
            p1 /= norm
            b0.append(p0)
            b1.append(p1)
            p0, p1 = a * p0 - b.conjugate() * p1, b * p0 + a.conjugate() * p1
        return np.array(b0), np.array(b1), p0, p1
    blocks = -(-n // _BLOCK)
    if blocks * _BLOCK > n:
        alpha = np.concatenate((alpha, np.ones(blocks * _BLOCK - n)))
        beta = np.concatenate((beta, np.zeros(blocks * _BLOCK - n)))
    # alpha[j, k] is step k * _BLOCK + j
    alpha = alpha.reshape(blocks, _BLOCK).T
    beta = beta.reshape(blocks, _BLOCK).T
    alpha_c = alpha.conj()
    beta_c = beta.conj()
    # (a[j], b[j]) is the first column of the product of the first j steps
    # of each block
    a = np.empty((_BLOCK + 1, blocks), dtype=complex)
    b = np.empty((_BLOCK + 1, blocks), dtype=complex)
    a[0] = 1.0
    b[0] = 0.0
    for j in range(_BLOCK):
        np.multiply(alpha[j], a[j], out=a[j + 1])
        a[j + 1] -= beta_c[j] * b[j]
        np.multiply(beta[j], a[j], out=b[j + 1])
        b[j + 1] += alpha_c[j] * b[j]
    s0, s1, p0, p1 = _march_blocks(a[_BLOCK], b[_BLOCK], p0, p1)
    norm = np.hypot(np.abs(s0), np.abs(s1))
    s0 /= norm
    s1 /= norm
    # b0[j, k], b1[j, k]: prefix j of block k applied to the start of block k
    a = a[:_BLOCK]
    b = b[:_BLOCK]
    b0 = a * s0 - b.conj() * s1
    b1 = b * s0 + a.conj() * s1
    return b0.T.ravel()[:n], b1.T.ravel()[:n], p0, p1


def _propagate(schedule: HamiltonianSchedule, psi0: np.ndarray, step: float):
    """March psi0 through the schedule with the midpoint-exponential rule.

    Step k applies exp(-i H(t_k) dt) at the midpoint t_k = (k + 1/2) dt, in
    closed form: with r = |a| and s = sin(r dt) / r (dt where r = 0) it is
    the SU(2) matrix of Cayley-Klein pair alpha = cos(r dt) - i a3 s,
    beta = s (a2 - i a1).  The run is walked in chunks of _CHUNK steps: per
    chunk the schedule is sampled and checked at every midpoint at once,
    the pairs are built as arrays, and the states at every step come from
    _march, whose Python loops are the _BLOCK rounds of each of its levels
    and a one-by-one march of at most _BLOCK block starts at the top one.
    Memory is bounded by the chunk, not by the step count.

    Returns (final, energy, sigma3): the integrals of <psi|H|psi> dt and of
    <psi|sigma3|psi> dt on the same midpoint grid.  H is frozen within a
    step, so <psi|H|psi> taken with the step's starting state already is the
    midpoint-rule sample: with d = |b0|^2 - |b1|^2 and z = b1 conj(b0) it is
    a3 d + 2 (a1 Re z + a2 Im z), and <psi|sigma3|psi> is d.
    """
    n, dt = _step_count(schedule.duration, step)
    energy = sigma3 = 0.0
    p0 = complex(psi0[0])
    p1 = complex(psi0[1])
    for first in range(0, n, _CHUNK):
        k = np.arange(first, min(first + _CHUNK, n))
        a1, a2, a3 = _coefficients(schedule, (k + 0.5) * dt)
        r = np.sqrt(a1 * a1 + a2 * a2 + a3 * a3)
        angle = r * dt
        s = np.divide(np.sin(angle), r, out=np.full_like(r, dt), where=r != 0.0)
        alpha = np.empty(len(k), dtype=complex)
        beta = np.empty(len(k), dtype=complex)
        np.cos(angle, out=alpha.real)
        np.multiply(s, -a3, out=alpha.imag)
        np.multiply(s, a2, out=beta.real)
        np.multiply(s, -a1, out=beta.imag)
        # each step's starting amplitudes
        b0, b1, p0, p1 = _march(alpha, beta, p0, p1)
        d = (b0.real * b0.real + b0.imag * b0.imag
             - (b1.real * b1.real + b1.imag * b1.imag))
        z = b1 * b0.conj()
        energy += dt * float(np.sum(
            a3 * d + 2.0 * (a1 * z.real + a2 * z.imag)))
        sigma3 += dt * float(np.sum(d))
    return np.array([p0, p1]), energy, sigma3


def evolve_with_energy(schedule: HamiltonianSchedule, psi0: StateVector,
                       step: float) -> tuple[StateVector, float]:
    """Propagate psi0 to t = duration with the norm-preserving midpoint rule,
    returning the final state and the integral of <psi|H|psi> dt.

    The step should resolve the Hamiltonian: step * max ||H|| < 0.1.
    """
    final, energy, _ = _propagate(schedule, psi0.amplitudes, step)
    return StateVector(final), energy


def phase_decompose(schedule: HamiltonianSchedule, psi0: StateVector,
                    step: float) -> PhaseDecomposition:
    """Split a cyclic evolution into its dynamical and geometric phases.

    Raises CyclicityError (its message gives the overlap modulus) when the
    final state has wandered off the initial ray, |<psi0|psi(T)>| < 0.99.
    """
    final, energy, sigma3 = _propagate(schedule, psi0.amplitudes, step)
    ov = complex(np.vdot(psi0.amplitudes, final))
    modulus = abs(ov)
    if modulus < _CYCLIC_OVERLAP:
        raise CyclicityError(
            f"evolution is not cyclic: |overlap| = {modulus:.6f} < {_CYCLIC_OVERLAP}")
    total = cmath.phase(ov)
    dynamical = -energy
    return PhaseDecomposition(dynamical=dynamical,
                              geometric=wrap_angle(total - dynamical),
                              overlap_modulus=modulus,
                              sigma3_mean=(sigma3 / schedule.duration
                                           if schedule.duration else math.nan))
