"""Two-level quantum kernel: states, Pauli algebra, propagation, phase bookkeeping.

Conventions used throughout the package: hbar = 1, the propagator over a step
is exp(-i H dt), and reported angles live in (-pi, pi].  Operators are 2x2
and solved in closed form everywhere, so that evolution is exactly unitary
up to roundoff; the eigensystem and the propagators reject any other size
with ValueError.  A time-dependent Hamiltonian is given by its Pauli
coefficients H = c0 I + a . sigma as a vectorized function of time.  The
one propagator kernel, _propagate, samples them over whole chunks of its
midpoint grid and builds every step unitary as an array; the states come
from a blocked prefix product of those unitaries, in which only the starts
of blocks of _BLOCK steps march one by one.  The closed-form
eigenvectors likewise come for a whole stack of fields at once
(field_eigenvectors), which the Wilson loop in berry uses.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import CyclicityError, ScheduleError

SIGMA_1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_NORM_TOL = 1e-12
_HERM_TOL = 1e-12
_DEGENERACY_GAP = 1e-12
_CYCLIC_OVERLAP = 0.99
# propagator steps built as arrays at once: bounds memory, not accuracy
_CHUNK = 4096
# steps per block of the state march, _march.  Per 4,096-step chunk on a
# 2-vCPU machine the march takes 0.41 ms at 16 and at 32 and 0.52 ms at 8
# and at 64, against 1.92 ms for a step-by-step loop.  At 16 its long-run
# errors against a long-double march stay below the loop's on berry-equator
# (tests/test_qcore.py::TestLongRunAccuracy)
_BLOCK = 16
# golden angle, pi (3 - sqrt 5): the per-block phase step of _march
_GOLDEN = math.pi * (3.0 - math.sqrt(5.0))

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
    """Normalized complex state vector (norm 1 within 1e-12)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.ndim != 1 or amp.size < 2:
            raise ValueError("state vector must be a 1-d array with at least 2 entries")
        norm = float(np.linalg.norm(amp))
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm {norm!r} deviates from 1 by more than {_NORM_TOL}")
        amp = amp.copy()
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    def overlap(self, other: "StateVector") -> complex:
        """Inner product <self|other>."""
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def _coerce_hermitian(matrix, context: str) -> np.ndarray:
    """Return the operator as a complex ndarray, checking hermiticity."""
    mat = np.asarray(matrix, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ScheduleError(f"{context}: operator is not a square matrix")
    scale = max(1.0, float(np.max(np.abs(mat))) if mat.size else 1.0)
    dev = float(np.max(np.abs(mat - mat.conj().T)))
    if dev > _HERM_TOL * scale:
        raise ScheduleError(f"{context}: operator deviates from Hermitian by {dev:.3e}")
    return mat


@dataclass(frozen=True)
class HamiltonianSchedule:
    """Time-dependent Hamiltonian H(t) = c0(t) I + a(t) . sigma on [0, duration].

    ``coefficients`` maps an array of times to the four Pauli coefficients
    (c0, a1, a2, a3), each an array of the same shape or a scalar that
    broadcasts to it.  A 2x2 H is Hermitian exactly when all four are real,
    so that is what gets checked: on every operator(t) query, and by the
    propagator once per chunk over all of its midpoints.  A non-finite
    coefficient, or one whose imaginary part exceeds 1e-12 of the local
    scale, raises ScheduleError.
    """

    coefficients: Callable[[np.ndarray], Sequence]
    duration: float

    def __post_init__(self):
        if not callable(self.coefficients):
            raise ValueError("coefficients must be callable")
        if not (self.duration >= 0.0) or not math.isfinite(self.duration):
            raise ValueError("duration must be finite and non-negative")

    def operator(self, t: float) -> np.ndarray:
        """H(t) as a 2x2 matrix, built from the checked coefficients."""
        c0, a1, a2, a3 = _coefficients(self, np.array([float(t)]))[:, 0]
        return np.array([[c0 + a3, a1 - 1j * a2], [a1 + 1j * a2, c0 - a3]])


def _coefficients(schedule: HamiltonianSchedule, times: np.ndarray) -> np.ndarray:
    """The schedule's (c0, a1, a2, a3) on a time grid, as a real (4, N) array.

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
                f"operator deviates from Hermitian by {dev[k]:.3e}")
        values = values.real
    return values.astype(float, copy=False)


@dataclass(frozen=True)
class Eigensystem:
    """Eigenvalues ascending; vectors[:, k] pairs with values[k]."""

    values: np.ndarray
    vectors: np.ndarray


def field_eigenvectors(fields) -> np.ndarray:
    """Closed-form eigenvectors of a . sigma for a stack of field vectors a.

    ``fields`` is an (N, 3) array; the result is (N, 2, 2) with [:, :, 0]
    the ground state (spin against a) and [:, :, 1] the excited state,
    spin-coherent states built from the polar angles of a.  The phase rule
    makes the largest-modulus component of each column real and positive.
    A zero field has no axis; it gets the basis of a field along +z.
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


def instantaneous_eigensystem(operator) -> Eigensystem:
    """Ordered eigen-decomposition of a Hermitian 2x2 operator.

    H = c0*I + a.sigma has eigenvalues c0 -+ |a| and the eigenvectors of
    field_eigenvectors.  A gap below 1e-12 has no field axis to follow and
    takes the standard basis as eigenvectors.  Raises ValueError for any
    other size.
    """
    mat = _coerce_hermitian(operator, "eigensystem input")
    if mat.shape != (2, 2):
        raise ValueError(f"eigensystem input must be 2x2, got {mat.shape}")
    h00 = mat[0, 0].real
    h11 = mat[1, 1].real
    h01 = complex(mat[0, 1])
    c0 = 0.5 * (h00 + h11)
    a3 = 0.5 * (h00 - h11)
    a1 = h01.real
    a2 = -h01.imag
    r = math.hypot(math.hypot(a1, a2), a3)
    values = np.array([c0 - r, c0 + r])
    if 2.0 * r <= _DEGENERACY_GAP:
        return Eigensystem(values, np.eye(2, dtype=complex))
    return Eigensystem(values, field_eigenvectors([[a1, a2, a3]])[0])


def ground_state(operator) -> StateVector:
    """Lowest-eigenvalue eigenvector as a StateVector."""
    eig = instantaneous_eigensystem(operator)
    return StateVector(eig.vectors[:, 0])


@dataclass(frozen=True)
class PhaseDecomposition:
    """Total/dynamical/geometric phase split of a cyclic evolution.

    geometric is (total - dynamical) reduced to (-pi, pi]; total is the
    argument of the final overlap, dynamical is -integral of <psi|H|psi> dt.
    sigma3_mean is the time average of <psi|sigma3|psi> on the same midpoint
    grid (nan for a run of zero length).
    """

    total: float
    dynamical: float
    geometric: float
    overlap_modulus: float
    sigma3_mean: float

    def __post_init__(self):
        if circle_distance(self.geometric, self.total - self.dynamical) > 1e-9:
            raise ValueError("geometric phase is not (total - dynamical) mod 2 pi")


def _step_count(duration: float, step: float) -> tuple[int, float]:
    if not (step > 0.0):
        raise ValueError("step must be positive")
    if duration == 0.0:
        return 0, 0.0
    n = max(1, math.ceil(duration / step - 1e-12))
    return n, duration / n


def _march(u: np.ndarray, p0: complex, p1: complex):
    """Apply a (2, 2, n) stack of step unitaries in turn to (p0, p1).

    Returns (b0, b1, p0, p1): each step's starting amplitudes as arrays, and
    the amplitudes after the last step.  A blocked prefix product: the steps
    are padded with identities to whole blocks of _BLOCK, the running
    products inside every block are formed at once in _BLOCK rounds of 2x2
    products over the blocks, and only the block starts march one by one,
    with the block totals.

    Block b's products start from the phase e^(i b _GOLDEN) I, and its start
    is taken back by that phase.  On a schedule that varies slowly from
    block to block, the rounding errors of the products would otherwise
    repeat from one block to the next and build up in the norm.
    """
    n = u.shape[-1]
    blocks = -(-n // _BLOCK)
    eye = np.eye(2, dtype=complex)[:, :, None]
    if blocks * _BLOCK > n:
        u = np.concatenate(
            (u, np.broadcast_to(eye, (2, 2, blocks * _BLOCK - n))), axis=2)
    # steps[:, :, b, j] is step b * _BLOCK + j
    steps = u.reshape(2, 2, blocks, _BLOCK)
    phases = np.exp(1j * _GOLDEN * np.arange(blocks))
    # prefix[j] is the product of the first j steps of each block, times
    # its phase
    prefix = np.empty((_BLOCK + 1, 2, 2, blocks), dtype=complex)
    prefix[0] = eye * phases
    for j in range(_BLOCK):
        np.multiply(steps[:, 0:1, :, j], prefix[j, 0:1], out=prefix[j + 1])
        prefix[j + 1] += steps[:, 1:2, :, j] * prefix[j, 1:2]
    s0 = []
    s1 = []
    for t00, t01, t10, t11, back in zip(
            *prefix[_BLOCK].reshape(4, blocks).tolist(),
            phases.conj().tolist()):
        p0 *= back
        p1 *= back
        s0.append(p0)
        s1.append(p1)
        p0, p1 = t00 * p0 + t01 * p1, t10 * p0 + t11 * p1
    # b[j, :, k] is prefix[j, :, :, k] applied to the start of block k
    b = prefix[:_BLOCK, :, 0] * np.array(s0) + prefix[:_BLOCK, :, 1] * np.array(s1)
    b = b.transpose(1, 2, 0).reshape(2, -1)
    return b[0, :n], b[1, :n], p0, p1


def _propagate(schedule: HamiltonianSchedule, psi0: np.ndarray, step: float):
    """March psi0 through the schedule with the midpoint-exponential rule.

    Step k applies exp(-i H(t_k) dt) at the midpoint t_k = (k + 1/2) dt, in
    closed form.  The run is walked in chunks of _CHUNK steps: per chunk the
    schedule is sampled and checked at every midpoint at once, all step
    unitaries and the energy samples are built as arrays, and the states at
    every step come from _march, whose only Python loop is over blocks of
    _BLOCK steps.  Memory is bounded by the chunk, not by the step count.

    Returns (final, energy, sigma3): the integrals of <psi|H|psi> dt and of
    <psi|sigma3|psi> dt on the same midpoint grid.  H is frozen within a
    step, so <psi|H|psi> taken with the step's starting state already is the
    midpoint-rule sample.
    """
    if psi0.size != 2:
        raise ValueError(f"propagation needs a 2-level state, got {psi0.size}")
    n, dt = _step_count(schedule.duration, step)
    energy = sigma3 = 0.0
    p0 = complex(psi0[0])
    p1 = complex(psi0[1])
    for first in range(0, n, _CHUNK):
        k = np.arange(first, min(first + _CHUNK, n))
        c0, a1, a2, a3 = _coefficients(schedule, (k + 0.5) * dt)
        r = np.sqrt(a1 * a1 + a2 * a2 + a3 * a3)
        c = np.cos(r * dt)
        s = np.divide(np.sin(r * dt), r, out=np.full_like(r, dt), where=r != 0.0)
        phase = np.exp(-1j * c0 * dt)
        u = np.empty((2, 2, len(k)), dtype=complex)
        u[0, 0] = phase * (c - 1j * s * a3)
        u[0, 1] = phase * (-1j * s) * (a1 - 1j * a2)
        u[1, 0] = phase * (-1j * s) * (a1 + 1j * a2)
        u[1, 1] = phase * (c + 1j * s * a3)
        # each step's starting amplitudes
        b0, b1, p0, p1 = _march(u, p0, p1)
        n0 = b0.real * b0.real + b0.imag * b0.imag
        n1 = b1.real * b1.real + b1.imag * b1.imag
        energy += dt * float(np.sum(
            (c0 + a3) * n0 + (c0 - a3) * n1
            + 2.0 * ((a1 - 1j * a2) * b1 * b0.conj()).real))
        sigma3 += dt * float(np.sum(n0 - n1))
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
    """Split a cyclic evolution into total, dynamical and geometric phases.

    Raises CyclicityError (carrying the overlap modulus) when the final state
    has wandered off the initial ray, |<psi0|psi(T)>| < 0.99.
    """
    final, energy, sigma3 = _propagate(schedule, psi0.amplitudes, step)
    ov = complex(np.vdot(psi0.amplitudes, final))
    modulus = abs(ov)
    if modulus < _CYCLIC_OVERLAP:
        raise CyclicityError(
            f"evolution is not cyclic: |overlap| = {modulus:.6f} < {_CYCLIC_OVERLAP}",
            overlap_modulus=modulus)
    total = cmath.phase(ov)
    dynamical = -energy
    return PhaseDecomposition(total=total, dynamical=dynamical,
                              geometric=wrap_angle(total - dynamical),
                              overlap_modulus=modulus,
                              sigma3_mean=(sigma3 / schedule.duration
                                           if schedule.duration else math.nan))
