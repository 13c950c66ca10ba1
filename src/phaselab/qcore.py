"""Two-level quantum kernel: states, Pauli algebra, propagation, phase bookkeeping.

Conventions used throughout the package: hbar = 1, the propagator over a step
is exp(-i H dt), and reported angles live in (-pi, pi].  Operators are 2x2
and solved in closed form everywhere, so that evolution is exactly unitary
up to roundoff; the eigensystem and the propagators reject any other size
with ValueError.  A time-dependent Hamiltonian is given by its Pauli
coefficients H = c0 I + a . sigma as a vectorized function of time.  The
one propagator kernel, _propagate, samples them over whole chunks of its
midpoint grid and builds every step unitary as an array; only the
two-component state update steps through time one by one.  The closed-form
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
PAULI = (SIGMA_1, SIGMA_2, SIGMA_3)

_NORM_TOL = 1e-12
_HERM_TOL = 1e-12
_DEGENERACY_GAP = 1e-12
_CYCLIC_OVERLAP = 0.99
# propagator steps built as arrays at once: bounds memory, not accuracy
_CHUNK = 4096

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


def pauli_vector(coefficients: Sequence[float]) -> np.ndarray:
    """Return c1*sigma1 + c2*sigma2 + c3*sigma3 for real coefficients."""
    c1, c2, c3 = (float(c) for c in coefficients)
    return np.array([[c3, c1 - 1j * c2], [c1 + 1j * c2, -c3]], dtype=complex)


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

    @classmethod
    def normalized(cls, values) -> "StateVector":
        vec = np.asarray(values, dtype=complex)
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(vec / norm)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

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
    degenerate: bool


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
    field_eigenvectors.  A gap below 1e-12 sets the ``degenerate`` flag;
    callers decide what that means.  Raises ValueError for any other size.
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
        return Eigensystem(values, np.eye(2, dtype=complex), True)
    return Eigensystem(values, field_eigenvectors([[a1, a2, a3]])[0], False)


def ground_state(operator) -> StateVector:
    """Lowest-eigenvalue eigenvector as a StateVector."""
    eig = instantaneous_eigensystem(operator)
    return StateVector(eig.vectors[:, 0])


def expectation(operator, state: StateVector) -> float:
    """Real expectation value <psi|O|psi> of a Hermitian operator."""
    mat = _coerce_hermitian(operator, "expectation input")
    amp = state.amplitudes
    return float(np.vdot(amp, mat @ amp).real)


@dataclass(frozen=True)
class PhaseDecomposition:
    """Total/dynamical/geometric phase split of a cyclic evolution.

    geometric is (total - dynamical) reduced to (-pi, pi]; total is the
    argument of the final overlap, dynamical is -integral of <psi|H|psi> dt.
    """

    total: float
    dynamical: float
    geometric: float
    overlap_modulus: float

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


def _propagate(schedule: HamiltonianSchedule, psi0: np.ndarray, step: float,
               sample_every: int = 0):
    """March psi0 through the schedule with the midpoint-exponential rule.

    Step k applies exp(-i H(t_k) dt) at the midpoint t_k = (k + 1/2) dt, in
    closed form.  The run is walked in chunks of _CHUNK steps: per chunk the
    schedule is sampled and checked at every midpoint at once, all step
    unitaries and the energy samples are built as arrays, and only the
    2-component state update is a Python loop.  Memory is bounded by the
    chunk, not by the step count.

    Returns (final, energy, times, states).  energy is the integral of
    <psi|H|psi> dt on the same midpoint grid: H is frozen within a step, so
    <psi|H|psi> taken with the step's starting state already is the
    midpoint-rule sample.  times/states hold the state after every
    sample_every-th step (step 0 is psi0), and are empty for sample_every 0.
    """
    if psi0.size != 2:
        raise ValueError(f"propagation needs a 2-level state, got {psi0.size}")
    n, dt = _step_count(schedule.duration, step)
    energy = 0.0
    p0 = complex(psi0[0])
    p1 = complex(psi0[1])
    times: list[float] = []
    states: list[tuple[complex, complex]] = []
    if sample_every:
        times.append(0.0)
        states.append((p0, p1))
    for first in range(0, n, _CHUNK):
        k = np.arange(first, min(first + _CHUNK, n))
        c0, a1, a2, a3 = _coefficients(schedule, (k + 0.5) * dt)
        r = np.sqrt(a1 * a1 + a2 * a2 + a3 * a3)
        c = np.cos(r * dt)
        s = np.divide(np.sin(r * dt), r, out=np.full_like(r, dt), where=r != 0.0)
        phase = np.exp(-1j * c0 * dt)
        u00 = phase * (c - 1j * s * a3)
        u01 = phase * (-1j * s) * (a1 - 1j * a2)
        u10 = phase * (-1j * s) * (a1 + 1j * a2)
        u11 = phase * (c + 1j * s * a3)
        q0 = [p0]
        q1 = [p1]
        for v00, v01, v10, v11 in zip(u00.tolist(), u01.tolist(),
                                      u10.tolist(), u11.tolist()):
            p0, p1 = v00 * p0 + v01 * p1, v10 * p0 + v11 * p1
            q0.append(p0)
            q1.append(p1)
        q0 = np.array(q0)
        q1 = np.array(q1)
        b0 = q0[:-1]
        b1 = q1[:-1]
        energy += dt * float(np.sum(
            (c0 + a3) * (b0.real * b0.real + b0.imag * b0.imag)
            + (c0 - a3) * (b1.real * b1.real + b1.imag * b1.imag)
            + 2.0 * ((a1 - 1j * a2) * b1 * b0.conj()).real))
        if sample_every:
            done = k + 1
            kept = np.flatnonzero(done % sample_every == 0)
            times.extend((done[kept] * dt).tolist())
            states.extend(zip(q0[kept + 1].tolist(), q1[kept + 1].tolist()))
    return np.array([p0, p1]), energy, times, states


def evolve(schedule: HamiltonianSchedule, psi0: StateVector, step: float) -> StateVector:
    """Propagate psi0 to t = duration with the norm-preserving midpoint rule.

    The step should resolve the Hamiltonian: step * max ||H|| < 0.1.
    """
    final, _, _, _ = _propagate(schedule, psi0.amplitudes, step)
    return StateVector(final)


def evolve_with_energy(schedule: HamiltonianSchedule, psi0: StateVector,
                       step: float) -> tuple[StateVector, float]:
    """Like evolve, additionally returning the integral of <psi|H|psi> dt."""
    final, energy, _, _ = _propagate(schedule, psi0.amplitudes, step)
    return StateVector(final), energy


def evolve_trajectory(schedule: HamiltonianSchedule, psi0: StateVector, step: float,
                      sample_every: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Propagate and record (times, states); row 0 is the initial state."""
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    final, _, times, states = _propagate(schedule, psi0.amplitudes, step,
                                         sample_every)
    if times[-1] != schedule.duration and schedule.duration > 0.0:
        times.append(schedule.duration)
        states.append(tuple(final))
    return np.asarray(times), np.asarray(states)


def phase_decompose(schedule: HamiltonianSchedule, psi0: StateVector,
                    step: float) -> PhaseDecomposition:
    """Split a cyclic evolution into total, dynamical and geometric phases.

    Raises CyclicityError (carrying the overlap modulus) when the final state
    has wandered off the initial ray, |<psi0|psi(T)>| < 0.99.
    """
    final, energy, _, _ = _propagate(schedule, psi0.amplitudes, step)
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
                              overlap_modulus=modulus)
