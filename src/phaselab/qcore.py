"""Two-level quantum kernel: states, Pauli algebra, propagation, phase bookkeeping.

Conventions used throughout the package: hbar = 1, the propagator over a step
is exp(-i H dt), and reported angles live in (-pi, pi].  Operators are 2x2
and solved in closed form everywhere (eigensystem and step propagator) so
that evolution is exactly unitary up to roundoff; the eigensystem and the
propagators reject any other size with ValueError.
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
    """Time-dependent Hamiltonian: evaluator(t) for t in [0, duration].

    The evaluator returns a complex ndarray, checked for hermiticity on
    every query.
    """

    evaluator: Callable[[float], object]
    duration: float

    def __post_init__(self):
        if not callable(self.evaluator):
            raise ValueError("evaluator must be callable")
        if not (self.duration >= 0.0) or not math.isfinite(self.duration):
            raise ValueError("duration must be finite and non-negative")

    def operator(self, t: float) -> np.ndarray:
        return _coerce_hermitian(self.evaluator(t), f"schedule at t={t!r}")


@dataclass(frozen=True)
class Eigensystem:
    """Eigenvalues ascending; vectors[:, k] pairs with values[k]."""

    values: np.ndarray
    vectors: np.ndarray
    degenerate: bool


def _fix_column_phases(vectors: np.ndarray) -> np.ndarray:
    """Make the largest-modulus component of each column real and positive."""
    out = vectors.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        idx = int(np.argmax(np.abs(col)))
        pivot = col[idx]
        if pivot != 0:
            out[:, k] = col * (abs(pivot) / pivot)
    return out


def instantaneous_eigensystem(operator) -> Eigensystem:
    """Ordered eigen-decomposition of a Hermitian 2x2 operator.

    H = c0*I + a.sigma has eigenvalues c0 -+ |a| and spin-coherent
    eigenvectors built from the polar angles of a.  A gap below 1e-12 sets
    the ``degenerate`` flag; callers decide what that means.  Raises
    ValueError for any other size.
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
    rho = math.hypot(a1, a2)
    r = math.hypot(rho, a3)
    values = np.array([c0 - r, c0 + r])
    if 2.0 * r <= _DEGENERACY_GAP:
        return Eigensystem(values, np.eye(2, dtype=complex), True)
    theta = math.atan2(rho, a3)
    phi = math.atan2(a2, a1)
    ch = math.cos(0.5 * theta)
    sh = math.sin(0.5 * theta)
    eph = cmath.exp(1j * phi)
    vectors = np.array([[-sh, ch], [eph * ch, eph * sh]], dtype=complex)
    return Eigensystem(values, _fix_column_phases(vectors), False)


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
               collect_energy: bool = False,
               record: Callable[[float, np.ndarray], None] | None = None):
    """March psi0 through the schedule with the midpoint-exponential rule.

    Returns (final_array, energy_integral).  The dynamical integral uses the
    same midpoint grid: H is frozen within a step, so <psi|H|psi> taken with
    the step's starting state already is the midpoint-rule sample.
    """
    if psi0.size != 2:
        raise ValueError(f"propagation needs a 2-level state, got {psi0.size}")
    n, dt = _step_count(schedule.duration, step)
    energy = 0.0
    p0 = complex(psi0[0])
    p1 = complex(psi0[1])
    if record is not None:
        record(0.0, np.array([p0, p1]))
    for k in range(n):
        h = schedule.operator((k + 0.5) * dt)
        h00 = h[0, 0].real
        h11 = h[1, 1].real
        h01 = complex(h[0, 1])
        if collect_energy:
            energy += dt * (h00 * (p0.real * p0.real + p0.imag * p0.imag)
                            + h11 * (p1.real * p1.real + p1.imag * p1.imag)
                            + 2.0 * (h01 * p1 * p0.conjugate()).real)
        c0 = 0.5 * (h00 + h11)
        a3 = 0.5 * (h00 - h11)
        a1 = h01.real
        a2 = -h01.imag
        r = math.sqrt(a1 * a1 + a2 * a2 + a3 * a3)
        ang = r * dt
        phase = cmath.exp(-1j * c0 * dt)
        if r == 0.0:
            c, s = 1.0, dt
        else:
            c = math.cos(ang)
            s = math.sin(ang) / r
        u00 = phase * (c - 1j * s * a3)
        u01 = phase * (-1j * s) * (a1 - 1j * a2)
        u10 = phase * (-1j * s) * (a1 + 1j * a2)
        u11 = phase * (c + 1j * s * a3)
        p0, p1 = u00 * p0 + u01 * p1, u10 * p0 + u11 * p1
        if record is not None:
            record((k + 1) * dt, np.array([p0, p1]))
    return np.array([p0, p1]), energy


def evolve(schedule: HamiltonianSchedule, psi0: StateVector, step: float) -> StateVector:
    """Propagate psi0 to t = duration with the norm-preserving midpoint rule.

    The step should resolve the Hamiltonian: step * max ||H|| < 0.1.
    """
    final, _ = _propagate(schedule, psi0.amplitudes, step)
    return StateVector(final)


def evolve_with_energy(schedule: HamiltonianSchedule, psi0: StateVector,
                       step: float) -> tuple[StateVector, float]:
    """Like evolve, additionally returning the integral of <psi|H|psi> dt."""
    final, energy = _propagate(schedule, psi0.amplitudes, step, collect_energy=True)
    return StateVector(final), energy


def evolve_trajectory(schedule: HamiltonianSchedule, psi0: StateVector, step: float,
                      sample_every: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Propagate and record (times, states); row 0 is the initial state."""
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    times: list[float] = []
    states: list[np.ndarray] = []
    counter = {"k": 0}

    def record(t, psi):
        if counter["k"] % sample_every == 0:
            times.append(t)
            states.append(psi)
        counter["k"] += 1

    final, _ = _propagate(schedule, psi0.amplitudes, step, record=record)
    if times[-1] != schedule.duration and schedule.duration > 0.0:
        times.append(schedule.duration)
        states.append(final)
    return np.asarray(times), np.asarray(states)


def phase_decompose(schedule: HamiltonianSchedule, psi0: StateVector,
                    step: float) -> PhaseDecomposition:
    """Split a cyclic evolution into total, dynamical and geometric phases.

    Raises CyclicityError (carrying the overlap modulus) when the final state
    has wandered off the initial ray, |<psi0|psi(T)>| < 0.99.
    """
    final, energy = _propagate(schedule, psi0.amplitudes, step, collect_energy=True)
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
