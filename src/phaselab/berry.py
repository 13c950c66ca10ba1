"""Geometric phases of a spin in a steered field, and the field-momentum side.

The discrete Wilson loop used here is exact in a useful sense: for spin-1/2
the accumulated overlap phase around a closed chain of field directions
equals half the solid angle of the geodesic polygon through those
directions, so the loop phase and the polygon solid angle can be compared
at machine precision on the same sample points.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from . import qcore
from .errors import DegeneracyError, QuadratureError, RegimeError, ResolutionError


def latitude_directions(colatitude: float, samples: int) -> np.ndarray:
    """Unit field directions around the circle at fixed colatitude.

    The loop runs counterclockwise as seen from the +z pole (increasing
    azimuth).  The closing edge back to the first sample is implied, not
    repeated.
    """
    if samples < 3:
        raise ValueError("need at least 3 samples for a loop")
    phi = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    st = math.sin(colatitude)
    ct = math.cos(colatitude)
    return np.column_stack([st * np.cos(phi), st * np.sin(phi),
                            np.full(samples, ct)])


def _unit_rows(directions) -> np.ndarray:
    d = np.asarray(directions, dtype=float)
    if d.ndim != 2 or d.shape[1] != 3 or d.shape[0] < 3:
        raise ValueError("directions must be an (N, 3) array with N >= 3")
    norms = np.linalg.norm(d, axis=1)
    if np.any(norms < 1e-12):
        raise DegeneracyError("zero field direction: both levels cross")
    return d / norms[:, None]


def wilson_loop_phase(directions, band: str = "ground") -> float:
    """Discrete loop phase -arg prod <u_k|u_{k+1}> for one band, in (-pi, pi].

    ``directions`` are field directions n_k; the band states are the
    eigenvectors of n_k . sigma, all built in one array call to
    qcore.field_eigenvectors (the closed form and phase rule of
    qcore.instantaneous_eigensystem).  The result is gauge independent
    because the chain closes on itself.  Overlap between neighbours falling
    below 0.5 means the loop is sampled too coarsely and raises
    ResolutionError.
    """
    if band not in ("ground", "excited"):
        raise ValueError("band must be 'ground' or 'excited'")
    col = 0 if band == "ground" else 1
    states = qcore.field_eigenvectors(_unit_rows(directions))[:, :, col]
    overlaps = np.einsum("ij,ij->i", states.conj(), np.roll(states, -1, axis=0))
    moduli = np.abs(overlaps)
    worst = float(moduli.min())
    if worst < 0.5:
        raise ResolutionError(
            f"adjacent band states nearly orthogonal (|overlap| = {worst:.3f}); "
            "refine the loop sampling", residual=1.0 - worst)
    return qcore.wrap_angle(-cmath.phase(complex(np.prod(overlaps / moduli))))


def solid_angle(directions) -> float:
    """Signed solid angle of the geodesic polygon through the directions.

    Positive for counterclockwise loops seen from outside the sphere
    (equator traversed with increasing azimuth encloses +2 pi about +z).
    The polygon is fanned into spherical triangles from an interior
    reference direction and each triangle contributes its Van Oosterom
    solid angle, so the sum is exact for the polygon, not an area estimate.
    """
    d = _unit_rows(directions)
    nxt = np.roll(d, -1, axis=0)
    edge_dots = np.einsum("ij,ij->i", d, nxt)
    crosses = np.cross(d, nxt)
    # candidate anchors: north pole first, re-anchoring if the loop runs too
    # close to it (the signed fan sum is anchor independent while every
    # triangle stays clear of the principal branch cut)
    candidates = [np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0]),
                  d.mean(axis=0), crosses.sum(axis=0)]
    for ref in candidates:
        nrm = np.linalg.norm(ref)
        if nrm < 1e-9:
            continue
        ref = ref / nrm
        denom = 1.0 + d @ ref + edge_dots + nxt @ ref
        if np.min(denom) > 0.05:
            numer = crosses @ ref
            return float(2.0 * np.sum(np.arctan2(numer, denom)))
    raise ResolutionError("no anchor keeps the triangle fan well conditioned; "
                          "refine the loop sampling")


def spin_rotation_schedule(amplitude: float, colatitude: float,
                           period: float) -> qcore.HamiltonianSchedule:
    """Field of fixed magnitude swept once around a cone about +z.

    H(t) = amplitude * n(t) . sigma with n at the given colatitude and
    azimuth 2 pi t / period, given as the array Pauli coefficients
    (0, A sin(theta) cos(phi), A sin(theta) sin(phi), A cos(theta)).
    """
    if amplitude <= 0.0:
        raise ValueError("amplitude must be positive")
    if period <= 0.0:
        raise ValueError("period must be positive")
    st = math.sin(colatitude)
    ct = math.cos(colatitude)
    omega = 2.0 * math.pi / period

    def coefficients(t: np.ndarray):
        phi = omega * t
        return (0.0, amplitude * st * np.cos(phi), amplitude * st * np.sin(phi),
                amplitude * ct)

    return qcore.HamiltonianSchedule(coefficients, period)


def cyclic_phase_decomposition(amplitude: float, colatitude: float, period: float,
                               step: float) -> qcore.PhaseDecomposition:
    """Evolve the instantaneous ground state once around the cone and split
    the acquired phase.  Needs amplitude * period >> 1 to stay cyclic."""
    schedule = spin_rotation_schedule(amplitude, colatitude, period)
    psi0 = qcore.ground_state(schedule.operator(0.0))
    return qcore.phase_decompose(schedule, psi0, step)


@dataclass(frozen=True)
class RotatingFrameCone:
    """Slow-sweep corrections from the co-rotating frame, to leading order.

    For an equatorial sweep at angular velocity w under field amplitude A
    the dressed axis tilts out of the equator: the ground state picks up
    sigma3_expectation = w / (2A) in magnitude, the swept cone loses
    cone_deficit = w / A of polar opening, and the cycle's geometric phase
    stays pi to this order.
    """

    amplitude: float
    angular_velocity: float
    sigma3_expectation: float
    cone_deficit: float
    accumulated_phase: float


def rotating_frame_analysis(amplitude: float, angular_velocity: float) -> RotatingFrameCone:
    """Leading-order dressed-state tilt for an equatorial field sweep.

    Valid only well inside the adiabatic regime; w/A >= 0.5 raises
    RegimeError since the expansion in w/(2A) has broken down there.
    """
    if amplitude <= 0.0:
        raise ValueError("amplitude must be positive")
    ratio = angular_velocity / amplitude
    if abs(ratio) >= 0.5:
        raise RegimeError(f"w/A = {ratio:.3f} is outside the slow-sweep regime")
    return RotatingFrameCone(amplitude=amplitude,
                             angular_velocity=angular_velocity,
                             sigma3_expectation=0.5 * ratio,
                             cone_deficit=ratio,
                             accumulated_phase=math.pi)


@dataclass(frozen=True)
class FieldAngularMomentum:
    """Electromagnetic field angular momentum of a charge-pole pair.

    component is L_z with the charge at the origin and the pole on +z;
    coefficient = L_z / (charge * pole_strength) and the classic result is
    coefficient = 1 for any separation (the pair stores one unit of e g
    along the line from charge to pole).
    """

    component: float
    coefficient: float
    charge: float
    pole_strength: float
    separation: float
    excision_radius: float
    refinement_difference: float


def _angular_momentum_integral(separation: float, excision: float,
                               epsrel: float = 1e-10) -> float:
    """(R/2) * II rho^3 / (|s|^3 |r|^3) drho dz over the excised half-plane."""
    big = max(2.0 * separation, 1.0)

    def rho_floor(z: float) -> float:
        gap2 = max(excision * excision - z * z,
                   excision * excision - (z - separation) * (z - separation), 0.0)
        return math.sqrt(gap2)

    def inner(z: float) -> float:
        lo = rho_floor(z)

        def f(rho: float) -> float:
            s3 = (rho * rho + z * z) ** 1.5
            r3 = (rho * rho + (z - separation) ** 2) ** 1.5
            return rho ** 3 / (s3 * r3)

        near, _ = quad(f, lo, big, epsabs=1e-13, epsrel=epsrel, limit=200)
        far, _ = quad(f, big, np.inf, epsabs=1e-13, epsrel=epsrel, limit=200)
        return near + far

    cuts = [-np.inf, -excision, excision, separation - excision,
            separation + excision, np.inf]
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        piece, _ = quad(inner, a, b, epsabs=1e-13, epsrel=epsrel, limit=200)
        total += piece
    return 0.5 * separation * total


def field_angular_momentum(charge: float, pole_strength: float, separation: float,
                           excision_scale: float = 0.01) -> FieldAngularMomentum:
    """Integrate the field momentum circulation of a charge-pole pair.

    The E x B / 4 pi momentum density is reduced to a half-plane integral by
    axial symmetry and evaluated in physical coordinates, so recovering a
    separation-independent answer is a genuine check rather than built in.
    Small disks around both singular points are excised; the integrand is
    bounded there, so the excision removes O(delta^2) which Richardson
    extrapolation over a halved radius takes back out.  A shift between the
    two runs outside the delta^2 budget raises QuadratureError.
    """
    if separation <= 0.0:
        raise ValueError("separation must be positive")
    if not (0.0 < excision_scale < 0.2):
        raise ValueError("excision_scale must lie in (0, 0.2)")
    delta = excision_scale * separation
    coarse = _angular_momentum_integral(separation, delta)
    fine = _angular_momentum_integral(separation, 0.5 * delta)
    diff = fine - coarse
    # positive integrand: shrinking the excision can only grow the integral
    if diff < -1e-9 or diff > 10.0 * excision_scale ** 2 * max(abs(fine), 1e-30):
        raise QuadratureError(
            f"angular momentum integral unstable under excision refinement "
            f"({coarse!r} vs {fine!r})")
    best = fine + (fine - coarse) / 3.0
    l_z = charge * pole_strength * best
    return FieldAngularMomentum(component=l_z,
                                coefficient=best,
                                charge=charge, pole_strength=pole_strength,
                                separation=separation, excision_radius=delta,
                                refinement_difference=diff)
