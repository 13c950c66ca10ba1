"""Geometric phases of a spin in a steered field, and the field-momentum side.

The discrete Wilson loop used here is exact in a useful sense: for spin-1/2
the accumulated overlap phase around a closed chain of field directions
equals half the solid angle of the geodesic polygon through those
directions, so the loop phase and the polygon solid angle can be compared
at machine precision on the same sample points.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from typing import NamedTuple

import numpy as np

from . import qcore
from .errors import DegeneracyError, QuadratureError, ResolutionError


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


def wilson_loop_phase(directions) -> float:
    """Discrete loop phase -arg prod <u_k|u_{k+1}> of the ground band, in
    (-pi, pi].

    ``directions`` are field directions n_k; the band states are the
    ground eigenvectors of n_k . sigma, all built in one array call to
    qcore.field_eigenvectors, the closed form and phase rule that also give
    the propagator its start states.  The result is gauge independent
    because the chain closes on itself.  Overlap between neighbours falling
    below 0.5 means the loop is sampled too coarsely and raises
    ResolutionError.
    """
    states = qcore.field_eigenvectors(_unit_rows(directions))[:, :, 0]
    overlaps = np.einsum("ij,ij->i", states.conj(), np.roll(states, -1, axis=0))
    moduli = np.abs(overlaps)
    worst = float(moduli.min())
    if worst < 0.5:
        raise ResolutionError(
            f"adjacent band states nearly orthogonal (|overlap| = {worst:.3f}); "
            "refine the loop sampling")
    return qcore.wrap_angle(-cmath.phase(complex(np.prod(overlaps / moduli))))


def _triangle_solid_angle(triple, norms, dots):
    """Signed solid angles 2 atan2(a.(b x c), D) of triangles (a, b, c) seen
    from the origin, and D = |a||b||c| + (a.b)|c| + (a.c)|b| + (b.c)|a|
    (Van Oosterom & Strackee, IEEE Trans. Biomed. Eng. 30, 125 (1983)).
    Takes a.(b x c), (|a|, |b|, |c|) and (a.b, a.c, b.c), which callers
    share between neighbouring triangles; D > 0 keeps clear of the cut."""
    la, lb, lc = norms
    ab, ac, bc = dots
    denom = la * lb * lc + ab * lc + ac * lb + bc * la
    return 2.0 * np.arctan2(triple, denom), denom


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
        omega, denom = _triangle_solid_angle(
            crosses @ ref, (1.0, 1.0, 1.0), (d @ ref, nxt @ ref, edge_dots))
        if np.min(denom) > 0.05:
            return float(np.sum(omega))
    raise ResolutionError("no anchor keeps the triangle fan well conditioned; "
                          "refine the loop sampling")


def spin_rotation_schedule(amplitude: float, colatitude: float,
                           period: float) -> qcore.HamiltonianSchedule:
    """Field of fixed magnitude swept once around a cone about +z.

    H(t) = amplitude * n(t) . sigma with n at the given colatitude and
    azimuth 2 pi t / period, given as the array field
    (A sin(theta) cos(phi), A sin(theta) sin(phi), A cos(theta)).
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
        return (amplitude * st * np.cos(phi), amplitude * st * np.sin(phi),
                amplitude * ct)

    return qcore.HamiltonianSchedule(coefficients, period)


def cyclic_phase_decomposition(amplitude: float, colatitude: float, period: float,
                               step: float) -> qcore.PhaseDecomposition:
    """Evolve the instantaneous ground state once around the cone and split
    the acquired phase.  Needs amplitude * period >> 1 to stay cyclic."""
    schedule = spin_rotation_schedule(amplitude, colatitude, period)
    psi0 = qcore.ground_state(schedule, 0.0)
    return qcore.phase_decompose(schedule, psi0, step)


class FieldAngularMomentum(NamedTuple):
    """Electromagnetic field angular momentum of a charge-pole pair.

    component is L_z with the charge at the origin and the pole on +z;
    coefficient = L_z / (charge * pole_strength) and the classic result is
    coefficient = 1 for any separation (the pair stores one unit of e g
    along the line from charge to pole).
    """

    component: float
    coefficient: float
    refinement_difference: float


def _rho_integral(z: float, separation: float, excision: float) -> float:
    """Exact inner integral of rho^3 / (|s|^3 |r|^3) over rho >= rho_floor(z).

    With a = z^2, b = (z - separation)^2, L = rho_floor^2 (the excised
    disks of radius ``excision`` about both points), S = a + b and
    q = sqrt((L + a)(L + b)), the antiderivative gives
    (S L + a b) / (q (S q + S L + 2 a b)).  Every term is positive, so
    nothing cancels, and q >= excision^2 on the disks; at L = 0 it is
    1 / (|z| + |z - separation|)^2.
    """
    a = z * z
    b = (z - separation) * (z - separation)
    floor2 = max(excision * excision - a, excision * excision - b, 0.0)
    total = a + b
    q = math.sqrt((floor2 + a) * (floor2 + b))
    return (total * floor2 + a * b) / (q * (total * q + total * floor2
                                            + 2.0 * a * b))


_EXCISION = 0.01
# _rho_integral's largest products, q (S q + ...) with q ~ delta s and
# S ~ s^2 on the excision disks, come to delta^2 s^4 within 6% for
# delta = _EXCISION s in the coarse run and half that in the fine: from
# (_EXCISION / 2)^2 s^6 to _EXCISION^2 s^6.  The separations in
# SEPARATION_RANGE keep both normal floats with a factor 2 to spare; the
# other products go as s^4 or less and stay well inside
SEPARATION_RANGE = (
    (2.0 * sys.float_info.min) ** (1 / 6) / (0.5 * _EXCISION) ** (1 / 3),
    (0.5 * sys.float_info.max) ** (1 / 6) / _EXCISION ** (1 / 3))


@functools.cache
def _disk_rule() -> tuple[tuple[float, float], ...]:
    """(node, weight) pairs of the 10-node Gauss-Legendre rule on [-1, 1],
    built on first use: numpy.polynomial takes longer to import than to use."""
    from numpy.polynomial.legendre import leggauss
    return tuple(zip(*(v.tolist() for v in leggauss(10))))


def _angular_momentum_integral(separation: float, excision: float) -> float:
    """(R/2) * II rho^3 / (|s|^3 |r|^3) drho dz over the excised half-plane.

    Off the disks _rho_integral is 1 / (|z| + |z - s|)^2, which integrates
    to 1 / (2 (s + 2 delta)) on each tail and (s - 2 delta) / s^2 between.
    _disk_rule takes each disk, where it is analytic and shaped by delta / s.
    """
    s, delta = separation, excision
    disks = delta * sum(w * (_rho_integral(x * delta, s, delta)
                             + _rho_integral(s + x * delta, s, delta))
                        for x, w in _disk_rule())
    return 0.5 * s * (1.0 / (s + 2.0 * delta) + (s - 2.0 * delta) / (s * s)
                      + disks)


def field_angular_momentum(charge: float, pole_strength: float,
                           separation: float) -> FieldAngularMomentum:
    """Integrate the field momentum circulation of a charge-pole pair.

    The E x B / 4 pi momentum density is reduced to a half-plane integral by
    axial symmetry, with disks of radius delta = _EXCISION times the
    separation excised around both singular points.  That integral is
    exactly 1 - (2/3) (delta/s)^2, which Richardson extrapolation over a
    halved radius cancels, so a coefficient of 1 at every separation checks
    the disk rule and closed forms of _angular_momentum_integral.  A shift
    between the two runs outside the delta^2 budget raises QuadratureError.
    """
    if separation <= 0.0:
        raise ValueError("separation must be positive")
    delta = _EXCISION * separation
    coarse = _angular_momentum_integral(separation, delta)
    fine = _angular_momentum_integral(separation, 0.5 * delta)
    diff = fine - coarse
    # positive integrand: shrinking the excision can only grow the integral
    if diff < -1e-9 or diff > 10.0 * _EXCISION ** 2 * max(abs(fine), 1e-30):
        raise QuadratureError(
            f"angular momentum integral unstable under excision refinement "
            f"({coarse!r} vs {fine!r})")
    best = fine + (fine - coarse) / 3.0
    l_z = charge * pole_strength * best
    return FieldAngularMomentum(component=l_z, coefficient=best,
                                refinement_difference=diff)
