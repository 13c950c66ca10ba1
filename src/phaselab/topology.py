"""Linking numbers and the interlock phase rule.

A real two-level Hamiltonian field H(R) = A1(R) sigma1 + A3(R) sigma3 is
degenerate where both coefficient fields vanish; generically that zero set
is a curve in 3-space.  The loop phase of the ground band around a probe
loop is 0 or pi, and it is pi exactly when the probe links the degeneracy
curve an odd number of times.  This module computes Gauss linking numbers
exactly per segment pair, exposes the parity rule, and measures the loop
phase directly; the degeneracy curve itself is supplied by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import berry
from .errors import GeometryError, ResolutionError

_CLOSURE_TOL = 1e-12


@dataclass(frozen=True)
class Curve3D:
    """Closed oriented polyline in 3-space: first point repeated last."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError("points must be an (N, 3) array")
        if pts.shape[0] < 8:
            raise ValueError("a closed curve needs at least 8 points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("curve points must be finite")
        if np.linalg.norm(pts[0] - pts[-1]) > _CLOSURE_TOL:
            raise ValueError("curve is not closed (first and last points differ)")
        pts = pts.copy()
        pts[-1] = pts[0]
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_function(cls, fn: Callable[[float], object], samples: int) -> "Curve3D":
        """Sample fn on [0, 1]; fn(1) must return to fn(0) within 1e-9."""
        if samples < 8:
            raise ValueError("need at least 8 samples")
        pts = np.array([np.asarray(fn(t), dtype=float)
                        for t in np.linspace(0.0, 1.0, samples + 1)])
        if np.linalg.norm(pts[0] - pts[-1]) > 1e-9:
            raise ValueError("fn does not close the loop")
        pts[-1] = pts[0]
        return cls(pts)

    @classmethod
    def circle(cls, center, radius: float, normal, samples: int = 200,
               turns: int = 1) -> "Curve3D":
        """Planar circle (optionally wound several turns) about an axis."""
        if radius <= 0.0:
            raise ValueError("radius must be positive")
        n = np.asarray(normal, dtype=float)
        n = n / np.linalg.norm(n)
        trial = np.array([1.0, 0.0, 0.0])
        if abs(trial @ n) > 0.9:
            trial = np.array([0.0, 1.0, 0.0])
        u = np.cross(n, trial)
        u /= np.linalg.norm(u)
        v = np.cross(n, u)
        ang = np.linspace(0.0, 2.0 * math.pi * turns, samples + 1)
        c = np.asarray(center, dtype=float)
        pts = (c[None, :] + radius * np.cos(ang)[:, None] * u[None, :]
               + radius * np.sin(ang)[:, None] * v[None, :])
        pts[-1] = pts[0]
        return cls(pts)

    @property
    def segment_count(self) -> int:
        return self.points.shape[0] - 1

    def reversed(self) -> "Curve3D":
        return Curve3D(self.points[::-1])

    def transformed(self, rotation=None, scale: float = 1.0,
                    translation=(0.0, 0.0, 0.0)) -> "Curve3D":
        pts = self.points * float(scale)
        if rotation is not None:
            pts = pts @ np.asarray(rotation, dtype=float).T
        return Curve3D(pts + np.asarray(translation, dtype=float))


@dataclass(frozen=True)
class RealFieldHamiltonian:
    """Coefficient fields of H(R) = a1(R) sigma1 + a3(R) sigma3 over 3-space."""

    a1: Callable[[np.ndarray], float]
    a3: Callable[[np.ndarray], float]


# ---------------------------------------------------------------------------
# Gauss linking number

def _min_point_distance(a: np.ndarray, b: np.ndarray) -> float:
    best = math.inf
    for block in range(0, a.shape[0], 256):
        chunk = a[block:block + 256]
        d2 = np.sum((chunk[:, None, :] - b[None, :, :]) ** 2, axis=2)
        best = min(best, float(d2.min()))
    return math.sqrt(best)


def _unitize(v: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(v, axis=-1, keepdims=True)
    return np.where(norm > 1e-300, v / np.maximum(norm, 1e-300), 0.0)


def gauss_linking_sum(a: Curve3D, b: Curve3D) -> float:
    """Gauss double integral over all segment pairs, before rounding.

    Each pair contributes the exact signed solid angle of the quadrilateral
    spanned by the two segments (sum of four arcsin terms), so the total is
    exact for the polygons themselves rather than a quadrature estimate.
    """
    pa, pb = a.points[:-1], a.points[1:]
    qa, qb = b.points[:-1], b.points[1:]
    ta = pb - pa
    tb = qb - qa
    total = 0.0
    for block in range(0, pa.shape[0], 128):
        sl = slice(block, block + 128)
        r1 = qa[None, :, :] - pa[sl][:, None, :]
        r2 = qb[None, :, :] - pa[sl][:, None, :]
        r3 = qb[None, :, :] - pb[sl][:, None, :]
        r4 = qa[None, :, :] - pb[sl][:, None, :]
        n1 = _unitize(np.cross(r1, r2))
        n2 = _unitize(np.cross(r2, r3))
        n3 = _unitize(np.cross(r3, r4))
        n4 = _unitize(np.cross(r4, r1))

        def dots(u, v):
            return np.clip(np.einsum("ijk,ijk->ij", u, v), -1.0, 1.0)

        omega = (np.arcsin(dots(n1, n2)) + np.arcsin(dots(n2, n3))
                 + np.arcsin(dots(n3, n4)) + np.arcsin(dots(n4, n1)))
        sign = np.sign(np.einsum("ijk,ijk->ij",
                                 np.cross(tb[None, :, :], ta[sl][:, None, :]), r1))
        total += float(np.sum(omega * sign))
    return total / (4.0 * math.pi)


def linking_number(a: Curve3D, b: Curve3D) -> int:
    """Linking number of two disjoint closed curves, rounded from the exact
    segment-pair solid-angle sum.

    Curves closer than 1e-9 are treated as touching (GeometryError); a
    pre-rounding residual above 0.05 means the polygons are too coarse for
    their separation and raises ResolutionError.
    """
    if _min_point_distance(a.points, b.points) < 1e-9:
        raise GeometryError("curves touch; linking number undefined")
    raw = gauss_linking_sum(a, b)
    nearest = round(raw)
    residual = abs(raw - nearest)
    if residual > 0.05:
        raise ResolutionError(
            f"linking sum {raw:.4f} is not close to an integer; "
            "refine the curve sampling", residual=residual)
    return int(nearest)


def topological_phase_predict(probe: Curve3D, degeneracy: Curve3D) -> float:
    """Loop phase forced by time reversal: pi for odd linking, else 0."""
    return math.pi * (linking_number(probe, degeneracy) % 2)


def real_field_loop_phase(h: RealFieldHamiltonian, probe: Curve3D) -> float:
    """Ground-band loop phase of a1 sigma1 + a3 sigma3 along the probe.

    The coefficient pair traces a planar loop (a1, 0, a3) on which the
    spin-half loop phase is evaluated; time reversal confines the answer
    to {0, pi} up to sampling error.  Probe points sitting on the
    degeneracy set raise DegeneracyError from the phase evaluation.
    """
    pts = probe.points[:-1]
    coeffs = np.array([[h.a1(x), 0.0, h.a3(x)] for x in pts])
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("field is not finite along the probe")
    return berry.wilson_loop_phase(coeffs)
