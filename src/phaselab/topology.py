"""Linking numbers and the interlock phase rule.

A real two-level Hamiltonian field H(R) = A1(R) sigma1 + A3(R) sigma3 is
degenerate where both coefficient fields vanish; generically that zero set
is a curve in 3-space.  The loop phase of the ground band around a probe
loop is 0 or pi, and it is pi exactly when the probe links the degeneracy
curve an odd number of times.  This module computes Gauss linking numbers
exactly per segment pair, as solid angles of triangles on one grid of
vertex differences whose norms and dots neighbouring pairs share, exposes
the parity rule, and measures the loop phase directly; the degeneracy curve
itself is supplied by the caller.
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

_ROW_BLOCK = 32


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _gauss_pass(p: np.ndarray, q: np.ndarray) -> tuple[float, float]:
    """Raw Gauss sum and least squared vertex distance of closed polylines
    p and q, on the vertex grid R[i, j] = q[j] - p[i] in blocks of rows.

    Pair (i, j) spans the quadrilateral R00, R01, R11, R10 (R01 = R[i, j+1],
    R10 = R[i+1, j]); its solid angle is that of the triangles (R00, R01,
    R11) and (R00, R11, R10), and with R running from p to q these sum to
    minus 4 pi times the Gauss sum.  Norms come once per vertex, dots once
    per grid edge and diagonal, and the diagonal cross X = R00 x R11 gives
    both triple products: R00.(R01 x R11) = -R01.X, R00.(R11 x R10) = R10.X.
    """
    total, nearest = 0.0, math.inf
    for start in range(0, p.shape[0] - 1, _ROW_BLOCK):
        rows = p[start:start + _ROW_BLOCK + 1]
        r = [q[None, :, k] - rows[:, None, k] for k in range(3)]
        squares = _dot(r, r)
        nearest = min(nearest, float(squares.min()))
        n = np.sqrt(squares)
        r00, r01 = [c[:-1, :-1] for c in r], [c[:-1, 1:] for c in r]
        r10, r11 = [c[1:, :-1] for c in r], [c[1:, 1:] for c in r]
        across = _dot([c[:, :-1] for c in r], [c[:, 1:] for c in r])
        down = _dot([c[:-1] for c in r], [c[1:] for c in r])
        diagonal = _dot(r00, r11)
        x = (r00[1] * r11[2] - r00[2] * r11[1],
             r00[2] * r11[0] - r00[0] * r11[2],
             r00[0] * r11[1] - r00[1] * r11[0])
        upper, _ = berry._triangle_solid_angle(
            -_dot(r01, x), (n[:-1, :-1], n[:-1, 1:], n[1:, 1:]),
            (across[:-1], diagonal, down[:, 1:]))
        lower, _ = berry._triangle_solid_angle(
            _dot(r10, x), (n[:-1, :-1], n[1:, 1:], n[1:, :-1]),
            (diagonal, down[:, :-1], across[1:]))
        total -= float(np.sum(upper) + np.sum(lower))
    return total / (4.0 * math.pi), nearest


def gauss_linking_sum(a: Curve3D, b: Curve3D) -> float:
    """Gauss double integral over all segment pairs, before rounding.

    Each pair contributes the exact signed solid angle of the quadrilateral
    spanned by the two segments, as two Van Oosterom triangles
    (berry._triangle_solid_angle), so the total is exact for the polygons
    themselves rather than a quadrature estimate.  Norms, dots and vertex
    distances come from one grid (_gauss_pass); curves closer than 1e-9
    touch and raise GeometryError.
    """
    raw, nearest = _gauss_pass(a.points, b.points)
    if math.sqrt(nearest) < 1e-9:
        raise GeometryError("curves touch; linking number undefined")
    return raw


def integer_linking(raw: float) -> int:
    """Nearest integer to a Gauss sum.  The sum is exact for disjoint
    polygons; a residual above 0.05 means segments cross between vertices,
    closer than the sampling shows, and raises ResolutionError."""
    nearest = round(raw)
    residual = abs(raw - nearest)
    if residual > 0.05:
        raise ResolutionError(
            f"linking sum {raw:.4f} is not close to an integer; "
            "refine the curve sampling", residual=residual)
    return int(nearest)


def linking_number(a: Curve3D, b: Curve3D) -> int:
    """Linking number of two disjoint closed curves: gauss_linking_sum
    rounded by integer_linking."""
    return integer_linking(gauss_linking_sum(a, b))


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
