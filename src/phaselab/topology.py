"""Linking numbers and the interlock phase rule.

A real two-level Hamiltonian field H(R) = A1(R) sigma1 + A3(R) sigma3 is
degenerate where both coefficient fields vanish; generically that zero set
is a curve in 3-space.  The loop phase of the ground band around a probe
loop is 0 or pi, and it is pi exactly when the probe links the degeneracy
curve an odd number of times.  This module computes Gauss linking numbers
exactly per block of segment pairs, as solid angles of triangles: a far
block by the fan over its boundary loop, a near block per segment pair on a
grid of vertex differences whose norms and dots neighbouring pairs share.
It exposes the parity rule and measures the loop phase directly; the
degeneracy curve itself is supplied by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

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
    def circle(cls, center, radius: float, normal, samples: int,
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


class RealFieldHamiltonian(NamedTuple):
    """Coefficient fields of H(R) = a1(R) sigma1 + a3(R) sigma3 over 3-space.

    Each field takes the components R = (x, y, z) as three arrays and
    returns its values elementwise."""

    a1: Callable[[np.ndarray], np.ndarray]
    a3: Callable[[np.ndarray], np.ndarray]


# ---------------------------------------------------------------------------
# Gauss linking number

# Segments per block of each curve in the Gauss sum.  A far pair of blocks
# costs a fan of about 4 B triangles over its boundary, a near pair 2 B^2.
_BLOCK = 20


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _blocks(points: np.ndarray, size: int):
    """A closed polyline cut into blocks of `size` segments: the block
    vertices as components (3, size + 1, blocks), the last block padded
    with the closing vertex; a (size, blocks) mask of the real segments;
    and each block's bounding ball as (centres, radii)."""
    segments = points.shape[0] - 1
    first = size * np.arange(-(-segments // size))
    rows = points.T[:, np.minimum(np.arange(size + 1)[:, None] + first,
                                  segments)]
    centres = 0.5 * (rows.min(axis=1) + rows.max(axis=1))
    offsets = rows - centres[:, None]
    radii = np.sqrt(_dot(offsets, offsets).max(axis=0))
    return rows, np.arange(size)[:, None] + first < segments, centres, radii


def _boundary(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid offsets (di, dj) around an m x n block of segment pairs in the
    orientation R00 -> R01 -> R11 -> R10 of each pair: j up at i0, i up
    at j1, j down at i1, i down at j0."""
    di = np.concatenate([np.zeros(n, int), np.arange(m), np.full(n, m),
                         np.arange(m, 0, -1)])
    dj = np.concatenate([np.arange(n), np.full(m, n), np.arange(n, 0, -1),
                         np.zeros(m, int)])
    return di, dj


def _quad_sum(r, real) -> tuple[float, float]:
    """Solid angle of the quadrilaterals of vertex grids r (components of
    shape (m + 1, n + 1, ...)) where `real`, and their least squared vertex
    distance.

    Pair (i, j) spans the quadrilateral R00, R01, R11, R10 (R01 = R[i, j+1],
    R10 = R[i+1, j]); its solid angle is that of the triangles (R00, R01,
    R11) and (R00, R11, R10).  Norms come once per vertex, dots once per
    grid edge and diagonal, and the diagonal cross X = R00 x R11 gives both
    triple products: R00.(R01 x R11) = -R01.X, R00.(R11 x R10) = R10.X.
    """
    squares = _dot(r, r)
    n = np.sqrt(squares)
    r00, r01 = [c[:-1, :-1] for c in r], [c[:-1, 1:] for c in r]
    r10, r11 = [c[1:, :-1] for c in r], [c[1:, 1:] for c in r]
    across = _dot([c[:, :-1] for c in r], [c[:, 1:] for c in r])
    down = _dot([c[:-1] for c in r], [c[1:] for c in r])
    diagonal = _dot(r00, r11)
    x = _cross(r00, r11)
    upper, _ = berry._triangle_solid_angle(
        -_dot(r01, x), (n[:-1, :-1], n[:-1, 1:], n[1:, 1:]),
        (across[:-1], diagonal, down[:, 1:]))
    lower, _ = berry._triangle_solid_angle(
        _dot(r10, x), (n[:-1, :-1], n[1:, 1:], n[1:, :-1]),
        (diagonal, down[:, :-1], across[1:]))
    return float(np.sum(upper + lower, where=real)), float(squares.min())


def _fan_sums(v) -> np.ndarray:
    """Solid angles of closed loops v (components of shape (L, ...), the
    loop's vertices along the first axis), each fanned from its first
    vertex V0 into the triangles (V0, Vk, Vk+1)."""
    n = np.sqrt(_dot(v, v))
    apex, rest = [c[0] for c in v], [c[1:] for c in v]
    tail, head = [c[:-1] for c in rest], [c[1:] for c in rest]
    spoke = _dot(apex, rest)
    omega, _ = berry._triangle_solid_angle(
        _dot(apex, _cross(tail, head)), (n[0], n[1:-1], n[2:]),
        (spoke[:-1], spoke[1:], _dot(tail, head)))
    return omega.sum(axis=0)


def _gauss_pass(p: np.ndarray, q: np.ndarray) -> tuple[float, float]:
    """Raw Gauss sum of closed polylines p and q over the vertex grid
    R[i, j] = q[j] - p[i], and the least squared vertex distance of the
    near blocks (inf when there are none).

    The grid is cut into blocks of up to _BLOCK segments of each curve.
    The solid angles of all quadrilaterals sum to minus 4 pi times the Gauss
    sum.  A block pair whose bounding balls (c_p, r_p), (c_q, r_q) satisfy
    |c_q - c_p| > 1.01 (r_p + r_q) + 1e-9 is far: every R of the block lies
    in an open cone about c_q - c_p, more than 1e-9 from the origin, and so
    do its quadrilaterals and any fan over its boundary.  The patch and that
    fan then close a surface that does not wind around the origin, so the
    patch's exact solid angle is the fan over its boundary loop
    (_fan_sums, for every block pair in one broadcast, kept where far).
    Near block pairs go quadrilateral by quadrilateral (_quad_sum), all in
    one array pass.
    """
    m, n = min(_BLOCK, p.shape[0] - 1), min(_BLOCK, q.shape[0] - 1)
    pr, p_real, pc, p_radius = _blocks(p, m)
    qr, q_real, qc, q_radius = _blocks(q, n)
    gap = qc[:, None, :] - pc[:, :, None]
    far = np.sqrt(_dot(gap, gap)) > (
        1.01 * (p_radius[:, None] + q_radius) + 1e-9)
    total, nearest = 0.0, math.inf
    if far.any():
        di, dj = _boundary(m, n)
        fans = _fan_sums(qr[:, dj, None, :] - pr[:, di, :, None])
        total -= float(np.sum(fans, where=far))
    a, b = np.nonzero(~far)
    if a.size:
        near, nearest = _quad_sum(
            qr.take(b, axis=2)[:, None] - pr.take(a, axis=2)[:, :, None],
            p_real.take(a, axis=1)[:, None] & q_real.take(b, axis=1))
        total -= near
    return total / (4.0 * math.pi), nearest


def gauss_linking_sum(a: Curve3D, b: Curve3D) -> float:
    """Gauss double integral over all segment pairs, before rounding.

    Each pair contributes the exact signed solid angle of the quadrilateral
    spanned by the two segments, so the total is exact for the polygons
    themselves rather than a quadrature estimate.  _gauss_pass sums it per
    block of up to _BLOCK segments of each curve, exactly per block: a far
    block pair as the fan over its boundary loop, a near one per segment
    pair, each quadrilateral as two triangles, all through the Van Oosterom
    triangle of berry._triangle_solid_angle.  Curves with two vertices
    closer than 1e-9 touch and raise GeometryError.
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
            "refine the curve sampling")
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

    The coefficient pair, evaluated once over the probe's component arrays,
    traces a planar loop (a1, 0, a3) on which the spin-half loop phase is
    evaluated; time reversal confines the answer to {0, pi} up to sampling
    error.  Probe points sitting on the degeneracy set raise DegeneracyError
    from the phase evaluation.
    """
    r = probe.points[:-1].T
    coeffs = np.column_stack((h.a1(r), np.zeros(r.shape[1]), h.a3(r)))
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("field is not finite along the probe")
    return berry.wilson_loop_phase(coeffs)
