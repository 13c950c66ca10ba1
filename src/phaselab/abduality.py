"""Electric interferometer duality: probe phase versus source-side momentum.

An electron splits into two force-free paths held for time t at potentials
differing by 2Ex (capacitor plates at separation x with internal field E).
The relative phase between the paths is 2eExt.  Read instead from the
capacitor's side, the plates pick up momenta +-eEt, so the plate relative
coordinate acquires the phase (2eEt) * x: the same number.  The module
keeps that equality exact by computing the product e*E*x*t once and
deriving both descriptions from it; the match flag records the assertion.

Settings may be numbers or equal-shape numpy arrays.  Arrays are evaluated
element by element with the same floating-point operations as numbers, so
a batch of settings gives, bit for bit, what one call per setting would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class CapacitorScenario:
    """Charge e, internal field E, plate separation x, dwell time t: numbers,
    or equal-shape arrays of settings."""

    e: float
    E: float
    x: float
    t: float

    def __post_init__(self):
        if (np.any(self.e <= 0.0) or np.any(self.E <= 0.0)
                or np.any(self.x <= 0.0)):
            raise ValueError("e, E, x must be positive")
        if np.any(self.t < 0.0):
            raise ValueError("t must be non-negative")


class DualityReport(NamedTuple):
    """The probe-side phase, and whether the system side gives the same."""

    probe_phase: float
    match: bool


def duality_report(s: CapacitorScenario) -> DualityReport:
    """Evaluate the two descriptions of the interferometer phase.

    probe_phase is the L-R potential-difference phase e(V_L - V_R)t = 2eExt;
    the system side is the relative-coordinate phase (2eEt) * x of the
    plates, whose momenta are +-eEt.  Both are assembled from the single
    product core = e*E*x*t, so the match is exact in floating point, not
    merely close.
    """
    core = s.e * s.E * s.x * s.t
    probe_phase = 2.0 * core
    system_phase = 2.0 * core
    return DualityReport(probe_phase=probe_phase,
                         match=probe_phase == system_phase)


def which_path_ratio(s: CapacitorScenario, localization):
    """Momentum uncertainty forced by localization, against the plate kick.

    Resolving which plate moved requires localizing the plate coordinate
    within ``localization``, which costs momentum spread 1/localization
    (hbar = 1, minimum-uncertainty convention of the setup, looser than the
    1/2 of the exact bound).  ratio = (1/localization)/(eEt), inf at t = 0:
    above 1 the uncertainty swamps the kick itself, so whenever the
    acquired phase is still modest (2eExt <= pi) the which-path record and
    the fringes cannot coexist.
    """
    if np.any(localization <= 0.0):
        raise ValueError("localization must be positive")
    kick = s.e * s.E * s.t
    with np.errstate(divide="ignore"):
        return np.divide(1.0 / localization, kick)


def fringe_visibility(momentum_kick: float, width: float) -> float:
    """Overlap modulus of a Gaussian plate state with its kicked copy.

    A position-space Gaussian of standard deviation ``width`` boosted by
    ``momentum_kick`` overlaps the unboosted state with modulus
    exp(-kick^2 width^2 / 2): the fringe visibility left after the plates
    have recorded the path.
    """
    if width <= 0.0:
        raise ValueError("width must be positive")
    return math.exp(-0.5 * (momentum_kick * width) ** 2)


# grid of sampled_visibility: points, and half-span in widths, beyond which
# the density holds erfc(12/sqrt 2) = 3.6e-33
_OVERLAP_POINTS = 4096
_OVERLAP_HALF_SPAN = 12.0


def sampled_visibility(momentum_kick: float, width: float) -> tuple[float, float]:
    """Overlap modulus of a sampled Gaussian with its kicked copy, and a
    bound on its distance from fringe_visibility.

    psi(x) = (2 pi w^2)^(-1/4) exp(-x^2 / (4 w^2)), whose density |psi|^2
    has standard deviation w = width, is sampled at N = _OVERLAP_POINTS
    points x_n of spacing h across [-H w, H w], H = _OVERLAP_HALF_SPAN, and
    the overlap is h |sum_n conj(psi) exp(i k x_n) psi|.  By Poisson
    summation, the same sum over the unbounded grid is the exact overlap
    exp(-k^2 w^2 / 2) plus aliases exp(-(2 pi m / h - k)^2 w^2 / 2), m != 0,
    which total at most 4 exp(-c^2 / 2) with c = (2 pi / h - |k|) w >= 1.
    The points cut off beyond +-H w hold at most the density's tail mass
    erfc(H / sqrt 2), since each is worth less than the density's integral
    over the spacing inside it.  The rounding of N terms of total weight
    about 1 adds at most N 2^-52.  The bound is the sum of the three.
    """
    if width <= 0.0:
        raise ValueError("width must be positive")
    half = _OVERLAP_HALF_SPAN * width
    x, h = np.linspace(-half, half, _OVERLAP_POINTS, retstep=True)
    c = (2.0 * math.pi / h - abs(momentum_kick)) * width
    if c < 1.0:
        raise ValueError("the grid does not resolve the kick")
    psi = np.exp(-0.25 * (x / width) ** 2) / math.sqrt(
        math.sqrt(2.0 * math.pi) * width)
    overlap = h * abs(np.vdot(psi, np.exp(1j * momentum_kick * x) * psi))
    bound = (4.0 * math.exp(-0.5 * c * c)
             + math.erfc(_OVERLAP_HALF_SPAN / math.sqrt(2.0))
             + _OVERLAP_POINTS * 2.0 ** -52)
    return float(overlap), bound
