"""Exception types shared across the package."""


class PhaseLabError(Exception):
    """Base class for physics and numerics failures raised by this package."""


class ScheduleError(PhaseLabError):
    """A Hamiltonian schedule produced a non-Hermitian operator."""


class CyclicityError(PhaseLabError):
    """An evolution expected to be cyclic did not return to the initial ray."""


class DegeneracyError(PhaseLabError):
    """A band gap closed at a sampled parameter point."""


class RegimeWarning(UserWarning):
    """Parameters are near the edge of a derivation's validity regime."""


class QuadratureError(PhaseLabError):
    """A quadrature or tolerance-refinement self-check failed to converge."""


class GeometryError(PhaseLabError):
    """Input geometry is degenerate for the requested operation."""


class ResolutionError(PhaseLabError):
    """Sampling is too coarse for a reliable answer."""


class StabilityError(PhaseLabError):
    """A time stepper drifted beyond its stability tolerance."""


class IntegratorError(PhaseLabError):
    """An ODE integration failed its conservation self-check."""


class DynamicsError(PhaseLabError):
    """A trajectory left the regime the measurement assumes."""
