"""Exception types shared across the package.

Everything that can go wrong falls into one of three buckets: the caller
handed us data that violates a documented precondition (ValueError family),
a matrix that must be invertible or full rank is not (SingularityError
family), or the numerics themselves broke down mid-run (NumericalError).
Keeping them distinct lets the CLI map failures onto stable exit codes.
"""

from __future__ import annotations

__all__ = [
    "DimensionError",
    "DomainError",
    "ConfigurationError",
    "GainFloorError",
    "InadmissibleEpsilonError",
    "FitError",
    "SingularityError",
    "DegeneracyError",
    "ConstructionError",
    "NumericalError",
]


class DimensionError(ValueError):
    """An array has the wrong shape for the requested operation."""


class DomainError(ValueError):
    """A value lies outside the mathematical domain of the operation."""


class ConfigurationError(ValueError):
    """A run configuration is inconsistent or incomplete."""


class GainFloorError(ConfigurationError):
    """Proportional gain does not clear the stability floor in strict mode."""


class InadmissibleEpsilonError(ValueError):
    """A Lyapunov mixing weight makes one of the quadratic forms indefinite."""


class FitError(ValueError):
    """Not enough usable points to fit a convergence rate."""


class SingularityError(ValueError):
    """A matrix required to be invertible is singular to working precision.

    Carries the offending smallest singular value when it is known, so
    callers can report how close to singular the matrix actually was, the
    index of the offending ``member`` of a stack, and its simulation time
    ``t`` when it has one.
    """

    def __init__(
        self,
        message: str,
        sigma_min: float | None = None,
        member: int | tuple | None = None,
        t: float | None = None,
    ):
        super().__init__(message)
        self.sigma_min = sigma_min
        self.member = member
        self.t = t


class DegeneracyError(SingularityError):
    """A polar factor is not recoverable because the matrix is rank deficient.

    :func:`~lieobs.matcore.polar_so3` marks such a matrix NaN rather than
    raising; the class remains for callers that catch it.
    """


class ConstructionError(SingularityError):
    """A derived matrix that must be invertible came out rank deficient."""


class NumericalError(RuntimeError):
    """Integration produced a non-finite state.

    Attributes
    ----------
    t : float or None
        Simulation time at which the breakdown was detected.
    """

    def __init__(self, message: str, t: float | None = None):
        super().__init__(message)
        self.t = t
