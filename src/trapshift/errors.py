"""Exception types shared across the package."""


class TrapshiftError(Exception):
    """Base class for numerical failures in this package."""


class TrackingAmbiguityError(TrapshiftError):
    """Branch continuation stayed ambiguous after maximal grid refinement."""


class ResonanceWindowError(TrapshiftError):
    """No stationary point of the pair branch found inside the scan window."""


class PerturbativeRegimeWarning(UserWarning):
    """The drive is too strong for the perturbative shift formulas."""
