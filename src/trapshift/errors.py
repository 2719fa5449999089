"""Exception types shared across the package."""


class TrapshiftError(Exception):
    """Base class for numerical failures in this package."""


class TrackingAmbiguityError(TrapshiftError):
    """Branch continuation stayed ambiguous after maximal grid refinement."""


class ResonanceWindowError(TrapshiftError):
    """No usable extremum found inside the scan window after escalation."""
