"""Exception types shared across the package."""


class TrapshiftError(Exception):
    """Base class for numerical failures in this package."""


class TrackingAmbiguityError(TrapshiftError):
    """Branch continuation stayed ambiguous after maximal grid refinement."""

    def __init__(self, message: str, window: tuple[float, float]):
        super().__init__(message)
        self.window = window


class ResonanceWindowError(TrapshiftError):
    """No usable extremum found inside the scan window after escalation."""
