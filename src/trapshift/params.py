"""Problem definition types: trap/laser parameters and sideband labels.

Everything downstream works in hbar = 1 units with the trap frequency as the
unit of energy and frequency: ``rabi`` and ``delta`` are ratios to omega_t.
Physical units exist only at the command line, which converts on the way in
and out.  Each domain rule is stated here once, next to ``MAX_LEVELS``:
``check_level``, the one integer rule, holds a level, column length, n_max or tag
level to 0..MAX_LEVELS - 1 (or 0..n_max), chi's greater index or a Laguerre order to
0..``FLOAT_EXACT_TOP``; ``check_eta`` eta finite and >= 0, ``check_delta`` a detuning
within 2 MAX_LEVELS of 0, past every pair's Delta0.  Both routes call them before a
value is compared or sized, so both are bounded alike.  ``as_double`` reads each
real input (every ``TrapParams`` field, a raw eta, a Laguerre argument) as a
double first, so no route computes in another precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral, Real

#: Most levels of any basis, the padding of ``hamiltonian.oracle_pad``
#: included; every sideband level lies below it.
MAX_LEVELS = 10_000
#: Largest n with n + 1.0 exact, the top of an integer read as a double.
FLOAT_EXACT_TOP = 2**53 - 1


def check_level(name: str, value: int, top: int | None = MAX_LEVELS - 1) -> None:
    """``ValueError`` unless value is an integer (``numbers.Integral``) in 0..top, or any at top None."""
    if not isinstance(value, Integral):
        raise ValueError(f"{name} must be of integer type, got {value!r}")
    if top is not None and not 0 <= value <= top:
        raise ValueError(f"{name} must be in 0..{top}, got {value!r}")


def as_double(name: str, value: float) -> float:
    """value as a double: ``ValueError`` unless it is a real number (``numbers.Real``).
    One beyond double range reads as an infinity of its sign, which the caller's
    finiteness check rejects by name."""
    if not isinstance(value, Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def check_eta(eta: float) -> None:
    """``ValueError`` unless the Lamb-Dicke parameter is finite and >= 0."""
    if not (math.isfinite(eta) and eta >= 0):
        raise ValueError(f"eta must be finite and >= 0, got {eta!r}")


def check_delta(delta: float) -> None:
    """``ValueError`` unless |delta| <= 2 * ``MAX_LEVELS``, nan excluded; eigenvalue
    roundoff there is about 2e-12 of the trap frequency."""
    if not abs(delta) <= 2 * MAX_LEVELS:
        raise ValueError(f"delta must be in -{2 * MAX_LEVELS}..{2 * MAX_LEVELS}, got {delta!r}")


@dataclass(frozen=True)
class TrapParams:
    """Rabi frequency, Lamb-Dicke parameter and detuning, in units of omega_t.

    ``delta`` is the laser detuning from the internal transition,
    ``omega_L - omega_0``; it is the swept variable of the spectra.
    Each field is stored as a double (``as_double``).
    """

    rabi: float
    eta: float
    delta: float = 0.0

    def __post_init__(self) -> None:
        for name in ("rabi", "eta", "delta"):
            object.__setattr__(self, name, as_double(name, getattr(self, name)))
        if not math.isfinite(self.rabi):
            raise ValueError(f"rabi must be finite, got {self.rabi!r}")
        check_delta(self.delta)
        if self.rabi < 0:
            raise ValueError(f"rabi must be nonnegative, got {self.rabi!r}")
        check_eta(self.eta)

    def with_delta(self, delta: float) -> TrapParams:
        """Copy of these parameters at a different detuning."""
        return replace(self, delta=delta)


@dataclass(frozen=True, order=True)
class SidebandId:
    """The pair (n_g, n_e) labelling a |g,n_g> <-> |e,n_e> resonance, each in
    0..MAX_LEVELS - 1; its bare crossing detuning Delta0 is ``order``."""

    n_g: int
    n_e: int

    def __post_init__(self) -> None:
        for level in (self.n_g, self.n_e):
            check_level("vibrational quantum numbers", level)

    @property
    def order(self) -> int:
        """Sideband order k = n_e - n_g: 0 carrier, > 0 blue, < 0 red."""
        return self.n_e - self.n_g

    @property
    def kind(self) -> str:
        if self.order == 0:
            return "carrier"
        return "blue" if self.order > 0 else "red"

    @property
    def is_carrier(self) -> bool:
        return self.n_g == self.n_e
