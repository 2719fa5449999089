"""Closed-form theory of the sideband resonance shifts.

Projecting the coupled problem onto the two states of one resonance while
keeping second-order contact with every other level gives an effective 2x2
Hamiltonian whose diagonal corrections R_gg, R_ee move the position of the
avoided crossing.  At the bare crossing energy E0:

    R_gg = sum_{k != n_e} |Omega_{n_g,k}/2|^2 / (E0 - E_{e,k})
    R_ee = sum_{k != n_g} |Omega_{n_e,k}/2|^2 / (E0 - E_{g,k})

and the resonance shift is delta_omega = R_ee - R_gg (hbar = 1), which
collapses, with Omega_R and delta_omega in units of the trap frequency, to

    delta_omega = (Omega_R^2 / 4) * [ sum_{k != n_g} |chi_{n_e,k}|^2/(n_g - k)
                                    - sum_{k != n_e} |chi_{n_g,k}|^2/(n_e - k) ]

valid at all eta for weak drive.  The quadratic-in-eta expansion and the
superseded first-red-sideband literature formula are provided alongside for
comparison plots.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

from .errors import PerturbativeRegimeWarning, TrapshiftError
from .fock import chi_magnitude, rabi_coupling
from .hamiltonian import EXCITED, GROUND, bare_energy, crossing_point
from .params import SidebandId, TrapParams

#: Above this drive-to-trap ratio second-order perturbation theory degrades.
PERTURBATIVE_RATIO_LIMIT = 0.1

#: Hard truncation margin beyond max(n_g, n_e) when no k_max is given.
DEFAULT_K_MARGIN = 60

#: A summation stops once the next term's majorant drops below this fraction
#: of the accumulated magnitude.
TERM_CUTOFF = 1e-16

#: Splitting-to-trap-frequency ratio above which the two-state reduction of a
#: resonance is no longer well isolated from its neighbours.
ISOLATION_RATIO = 0.1


@dataclass(frozen=True)
class LevelShiftElements:
    """Second-order level-shift matrix elements of one sideband pair at E0."""

    sideband: SidebandId
    r_gg: float
    r_ee: float
    r_ge_abs: float
    e0: float
    k_max_used: int
    tail_bound: float


@dataclass(frozen=True)
class PerturbativeShift:
    """Resonance shift of one sideband, with its Lamb-Dicke decomposition.

    ``delta_omega_full`` is the all-order-in-eta sum; ``delta_omega_ld`` its
    expansion to quadratic order, split into the off-resonant carrier part and
    the adjacent-sideband part; ``delta_omega_lit`` the earlier literature
    result, defined for the first red sideband only.  Fields are None where a
    quantity is not defined for the requested sideband.
    """

    sideband: SidebandId
    delta_omega_full: float | None
    carrier_term: float | None = None
    sideband_term: float | None = None
    delta_omega_ld: float | None = None
    delta_omega_lit: float | None = None
    well_isolated: bool = True


def _warn_outside_regime(params: TrapParams) -> None:
    """Warn the caller of a closed-form sum that the drive is too strong for it."""
    if params.rabi > PERTURBATIVE_RATIO_LIMIT:
        warnings.warn(
            f"rabi/omega_t = {params.rabi:.3g} exceeds "
            f"{PERTURBATIVE_RATIO_LIMIT}; perturbative shift formulas "
            "lose accuracy in this regime",
            PerturbativeRegimeWarning,
            stacklevel=3,  # past the closed-form function, to its caller
        )


def _term_majorant(eta: float, center: int, d: int) -> float:
    """Upper bound on |chi_{center,k}|^2 / |denominator| at distance d = |k - center|.

    Uses |chi_{n,k}| <= (eta*sqrt(n_>))^d / d! and |denominator| >= 1.
    """
    if d == 0:
        return 1.0
    if eta == 0.0:
        return 0.0
    return math.exp(2.0 * (d * math.log(eta * math.sqrt(center + d)) - math.lgamma(d + 1.0)))


def _sum_terms(
    chi_center: int,
    exclude: int,
    eta: float,
    k_max: int,
    *denoms: Callable[[int], float],
) -> tuple[tuple[float, ...], int, int]:
    """fsums of |chi_{chi_center,k}|^2 / denom(k) over k != exclude, 0 <= k <= k_max.

    Each |chi|^2 is evaluated once and divided by every denominator in
    ``denoms``, giving one sum per denominator; the first denominator's terms
    drive the stopping rule.  Returns (sums, largest retained k, distance d
    reached), where d is where a tail bound would start.

    Terms are generated in ascending |k - chi_center| so that the exactly
    rounded fsum sees the rapidly decaying sequence in a fixed, symmetric
    order; this makes carrier nulls and sideband swaps cancel exactly.
    """
    columns: tuple[list[float], ...] = tuple([] for _ in denoms)
    lead = columns[0]
    running = 0.0
    k_used = 0
    d_settle = abs(chi_center - exclude) + 1
    d = 0
    while True:
        ks = (chi_center,) if d == 0 else (chi_center - d, chi_center + d)
        for k in ks:
            if k < 0 or k > k_max or k == exclude:
                continue
            m = chi_magnitude(chi_center, k, eta)
            weight = m * m
            for column, denom in zip(columns, denoms):
                column.append(weight / denom(k))
            running += abs(lead[-1])
            k_used = max(k_used, k)
        d += 1
        if chi_center - d < 0 and chi_center + d > k_max:
            break
        if d >= d_settle and _term_majorant(eta, chi_center, d) < TERM_CUTOFF * running:
            break
    return tuple(math.fsum(column) for column in columns), k_used, d


def _tail_bound(eta: float, center: int, d_start: int) -> float:
    """Majorant for everything beyond distance d_start (both sides of center)."""
    return 2.0 * math.fsum(_term_majorant(eta, center, d) for d in range(d_start, d_start + 60))


def _level_shift_denominators(
    sideband: SidebandId, params: TrapParams
) -> tuple[float, Callable[[int], float], Callable[[int], float]]:
    """(E0, k -> E0 - E_{e,k}, k -> E0 - E_{g,k}) at the crossing detuning.

    The two maps are the denominators of R_gg and R_ee respectively.
    """
    e0, delta0 = crossing_point(sideband, params)
    at_crossing = params.with_delta(delta0)
    return (
        e0,
        lambda k: e0 - bare_energy(EXCITED, k, at_crossing),
        lambda k: e0 - bare_energy(GROUND, k, at_crossing),
    )


def _resolve_k_max(sideband: SidebandId, k_max: int | None) -> int:
    top = max(sideband.n_g, sideband.n_e)
    if k_max is None:
        return top + DEFAULT_K_MARGIN
    if k_max < top + 1:
        raise ValueError(f"k_max must be at least max(n_g, n_e) + 1 = {top + 1}, got {k_max!r}")
    return k_max


def level_shift_diag(
    sideband: SidebandId, params: TrapParams, k_max: int | None = None
) -> LevelShiftElements:
    """Diagonal and coupling elements of the level-shift operator at the crossing.

    Denominators are the literal bare-energy differences E0 - E evaluated at
    the crossing detuning; the resonant indices are excluded, so no retained
    denominator can vanish.  Warns above ``PERTURBATIVE_RATIO_LIMIT``.
    """
    _warn_outside_regime(params)
    k_max = _resolve_k_max(sideband, k_max)
    e0, to_excited, to_ground = _level_shift_denominators(sideband, params)
    half_sq = (0.5 * params.rabi) ** 2

    (s_gg,), k_gg, d_gg = _sum_terms(sideband.n_g, sideband.n_e, params.eta, k_max, to_excited)
    (s_ee,), k_ee, d_ee = _sum_terms(sideband.n_e, sideband.n_g, params.eta, k_max, to_ground)
    tail = _tail_bound(params.eta, sideband.n_g, d_gg) + _tail_bound(params.eta, sideband.n_e, d_ee)
    return LevelShiftElements(
        sideband=sideband,
        r_gg=half_sq * s_gg,
        r_ee=half_sq * s_ee,
        r_ge_abs=splitting_half(sideband, params),
        e0=e0,
        k_max_used=max(k_gg, k_ee),
        tail_bound=half_sq * tail,
    )


def splitting_half(sideband: SidebandId, params: TrapParams) -> float:
    """|R_ge| = |Omega_{n_g,n_e}|/2, half the closest-approach gap of the pair."""
    return 0.5 * abs(rabi_coupling(sideband.n_g, sideband.n_e, params))


def bs_shift(
    sideband: SidebandId, params: TrapParams, k_max: int | None = None
) -> PerturbativeShift:
    """All-order-in-eta resonance shift of a sideband (Bloch-Siegert type).

    One pass per side feeds two sums from the same |chi|^2 terms: the direct
    sum over n_g - k (or n_e - k), and the level-shift sum R_ee - R_gg over
    the literal bare-energy differences at the crossing, as in
    ``level_shift_diag``.  The two must agree to rounding; a disagreement
    indicates an implementation fault and raises.  The truncation bound is
    not computed here; ``level_shift_diag`` reports it as ``tail_bound``.
    Exactly zero for carriers and exactly antisymmetric under exchanging n_g
    and n_e, by construction of the summation order.  Warns above
    ``PERTURBATIVE_RATIO_LIMIT``; ``well_isolated`` only flags a large splitting.
    """
    _warn_outside_regime(params)
    k_max = _resolve_k_max(sideband, k_max)
    n_g, n_e = sideband.n_g, sideband.n_e
    _, to_excited, to_ground = _level_shift_denominators(sideband, params)

    (s1, s_ee), _, _ = _sum_terms(n_e, n_g, params.eta, k_max, lambda k: float(n_g - k), to_ground)
    (s2, s_gg), _, _ = _sum_terms(n_g, n_e, params.eta, k_max, lambda k: float(n_e - k), to_excited)
    prefactor = params.rabi**2 / 4.0
    shift = prefactor * (s1 - s2)

    half_sq = (0.5 * params.rabi) ** 2
    r_gg, r_ee = half_sq * s_gg, half_sq * s_ee
    resolvent_shift = r_ee - r_gg
    scale = max(abs(r_gg) + abs(r_ee), prefactor, 1e-300)
    if abs(shift - resolvent_shift) > 1e-14 * scale:
        raise TrapshiftError(
            f"internal inconsistency for {sideband}: direct sum {shift!r} vs "
            f"level-shift difference {resolvent_shift!r}"
        )

    isolated = splitting_half(sideband, params) <= ISOLATION_RATIO
    carrier_term = sideband_term = delta_ld = delta_lit = None
    if not sideband.is_carrier:
        ld = bs_shift_ld(sideband, params)
        carrier_term, sideband_term = ld.carrier_term, ld.sideband_term
        delta_ld = ld.delta_omega_ld
        if (n_g, n_e) == (1, 0):
            delta_lit = bs_shift_literature(params)
    return PerturbativeShift(
        sideband=sideband,
        delta_omega_full=shift,
        carrier_term=carrier_term,
        sideband_term=sideband_term,
        delta_omega_ld=delta_ld,
        delta_omega_lit=delta_lit,
        well_isolated=isolated,
    )


def bs_shift_ld(sideband: SidebandId, params: TrapParams) -> PerturbativeShift:
    """Shift to quadratic order in eta: off-resonant carrier part plus the
    adjacent-sideband part.  Defined for n_g != n_e only."""
    if sideband.is_carrier:
        raise ValueError(
            "the Lamb-Dicke expansion is valid only for n_g != n_e; "
            "carrier resonances are unshifted"
        )
    n_g, n_e = sideband.n_g, sideband.n_e
    eta2 = params.eta**2
    weight = n_g + n_e + 1
    carrier_term = params.rabi**2 * (1.0 - eta2 * weight) / (2.0 * (n_g - n_e))
    sideband_sum = sum(
        weight / (n_g - n_e + k) for k in (+1, -1) if n_g - n_e + k != 0
    )
    sideband_term = eta2 * params.rabi**2 / 4.0 * sideband_sum
    return PerturbativeShift(
        sideband=sideband,
        delta_omega_full=None,
        carrier_term=carrier_term,
        sideband_term=sideband_term,
        delta_omega_ld=carrier_term + sideband_term,
    )


def bs_shift_literature(params: TrapParams) -> float:
    """Earlier published shift of the first red sideband (n_g, n_e) = (1, 0),
    the only sideband it describes; kept for comparison curves.

    Differs from the quadratic expansion by the eta^2 correction of the
    off-resonant carrier coupling.
    """
    return params.rabi**2 / 2.0 + params.eta**2 * params.rabi**2 / 4.0


def eta_zero_shift(sideband: SidebandId, params: TrapParams) -> float:
    """Closed-form shift -Omega_R^2 / (2 Delta0) in the eta = 0 limit.

    With no level coupling the pair crosses instead of anti-crossing, but both
    levels are Stark-shifted in opposite directions by the off-resonant
    carrier, moving the crossing detuning.
    """
    if sideband.is_carrier:
        raise ValueError("carrier resonances have Delta0 = 0 and no eta = 0 shift")
    _, delta0 = crossing_point(sideband, params)
    return -params.rabi**2 / (2.0 * delta0)
