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

from .errors import PerturbativeRegimeWarning
from .fock import chi_magnitude, rabi_coupling
from .hamiltonian import crossing_point
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


def _sum_terms(center: int, exclude: int, eta: float, k_max: int) -> tuple[float, int, int]:
    """fsum of |chi_{center,k}|^2 / (exclude - k) over k != exclude, 0 <= k <= k_max.

    The integers are the level-shift denominators: at the crossing detuning
    Delta0 = n_e - n_g, E0 - E_{e,k} = n_e - k and E0 - E_{g,k} = n_g - k, so
    R_gg is (Omega_R/2)^2 times this sum with exclude = n_e, and R_ee with
    exclude = n_g.  Returns (sum, largest retained k, distance d reached),
    where d is where a tail bound would start.

    Terms are generated in ascending |k - center| so that the exactly
    rounded fsum sees the rapidly decaying sequence in a fixed, symmetric
    order; this makes carrier nulls and sideband swaps cancel exactly.
    """
    terms: list[float] = []
    running = 0.0
    k_used = 0
    d_settle = abs(center - exclude) + 1
    d = 0
    while True:
        ks = (center,) if d == 0 else (center - d, center + d)
        for k in ks:
            if k < 0 or k > k_max or k == exclude:
                continue
            m = chi_magnitude(center, k, eta)
            term = m * m / (exclude - k)
            terms.append(term)
            running += abs(term)
            k_used = max(k_used, k)
        d += 1
        if center - d < 0 and center + d > k_max:
            break
        if d >= d_settle and _term_majorant(eta, center, d) < TERM_CUTOFF * running:
            break
    return math.fsum(terms), k_used, d


def _tail_bound(eta: float, center: int, d_start: int) -> float:
    """Majorant for everything beyond distance d_start (both sides of center)."""
    return 2.0 * math.fsum(_term_majorant(eta, center, d) for d in range(d_start, d_start + 60))


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

    At the crossing detuning the denominators E0 - E_{e,k} and E0 - E_{g,k}
    are the integers n_e - k and n_g - k, so R_gg and R_ee are the two sums of
    ``bs_shift`` scaled by (Omega_R/2)^2; the resonant indices are excluded,
    so no retained denominator can vanish.  Warns above
    ``PERTURBATIVE_RATIO_LIMIT``.
    """
    _warn_outside_regime(params)
    k_max = _resolve_k_max(sideband, k_max)
    e0, _ = crossing_point(sideband, params)
    half_sq = (0.5 * params.rabi) ** 2

    s_gg, k_gg, d_gg = _sum_terms(sideband.n_g, sideband.n_e, params.eta, k_max)
    s_ee, k_ee, d_ee = _sum_terms(sideband.n_e, sideband.n_g, params.eta, k_max)
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

    delta_omega = R_ee - R_gg, one sum per side: |chi_{n_e,k}|^2/(n_g - k) for
    R_ee and |chi_{n_g,k}|^2/(n_e - k) for R_gg.  At the crossing detuning
    these integers are the denominators E0 - E_{g,k} and E0 - E_{e,k} (see
    ``_sum_terms``), so the two sums are the ones ``level_shift_diag`` scales
    into R_ee and R_gg.  The truncation bound is not computed here;
    ``level_shift_diag`` reports it as ``tail_bound``.
    Exactly zero for carriers and exactly antisymmetric under exchanging n_g
    and n_e, by construction of the summation order.  Warns above
    ``PERTURBATIVE_RATIO_LIMIT``; ``well_isolated`` only flags a large splitting.
    """
    _warn_outside_regime(params)
    k_max = _resolve_k_max(sideband, k_max)
    n_g, n_e = sideband.n_g, sideband.n_e
    s_ee, _, _ = _sum_terms(n_e, n_g, params.eta, k_max)
    s_gg, _, _ = _sum_terms(n_g, n_e, params.eta, k_max)
    shift = params.rabi**2 / 4.0 * (s_ee - s_gg)

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
