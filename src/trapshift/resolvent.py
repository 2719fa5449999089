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

valid at all eta for weak drive.  ``bs_shift`` runs each sum once and returns
only what that pass computes: R_gg, R_ee, delta_omega and a bound on the terms
left out.  The quadratic-in-eta expansion ``bs_shift_ld`` and the superseded
first-red-sideband literature formula are separate calls that ``cli`` prints.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import PerturbativeRegimeWarning
from .fock import _laguerre_column, rabi_coupling
from .fock import chi_magnitude  # noqa: F401  not called here; trapbench traces this name
from .params import SidebandId, TrapParams

#: Above this drive-to-trap ratio second-order perturbation theory degrades.
PERTURBATIVE_RATIO_LIMIT = 0.1

#: A summation stops once the next term's majorant drops to this fraction
#: of the accumulated magnitude.
TERM_CUTOFF = 1e-16


@dataclass(frozen=True)
class PerturbativeShift:
    """Resonance shift of one sideband and the level shifts it is made of.

    ``delta_omega_full`` = ``r_ee`` - ``r_gg`` is the all-order-in-eta sum,
    ``k_max_used`` the largest k it retained and ``tail_bound`` a bound on
    every term it left out.
    """

    delta_omega_full: float
    r_gg: float
    r_ee: float
    k_max_used: int
    tail_bound: float


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


def _sum_terms(center: int, exclude: int, eta: float) -> tuple[float, int, int]:
    """fsum of |chi_{center,k}|^2 / (exclude - k) over every k >= 0, k != exclude.

    The integers are the level-shift denominators: at the crossing detuning
    Delta0 = n_e - n_g, E0 - E_{e,k} = n_e - k and E0 - E_{g,k} = n_g - k, so
    R_gg is (Omega_R/2)^2 times this sum with exclude = n_e, and R_ee with
    exclude = n_g.  Returns (sum, largest retained k, distance d reached),
    where d is the distance at which the sum stopped: the first at which
    ``_term_majorant`` falls to ``TERM_CUTOFF`` times the accumulated
    magnitude (see ``_tail_bound``).  Every retained denominator has
    |exclude - k| >= 1, so the majorant bounds the terms at any distance,
    before the excluded level as well as past it.  Raises ``OverflowError``
    when a term leaves double precision first.

    Terms are generated in ascending |k - center| so that the exactly
    rounded fsum sees the rapidly decaying sequence in a fixed, symmetric
    order; this makes carrier nulls and sideband swaps cancel exactly.  At
    distance d both terms, k = center -+ d, come from one Laguerre column
    L_0^d..L_center^d(eta^2), and each is the same product, in the same
    order, as ``chi_magnitude(center, k, eta)**2 / (exclude - k)``, with
    log(k!) read from lgamma.  Only the column's length, center + 1, is
    bounded (by ``SidebandId``): k itself may pass ``MAX_LEVELS``.
    """
    x = eta * eta
    gauss = math.exp(-0.5 * x)
    log_center = math.lgamma(center + 1.0)
    terms: list[float] = []
    running = 0.0
    k_used = 0
    d = 0
    while True:
        power = eta**d
        column = _laguerre_column(center, float(d), x)
        for k in (center - d, center + d) if d else (center,):
            if k < 0 or k == exclude:
                continue
            if k < center:
                log_lo, log_hi, lag = math.lgamma(k + 1.0), log_center, column[k]
            else:
                log_lo, log_hi, lag = log_center, math.lgamma(k + 1.0), column[center]
            m = gauss * power * math.exp(0.5 * (log_lo - log_hi)) * lag
            term = m * m / (exclude - k)
            terms.append(term)
            running += abs(term)
            if k > k_used:
                k_used = k
        d += 1
        if not math.isfinite(running):
            # a Laguerre column or eta**d overflowed; nan would never end the sum
            raise OverflowError(
                f"the closed-form sum around n = {center} left double precision at distance {d - 1}"
            )
        # not strict, so that an all-zero sum (a carrier at eta = 0) ends
        if _term_majorant(eta, center, d) <= TERM_CUTOFF * running:
            break
    return math.fsum(terms), k_used, d


def _tail_bound(eta: float, center: int, d: int) -> float:
    """Bound on every term a sum around center left out, both sides, when it
    stopped at distance d: 2 M(d) / (1 - rho), rho = M(d+1)/M(d) and M the
    ``_term_majorant`` (0 when M(d) is 0).

    rho(j) = eta^2 (c+j+1)/(j+1)^2 (1 + 1/(c+j))^j at c = center never grows
    with j (its log-derivative is at most 1/(c+j+1) + (c+1)/((c+j)(c+j+1))
    - 2/(j+1) <= 0 where c^2 + cj + j^2 >= 1, and rho(0) = rho(1) at c = 0),
    so a geometric series bounds the majorants past d.  rho < 1 at a stop:
    else M(d) >= M(0) = 1, but a stop needs M(d) <= 1e-16 times a running
    magnitude that unitarity and |denominator| >= 1 keep below 1.  Raises
    ``ArithmeticError`` should rho reach 1 all the same.
    """
    m_d = _term_majorant(eta, center, d)
    if m_d == 0.0:
        return 0.0
    ratio = _term_majorant(eta, center, d + 1) / m_d
    if not ratio < 1.0:
        raise ArithmeticError(
            f"the majorant around n = {center} at eta = {eta!r} does not decay past distance {d}"
        )
    return 2.0 * m_d / (1.0 - ratio)


def splitting_half(sideband: SidebandId, params: TrapParams) -> float:
    """|R_ge| = |Omega_{n_g,n_e}|/2, half the closest-approach gap of the pair."""
    return 0.5 * abs(rabi_coupling(sideband.n_g, sideband.n_e, params))


def bs_shift(sideband: SidebandId, params: TrapParams) -> PerturbativeShift:
    """All-order-in-eta resonance shift of a sideband (Bloch-Siegert type)
    and the level shifts it is made of.

    R_gg and R_ee, the diagonal level-shift elements at the crossing
    E0 = (n_g + n_e)/2, Delta0 = n_e - n_g (the coupling |R_ge| is
    ``splitting_half``), are (Omega_R/2)^2 times one sum each:
    |chi_{n_g,k}|^2/(n_e - k) and |chi_{n_e,k}|^2/(n_g - k), whose integers
    are the denominators E0 - E_{e,k} and E0 - E_{g,k} (see ``_sum_terms``);
    no retained one vanishes.  delta_omega = R_ee - R_gg, and ``tail_bound``
    is (Omega_R/2)^2 times both sums' ``_tail_bound``.
    Exactly zero for carriers and exactly antisymmetric under exchanging n_g
    and n_e, by construction of the summation order.  Warns above
    ``PERTURBATIVE_RATIO_LIMIT``.
    """
    _warn_outside_regime(params)
    n_g, n_e, eta = sideband.n_g, sideband.n_e, params.eta
    s_ee, k_ee, d_ee = _sum_terms(n_e, n_g, eta)
    s_gg, k_gg, d_gg = _sum_terms(n_g, n_e, eta)
    half_sq = (0.5 * params.rabi) ** 2
    return PerturbativeShift(
        delta_omega_full=params.rabi**2 / 4.0 * (s_ee - s_gg),
        r_gg=half_sq * s_gg,
        r_ee=half_sq * s_ee,
        k_max_used=max(k_gg, k_ee),
        tail_bound=half_sq * (_tail_bound(eta, n_g, d_gg) + _tail_bound(eta, n_e, d_ee)),
    )


level_shift_diag = bs_shift  # not a second entry; trapbench traces this name


def bs_shift_ld(sideband: SidebandId, params: TrapParams) -> tuple[float, float]:
    """Shift to quadratic order in eta as (carrier_term, sideband_term): the
    off-resonant carrier part and the adjacent-sideband part, whose sum is
    the expansion.  Defined for n_g != n_e only."""
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
    return carrier_term, eta2 * params.rabi**2 / 4.0 * sideband_sum


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
    return -params.rabi**2 / (2.0 * sideband.order)
