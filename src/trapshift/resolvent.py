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
left out, from the majorants at which each sum stopped; ``bs_shifts`` does so
for a batch in one pass of ``_sum_terms``.  The quadratic-in-eta expansion
``bs_shift_ld`` and the superseded first-red-sideband literature formula are
separate calls that ``cli`` prints.
"""

from __future__ import annotations

import math
import warnings
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import islice

from .errors import PerturbativeRegimeWarning
from .fock import _amplitude, _amplitude_column, rabi_coupling
from .fock import chi_magnitude  # noqa: F401  not called here; trapbench traces this name
from .params import SidebandId, TrapParams

#: Above this drive-to-trap ratio second-order perturbation theory degrades.
PERTURBATIVE_RATIO_LIMIT = 0.1

#: A summation stops once the next term's majorant drops to this fraction
#: of the accumulated magnitude.
TERM_CUTOFF = 1e-16

#: Most sums ``_sum_terms`` runs at once, which bounds its memory for any batch.
SUM_CHUNK = 2048


@dataclass(frozen=True, slots=True)
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
    """Upper bound M(d) on |chi_{center,k}|^2 / |denominator| at distance
    d = |k - center| >= 1, ``math.inf`` where it leaves double precision (a
    bound above 1 says nothing about a |chi|^2 term).

    Uses |chi_{n,k}| <= (eta*sqrt(n_>))^d / d! and |denominator| >= 1.  The
    ratio rho(j) = M(j+1)/M(j) = eta^2 (c+j+1)/(j+1)^2 (1 + 1/(c+j))^j at
    c = center never grows with j (its log-derivative is at most 1/(c+j+1)
    + (c+1)/((c+j)(c+j+1)) - 2/(j+1) <= 0 where c^2 + cj + j^2 >= 1, and
    rho(0) = rho(1) at c = 0), so a geometric series of ratio rho(d) bounds
    the majorants past d.
    """
    if eta == 0.0:
        return 0.0
    try:
        return math.exp(2.0 * (d * math.log(eta * math.sqrt(center + d)) - math.lgamma(d + 1.0)))
    except OverflowError:
        return math.inf


def _sum_terms(pairs: Iterable[tuple[int, int]], eta: float) -> Iterator[tuple[float, int, float]]:
    """For each (center, exclude) of ``pairs``, in order, (sum, largest
    retained k, tail) of the fsum of |chi_{center,k}|^2 / (exclude - k) over
    every k >= 0, k != exclude, where tail bounds every term it left out.

    The integers are the level-shift denominators: at the crossing detuning
    Delta0 = n_e - n_g, E0 - E_{e,k} = n_e - k and E0 - E_{g,k} = n_g - k, so
    R_gg is (Omega_R/2)^2 times this sum with exclude = n_e, and R_ee with
    exclude = n_g.  A sum stops at the first d at which ``_term_majorant``
    M(d) falls to ``TERM_CUTOFF`` times its accumulated magnitude; every
    retained |exclude - k| >= 1, so M bounds the terms on both sides of the
    excluded level, and the stop's tail is 2 M(d) / (1 - rho), rho =
    M(d+1)/M(d) (0 where M(d) is 0).  rho < 1 at a stop: else M(d) >= M(0) =
    1, but a stop needs M(d) <= 1e-16 times a running magnitude that
    unitarity and |denominator| >= 1 keep below 1; ``ArithmeticError`` should
    rho reach 1 all the same.  Raises ``fock._amplitude``'s ``OverflowError``
    where an amplitude is not finite (nan would never end the sum); a finite
    one is at most about 1 in size (|chi| <= 1, and subnormal rounding at
    most doubles a tiny value), so over |exclude - k| >= 1 its term is finite.

    The one loop of every closed-form sum: up to ``SUM_CHUNK`` sums advance
    together, distance by distance, on one ``fock._amplitude_column`` per d,
    that of the greatest open center, whose prefix is each shorter column bit
    for bit.  A sum's terms come in ascending |k - center|, a fixed symmetric
    order for the exactly rounded fsum (carrier nulls and sideband swaps
    cancel exactly), each ``fock._amplitude``, the amplitude ``chi_magnitude``
    returns, squared over exclude - k, so no sum depends on its batch.  Only
    the column length, center + 1, is bounded (``SidebandId``), not k.
    """
    pairs = iter(pairs)
    while chunk := list(islice(pairs, SUM_CHUNK)):
        results: list = [None] * len(chunk)
        # each open sum, in order of center: [index, center, exclude, terms, running magnitude,
        # largest k], its terms held as doubles, a quarter of a list's memory
        sums = sorted(([i, c, e, array("d"), 0.0, 0] for i, (c, e) in enumerate(chunk)), key=lambda s: s[1])
        d = 0
        while sums:
            prefactor, column = _amplitude_column(eta, d, sums[-1][1])
            still_open = []
            for state in sums:
                i, center, exclude, terms, running, k_used = state
                for k in (center - d, center + d) if d else (center,):
                    if k < 0 or k == exclude:
                        continue
                    m = _amplitude(prefactor, column, center, k, eta)
                    term = m * m / (exclude - k)
                    terms.append(term)
                    running += abs(term)
                    if k > k_used:
                        k_used = k
                majorant = _term_majorant(eta, center, d + 1)
                # not strict, so that an all-zero sum (a carrier at eta = 0) ends
                if majorant <= TERM_CUTOFF * running:
                    rho = _term_majorant(eta, center, d + 2) / majorant if majorant else 0.0
                    if not rho < 1.0:
                        raise ArithmeticError(
                            f"the majorant around n = {center} at eta = {eta!r} "
                            f"does not decay past distance {d + 1}"
                        )
                    results[i] = (math.fsum(terms), k_used, 2.0 * majorant / (1.0 - rho))
                else:
                    state[4], state[5] = running, k_used
                    still_open.append(state)
            sums = still_open
            d += 1
        yield from results


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
    is (Omega_R/2)^2 times both sums' tails, each bounded where its sum stops.
    Exactly zero for carriers and exactly antisymmetric under exchanging n_g
    and n_e, by construction of the summation order.  Warns above
    ``PERTURBATIVE_RATIO_LIMIT``.  The batch of one of ``bs_shifts``.
    """
    _warn_outside_regime(params)
    return _shifts((sideband,), params)[0]


def bs_shifts(sidebands: Iterable[SidebandId], params: TrapParams) -> list[PerturbativeShift]:
    """``bs_shift`` of each sideband at one ``params``, equal to it bit for
    bit, from one ``_sum_terms`` pass over all their sums.  Warns once above
    ``PERTURBATIVE_RATIO_LIMIT``."""
    _warn_outside_regime(params)
    return _shifts(list(sidebands), params)


def _shifts(sidebands: Sequence[SidebandId], params: TrapParams) -> list[PerturbativeShift]:
    """The shifts of ``bs_shifts``, without its warning."""
    eta = params.eta
    sums = _sum_terms((pair for sb in sidebands for pair in ((sb.n_e, sb.n_g), (sb.n_g, sb.n_e))), eta)
    try:
        rabi_sq = params.rabi**2  # overflows above 1.34e154, (0.5 * rabi)**2 above 2.68e154
    except OverflowError:
        raise OverflowError(f"rabi**2 at rabi = {params.rabi!r} overflows") from None
    half_sq = (0.5 * params.rabi) ** 2  # not rabi_sq / 4.0, which differs in the last bit
    return [
        PerturbativeShift(
            delta_omega_full=rabi_sq / 4.0 * (s_ee - s_gg),
            r_gg=half_sq * s_gg,
            r_ee=half_sq * s_ee,
            k_max_used=max(k_gg, k_ee),
            tail_bound=half_sq * (t_gg + t_ee),
        )
        for sb, (s_ee, k_ee, t_ee), (s_gg, k_gg, t_gg) in zip(sidebands, sums, sums)
    ]


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
