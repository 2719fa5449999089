"""Closed-form theory of the sideband resonance shifts.

The couplings are the displacement matrix elements, n_< (n_>) the lesser
(greater) of n and n',

    chi_{nn'} = <n| exp(i*eta*(a + a^dag)) |n'>
              = exp(-eta^2/2) * (i*eta)^|n-n'| * sqrt(n_<!/n_>!) * L_{n_<}^{|n-n'|}(eta^2),

each formed by ``_amplitude`` from the ``_amplitude_column`` at distance
d = |n - n'|: ``chi_magnitude`` reads one entry of a column,
``hamiltonian.coupling_table`` every entry, and the sums of a ``bs_shifts``
call share one column per distance.

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

valid at all eta for weak drive; above ``PERTURBATIVE_RATIO_LIMIT`` the sums warn
with this module's ``PerturbativeRegimeWarning``.  Like ``params`` it needs only
the standard library, so the closed form loads no numpy; the exact route takes chi
from the operator exp(eta*(a - a^dag)) of ``hamiltonian``, never from here.
"""

from __future__ import annotations

import math
import warnings
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import islice

from .params import FLOAT_EXACT_TOP, SidebandId, TrapParams, check_eta, check_level

#: Above this drive-to-trap ratio second-order perturbation theory degrades.
PERTURBATIVE_RATIO_LIMIT = 0.1


class PerturbativeRegimeWarning(UserWarning):
    """The drive is too strong for the perturbative shift formulas."""


#: A summation stops once the next term's majorant drops to this fraction
#: of the accumulated magnitude.
TERM_CUTOFF = 1e-16

#: Most sums ``_sum_terms`` runs at once, which bounds its memory for any batch.
SUM_CHUNK = 2048

#: i^k for k = 0..3 as exact unit phases (1j**k would accumulate roundoff).
PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def _laguerre_column(n: int, alpha: float, x: float) -> list[float]:
    """[L_0^alpha(x), ..., L_n^alpha(x)] by the three-term recurrence in n at fixed alpha."""
    prev, cur = 0.0, 1.0  # L_{-1} = 0 and L_0 = 1 start the recurrence
    column = [cur]
    for k in range(1, n + 1):
        prev, cur = cur, ((2.0 * k - 1.0 + alpha - x) * cur - (k - 1.0 + alpha) * prev) / k
        column.append(cur)
    return column


def laguerre(n: int, alpha: int, x: float) -> float:
    """Generalized Laguerre function L_n^alpha(x).

    Evaluated by the three-term recurrence in n, which is stable for x >= 0;
    the alternating finite sum loses precision beyond n of a few tens.
    n, the length of the column it runs, is below ``MAX_LEVELS``; alpha is at most ``FLOAT_EXACT_TOP``.
    """
    check_level("n", n)
    check_level("alpha", alpha, top=FLOAT_EXACT_TOP)
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    return _laguerre_column(n, float(alpha), x)[-1]


def _amplitude_column(eta: float, d: int, n: int) -> tuple[float, list[float]]:
    """(exp(-eta^2/2) * eta^d, [L_0^d(eta^2)..L_n^d(eta^2)]), from which ``_amplitude``
    forms every chi amplitude at distance d whose lesser index is at most n.  Raises the
    one ``OverflowError`` of eta**d."""
    x = eta * eta
    try:
        power = eta**d
    except OverflowError:
        raise OverflowError(f"eta**{d} at eta = {eta!r} overflows") from None
    return math.exp(-0.5 * x) * power, _laguerre_column(n, float(d), x)


def _amplitude(prefactor: float, column: list[float], n: int, nprime: int, eta: float) -> float:
    """Signed amplitude of chi_{nn'} from the ``_amplitude_column`` at d = |n - n'|, the one
    product ``prefactor * exp(0.5 * (lgamma(lo + 1) - lgamma(hi + 1))) * column[lo]`` with
    lo (hi) the lesser (greater) of n and n'.  Raises ``OverflowError`` where it is not
    finite: the Laguerre factor left double precision (its product with an underflowed
    prefactor would be nan)."""
    lo, hi = (n, nprime) if n <= nprime else (nprime, n)
    m = prefactor * math.exp(0.5 * (math.lgamma(lo + 1.0) - math.lgamma(hi + 1.0))) * column[lo]
    if not math.isfinite(m):
        raise OverflowError(f"the Laguerre factor of chi_{{{n},{nprime}}} at eta = {eta!r} overflows")
    return m


def chi_magnitude(n: int, nprime: int, eta: float) -> float:
    """Real amplitude m of chi_{nn'} = i^|n-n'| * m; signed, since the Laguerre
    factor changes sign in eta, so |chi_{nn'}| is its ``abs``.

    The factorial ratio goes through lgamma so the result stays finite for
    quantum numbers far beyond the n = 170 overflow of raw factorials.  Both are integers; the
    lesser, the length of the Laguerre column, is below ``MAX_LEVELS``; the greater, which
    only enters lgamma and the power of eta, is at most ``FLOAT_EXACT_TOP``.
    Raises ``OverflowError`` as ``_amplitude`` does, or where eta**d overflows.
    """
    check_level("n", n, top=None)  # integers before they are ordered
    check_level("nprime", nprime, top=None)
    lo, hi = (n, nprime) if n <= nprime else (nprime, n)
    check_level("min(n, nprime)", lo)
    check_level("max(n, nprime)", hi, top=FLOAT_EXACT_TOP)
    check_eta(eta)
    prefactor, column = _amplitude_column(eta, hi - lo, lo)
    return _amplitude(prefactor, column, n, nprime, eta)


def chi(n: int, nprime: int, eta: float) -> complex:
    """Displacement-operator matrix element chi_{nn'} = <n|e^{i eta (a+a†)}|n'>."""
    m = chi_magnitude(n, nprime, eta)  # first, so that it checks n and nprime
    return PHASES[abs(n - nprime) % 4] * m


def rabi_coupling(n: int, nprime: int, params: TrapParams) -> complex:
    """Coupling strength Omega_{nn'} = Omega_R * chi_{nn'} between trap levels."""
    return params.rabi * chi(n, nprime, params.eta)


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
    rho reach 1 all the same.  Raises ``_amplitude``'s ``OverflowError``
    where an amplitude is not finite (nan would never end the sum); a finite
    one is at most about 1 in size (|chi| <= 1, and subnormal rounding at
    most doubles a tiny value), so over |exclude - k| >= 1 its term is finite.

    The one loop of every closed-form sum: up to ``SUM_CHUNK`` sums advance
    together, distance by distance, on one ``_amplitude_column`` per d,
    that of the greatest open center, whose prefix is each shorter column bit
    for bit.  A sum's terms come in ascending |k - center|, a fixed symmetric
    order for the exactly rounded fsum (carrier nulls and sideband swaps
    cancel exactly), each ``_amplitude``, the amplitude ``chi_magnitude``
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


def bs_shift(sideband: SidebandId, params: TrapParams) -> PerturbativeShift:
    """All-order-in-eta resonance shift of a sideband (Bloch-Siegert type)
    and the level shifts it is made of.

    R_gg and R_ee, the diagonal level-shift elements at the crossing
    E0 = (n_g + n_e)/2, Delta0 = n_e - n_g (the coupling |R_ge| is half of
    ``abs(rabi_coupling(n_g, n_e, params))``), are (Omega_R/2)^2 times one sum each:
    |chi_{n_g,k}|^2/(n_e - k) and |chi_{n_e,k}|^2/(n_g - k), whose integers
    are the denominators E0 - E_{e,k} and E0 - E_{g,k} (see ``_sum_terms``);
    no retained one vanishes.  delta_omega = R_ee - R_gg, and ``tail_bound``
    is (Omega_R/2)^2 times both sums' tails, each bounded where its sum stops.
    Exactly zero for carriers and exactly antisymmetric under exchanging n_g
    and n_e, by construction of the summation order.  Warns above
    ``PERTURBATIVE_RATIO_LIMIT``.  The batch of one of ``bs_shifts``.
    """
    return _shifts((sideband,), params)[0]


def bs_shifts(sidebands: Iterable[SidebandId], params: TrapParams) -> list[PerturbativeShift]:
    """``bs_shift`` of each sideband at one ``params``, equal to it bit for
    bit, from one ``_sum_terms`` pass over all their sums.  Warns once above
    ``PERTURBATIVE_RATIO_LIMIT``."""
    return _shifts(list(sidebands), params)


def _square(name: str, value: float) -> float:
    """value**2, the one square of rabi or eta in the closed form, its overflow named."""
    try:
        return value**2
    except OverflowError:
        raise OverflowError(f"{name}**2 at {name} = {value!r} overflows") from None


def _shifts(sidebands: Sequence[SidebandId], params: TrapParams) -> list[PerturbativeShift]:
    """The one path of ``bs_shift`` and ``bs_shifts``: their shifts and their one warning."""
    if params.rabi > PERTURBATIVE_RATIO_LIMIT:
        warnings.warn(
            f"rabi/omega_t = {params.rabi:.3g} exceeds {PERTURBATIVE_RATIO_LIMIT}; perturbative shift formulas "
            "lose accuracy in this regime",
            PerturbativeRegimeWarning,
            stacklevel=3,  # past _shifts and the entry, to its caller
        )
    eta = params.eta
    sums = _sum_terms((pair for sb in sidebands for pair in ((sb.n_e, sb.n_g), (sb.n_g, sb.n_e))), eta)
    rabi_sq = _square("rabi", params.rabi)  # overflows above 1.34e154, (0.5 * rabi)**2 above 2.68e154
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
    eta2, rabi2 = _square("eta", params.eta), _square("rabi", params.rabi)
    weight = n_g + n_e + 1
    carrier_term = rabi2 * (1.0 - eta2 * weight) / (2.0 * (n_g - n_e))
    sideband_sum = sum(
        weight / (n_g - n_e + k) for k in (+1, -1) if n_g - n_e + k != 0
    )
    return carrier_term, eta2 * rabi2 / 4.0 * sideband_sum


def bs_shift_literature(params: TrapParams) -> float:
    """Earlier published shift of the first red sideband (n_g, n_e) = (1, 0),
    the only sideband it describes; kept for comparison curves.

    Differs from the quadratic expansion by the eta^2 correction of the
    off-resonant carrier coupling.
    """
    rabi2 = _square("rabi", params.rabi)
    return rabi2 / 2.0 + _square("eta", params.eta) * rabi2 / 4.0


def eta_zero_shift(sideband: SidebandId, params: TrapParams) -> float:
    """Closed-form shift -Omega_R^2 / (2 Delta0) in the eta = 0 limit.

    With no level coupling the pair crosses instead of anti-crossing, but both
    levels are Stark-shifted in opposite directions by the off-resonant
    carrier, moving the crossing detuning.
    """
    if sideband.is_carrier:
        raise ValueError("carrier resonances have Delta0 = 0 and no eta = 0 shift")
    return -_square("rabi", params.rabi) / (2.0 * sideband.order)
