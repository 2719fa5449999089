"""Fock-space algebra: Laguerre functions and displacement-operator couplings.

The central object is the matrix element

    chi_{nn'} = <n| exp(i*eta*(a + a^dag)) |n'>
              = exp(-eta^2/2) * (i*eta)^|n-n'| * sqrt(n_<!/n_>!) * L_{n_<}^{|n-n'|}(eta^2)

with n_< (n_>) the lesser (greater) of n and n'.  ``_amplitude_column``
forms, per distance d = |n - n'|, the prefactor exp(-eta^2/2) * eta^d (the
package's one eta**d overflow is raised there) and the column
L_0^d..L_n^d(eta^2) of ``_laguerre_column``, the three-term recurrence in n.
``_amplitude`` multiplies in sqrt(n_<!/n_>!) and one column entry, the one
product of every chi amplitude, and raises the one overflow of a Laguerre
factor.  ``chi_magnitude`` reads one entry of a column, the table
``hamiltonian.coupling_table`` every entry, and all the closed-form sums of a
``resolvent`` call share one column per distance.  log(k!) comes from
``math.lgamma``, so the closed form keeps no state; every column is bounded
below ``params.MAX_LEVELS`` by ``params.check_level``, eta by ``check_eta``.

This module, like ``resolvent`` and ``params``, needs only the standard
library, so the closed form loads no numpy.  The exact route takes the same
elements from the operator, the real exponential exp(eta*(a - a^dag)) of
``hamiltonian`` (``displacement_oracle`` restores its i^n phases), never from
this module.
"""

from __future__ import annotations

import math

from .params import TrapParams, check_eta, check_level

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
    n is bounded below ``MAX_LEVELS``, the length of the column it runs.
    """
    check_level("n", n)
    if alpha < 0:
        raise ValueError(f"alpha must be a nonnegative integer, got {alpha!r}")
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
    quantum numbers far beyond the n = 170 overflow of raw factorials.  The
    lesser index, the length of the Laguerre column, is bounded below
    ``MAX_LEVELS``; the greater one only enters lgamma and the power of eta,
    and is bounded below 2**53, past which hi + 1.0 no longer counts integers.
    Raises ``OverflowError`` as ``_amplitude`` does, or where eta**d overflows.
    """
    lo, hi = (n, nprime) if n <= nprime else (nprime, n)
    check_level("min(n, nprime)", lo)
    if hi >= 2**53:
        raise ValueError(f"max(n, nprime) must be below 2**53, got {hi!r}")
    check_eta(eta)
    prefactor, column = _amplitude_column(eta, hi - lo, lo)
    return _amplitude(prefactor, column, n, nprime, eta)


def chi(n: int, nprime: int, eta: float) -> complex:
    """Displacement-operator matrix element chi_{nn'} = <n|e^{i eta (a+a†)}|n'>."""
    d = abs(n - nprime)
    return PHASES[d % 4] * chi_magnitude(n, nprime, eta)


def rabi_coupling(n: int, nprime: int, params: TrapParams) -> complex:
    """Coupling strength Omega_{nn'} = Omega_R * chi_{nn'} between trap levels."""
    return params.rabi * chi(n, nprime, params.eta)
