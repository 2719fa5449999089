"""Fock-space algebra: Laguerre functions and displacement-operator couplings.

The central object is the matrix element

    chi_{nn'} = <n| exp(i*eta*(a + a^dag)) |n'>
              = exp(-eta^2/2) * (i*eta)^|n-n'| * sqrt(n_<!/n_>!) * L_{n_<}^{|n-n'|}(eta^2)

with n_< (n_>) the lesser (greater) of n and n'.  Every scalar value comes
from one routine, ``_laguerre_column``, the three-term Laguerre recurrence in
n at fixed order: ``laguerre`` and ``chi_magnitude`` take the last entry of a
column, and the closed-form sums of ``resolvent`` take two entries of each
column they run.  Those sums read log(k!) from a memo, ``_log_factorials``,
that grows only as far as they reach; ``chi_magnitude`` calls lgamma itself,
so one element at a large index allocates nothing.  ``coupling_table``
evaluates the whole truncated matrix with the same recurrence vectorized
over the order, and ``displacement_oracle`` rebuilds that matrix by
exponentiating the truncated tridiagonal operator i*eta*(a + a^dag), an
independent cross-check of the Laguerre route.  These two import their scipy
function when called, so the scalar and closed-form paths need numpy alone.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .params import TrapParams

#: i^k for k = 0..3 as exact unit phases (1j**k would accumulate roundoff).
PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def _check_index(name: str, value: int) -> None:
    if value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")


def _check_eta(eta: float) -> None:
    if not math.isfinite(eta) or eta < 0:
        raise ValueError(f"eta must be finite and >= 0, got {eta!r}")


#: lgamma(k + 1.0) = log(k!) for k = 0, 1, ...; read through ``_log_factorials``.
_LOG_FACTORIALS: list[float] = []


def _log_factorials(n: int) -> list[float]:
    """The memo of lgamma(k + 1.0), grown to cover k = n and no further.

    A grown memo is a new list bound in one assignment, so a concurrent
    reader never sees an entry at the wrong index.
    """
    global _LOG_FACTORIALS
    table = _LOG_FACTORIALS
    if n >= len(table):
        table = table + [math.lgamma(k + 1.0) for k in range(len(table), n + 1)]
        _LOG_FACTORIALS = table
    return table


def _laguerre_column(n: int, alpha: float, x: float) -> Iterator[float]:
    """L_0^alpha(x), ..., L_n^alpha(x) by the three-term recurrence in n at fixed alpha.

    A generator, so that a caller wanting only L_n holds one entry at a time.
    """
    prev, cur = 0.0, 1.0  # L_{-1} = 0 and L_0 = 1 start the recurrence
    yield cur
    for k in range(1, n + 1):
        prev, cur = cur, ((2.0 * k - 1.0 + alpha - x) * cur - (k - 1.0 + alpha) * prev) / k
        yield cur


def _laguerre_recurrence(n: int, alpha: float, x: float) -> float:
    """L_n^alpha(x), the last entry of its ``_laguerre_column``."""
    for value in _laguerre_column(n, alpha, x):
        pass
    return value


def _chi_magnitudes(eta: float, n_max: int) -> np.ndarray:
    """Real magnitude table m[n, n'] with chi_{nn'} = i^|n-n'| * m[n, n'].

    m[n, n'] = exp(-eta^2/2) * eta^|n-n'| * sqrt(n_<! / n_>!) * L_{n_<}^{|n-n'|}(eta^2),
    the factorial ratio taken through lgamma to stay finite at large n.
    """
    # gammaln is this package's only use of scipy.special; imported here so
    # that scalar and closed-form callers never load scipy.
    from scipy.special import gammaln

    x = eta * eta
    nb = n_max + 1
    # lag[n, d] = L_n^d(x); recurrence in n, vectorized over the order d.
    lag = np.ones((nb, nb))
    if nb > 1:
        d = np.arange(nb, dtype=float)
        lag[1, :] = 1.0 + d - x
        for n in range(2, nb):
            lag[n, :] = ((2.0 * n - 1.0 + d - x) * lag[n - 1, :] - (n - 1.0 + d) * lag[n - 2, :]) / n
    idx = np.arange(nb)
    lo = np.minimum.outer(idx, idx)
    hi = np.maximum.outer(idx, idx)
    dd = hi - lo
    lg = gammaln(np.arange(nb, dtype=float) + 1.0)
    mag = math.exp(-0.5 * x) * (eta ** dd) * np.exp(0.5 * (lg[lo] - lg[hi])) * lag[lo, dd]
    return mag


def laguerre(n: int, alpha: int, x: float) -> float:
    """Generalized Laguerre function L_n^alpha(x).

    Evaluated by the three-term recurrence in n, which is stable for x >= 0;
    the alternating finite sum loses precision beyond n of a few tens.
    """
    _check_index("n", n)
    _check_index("alpha", alpha)
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    return _laguerre_recurrence(n, float(alpha), x)


def chi_magnitude(n: int, nprime: int, eta: float) -> float:
    """Real amplitude m of chi_{nn'} = i^|n-n'| * m; signed, since the Laguerre
    factor changes sign in eta, so |chi_{nn'}| is its ``abs``.

    The factorial ratio goes through lgamma so the result stays finite for
    quantum numbers far beyond the n = 170 overflow of raw factorials.
    """
    _check_index("n", n)
    _check_index("nprime", nprime)
    _check_eta(eta)
    lo, hi = (n, nprime) if n <= nprime else (nprime, n)
    d = hi - lo
    x = eta * eta
    return (
        math.exp(-0.5 * x)
        * eta**d
        * math.exp(0.5 * (math.lgamma(lo + 1.0) - math.lgamma(hi + 1.0)))
        * _laguerre_recurrence(lo, float(d), x)
    )


def chi(n: int, nprime: int, eta: float) -> complex:
    """Displacement-operator matrix element chi_{nn'} = <n|e^{i eta (a+a†)}|n'>."""
    d = abs(n - nprime)
    return PHASES[d % 4] * chi_magnitude(n, nprime, eta)


def rabi_coupling(n: int, nprime: int, params: TrapParams) -> complex:
    """Coupling strength Omega_{nn'} = Omega_R * chi_{nn'} between trap levels."""
    return params.rabi * chi(n, nprime, params.eta)


@dataclass(frozen=True, eq=False)
class CouplingTable:
    """Matrix of chi_{nn'} over the truncated basis 0..n_max."""

    eta: float
    n_max: int
    entries: np.ndarray

    def row_norm(self, n: int) -> float:
        """sum_k |chi_{nk}|^2; tends to 1 with n_max by unitarity."""
        return float(np.sum(np.abs(self.entries[n]) ** 2))


def coupling_table(eta: float, n_max: int) -> CouplingTable:
    """Batch-evaluate chi_{nn'} for 0 <= n, n' <= n_max from the closed form."""
    _check_index("n_max", n_max)
    _check_eta(eta)
    mag = _chi_magnitudes(eta, n_max)
    idx = np.arange(n_max + 1)
    d = np.abs(idx[:, None] - idx[None, :])
    phase = np.asarray(PHASES)[d % 4]
    return CouplingTable(eta=eta, n_max=n_max, entries=phase * mag)


def oracle_pad(eta: float, n_max: int) -> int:
    """Basis padding for the matrix-exponential oracle.

    Exponentiating a truncated operator corrupts the last rows and columns;
    the displacement mixes of order eta*sqrt(n) levels, so the pad grows with
    both eta and n_max before the result is cropped back.
    """
    return max(20, 4 * math.ceil(eta * math.sqrt(max(n_max, 1))))


def displacement_oracle(eta: float, n_max: int, pad: int | None = None) -> CouplingTable:
    """chi table via scaled-and-squared exponentiation of i*eta*(a + a^dag).

    Independent of the Laguerre closed form: builds the tridiagonal ladder
    operator on a padded basis, exponentiates, and crops to (n_max+1)^2.
    """
    # expm is this package's only use of scipy.linalg; imported here so that
    # closed-form callers never load it.
    from scipy.linalg import expm

    _check_index("n_max", n_max)
    _check_eta(eta)
    if pad is None:
        pad = oracle_pad(eta, n_max)
    dim = n_max + 1 + pad
    ladder = np.sqrt(np.arange(1.0, dim))
    position = np.zeros((dim, dim))
    position[np.arange(dim - 1), np.arange(1, dim)] = ladder
    position[np.arange(1, dim), np.arange(dim - 1)] = ladder
    full = expm(1j * eta * position)
    return CouplingTable(eta=eta, n_max=n_max, entries=full[: n_max + 1, : n_max + 1])
