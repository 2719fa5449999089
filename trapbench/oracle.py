"""Reference physics computed apart from trapshift.

Everything here is built from scipy.special (generalized Laguerre polynomials
and log-gamma) and numpy, in a real gauge of its own, so that agreement with
trapshift is evidence and not a tautology.  Units: omega_t = 1, hbar = 1.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import eval_genlaguerre, gammaln

#: Summation reach beyond max(n_g, n_e) for the closed-form shift; the terms
#: fall off like eta^(2d)/d!^2, so this is far past double precision.
K_MARGIN = 80


def chi_amplitude(n, k, eta: float) -> np.ndarray:
    """Real amplitude m with <n| exp(i eta (a + a^dag)) |k> = i^|n-k| m.

    Integer arrays n, k broadcast.  m carries the sign of the Laguerre factor.
    """
    n = np.asarray(n, dtype=np.int64)
    k = np.asarray(k, dtype=np.int64)
    lo = np.minimum(n, k)
    d = np.abs(n - k)
    x = eta * eta
    log_ratio = 0.5 * (gammaln(lo + 1.0) - gammaln(lo + d + 1.0))
    return np.exp(-0.5 * x + log_ratio) * np.power(eta, d) * eval_genlaguerre(lo, d, x)


def closed_shift(n_g: int, n_e: int, eta: float, rabi: float) -> tuple[float, float]:
    """Second-order level-shift difference R_ee - R_gg at the bare crossing.

    R_gg couples |g, n_g> to every |e, k> with k != n_e, R_ee couples
    |e, n_e> to every |g, k> with k != n_g; at the crossing detuning the
    denominators reduce to n_e - k and n_g - k.  Returns the shift and the
    sum of the magnitudes of its terms: the two sums can cancel to a small
    fraction of either, so rounding error scales with the latter.
    """
    ks = np.arange(max(n_g, n_e) + K_MARGIN + 1)
    keep_g = ks != n_e
    keep_e = ks != n_g
    r_gg = (chi_amplitude(n_g, ks[keep_g], eta) ** 2) / (n_e - ks[keep_g])
    r_ee = (chi_amplitude(n_e, ks[keep_e], eta) ** 2) / (n_g - ks[keep_e])
    prefactor = 0.25 * rabi * rabi
    shift = prefactor * (math.fsum(r_ee.tolist()) - math.fsum(r_gg.tolist()))
    return shift, prefactor * float(np.sum(np.abs(r_ee)) + np.sum(np.abs(r_gg)))


def eta_zero_shift(n_g: int, n_e: int, rabi: float) -> float:
    """Exact resonance shift at eta = 0, where each |g,n>,|e,n> pair is a 2x2 block.

    The tagged g and e branches cross where sqrt(delta^2 + rabi^2) equals
    the order |n_e - n_g|; to second order this is -rabi^2 / (2 * Delta0).
    """
    order = n_e - n_g
    return math.copysign(math.sqrt(order * order - rabi * rabi), order) - order


def hamiltonian(eta: float, rabi: float, delta: float, n_max: int) -> np.ndarray:
    """Real symmetric H on |g,0..n_max> then |e,0..n_max>.

    The laser couples |e,n> and |g,k> with (rabi/2) i^|n-k| m_nk; the gauge
    |g,k> -> i^-k |g,k>, |e,n> -> i^n |e,n> leaves (rabi/2) (-1)^min(n,k) m_nk.
    """
    idx = np.arange(n_max + 1)
    block = 0.5 * rabi * chi_amplitude(idx[:, None], idx[None, :], eta)
    block *= np.where(np.minimum.outer(idx, idx) % 2 == 0, 1.0, -1.0)
    nb = n_max + 1
    h = np.zeros((2 * nb, 2 * nb))
    h[:nb, nb:] = block
    h[nb:, :nb] = block.T
    h[idx, idx] = idx + 0.5 * delta
    h[nb + idx, nb + idx] = idx - 0.5 * delta
    return h


def pair_branch_slope(n_g: int, n_e: int, eta: float, rabi: float, delta: float, n_max: int) -> float:
    """dE/ddelta of the lower of the two eigenstates with most weight on the pair.

    Hellmann-Feynman: dH/ddelta = diag(+1/2 on g, -1/2 on e), so the slope is
    (P_g - P_e) / 2 with P the sector populations of that eigenvector.
    """
    values, vectors = np.linalg.eigh(hamiltonian(eta, rabi, delta, n_max))
    nb = n_max + 1
    support = vectors[n_g, :] ** 2 + vectors[nb + n_e, :] ** 2
    pair = np.argsort(support)[-2:]
    low = pair[np.argmin(values[pair])]
    p_g = float(np.sum(vectors[:nb, low] ** 2))
    return 0.5 * (p_g - (1.0 - p_g))
