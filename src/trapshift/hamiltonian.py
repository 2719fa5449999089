"""Time-independent laser-ion Hamiltonian on a truncated two-level ⊗ Fock basis.

In the frame rotating with the laser, with hbar = 1 and energies in units of
the trap frequency omega_t:

    H = a^dag a - (delta/2) * sigma_z + (rabi/2) * [chi * sigma_+ + h.c.]

Basis ordering is fixed: |g,0> .. |g,n_max| then |e,0> .. |e,n_max>, so the
matrix splits into diagonal g/e blocks and chi-valued coupling blocks.

The chi tables come first: ``coupling_table`` evaluates the truncated
matrix of chi_{nn'} (see ``fock``) with the Laguerre recurrence vectorized
over the order, and ``displacement_oracle`` rebuilds it by exponentiating
the truncated operator i*eta*(a + a^dag), an independent cross-check of the
Laguerre route.  This is the package's numpy layer: the closed form
(``fock``, ``resolvent``) needs only the standard library, and scipy, which
serves the exact pipeline of ``spectrum``, is imported here only inside the
functions that call it: ``gammaln`` for ``coupling_table``, ``expm`` for the
oracle.

Every matrix starts from ``coupling_block``, which bounds n_max through
``check_n_max`` before anything is allocated.  ``build_hamiltonian``
assembles the complex matrix H above; ``real_gauge_matrix`` alone constructs
its exact real symmetric gauge, which the detuning scans of ``spectrum``
solve, rewriting only its diagonal (``set_detuning``) per sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import PHASES, _check_eta, _check_index
from .params import SidebandId, TrapParams

GROUND = "g"
EXCITED = "e"

#: Largest supported Hamiltonian dimension 2 * (n_max + 1).
MAX_DIM = 20_000


def _chi_magnitudes(eta: float, n_max: int) -> np.ndarray:
    """Real magnitude table m[n, n'] with chi_{nn'} = i^|n-n'| * m[n, n'].

    m[n, n'] = exp(-eta^2/2) * eta^|n-n'| * sqrt(n_<! / n_>!) * L_{n_<}^{|n-n'|}(eta^2),
    the factorial ratio taken through lgamma to stay finite at large n.
    """
    # gammaln is this package's only use of scipy.special; imported here so
    # that importing this module loads no scipy.
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
    # only the oracle loads it (``spectrum`` loads it through scipy.optimize).
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


def bare_energy(state: str, n: int, params: TrapParams) -> float:
    """Uncoupled level energy: E_{g,n} = n + delta/2, E_{e,n} = n - delta/2."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n!r}")
    if state == GROUND:
        return n + 0.5 * params.delta
    if state == EXCITED:
        return n - 0.5 * params.delta
    raise ValueError(f"state must be 'g' or 'e', got {state!r}")


def default_n_max(sideband: SidebandId, eta: float) -> int:
    """Default truncation: pair maximum plus a margin that grows with eta^2.

    Validated downstream by the doubled-basis re-locate of ``find_resonance``.
    """
    return max(sideband.n_g, sideband.n_e) + 15 + math.ceil(25.0 * eta * eta)


@dataclass(frozen=True, eq=False)
class HamiltonianMatrix:
    """Hermitian matrix of the coupled system plus its basis bookkeeping."""

    params: TrapParams
    n_max: int
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return 2 * (self.n_max + 1)

    def index_of(self, state: str, n: int) -> int:
        """Flat basis index of |state, n| in the g-block-then-e-block ordering."""
        if not 0 <= n <= self.n_max:
            raise ValueError(f"n must be in [0, {self.n_max}], got {n!r}")
        if state == GROUND:
            return n
        if state == EXCITED:
            return self.n_max + 1 + n
        raise ValueError(f"state must be 'g' or 'e', got {state!r}")


def _gauge_phases(nb: int) -> np.ndarray:
    return np.asarray(PHASES)[np.arange(nb) % 4]


def check_n_max(n_max: int, why: str = "") -> None:
    """Raise ``ValueError`` when the dimension 2 * (n_max + 1) exceeds ``MAX_DIM``;
    ``why`` is appended to the message."""
    if 2 * (n_max + 1) > MAX_DIM:
        raise ValueError(
            f"basis dimension {2 * (n_max + 1)} is beyond the supported range "
            f"(n_max <= {MAX_DIM // 2 - 1}){why}"
        )


def coupling_block(params: TrapParams, n_max: int) -> np.ndarray:
    """The g-e block (rabi/2) * chi_{nn'} of the Hamiltonian, bounded by
    ``check_n_max`` before anything is allocated."""
    check_n_max(n_max)
    return 0.5 * params.rabi * coupling_table(params.eta, n_max).entries


def set_detuning(h: np.ndarray, delta: float) -> None:
    """Write the bare energies n +/- delta/2 onto the diagonal of h, in place."""
    nb = len(h) // 2
    n = np.arange(nb)
    h[n, n] = n + 0.5 * delta
    h[nb + n, nb + n] = n - 0.5 * delta


def real_gauge_matrix(params: TrapParams, block: np.ndarray) -> np.ndarray:
    """The Hamiltonian in its exact real symmetric gauge, from its g-e block.

    The coupling entries are exactly (real) * i^|n-n'|, so conjugating by the
    i^n phases of each sector cancels every imaginary part identically, not
    just to roundoff; the e-g block is then the transpose of the g-e block.
    """
    nb = len(block)
    phases = _gauge_phases(nb)
    real_block = ((phases[:, None] * block) * phases.conj()[None, :]).real
    h = np.zeros((2 * nb, 2 * nb))
    h[:nb, nb:] = real_block
    h[nb:, :nb] = real_block.T
    set_detuning(h, params.delta)
    return h


def build_hamiltonian(params: TrapParams, n_max: int) -> HamiltonianMatrix:
    """Assemble the full matrix: bare energies on the diagonal, chi couplings off it."""
    block = coupling_block(params, n_max)
    nb = n_max + 1
    h = np.zeros((2 * nb, 2 * nb), dtype=complex)
    set_detuning(h, params.delta)
    h[:nb, nb:] = block
    h[nb:, :nb] = block.conj().T
    return HamiltonianMatrix(params=params, n_max=n_max, matrix=h)
