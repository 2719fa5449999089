"""Time-independent laser-ion Hamiltonian on a truncated two-level ⊗ Fock basis.

In the frame rotating with the laser, with hbar = 1 and energies in units of
the trap frequency omega_t:

    H = a^dag a - (delta/2) * sigma_z + (rabi/2) * [chi * sigma_+ + h.c.]

Basis ordering is fixed: |g,0> .. |g,n_max| then |e,0> .. |e,n_max>, so the
matrix splits into diagonal g/e blocks and chi-valued coupling blocks.

The two routes build their chi tables apart.  ``displacement_oracle`` is
the exact route's: it exponentiates the truncated operator i*eta*(a + a^dag)
on a padded basis and crops it, and every Hamiltonian takes its coupling
block from it.  ``coupling_table`` is the closed form's: the Laguerre formula
of ``fock``, equal to ``chi`` entry for entry.  ``check`` and the tests
compare the two.  This is the package's numpy layer: the closed form
(``fock``, ``resolvent``) needs only the standard library, and scipy's
``expm`` is imported only inside ``displacement_oracle``.

Every matrix starts from ``coupling_block``, which bounds n_max through
``check_n_max`` before anything is allocated; ``check_padded_basis`` bounds
the padded basis of ``displacement_oracle`` the same way.  One function,
``real_gauge_matrix``, assembles the Hamiltonian: H in its exact real
symmetric gauge, which ``build_hamiltonian`` returns and the detuning scans
of ``spectrum`` solve, rewriting only its diagonal (``set_detuning``) per
sample.  The gauge is a diagonal unitary, so its eigenvalues and bare-state
weights are those of H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import PHASES, _check_eta, _check_index, _laguerre_column, _log_factorials
from .params import SidebandId, TrapParams

GROUND = "g"
EXCITED = "e"

#: Largest supported Hamiltonian dimension 2 * (n_max + 1).
MAX_DIM = 20_000


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
    """chi_{nn'} for 0 <= n, n' <= n_max from the Laguerre closed form.

    One ``_laguerre_column`` per order d = |n - n'| fills both diagonals at
    distance d; each entry is the same product, in the same order and bit for
    bit, as ``chi(n, n', eta)`` and the terms of the closed-form sums.
    """
    _check_index("n_max", n_max)
    _check_eta(eta)
    x = eta * eta
    gauss = math.exp(-0.5 * x)
    log_fact = _log_factorials(n_max)
    entries = np.empty((n_max + 1, n_max + 1), dtype=complex)
    for d in range(n_max + 1):
        power = eta**d
        column = [
            PHASES[d % 4] * (gauss * power * math.exp(0.5 * (log_fact[lo] - log_fact[lo + d])) * lag)
            for lo, lag in enumerate(_laguerre_column(n_max - d, float(d), x))
        ]
        idx = np.arange(n_max + 1 - d)
        entries[idx, idx + d] = column
        entries[idx + d, idx] = column
    return CouplingTable(eta=eta, n_max=n_max, entries=entries)


def oracle_pad(eta: float, n_max: int) -> int:
    """Basis padding for ``displacement_oracle``, the exact route's chi.

    Exponentiating a truncated operator corrupts the last rows and columns;
    the displacement mixes of order eta*sqrt(n) levels, so the pad grows with
    both eta and n_max before the result is cropped back.
    """
    return max(20, 4 * math.ceil(eta * math.sqrt(max(n_max, 1))))


def displacement_oracle(eta: float, n_max: int, pad: int | None = None) -> CouplingTable:
    """chi table via scaled-and-squared exponentiation of i*eta*(a + a^dag).

    The exact route's chi, independent of the Laguerre closed form: builds
    the tridiagonal ladder operator on a padded basis, exponentiates, and
    crops to (n_max+1)^2.  ``check_padded_basis`` bounds the padded basis
    before any array is allocated.
    """
    _check_index("n_max", n_max)
    _check_eta(eta)
    dim = check_padded_basis(eta, n_max, pad)
    # imported here so that importing this module loads no scipy
    from scipy.linalg import expm

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
    """H in its real symmetric gauge (``real_gauge_matrix``) on the basis
    |g,0> .. |g,n_max>, |e,0> .. |e,n_max>, with the parameters it was built from."""

    params: TrapParams
    n_max: int
    matrix: np.ndarray


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


def check_padded_basis(eta: float, n_max: int, pad: int | None = None, why: str = "") -> int:
    """Levels n_max + 1 + pad of the basis ``displacement_oracle`` exponentiates
    on (pad from ``oracle_pad`` unless given); ``ValueError`` beyond
    ``MAX_DIM // 2`` levels, with ``why`` appended to the message."""
    if pad is None:
        pad = oracle_pad(eta, n_max)
    dim = n_max + 1 + pad
    if dim > MAX_DIM // 2:
        raise ValueError(
            f"padded basis of {dim} levels (n_max {n_max} + 1 + pad {pad}) is beyond "
            f"the supported range ({MAX_DIM // 2} levels){why}"
        )
    return dim


def coupling_block(params: TrapParams, n_max: int) -> np.ndarray:
    """The g-e block (rabi/2) * chi_{nn'} of the Hamiltonian, chi from the operator
    (``displacement_oracle``); ``check_n_max`` first bounds n_max."""
    check_n_max(n_max)
    return 0.5 * params.rabi * displacement_oracle(params.eta, n_max).entries


def set_detuning(h: np.ndarray, delta: float) -> None:
    """Write the bare energies n +/- delta/2 onto the diagonal of h, in place."""
    nb = len(h) // 2
    n = np.arange(nb)
    h[n, n] = n + 0.5 * delta
    h[nb + n, nb + n] = n - 0.5 * delta


def real_gauge_matrix(params: TrapParams, block: np.ndarray) -> np.ndarray:
    """The Hamiltonian in its exact real symmetric gauge, from its g-e block.

    The coupling entries are exactly (real) * i^|n-n'|, as a + a^dag links
    only levels of opposite parity, so conjugating by the i^n phases of each
    sector cancels every imaginary part identically and ``.real`` drops
    nothing; the e-g block is then the transpose of the g-e block.
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
    """H on the basis 0..n_max, in the real symmetric gauge the exact route solves."""
    return HamiltonianMatrix(params, n_max, real_gauge_matrix(params, coupling_block(params, n_max)))
