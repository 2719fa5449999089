"""Time-independent laser-ion Hamiltonian on a truncated two-level ⊗ Fock basis.

In the frame rotating with the laser, with hbar = 1 and energies in units of
the trap frequency omega_t:

    H = a^dag a - (delta/2) * sigma_z + (rabi/2) * [chi * sigma_+ + h.c.]

Basis ordering is fixed: |g,0> .. |g,n_max| then |e,0> .. |e,n_max>, so the
matrix splits into diagonal g/e blocks and chi-valued coupling blocks.

The two routes build their chi tables apart.  The exact route's is the
operator itself: ``_real_displacement`` exponentiates the real generator
eta*(a - a^dag), i*eta*(a + a^dag) in the gauge of the i^n phases, on a
padded basis and crops it.  Every Hamiltonian takes its real coupling block
from it; ``displacement_oracle`` is the same matrix with the phases restored.
``coupling_table`` is the closed form's: the Laguerre formula of ``fock``,
equal to ``chi`` entry for entry.  ``check`` and the tests compare the two.
This is the package's numpy layer: the closed form (``fock``, ``resolvent``)
needs only the standard library, and scipy's ``expm`` is imported only
inside ``_real_displacement``.

One check sizes every basis: ``check_padded_basis`` bounds n_max, padded
for the operator exponential, by ``MAX_LEVELS``, and holds n_max and eta to
the level and eta rules that ``params`` states once (``check_level``,
``check_eta``).  ``coupling_table`` and ``_real_displacement``, so every
Hamiltonian, make this one call before anything is allocated.  One function,
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

from .fock import PHASES, _laguerre_column, _laguerre_overflow
from .params import MAX_LEVELS, SidebandId, TrapParams, check_eta, check_level

GROUND = "g"
EXCITED = "e"


def coupling_table(eta: float, n_max: int) -> np.ndarray:
    """chi_{nn'} for 0 <= n, n' <= n_max from the Laguerre closed form.

    One ``_laguerre_column`` per order d = |n - n'| fills both diagonals at
    distance d; each entry is the same product, in the same order and bit for
    bit, as ``chi(n, n', eta)`` and the terms of the closed-form sums.
    ``check_padded_basis`` bounds n_max before any column, log(k!) list or
    table is built.  Raises ``OverflowError``, as ``chi`` does, where a
    Laguerre factor leaves double precision.
    """
    check_padded_basis(eta, n_max)
    x = eta * eta
    gauss = math.exp(-0.5 * x)
    log_fact = [math.lgamma(k + 1.0) for k in range(n_max + 1)]
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
    if not np.isfinite(entries).all():
        n, nprime = np.argwhere(~np.isfinite(entries))[0]
        raise _laguerre_overflow(int(n), int(nprime), eta)
    return entries


def _spread(eta: float, n: int) -> int:
    """4*ceil(eta*sqrt(n)): the displaced number state D|n> spreads over k from
    about (sqrt(n) - eta)^2 to (sqrt(n) + eta)^2, a width of about 4*eta*sqrt(n)."""
    return 4 * math.ceil(eta * math.sqrt(max(n, 1)))


def oracle_pad(eta: float, n_max: int) -> int:
    """Basis padding for ``_real_displacement``, the exact route's chi.

    Exponentiating a truncated operator corrupts the last rows and columns;
    the displacement mixes ``_spread`` levels, so the pad grows with both eta
    and n_max before the result is cropped back.
    """
    return max(20, _spread(eta, n_max))


def _real_displacement(eta: float, n_max: int) -> np.ndarray:
    """exp(eta*(a - a^dag)) on the padded basis, cropped to (n_max+1)^2.

    The real displacement operator: exp(i*eta*(a + a^dag)) conjugated by
    G = diag(i^n), i.e. G chi G^dag.  ``check_padded_basis`` bounds the
    padded basis before any array is allocated.
    """
    dim = check_padded_basis(eta, n_max)
    # imported here so that importing this module loads no scipy
    from scipy.linalg import expm

    ladder = eta * np.sqrt(np.arange(1.0, dim))
    generator = np.zeros((dim, dim))
    generator[np.arange(dim - 1), np.arange(1, dim)] = ladder
    generator[np.arange(1, dim), np.arange(dim - 1)] = -ladder
    return expm(generator)[: n_max + 1, : n_max + 1]


def displacement_oracle(eta: float, n_max: int) -> np.ndarray:
    """chi table of exp(i*eta*(a + a^dag)): ``_real_displacement`` R with the
    i^n phases restored, chi_{nn'} = i^(n' - n) R_{nn'}.

    Each entry is +-R placed in the real or the imaginary part, exact to the
    sign of every zero, which a complex product by i is not.
    """
    real = _real_displacement(eta, n_max)
    n = np.arange(n_max + 1)
    power = (n - n[:, None]) % 4
    entries = np.zeros(real.shape, dtype=complex)
    signed = np.where(power < 2, real, -real)
    np.copyto(entries.real, signed, where=power % 2 == 0)
    np.copyto(entries.imag, signed, where=power % 2 == 1)
    return entries


def bare_energy(state: str, n: int, params: TrapParams) -> float:
    """Uncoupled level energy: E_{g,n} = n + delta/2, E_{e,n} = n - delta/2."""
    check_level("n", n)
    if state == GROUND:
        return n + 0.5 * params.delta
    if state == EXCITED:
        return n - 0.5 * params.delta
    raise ValueError(f"state must be 'g' or 'e', got {state!r}")


def default_n_max(sideband: SidebandId, eta: float) -> int:
    """Default truncation: pair maximum plus a margin that grows with eta^2, or
    with the ``_spread`` of the displaced pair maximum where that is wider.

    Validated downstream by the doubled-basis re-locate of ``find_resonance``.
    """
    n = max(sideband.n_g, sideband.n_e)
    return n + max(15 + math.ceil(25.0 * eta * eta), _spread(eta, n))


@dataclass(frozen=True, eq=False)
class HamiltonianMatrix:
    """H in its real symmetric gauge (``real_gauge_matrix``) on the basis
    |g,0> .. |g,n_max>, |e,0> .. |e,n_max>."""

    matrix: np.ndarray


def check_padded_basis(eta: float, n_max: int, why: str = "") -> int:
    """Levels n_max + 1 + ``oracle_pad`` of the basis ``_real_displacement``
    exponentiates on; ``ValueError`` beyond ``MAX_LEVELS``, with ``why``
    appended to the message, or for a negative n_max or a bad eta.  The one
    size check of every basis."""
    check_eta(eta)
    # as integers first: oracle_pad's float sqrt overflows on a huge n_max
    if n_max >= MAX_LEVELS:
        size = f"basis of {n_max + 1} levels before padding"
    else:
        check_level("n_max", n_max)
        pad = oracle_pad(eta, n_max)
        levels = n_max + 1 + pad
        if levels <= MAX_LEVELS:
            return levels
        size = f"padded basis of {levels} levels (n_max {n_max} + 1 + pad {pad})"
    raise ValueError(f"{size} is beyond the supported range ({MAX_LEVELS} levels){why}")


def coupling_block(params: TrapParams, n_max: int) -> np.ndarray:
    """The real g-e block (rabi/2) * G chi G^dag of the Hamiltonian, chi from the
    operator (``_real_displacement``, which bounds n_max)."""
    return 0.5 * params.rabi * _real_displacement(params.eta, n_max)


def set_detuning(h: np.ndarray, delta: float) -> None:
    """Write the bare energies n +/- delta/2 onto the diagonal of h, in place."""
    nb = len(h) // 2
    n = np.arange(nb)
    h[n, n] = n + 0.5 * delta
    h[nb + n, nb + n] = n - 0.5 * delta


def real_gauge_matrix(params: TrapParams, block: np.ndarray) -> np.ndarray:
    """The Hamiltonian in its exact real symmetric gauge, from its real g-e block
    (``coupling_block``); the e-g block is its transpose."""
    nb = len(block)
    h = np.zeros((2 * nb, 2 * nb))
    h[:nb, nb:] = block
    h[nb:, :nb] = block.T
    set_detuning(h, params.delta)
    return h


def build_hamiltonian(params: TrapParams, n_max: int) -> HamiltonianMatrix:
    """H on the basis 0..n_max, in the real symmetric gauge the exact route solves."""
    return HamiltonianMatrix(real_gauge_matrix(params, coupling_block(params, n_max)))
