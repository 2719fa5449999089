"""Time-independent laser-ion Hamiltonian on a truncated two-level ⊗ Fock basis.

In the frame rotating with the laser, with hbar = 1 and energies in units of
the trap frequency omega_t:

    H = a^dag a - (delta/2) * sigma_z + (rabi/2) * [chi * sigma_+ + h.c.]

Basis ordering (``basis_rows``): |g,0> .. |g,n_max> then |e,0> .. |e,n_max>,
so the matrix splits into diagonal g/e blocks and chi-valued coupling blocks.

The two routes build their chi tables apart.  The exact route's is the
operator itself: ``_real_displacement`` exponentiates the real generator
eta*(a - a^dag), i*eta*(a + a^dag) in the gauge of the i^n phases, on a
padded basis and crops it.  Every Hamiltonian takes its real coupling block
from it; ``displacement_oracle`` is the same matrix with the phases restored,
and ``displacement_column`` one column of it, for a carrier's one entry.
Both run one kernel, ``_exp_generator``: the Taylor series of the scaled
generator by tridiagonal products, which the block squares back (scaling and
squaring) and the column applies step by step.  ``coupling_table`` is the
closed form's: the Laguerre formula of ``resolvent``, equal to ``chi`` entry
for entry.  ``check`` and the tests compare the two.  This is the package's
numpy layer and needs numpy alone: the closed form (``resolvent``) needs
only the standard library, and only the exact pipeline (``spectrum``)
imports more.

One check sizes every basis: ``check_padded_basis`` bounds n_max, padded
for the operator exponential, by ``MAX_LEVELS``, and holds n_max and eta to
the level and eta rules that ``params`` states once (``check_level``,
``check_eta``).  ``coupling_table``, ``_real_displacement`` (so every
Hamiltonian) and ``displacement_column`` make this one call before anything
is allocated.  One function, ``real_pencil``, assembles the Hamiltonian:
H in its exact real symmetric gauge as the real pencil A + delta*diag(s),
which ``build_hamiltonian`` evaluates at params.delta and the detuning scans
of ``spectrum`` solve, rewriting only the diagonal per sample.  The gauge is
a diagonal unitary, so its eigenvalues and bare-state weights are those of H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import MAX_LEVELS, SidebandId, TrapParams, check_eta, check_level
from .resolvent import PHASES, _amplitude, _amplitude_column


def coupling_table(eta: float, n_max: int) -> np.ndarray:
    """chi_{nn'} for 0 <= n, n' <= n_max from the Laguerre closed form.

    One ``resolvent._amplitude_column`` per order d = |n - n'| fills both
    diagonals at distance d with ``resolvent._amplitude``, as ``chi(n, n', eta)``
    and the closed-form sums do.  ``check_padded_basis`` bounds n_max before
    any column or table is built.  Raises ``OverflowError`` as ``chi`` does,
    naming the first chi_{n,n+d} of the build, by distance and then by row.
    """
    check_padded_basis(eta, n_max)
    entries = np.empty((n_max + 1, n_max + 1), dtype=complex)
    for d in range(n_max + 1):
        prefactor, lags = _amplitude_column(eta, d, n_max - d)
        phase = PHASES[d % 4]
        column = [phase * _amplitude(prefactor, lags, lo, lo + d, eta) for lo in range(n_max + 1 - d)]
        idx = np.arange(n_max + 1 - d)
        entries[idx, idx + d] = column
        entries[idx + d, idx] = column
    return entries


def _spread(eta: float, n: int) -> int:
    """4*ceil(eta*sqrt(n)): the displaced number state D|n> spreads over k from
    about (sqrt(n) - eta)^2 to (sqrt(n) + eta)^2, a width of about 4*eta*sqrt(n),
    the product saturated at ``MAX_LEVELS``, past which no basis fits."""
    return 4 * math.ceil(min(eta * math.sqrt(max(n, 1)), MAX_LEVELS))


def oracle_pad(eta: float, n_max: int) -> int:
    """Basis padding for ``_real_displacement``, the exact route's chi.

    Exponentiating a truncated operator corrupts the last rows and columns;
    the displacement mixes ``_spread`` levels, so the pad grows with both eta
    and n_max before the result is cropped back.
    """
    return max(20, _spread(eta, n_max))


def _exp_generator(eta: float, divisor: int, start: np.ndarray) -> np.ndarray:
    """exp(eta*(a - a^dag)/divisor) applied to ``start``, a column (dim, 1) or
    the identity: its Taylor series, by tridiagonal products, summed until a
    term no longer moves the sum."""
    ladder = (eta * np.sqrt(np.arange(1.0, len(start))) / divisor)[:, None]
    term, total, k = start, start.copy(), 0
    while np.linalg.norm(term) > 0.5 * np.finfo(float).eps * np.linalg.norm(total):
        k += 1
        product = np.zeros_like(term)
        product[:-1] = ladder * term[1:]
        product[1:] -= ladder * term[:-1]
        term = product / k
        total += term
    return total


def _real_displacement(eta: float, n_max: int) -> np.ndarray:
    """exp(eta*(a - a^dag)) on the padded basis, cropped to (n_max+1)^2: the
    real displacement operator, exp(i*eta*(a + a^dag)) conjugated by
    G = diag(i^n), i.e. G chi G^dag.  ||eta*(a - a^dag)|| <= 2*eta*sqrt(dim),
    so the generator over 2^j is within norm 1; its exponential is squared
    j times (scaling and squaring).  Bounded by ``check_padded_basis``."""
    dim = check_padded_basis(eta, n_max)
    squarings = math.ceil(math.log2(max(2.0 * eta * math.sqrt(dim), 1.0)))
    block = _exp_generator(eta, 2**squarings, np.eye(dim))
    for _ in range(squarings):
        block = block @ block
    return block[: n_max + 1, : n_max + 1]


def displacement_column(eta: float, n_max: int, n: int) -> np.ndarray:
    """Column n, an integer in 0..n_max, of ``_real_displacement`` with no matrix formed:
    |n> on the same padded basis, stepped ceil(2*eta*sqrt(dim)) times by the exponential
    of the generator over as many steps, each within norm 1; n and the basis are checked first."""
    dim = check_padded_basis(eta, n_max)
    check_level("n", n, top=n_max)
    steps = max(1, math.ceil(2.0 * eta * math.sqrt(dim)))
    column = np.zeros((dim, 1))
    column[n] = 1.0
    for _ in range(steps):
        column = _exp_generator(eta, steps, column)
    return column[: n_max + 1, 0]


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


def basis_rows(n_max: int) -> dict[tuple[str, int], int]:
    """Row of each bare state |state, n>: |g,0> .. |g,n_max>, then |e,0> .. |e,n_max>."""
    return {tag: row for row, tag in enumerate((state, n) for state in "ge" for n in range(n_max + 1))}


def bare_energy(state: str, n: int, params: TrapParams) -> float:
    """Uncoupled level energy: E_{g,n} = n + delta/2, E_{e,n} = n - delta/2."""
    check_level("n", n)
    if state == "g":
        return n + 0.5 * params.delta
    if state == "e":
        return n - 0.5 * params.delta
    raise ValueError(f"state must be 'g' or 'e', got {state!r}")


def default_n_max(sideband: SidebandId, eta: float) -> int:
    """Default truncation: pair maximum plus a margin that grows with eta^2, or
    with the ``_spread`` of the displaced pair maximum where that is wider.
    Both saturate at ``MAX_LEVELS``, which ``check_padded_basis`` rejects.

    Validated downstream by the doubled-basis re-locate of ``find_resonance``.
    """
    n = max(sideband.n_g, sideband.n_e)
    return n + max(15 + math.ceil(min(25.0 * eta * eta, MAX_LEVELS)), _spread(eta, n))


@dataclass(frozen=True, eq=False)
class HamiltonianMatrix:
    """H in its real symmetric gauge (``real_pencil``) on the basis
    |g,0> .. |g,n_max>, |e,0> .. |e,n_max>."""

    matrix: np.ndarray


def check_padded_basis(eta: float, n_max: int, why: str = "") -> int:
    """Levels n_max + 1 + ``oracle_pad`` of the basis ``_real_displacement``
    exponentiates on; ``ValueError`` beyond ``MAX_LEVELS``, with ``why``
    appended, or for a bad eta or an n_max that is not an integer (asked
    first) or is negative.  The one size check of every basis."""
    check_eta(eta)
    # an integer, then its size as an integer: oracle_pad's float sqrt overflows on a huge n_max
    check_level("n_max", n_max, top=None)
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


def real_pencil(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A, s): the Hamiltonian in its exact real symmetric gauge is A + delta*diag(s).
    A is H at delta = 0, the bare energies n on its diagonal, the real g-e block
    (``coupling_block``) above it and its transpose below; s is +1/2 on g, -1/2 on e."""
    nb = len(block)
    a = np.zeros((2 * nb, 2 * nb))
    a[:nb, nb:] = block
    a[nb:, :nb] = block.T
    np.fill_diagonal(a, np.tile(np.arange(nb), 2))
    return a, np.repeat([0.5, -0.5], nb)


def build_hamiltonian(params: TrapParams, n_max: int) -> HamiltonianMatrix:
    """H on the basis 0..n_max, in the real symmetric gauge the exact route solves."""
    a, s = real_pencil(coupling_block(params, n_max))
    np.fill_diagonal(a, a.diagonal() + s * params.delta)
    return HamiltonianMatrix(a)
