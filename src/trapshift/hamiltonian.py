"""Time-independent laser-ion Hamiltonian on a truncated two-level ⊗ Fock basis.

In the frame rotating with the laser, with hbar = 1 and energies in units of
the trap frequency omega_t:

    H = a^dag a - (delta/2) * sigma_z + (rabi/2) * [chi * sigma_+ + h.c.]

Basis ordering is fixed: |g,0> .. |g,n_max| then |e,0> .. |e,n_max>, so the
matrix splits into diagonal g/e blocks and chi-valued coupling blocks.

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

from .fock import PHASES, coupling_table
from .params import SidebandId, TrapParams

GROUND = "g"
EXCITED = "e"

#: Largest supported Hamiltonian dimension 2 * (n_max + 1).
MAX_DIM = 20_000


def bare_energy(state: str, n: int, params: TrapParams) -> float:
    """Uncoupled level energy: E_{g,n} = n + delta/2, E_{e,n} = n - delta/2."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n!r}")
    if state == GROUND:
        return n + 0.5 * params.delta
    if state == EXCITED:
        return n - 0.5 * params.delta
    raise ValueError(f"state must be 'g' or 'e', got {state!r}")


def crossing_point(sideband: SidebandId, params: TrapParams) -> tuple[float, float]:
    """(E0, Delta0) where the bare lines of the sideband pair intersect.

    E0 = (n_g + n_e)/2 and Delta0 = n_e - n_g, both returned as floats.
    """
    e0 = 0.5 * (sideband.n_g + sideband.n_e)
    delta0 = float(sideband.n_e - sideband.n_g)
    return e0, delta0


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
