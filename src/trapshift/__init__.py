"""Sideband resonance shifts of laser-driven trapped ions.

Off-resonant couplings between trap levels displace the apparent position of
every sideband resonance.  This package computes that displacement two
independent ways: a closed-form sum over level shifts (``resolvent``) and
exact diagonalization of the truncated laser-ion Hamiltonian with dressed
branch tracking (``spectrum``), plus a CLI that regenerates the standard
level-diagram and shift-scan datasets.
"""

import importlib

from .errors import (
    PerturbativeRegimeWarning,
    ResonanceWindowError,
    TrackingAmbiguityError,
    TrapshiftError,
    TruncationError,
)
from .fock import chi, chi_magnitude, laguerre, rabi_coupling
from .params import SidebandId, TrapParams, crossing_point
from .resolvent import (
    LevelShiftElements,
    PerturbativeShift,
    bs_shift,
    bs_shift_ld,
    bs_shift_literature,
    eta_zero_shift,
    level_shift_diag,
    splitting_half,
)

# The names above, the closed form, need only the standard library.  numpy
# serves the chi tables and Hamiltonians (``hamiltonian``) and scipy the
# exact pipeline (``spectrum``), so each name below is served from its module
# on first access: ``import trapshift`` and every closed-form call load
# neither numpy nor scipy.
_LAZY_MODULES = {
    "CouplingTable": "hamiltonian",
    "EXCITED": "hamiltonian",
    "GROUND": "hamiltonian",
    "HamiltonianMatrix": "hamiltonian",
    "bare_energy": "hamiltonian",
    "build_hamiltonian": "hamiltonian",
    "coupling_table": "hamiltonian",
    "default_n_max": "hamiltonian",
    "displacement_oracle": "hamiltonian",
    "oracle_pad": "hamiltonian",
    "DressedSpectrum": "spectrum",
    "ShiftReport": "spectrum",
    "find_resonance": "spectrum",
    "sweep_spectrum": "spectrum",
    "track_branch": "spectrum",
}


def __getattr__(name: str):
    module = _LAZY_MODULES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


__version__ = "0.1.0"

__all__ = [
    "CouplingTable",
    "DressedSpectrum",
    "EXCITED",
    "GROUND",
    "HamiltonianMatrix",
    "LevelShiftElements",
    "PerturbativeRegimeWarning",
    "PerturbativeShift",
    "ResonanceWindowError",
    "ShiftReport",
    "SidebandId",
    "TrackingAmbiguityError",
    "TrapParams",
    "TrapshiftError",
    "TruncationError",
    "bare_energy",
    "bs_shift",
    "bs_shift_ld",
    "bs_shift_literature",
    "build_hamiltonian",
    "chi",
    "chi_magnitude",
    "coupling_table",
    "crossing_point",
    "default_n_max",
    "displacement_oracle",
    "eta_zero_shift",
    "find_resonance",
    "laguerre",
    "level_shift_diag",
    "oracle_pad",
    "rabi_coupling",
    "splitting_half",
    "sweep_spectrum",
    "track_branch",
]
