"""Sideband resonance shifts of laser-driven trapped ions.

Off-resonant couplings between trap levels displace the apparent position of
every sideband resonance.  This package computes that displacement two
independent ways: a closed-form sum over level shifts (``resolvent``) and
exact diagonalization of the truncated laser-ion Hamiltonian with dressed
branch tracking (``spectrum``), plus a CLI that regenerates the standard
level-diagram and shift-scan datasets.
"""

from .errors import (
    PerturbativeRegimeWarning,
    ResonanceWindowError,
    TrackingAmbiguityError,
    TrapshiftError,
    TruncationError,
)
from .fock import (
    CouplingTable,
    chi,
    chi_magnitude,
    coupling_table,
    displacement_oracle,
    laguerre,
    oracle_pad,
    rabi_coupling,
)
from .hamiltonian import (
    EXCITED,
    GROUND,
    HamiltonianMatrix,
    bare_energy,
    build_hamiltonian,
    crossing_point,
    default_n_max,
)
from .params import SidebandId, TrapParams
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

# Names of the exact-diagonalization pipeline.  ``spectrum`` imports
# scipy.optimize, so it is loaded on first access to one of these: the
# closed-form names above need numpy alone, and scipy, about twice the import
# time and memory of numpy, is loaded only by the exact pipeline
# (``spectrum``, ``coupling_table``, ``displacement_oracle``) and the CLI.
_SPECTRUM_NAMES = frozenset({
    "DressedSpectrum",
    "ShiftReport",
    "eigenlevels",
    "find_resonance",
    "measure_splitting",
    "sweep_spectrum",
    "track_branch",
})


def __getattr__(name: str):
    if name in _SPECTRUM_NAMES:
        from . import spectrum

        return getattr(spectrum, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    "eigenlevels",
    "eta_zero_shift",
    "find_resonance",
    "laguerre",
    "level_shift_diag",
    "measure_splitting",
    "oracle_pad",
    "rabi_coupling",
    "splitting_half",
    "sweep_spectrum",
    "track_branch",
]
