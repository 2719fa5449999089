"""Command-line front end: unit handling, figure-data generation, reports.

Subcommands::

    shift      resonance shift of one sideband, all pipelines side by side
    sweep      dressed/bare level curves over a detuning window
    scan-eta   shift vs Lamb-Dicke parameter for one sideband
    sidebands  shift table for the first few red/blue sidebands
    check      self-test battery (exit 0 iff all checks pass)

Frequencies are written ``2pi*<value><unit>`` (angular) or ``<value><unit>``
(ordinary); bare numbers are dimensionless multiples of the trap frequency.
The library works in units of omega_t; physical units exist only here, where
they scale inputs and outputs.  ``shift`` and ``scan-eta`` ask here for the
comparisons they print beside ``bs_shift`` (``_comparisons``); the one regime
signal is the closed form's ``PerturbativeRegimeWarning``.  ``check`` records
each threshold as written.
Exit codes: 0 ok, 2 invalid configuration (a ``ValueError``), 3 numeric
failure (``spectrum.TrapshiftError`` or an ``OverflowError``) or
non-convergence, 4 failed self-check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .hamiltonian import bare_energy, coupling_table, default_n_max, displacement_oracle
from .params import SidebandId, TrapParams, check_delta
from .resolvent import bs_shift, bs_shift_ld, bs_shift_literature, bs_shifts, eta_zero_shift, rabi_coupling
from .spectrum import ShiftReport, TrapshiftError, check_bases, find_resonance, sweep_spectrum

#: CODATA 2022 values (J s, kg), fixed here so a derived eta does not depend
#: on the constants edition of the installed scipy.
HBAR = 1.0545718176461565e-34
ATOMIC_MASS = 1.66053906892e-27

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CHECK = 4

#: Most rows one command may emit; checked before anything is allocated.
MAX_ROWS = 100_000

_FREQ_RE = re.compile(r"^\s*(?P<twopi>2pi\*)?\s*(?P<value>[^a-df-zA-DF-Z\s]+)\s*(?P<unit>GHz|MHz|kHz|Hz)?\s*$")
_UNIT_SCALE = {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9}

# Command defaults, set on the parser under the config file and the flags;
# with the default etas (sweep 0.4, sidebands 0.083) those of sweep, scan-eta
# and sidebands reproduce the standard figure datasets.
SWEEP_DEFAULTS = {"rabi": "0.3", "delta_min": -2.5, "delta_max": 2.5, "points": 101, "levels": 4}
SCAN_DEFAULTS = {"rabi": "0.01", "eta_min": 0.0, "eta_max": 0.5, "points": 26, "ng": 1, "ne": 0}
SIDEBAND_DEFAULTS = {"trap_freq": "2pi*1.36MHz", "rabi": "2pi*53kHz", "max_order": 2, "max_n": 3}


class ConfigError(ValueError):
    """Invalid command-line or config-file input."""


def finite_float(text: str) -> float:
    """argparse type: a float that is neither infinite nor NaN."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def parse_frequency(text: str) -> tuple[float, bool]:
    """Parse a frequency string to (angular value, carries-physical-unit).

    With a unit the stored angular frequency is 2*pi*value*unit regardless of
    the ``2pi*`` prefix (the prefix marks the notation, not a different
    quantity); without a unit the value is a dimensionless multiple of
    omega_t and must not carry the prefix.
    """
    m = _FREQ_RE.match(text)
    if not m:
        raise ConfigError(f"cannot parse frequency {text!r}")
    try:
        value = finite_float(m.group("value"))
    except argparse.ArgumentTypeError as exc:
        raise ConfigError(f"cannot parse frequency {text!r}") from exc
    unit = m.group("unit")
    if unit is None:
        if m.group("twopi"):
            raise ConfigError(f"{text!r}: the 2pi* prefix requires an explicit unit")
        return value, False
    return 2.0 * math.pi * value * _UNIT_SCALE[unit], True


def serialize_frequency(angular: float) -> str:
    """Canonical round-trippable form of an angular frequency."""
    return f"2pi*{angular / (2.0 * math.pi)!r}Hz"


def parse_mass(text: str) -> float:
    """Mass in kg; accepts plain kg values or atomic-mass-unit suffixes u/amu."""
    t, scale = text.strip(), 1.0
    for suffix in ("amu", "u"):
        if t.endswith(suffix):
            t, scale = t[: -len(suffix)], ATOMIC_MASS
            break
    try:
        return finite_float(t) * scale
    except argparse.ArgumentTypeError as exc:
        raise ConfigError(f"cannot parse mass {text!r}") from exc


def lamb_dicke_from_physical(k_laser: float, mass: float, omega_t: float) -> float:
    """eta = k_L * x0 with x0 = sqrt(hbar / (2 m omega_t)) the ground-state extent."""
    if mass <= 0 or omega_t <= 0:
        raise ConfigError("mass and trap frequency must be positive to derive eta")
    return k_laser * math.sqrt(HBAR / (2.0 * mass * omega_t))


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_output(config: dict, columns: list[str], rows: list[list], fmt: str, out: str | None) -> None:
    """Emit one table as CSV (LF, '.' decimal) or as a single JSON object."""
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_format_cell(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps({"config": config, "columns": columns, "rows": rows}, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {out!r}: {exc.strerror or exc}") from exc


def _check_out(out: str | None) -> None:
    """Fail before any computation when ``--out`` is a directory or is not in a
    writable one."""
    if out is None:
        return
    if Path(out).is_dir():
        raise ConfigError(f"cannot write {out!r}: it is a directory")
    parent = Path(out).parent
    if not parent.is_dir():
        raise ConfigError(f"cannot write {out!r}: {str(parent)!r} is not a directory")
    if not os.access(parent, os.W_OK):
        raise ConfigError(f"cannot write {out!r}: {str(parent)!r} is not writable")


def _check_rows(rows: int) -> None:
    if rows > MAX_ROWS:
        raise ConfigError(f"{rows} output rows exceed the limit of {MAX_ROWS}")


def _config_tokens(path: str, options: tuple[str, ...]) -> list[str]:
    """The flags a JSON config file stands for, as ``--flag=value`` tokens.

    Keys outside ``options`` are ignored and ``null`` means not set; a
    store_true option takes ``true``/``false``, any other a string or a number.
    """
    try:
        loaded = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object")
    tokens = []
    for key, value in loaded.items():
        if key not in options or value is None:
            continue
        flag = "--" + key.replace("_", "-")
        if _OPTIONS[key].get("action") == "store_true":
            if not isinstance(value, bool):
                raise ConfigError(f"config key {key!r} must be true or false, got {value!r}")
            tokens += [flag] if value else []
        elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
            tokens.append(f"{flag}={value}")
        else:
            raise ConfigError(f"config key {key!r} must be a string or a number, got {value!r}")
    return tokens


def _resolve_physics(
    args: argparse.Namespace, default_eta: float | None = None
) -> tuple[TrapParams, float | None, dict]:
    """Build dimensionless TrapParams plus the physical omega_t when units are given.

    ``default_eta`` is the command's own eta, used only when neither --eta
    nor the pair --k-laser/--mass is given.
    """
    if args.rabi is None:
        raise ConfigError("missing required option --rabi")
    omega_phys = None
    if args.trap_freq is not None:
        omega_value, omega_unit = parse_frequency(args.trap_freq)
        if not omega_unit:
            if omega_value != 1.0:
                raise ConfigError("a dimensionless trap frequency must be 1 (it sets the unit)")
        elif omega_value <= 0:
            raise ConfigError(f"a physical --trap-freq must be positive, got {args.trap_freq!r}")
        else:
            omega_phys = omega_value

    rabi, rabi_unit = parse_frequency(args.rabi)
    if rabi_unit:
        if omega_phys is None:
            raise ConfigError("a unit-bearing --rabi requires a unit-bearing --trap-freq")
        rabi /= omega_phys

    eta, k_laser, mass = args.eta, args.k_laser, args.mass
    if k_laser is not None or mass is not None:
        if eta is not None:
            raise ConfigError("give either --eta or the pair --k-laser/--mass, not both")
    elif eta is None:
        eta = default_eta
    if eta is None:
        if k_laser is None or mass is None:
            raise ConfigError("eta is undefined: give --eta or both --k-laser and --mass")
        if omega_phys is None:
            raise ConfigError("deriving eta from --k-laser/--mass requires a physical --trap-freq")
        eta = lamb_dicke_from_physical(k_laser, parse_mass(mass), omega_phys)

    params = TrapParams(rabi=rabi, eta=eta)
    meta = {
        "trap_freq": serialize_frequency(omega_phys) if omega_phys else "1",
        "rabi_over_omega_t": rabi,
        "eta": eta,
        "units": "dimensionless" if omega_phys is None else "physical",
    }
    return params, omega_phys, meta


def _sideband(args: argparse.Namespace) -> SidebandId:
    if args.ng is None or args.ne is None:
        raise ConfigError("sideband is undefined: give --ng and --ne")
    return SidebandId(args.ng, args.ne)


def _hz(value_dimensionless: float | None, omega_phys: float | None) -> float | None:
    if value_dimensionless is None or omega_phys is None:
        return None
    hz = value_dimensionless * omega_phys / (2.0 * math.pi)
    if not math.isfinite(hz):
        raise OverflowError(f"{value_dimensionless!r} times the trap frequency overflows in Hz")
    return hz


def _report_not_converged(sideband: SidebandId, eta: float, report: ShiftReport) -> None:
    print(
        f"not converged: the exact shift of ({sideband.n_g},{sideband.n_e}) at eta={eta!r} "
        f"moves when the basis n_max={report.n_max_used} is doubled; raise --nmax",
        file=sys.stderr,
    )


def _comparisons(sideband: SidebandId, params: TrapParams) -> tuple:
    """(carrier_term, sideband_term, shift_ld, shift_lit) printed beside the
    closed form: no Lamb-Dicke terms for a carrier, a literature value for the
    first red sideband (1,0) only, and shift_ld = carrier_term + sideband_term."""
    if sideband.is_carrier:
        return None, None, None, None
    carrier_term, sideband_term = bs_shift_ld(sideband, params)
    shift_lit = bs_shift_literature(params) if (sideband.n_g, sideband.n_e) == (1, 0) else None
    return carrier_term, sideband_term, carrier_term + sideband_term, shift_lit


# ----------------------------------------------------------------- commands


def cmd_shift(args: argparse.Namespace) -> int:
    params, omega_phys, meta = _resolve_physics(args)
    sideband = _sideband(args)
    check_bases(sideband, args.nmax, params.eta)

    # every closed-form column before any eigensolve, so an overflow exits 3 first
    pert = bs_shift(sideband, params)
    carrier_term, sideband_term, shift_ld, shift_lit = _comparisons(sideband, params)
    shift_eta0 = None if sideband.is_carrier else eta_zero_shift(sideband, params)
    gap_coupling = abs(rabi_coupling(sideband.n_g, sideband.n_e, params))
    report = find_resonance(sideband, params, n_max=args.nmax)

    columns = [
        "n_g", "n_e", "delta0", "shift_full", "carrier_term", "sideband_term",
        "shift_ld", "shift_lit", "shift_eta0", "shift_exact", "delta_star",
        "gap", "gap_half", "gap_coupling", "method", "n_max_used", "converged",
    ]
    row = [
        sideband.n_g, sideband.n_e, float(sideband.order), pert.delta_omega_full,
        carrier_term, sideband_term, shift_ld, shift_lit, shift_eta0,
        report.delta_omega, report.delta_star, report.gap, 0.5 * report.gap,
        gap_coupling, report.method, report.n_max_used, report.converged,
    ]
    if omega_phys is not None:
        columns += ["shift_full_hz", "shift_exact_hz", "gap_hz"]
        row += [
            _hz(pert.delta_omega_full, omega_phys),
            _hz(report.delta_omega, omega_phys),
            _hz(report.gap, omega_phys),
        ]
    config = {"command": "shift", **meta, "n_g": sideband.n_g, "n_e": sideband.n_e}
    write_output(config, columns, [row], args.format, args.out)
    if not report.converged:
        _report_not_converged(sideband, params.eta, report)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    params, omega_phys, meta = _resolve_physics(args, default_eta=0.4)
    lo, hi, points, levels = args.delta_min, args.delta_max, args.points, args.levels
    if not (hi > lo and points >= 2 and levels >= 1):
        raise ConfigError("sweep needs delta_max > delta_min, points >= 2, levels >= 1")
    check_delta(lo)
    check_delta(hi)
    _check_rows(points * 2 * levels * (2 if args.bare else 1))
    n_max = args.nmax if args.nmax is not None else default_n_max(SidebandId(0, levels - 1), params.eta)
    if levels > n_max + 1:
        raise ConfigError(f"--levels {levels} exceeds the basis size n_max + 1 = {n_max + 1}")

    grid = np.linspace(lo, hi, points)
    tags = [("g", n) for n in range(levels)] + [("e", n) for n in range(levels)]
    spectrum = sweep_spectrum(params, grid, n_max, tags=tags)

    columns = ["delta", "branch_id", "energy", "overlap_tag"]
    rows: list[list] = []
    for j, delta in enumerate(grid):
        for tag in tags:
            rows.append([
                float(delta), f"{tag[0]}{tag[1]}",
                float(spectrum.branches[tag][j]), float(spectrum.overlaps[tag][j]),
            ])
        if args.bare:
            at = params.with_delta(float(delta))
            for tag in tags:
                rows.append([
                    float(delta), f"bare_{tag[0]}{tag[1]}",
                    bare_energy(tag[0], tag[1], at), None,
                ])
    config = {
        "command": "sweep", **meta, "delta_min": lo, "delta_max": hi,
        "points": points, "levels": levels, "n_max": n_max, "bare": args.bare,
    }
    write_output(config, columns, rows, args.format, args.out)
    return EXIT_OK


def cmd_scan_eta(args: argparse.Namespace) -> int:
    lo, hi, points = args.eta_min, args.eta_max, args.points
    if not (hi > lo >= 0 and points >= 2):
        raise ConfigError("scan-eta needs eta_max > eta_min >= 0 and points >= 2")
    _check_rows(points)
    sideband = _sideband(args)
    if sideband.is_carrier:
        raise ConfigError("scan-eta requires a sideband with n_g != n_e")

    rabi_value, rabi_unit = parse_frequency(args.rabi)
    if rabi_unit:
        raise ConfigError("scan-eta runs dimensionless; give --rabi as a ratio of omega_t")
    # the default n_max and the padding of the operator's chi grow with eta,
    # so the largest bases are those at eta_max.
    check_bases(sideband, args.nmax, hi)

    columns = ["eta", "shift_exact", "shift_full", "shift_ld", "shift_lit"]
    rows: list[list] = []
    all_converged = True
    for eta in np.linspace(lo, hi, points):
        params = TrapParams(rabi=rabi_value, eta=float(eta))
        shift_full = bs_shift(sideband, params).delta_omega_full
        _, _, shift_ld, shift_lit = _comparisons(sideband, params)
        report = find_resonance(sideband, params, n_max=args.nmax)
        if not report.converged:
            _report_not_converged(sideband, params.eta, report)
            all_converged = False
        rows.append([float(eta), report.delta_omega, shift_full, shift_ld, shift_lit])
    config = {
        "command": "scan-eta", "rabi_over_omega_t": rabi_value,
        "n_g": sideband.n_g, "n_e": sideband.n_e,
        "eta_min": lo, "eta_max": hi, "points": points, "units": "dimensionless",
    }
    write_output(config, columns, rows, args.format, args.out)
    return EXIT_OK if all_converged else EXIT_NUMERIC


def cmd_sidebands(args: argparse.Namespace) -> int:
    params, omega_phys, meta = _resolve_physics(args, default_eta=0.083)
    max_order, max_n = args.max_order, args.max_n
    if max_order < 1 or max_n < 0:
        raise ConfigError("sidebands needs max_order >= 1 and max_n >= 0")
    _check_rows((2 * max_order + 1) * (max_n + 1))
    # built in full first, so each SidebandId bounds its levels before any sum runs
    sidebands = [
        SidebandId(n + max(-order, 0), n + max(order, 0))
        for order in range(-max_order, max_order + 1)
        for n in range(max_n + 1)
    ]

    columns = ["sideband", "order", "n", "n_g", "n_e", "shift", "shift_hz"]
    rows: list[list] = []
    for sb, pert in zip(sidebands, bs_shifts(sidebands, params)):
        shift = pert.delta_omega_full
        rows.append([
            sb.kind, abs(sb.order), min(sb.n_g, sb.n_e), sb.n_g, sb.n_e, shift, _hz(shift, omega_phys),
        ])
    config = {
        "command": "sidebands", **meta, "max_order": max_order, "max_n": max_n,
    }
    write_output(config, columns, rows, args.format, args.out)
    return EXIT_OK


def run_checks() -> list[tuple[str, float, float, bool]]:
    """The self-test battery behind ``trapshift check``.

    Each entry is (name, measured, threshold, passed).
    """
    results: list[tuple[str, float, float, bool]] = []

    def record(name: str, measured: float, threshold: float) -> None:
        results.append((name, measured, threshold, measured <= threshold))

    table = coupling_table(0.4, 12)
    oracle = displacement_oracle(0.4, 12)
    record("bch_oracle_max_diff", float(np.abs(table - oracle).max()), 1e-8)

    # sum_k |chi_{nk}|^2 tends to 1 with n_max by unitarity
    row_norms = (np.abs(coupling_table(0.3, 60)[:11]) ** 2).sum(axis=1)
    record("unitarity_row_norm_err", float(np.abs(row_norms - 1.0).max()), 1e-10)

    params = TrapParams(rabi=0.01, eta=0.3)
    record(
        "carrier_null_max",
        max(abs(bs_shift(SidebandId(n, n), params).delta_omega_full) for n in range(4)),
        1e-15,
    )

    worst = 0.0
    for a in range(4):
        for b in range(a + 1, 4):
            fwd = bs_shift(SidebandId(a, b), params).delta_omega_full
            rev = bs_shift(SidebandId(b, a), params).delta_omega_full
            worst = max(worst, abs(fwd + rev) / max(abs(fwd), 1e-300))
    record("swap_antisymmetry_rel", worst, 1e-15)

    small = TrapParams(rabi=1e-3, eta=0.0)
    closed = eta_zero_shift(SidebandId(0, 1), small)
    record(
        "eta_zero_perturbative",
        abs(bs_shift(SidebandId(0, 1), small).delta_omega_full - closed),
        1e-12,
    )
    report = find_resonance(SidebandId(0, 1), small)
    record("eta_zero_numeric", abs(report.delta_omega - closed), 1e-12)
    record("eta_zero_crossing_gap", report.gap, 1e-10)

    params = TrapParams(rabi=0.01, eta=0.1)
    pert = bs_shift(SidebandId(0, 1), params).delta_omega_full
    exact = find_resonance(SidebandId(0, 1), params).delta_omega
    record(
        "perturbative_vs_exact",
        abs(exact - pert),
        max(0.01 * abs(pert), 1e-9),
    )
    return results


def cmd_check(args: argparse.Namespace) -> int:
    results = run_checks()
    columns = ["check", "measured", "threshold", "status"]
    rows = [
        [name, measured, threshold, "pass" if ok else "FAIL"]
        for name, measured, threshold, ok in results
    ]
    config = {"command": "check"}
    write_output(config, columns, rows, args.format, args.out)
    failed = [name for name, _, _, ok in results if not ok]
    if failed:
        print(f"check failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


# ------------------------------------------------------------------- parser


#: Every option by its dest; its flag is ``--`` plus the dest with dashes.
_OPTIONS = {
    "config": {"help": "JSON file with option defaults; flags win on conflict"},
    "trap_freq": {"help": "trap frequency, e.g. 2pi*1.36MHz"},
    "rabi": {"help": "Rabi frequency, e.g. 2pi*53kHz or a ratio like 0.01"},
    "eta": {"type": finite_float, "help": "Lamb-Dicke parameter"},
    "k_laser": {"type": finite_float, "help": "laser wavenumber in rad/m (with --mass)"},
    "mass": {"help": "ion mass: kg, or with u/amu suffix, e.g. 40u"},
    "nmax": {"type": int, "help": "Fock-basis truncation for diagonalization"},
    "ng": {"type": int, "help": "ground-state vibrational number n_g"},
    "ne": {"type": int, "help": "excited-state vibrational number n_e"},
    "delta_min": {"type": finite_float, "help": "window start in omega_t units"},
    "delta_max": {"type": finite_float, "help": "window end in omega_t units"},
    "points": {"type": int, "help": "grid points"},
    "levels": {"type": int, "help": "Fock levels per sector to emit"},
    "bare": {"action": "store_true", "help": "also emit the uncoupled lines"},
    "eta_min": {"type": finite_float, "help": "scan start"},
    "eta_max": {"type": finite_float, "help": "scan end"},
    "max_order": {"type": int, "help": "highest sideband order"},
    "max_n": {"type": int, "help": "highest vibrational level"},
    "format": {"choices": ("csv", "json"), "default": "csv", "help": "output format (default csv)"},
    "out": {"help": "output path (default stdout)"},
}
_PHYSICS = ("trap_freq", "rabi", "eta", "k_laser", "mass")

#: Each subcommand: its function, its help, the options it reads besides
#: --config/--format/--out, and its parser defaults.
COMMANDS = {
    "shift": (cmd_shift, "resonance shift of one sideband",
              (*_PHYSICS, "nmax", "ng", "ne"), {}),
    "sweep": (cmd_sweep, "dressed level curves over a detuning window",
              (*_PHYSICS, "nmax", "delta_min", "delta_max", "points", "levels", "bare"), SWEEP_DEFAULTS),
    "scan-eta": (cmd_scan_eta, "shift vs Lamb-Dicke parameter",
                 ("rabi", "nmax", "ng", "ne", "eta_min", "eta_max", "points"), SCAN_DEFAULTS),
    "sidebands": (cmd_sidebands, "shift table for the first few sidebands",
                  (*_PHYSICS, "max_order", "max_n"), SIDEBAND_DEFAULTS),
    "check": (cmd_check, "run the self-test battery", (), {}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trapshift",
        description="Sideband resonance shifts of laser-driven trapped ions",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, help_text, options, defaults) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for dest in ("config", *options, "format", "out"):
            p.add_argument("--" + dest.replace("_", "-"), **_OPTIONS[dest])
        p.set_defaults(run=run, **defaults)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse argv, then once more with the config file's values as flags before it.

    argparse keeps the last value it sees, so flags win over the config file,
    and every value, whatever its source, passes its option's type and choices.
    """
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            options = (*COMMANDS[args.command][2], "format", "out")
            args = parser.parse_args([args.command, *_config_tokens(args.config, options), *argv[1:]])
        _check_out(args.out)
        return args.run(args)
    except TrapshiftError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OverflowError as exc:
        print(f"numeric failure: the inputs overflow double precision ({exc})", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
