"""The four benchmark workloads: seeded inputs, one operation, checks, layers.

Each workload is a closed loop with one caller.  ``cases(seed)`` is pure
Python and imports nothing from trapshift, so the same seed gives the same
inputs whatever the program does.  ``prepare`` turns cases into call
arguments outside any timed region; ``run`` is the timed operation;
``check`` compares the kept outputs with ``oracle``; ``layers`` reduces a
traced pass to the per-layer metrics the workload owns.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter

#: Drive strength of the scan and closed workloads, in units of omega_t.
RABI = 0.01

#: Closed form against the oracle, relative to the summed magnitude of the
#: terms (the shift itself can be 1e-4 of that, e.g. (8,10) at eta 0.84).
CLOSED_REL_TOL = 1e-12
#: Hellmann-Feynman slope allowed at a located extremum.  Observed <= 2e-10;
#: moving delta* by 1e-6 gives slopes of 8e-5 and more on these cases.
STATIONARY_TOL = 1e-8
#: Absolute agreement of the eta = 0 intersection with its exact root.
ETA_ZERO_TOL = 1e-13
#: Branch energies against the oracle's eigenvalues, and track vs sweep.
EIGEN_TOL = 1e-12
#: Bare-state weight of a branch eigenvector, where its eigenvalue is isolated.
WEIGHT_TOL = 1e-8
WEIGHT_GAP = 1e-6


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _in_cell(rng: random.Random, center: float, width: float) -> float:
    """A point of the half-open cell [center - width/2, center + width/2)."""
    return center + width * (rng.random() - 0.5)


def _mean_ms(tracer, indices: list[int]) -> float:
    return 1e3 * tracer.busy(indices) / max(len(indices), 1)


class Workload:
    name = ""
    tail_q = 0.5
    #: Smallest run with ten samples beyond ``tail_q``.
    min_ops = 1
    trace_targets: tuple[str, ...] = ()

    def cases(self, seed: int) -> list:
        raise NotImplementedError

    def prepare(self, root: Path, cases: list) -> list:
        raise NotImplementedError

    def warm(self, inputs: list) -> None:
        self.run(inputs[0])

    def run(self, args):
        raise NotImplementedError

    def repeat_problems(self, cases: list, first: list, later: list) -> list[str]:
        """Disagreements between two passes over the same inputs."""
        return []

    def traced_run(self, tracer, args):
        """The operation with spans recorded."""
        with tracer:
            return self.run(args)

    def check(self, cases: list, outputs: list) -> list[str]:
        raise NotImplementedError

    def layers(self, tracer, cases: list, outputs: list) -> dict[str, float]:
        raise NotImplementedError


# ---------------------------------------------------------------- scan

#: Width of the cell each eta is drawn from, around its grid point.  The
#: locator's cost jumps with eta where its window escalates or shrinks, so a
#: cell as wide as the 0.04 grid spacing would let the seed move the tail.
SCAN_CELL = 0.004


class Scan(Workload):
    """bs_shift plus find_resonance (convergence check on), warm, in-process."""

    name = "scan"
    tail_q = 0.80
    min_ops = 50
    trace_targets = (
        "trapshift.spectrum.find_resonance",
        "trapshift.spectrum.minimize_scalar",
        "trapshift.spectrum.brentq",
        "trapshift.spectrum.coupling_block",
        "trapshift.hamiltonian.coupling_table",
        "numpy.linalg.eigh",
    )

    def cases(self, seed):
        rng = _rng(self.name, seed)
        # First red sideband over eta in [0, 1]: the endpoints stay put (eta = 0
        # is the intersection mode, eta = 1 gives the largest basis, dim 164).
        etas = [0.0] + [_in_cell(rng, i / 25, SCAN_CELL) for i in range(1, 25)] + [1.0]
        cases = [((1, 0), eta) for eta in etas]
        for sideband, center in (((0, 1), 0.1), ((0, 1), 0.5), ((2, 4), 0.3), ((3, 1), 0.4)):
            cases.append((sideband, _in_cell(rng, center, SCAN_CELL)))
        rng.shuffle(cases)
        return cases

    def prepare(self, root, cases):
        import trapshift.resolvent
        import trapshift.spectrum
        from trapshift import SidebandId, TrapParams

        self.resolvent = trapshift.resolvent
        self.spectrum = trapshift.spectrum
        return [(SidebandId(*sb), TrapParams(rabi=RABI, eta=eta)) for sb, eta in cases]

    def run(self, args):
        sideband, params = args
        return (
            self.resolvent.bs_shift(sideband, params),
            self.spectrum.find_resonance(sideband, params),
        )

    def check(self, cases, outputs):
        import oracle

        problems = []
        for ((n_g, n_e), eta), out in zip(cases, outputs):
            if isinstance(out, Exception):
                continue
            pert, report = out
            label = f"scan ({n_g},{n_e}) eta={eta!r}"
            if not report.converged:
                problems.append(f"{label}: not converged at n_max {report.n_max_used}")
            ref, scale = oracle.closed_shift(n_g, n_e, eta, RABI)
            if not abs(pert.delta_omega_full - ref) <= CLOSED_REL_TOL * scale:
                problems.append(f"{label}: bs_shift {pert.delta_omega_full!r} vs oracle {ref!r}")
            if eta == 0.0:
                exact = oracle.eta_zero_shift(n_g, n_e, RABI)
                if report.method != "intersection" or abs(report.delta_omega - exact) > ETA_ZERO_TOL:
                    problems.append(
                        f"{label}: {report.method} shift {report.delta_omega!r} vs exact {exact!r}"
                    )
            else:
                slope = oracle.pair_branch_slope(
                    n_g, n_e, eta, RABI, report.delta_star, report.n_max_used
                )
                if report.method != "extremum" or abs(slope) > STATIONARY_TOL:
                    problems.append(f"{label}: {report.method} branch slope {slope!r} at delta*")
        return problems

    def layers(self, tracer, cases, outputs):
        resonances = tracer.named("trapshift.spectrum.find_resonance")
        n_res = max(len(resonances), 1)
        eigh = tracer.named("numpy.linalg.eigh")
        # The convergence check re-locates on the doubled basis, the larger
        # of the two dimensions each find_resonance solves at.
        top_dim: dict[int, int] = {}
        for i in eigh:
            span = tracer.spans[i]
            top_dim[span.op] = max(top_dim.get(span.op, 0), span.dim)
        relocate = [i for i in eigh if tracer.spans[i].dim == top_dim[tracer.spans[i].op]]
        refiners = {"trapshift.spectrum.minimize_scalar", "trapshift.spectrum.brentq"}
        refine = [i for i in eigh if tracer.has_ancestor(i, refiners)]
        out = {
            "spectrum.eigh_calls_per_resonance": len(eigh) / n_res,
            "spectrum.eigh_calls_relocate_per_resonance": len(relocate) / n_res,
            "spectrum.eigh_calls_refine_per_resonance": len(refine) / n_res,
            "spectrum.eigh_busy_ms_per_resonance": 1e3 * tracer.busy(eigh) / n_res,
            "spectrum.self_ms_per_resonance": 1e3 * sum(tracer.self_times(resonances)) / n_res,
            "fock.coupling_table_ms": _mean_ms(tracer, tracer.named("trapshift.hamiltonian.coupling_table")),
            "hamiltonian.coupling_block_ms": _mean_ms(tracer, tracer.named("trapshift.spectrum.coupling_block")),
        }
        for dim in (36, 68, 164):
            at_dim = [i for i in eigh if tracer.spans[i].dim == dim]
            out[f"spectrum.eigh_us_d{dim}"] = 1e6 * tracer.busy(at_dim) / max(len(at_dim), 1)
        return out


# ---------------------------------------------------------------- sweep

#: (cases per pass, rabi, eta center, eta range, delta_min, delta_max, points,
#:  levels, n_max, tracked tag).  The eta range is split into one cell per case.
#: Ops of the two settings take about 55 and 40 ms; unequal case counts keep
#: the median inside one cluster instead of in the gap between them.
SWEEP_SETTINGS = (
    # The default level diagram of ``trapshift sweep``.
    (6, 0.3, 0.4, 0.06, -2.5, 2.5, 101, 4, 22, ("g", 1)),
    # The zoomed first-blue anti-crossing |g,0> <-> |e,1>.
    (3, 0.3, 0.1, 0.03, 0.8, 1.2, 101, 2, 17, ("g", 0)),
)


class Sweep(Workload):
    """sweep_spectrum over a detuning grid with all tags, then track_branch of one."""

    name = "sweep"
    tail_q = 0.90
    min_ops = 100
    trace_targets = (
        "trapshift.spectrum.sweep_spectrum",
        "trapshift.spectrum.track_branch",
        "trapshift.spectrum.linear_sum_assignment",
        "numpy.linalg.eigh",
    )

    def cases(self, seed):
        rng = _rng(self.name, seed)
        cases = []
        for setting, (count, _, center, width, *_rest) in enumerate(SWEEP_SETTINGS):
            cell = width / count
            for c in range(count):
                lo = center - width / 2 + c * cell
                cases.append((setting, _in_cell(rng, lo + cell / 2, cell)))
        rng.shuffle(cases)
        return cases

    def prepare(self, root, cases):
        import numpy as np
        import trapshift.spectrum
        from trapshift import TrapParams

        self.spectrum = trapshift.spectrum
        inputs = []
        for setting, eta in cases:
            _, rabi, _, _, lo, hi, points, levels, n_max, tag = SWEEP_SETTINGS[setting]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # rabi 0.3 is outside the perturbative range
                params = TrapParams(rabi=rabi, eta=eta)
            tags = [("g", n) for n in range(levels)] + [("e", n) for n in range(levels)]
            inputs.append((params, np.linspace(lo, hi, points), n_max, tags, tag))
        return inputs

    def run(self, args):
        params, grid, n_max, tags, tag = args
        return (
            self.spectrum.sweep_spectrum(params, grid, n_max, tags=tags),
            self.spectrum.track_branch(params, grid, tag, n_max),
        )

    def check(self, cases, outputs):
        import numpy as np

        import oracle

        problems = []
        for (setting, eta), out in zip(cases, outputs):
            if isinstance(out, Exception):
                continue
            spectrum, tracked = out
            _, rabi, *_, n_max, tag = SWEEP_SETTINGS[setting]
            label = f"sweep setting {setting} eta={eta!r}"
            problems += branch_problems(label, spectrum, eta, rabi, n_max)
            for field in ("branches", "overlaps"):
                diff = np.max(np.abs(getattr(tracked, field)[tag] - getattr(spectrum, field)[tag]))
                if not diff <= EIGEN_TOL:
                    problems.append(f"{label}: track_branch {field} of {tag} off by {diff!r}")
        return problems

    def layers(self, tracer, cases, outputs):
        sweeps = max(len(tracer.named("trapshift.spectrum.sweep_spectrum")), 1)
        in_sweep = {"trapshift.spectrum.sweep_spectrum"}
        eigh = [i for i in tracer.named("numpy.linalg.eigh") if tracer.has_ancestor(i, in_sweep)]
        assign = [
            i
            for i in tracer.named("trapshift.spectrum.linear_sum_assignment")
            if tracer.has_ancestor(i, in_sweep)
        ]
        return {
            "spectrum.eigh_calls_per_sweep": len(eigh) / sweeps,
            "spectrum.assign_calls_per_sweep": len(assign) / sweeps,
            "spectrum.eigh_busy_ms_per_sweep": 1e3 * tracer.busy(eigh) / sweeps,
            "spectrum.assign_busy_ms_per_sweep": 1e3 * tracer.busy(assign) / sweeps,
            "spectrum.track_branch_ms": _mean_ms(tracer, tracer.named("trapshift.spectrum.track_branch")),
        }


def branch_problems(label: str, spectrum, eta: float, rabi: float, n_max: int) -> list[str]:
    """Every tagged branch must sit on its own eigenvalue of the oracle Hamiltonian.

    At each grid point the branch energies are matched to distinct
    eigenvalues; where the matched eigenvalue is isolated, the bare-state
    weight of its eigenvector must equal the reported overlap, which pins the
    tag to the right branch.
    """
    import numpy as np

    import oracle

    nb = n_max + 1
    problems = []
    for j, delta in enumerate(spectrum.grid):
        values, vectors = np.linalg.eigh(oracle.hamiltonian(eta, rabi, float(delta), n_max))
        used: set[int] = set()
        for tag, energies in spectrum.branches.items():
            energy = energies[j]
            order = np.argsort(np.abs(values - energy))
            idx = next(int(i) for i in order if int(i) not in used)
            used.add(idx)
            if not abs(values[idx] - energy) <= EIGEN_TOL:
                problems.append(
                    f"{label}: branch {tag} at delta={float(delta)!r} is {energy!r}, "
                    f"nearest free eigenvalue {values[idx]!r}"
                )
                continue
            neighbours = np.delete(values, idx)
            if np.min(np.abs(neighbours - values[idx])) > WEIGHT_GAP:
                row = tag[1] if tag[0] == "g" else nb + tag[1]
                weight = vectors[row, idx] ** 2
                if not abs(weight - spectrum.overlaps[tag][j]) <= WEIGHT_TOL:
                    problems.append(
                        f"{label}: branch {tag} at delta={float(delta)!r} has bare weight "
                        f"{spectrum.overlaps[tag][j]!r}, eigenvector gives {weight!r}"
                    )
        if len(problems) > 20:
            break
    return problems


# ---------------------------------------------------------------- closed

CLOSED_MAX_ORDER = 3
CLOSED_LEVELS = range(11)
CLOSED_ETA_CELLS = 5
CLOSED_ETA_MAX = 1.2


class Closed(Workload):
    """One bs_shift per operation over the differential-test domain."""

    name = "closed"
    tail_q = 0.99
    min_ops = 1000
    trace_targets = (
        "trapshift.resolvent.bs_shift",
        "trapshift.resolvent.level_shift_diag",
        "trapshift.resolvent.bs_shift_ld",
        "trapshift.resolvent.chi_magnitude",
    )

    def cases(self, seed):
        rng = _rng(self.name, seed)
        width = CLOSED_ETA_MAX / CLOSED_ETA_CELLS
        cases = []
        # A sideband and its swap share one eta, so antisymmetry is checkable.
        for order in range(CLOSED_MAX_ORDER + 1):
            for n in CLOSED_LEVELS:
                for c in range(CLOSED_ETA_CELLS):
                    eta = width * (c + 1.0 - rng.random())  # in (c*width, (c+1)*width]
                    cases.append((n, n + order, eta))
                    if order:
                        cases.append((n + order, n, eta))
        rng.shuffle(cases)
        return cases

    def prepare(self, root, cases):
        import trapshift.resolvent
        from trapshift import SidebandId, TrapParams

        self.resolvent = trapshift.resolvent
        return [(SidebandId(n_g, n_e), TrapParams(rabi=RABI, eta=eta)) for n_g, n_e, eta in cases]

    def warm(self, inputs):
        for args in inputs[:20]:
            self.run(args)

    def run(self, args):
        return self.resolvent.bs_shift(*args)

    def check(self, cases, outputs):
        import oracle

        problems = []
        by_case = {}
        for (n_g, n_e, eta), out in zip(cases, outputs):
            if isinstance(out, Exception):
                continue
            value = out.delta_omega_full
            by_case[(n_g, n_e, eta)] = value
            label = f"closed ({n_g},{n_e}) eta={eta!r}"
            if n_g == n_e:
                if value != 0.0:
                    problems.append(f"{label}: carrier shift {value!r} is not 0")
                continue
            ref, scale = oracle.closed_shift(n_g, n_e, eta, RABI)
            if not abs(value - ref) <= CLOSED_REL_TOL * scale:
                problems.append(f"{label}: bs_shift {value!r} vs oracle {ref!r}")
        for (n_g, n_e, eta), value in by_case.items():
            swapped = by_case.get((n_e, n_g, eta))
            if n_g < n_e and swapped is not None and swapped != -value:
                problems.append(f"closed ({n_g},{n_e}) eta={eta!r}: swap gives {swapped!r}, not {-value!r}")
        return problems

    def layers(self, tracer, cases, outputs):
        shifts = tracer.named("trapshift.resolvent.bs_shift")
        chi = tracer.named("trapshift.resolvent.chi_magnitude")
        return {
            "fock.chi_magnitude_calls_per_shift": len(chi) / max(len(shifts), 1),
            "fock.chi_magnitude_us": 1e3 * _mean_ms(tracer, chi),
            "resolvent.bs_shift_us": 1e3 * _mean_ms(tracer, shifts),
            "resolvent.level_shift_diag_us": 1e3 * _mean_ms(tracer, tracer.named("trapshift.resolvent.level_shift_diag")),
            "resolvent.bs_shift_ld_us": 1e3 * _mean_ms(tracer, tracer.named("trapshift.resolvent.bs_shift_ld")),
        }


# ---------------------------------------------------------------- cli

#: Calcium-ion example of the README: 1.36 MHz trap, 53 kHz Rabi, eta 0.083.
CA_TRAP_HZ = 1.36e6
CA_RABI_HZ = 53e3
CA_ETA = 0.083

CLI_COMMANDS = {
    "sidebands": ["sidebands"],
    "shift": ["shift", "--ng", "0", "--ne", "1", "--trap-freq", "2pi*1.36MHz",
              "--rabi", "2pi*53kHz", "--eta", "0.083"],
    "sweep": ["sweep", "--bare"],
    "check": ["check"],
}
#: Data rows at the documented defaults: sidebands -2..2 x n 0..3; one shift
#: row; 101 grid points x (8 branches + 8 bare lines); eight self-checks.
CLI_ROWS = {"sidebands": 20, "shift": 1, "sweep": 101 * 16, "check": 8}
IMPORT_MODULES = {
    "import.trapshift_cli_ms": "trapshift.cli",
    "import.scipy_linalg_ms": "scipy.linalg",
    "import.scipy_optimize_ms": "scipy.optimize",
}
MAIN_REPEATS = 3
_IMPORT_LINE = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$")


class Cli(Workload):
    """One fresh ``python -m trapshift.cli`` process per operation."""

    name = "cli"
    tail_q = 0.75
    min_ops = 40
    trace_targets = ("trapshift.cli.displacement_oracle",)

    def cases(self, seed):
        names = list(CLI_COMMANDS)
        _rng(self.name, seed).shuffle(names)
        return names

    def prepare(self, root, cases):
        self.root = root
        return [(name, [sys.executable, "-m", "trapshift.cli", *CLI_COMMANDS[name]]) for name in cases]

    def warm(self, inputs):
        subprocess.run(
            [sys.executable, "-c", "import trapshift.cli"], cwd=self.root, check=True
        )

    def run(self, args):
        _, argv = args
        proc = subprocess.run(argv, cwd=self.root, capture_output=True)
        return proc.returncode, proc.stdout, proc.stderr

    def repeat_problems(self, cases, first, later):
        problems = []
        for name, a, b in zip(cases, first, later):
            if not isinstance(a, Exception) and not isinstance(b, Exception) and a[1] != b[1]:
                problems.append(f"cli {name}: stdout differs between repeated runs")
        return problems

    def traced_run(self, tracer, args):
        """The same command through the entry point, under ``-X importtime``."""
        name, argv = args
        entry = "import sys, trapshift.cli; sys.exit(trapshift.cli.main(sys.argv[1:]))"
        return self.run((name, [sys.executable, "-X", "importtime", "-c", entry, *argv[3:]]))

    def check(self, cases, outputs):
        import oracle

        problems = []
        rabi = CA_RABI_HZ / CA_TRAP_HZ
        for name, out in zip(cases, outputs):
            if isinstance(out, Exception):
                continue
            code, stdout, _ = out
            if code != 0:
                problems.append(f"cli {name}: exit code {code}")
                continue
            lines = stdout.decode().splitlines()
            if not lines:
                problems.append(f"cli {name}: no output")
                continue
            header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
            if len(rows) != CLI_ROWS[name]:
                problems.append(f"cli {name}: {len(rows)} rows, expected {CLI_ROWS[name]}")
            col = {c: i for i, c in enumerate(header)}
            closed_pairs = {
                "sidebands": [("shift", "shift_hz")],
                "shift": [("shift_full", "shift_full_hz")],
            }.get(name, [])
            for row in rows:
                if name == "check" and row[col["status"]] != "pass":
                    problems.append(f"cli check: {row[col['check']]} reports {row[col['status']]}")
                for value_col, hz_col in closed_pairs:
                    n_g, n_e = int(row[col["n_g"]]), int(row[col["n_e"]])
                    value, hz = float(row[col[value_col]]), float(row[col[hz_col]])
                    ref, scale = oracle.closed_shift(n_g, n_e, CA_ETA, rabi)
                    for got, want, tol in ((value, ref, scale), (hz, ref * CA_TRAP_HZ, scale * CA_TRAP_HZ)):
                        if not abs(got - want) <= CLOSED_REL_TOL * tol:
                            problems.append(f"cli {name} ({n_g},{n_e}): {got!r} vs oracle {want!r}")
        return problems

    def layers(self, tracer, cases, outputs):
        out = {}
        for metric, module in IMPORT_MODULES.items():
            samples = [
                _cumulative_import_us(o[2].decode(), module)
                for o in outputs
                if not isinstance(o, Exception)
            ]
            out[metric] = statistics.median(samples) / 1e3
        out.update(self._warm_main(tracer))
        return out

    def _warm_main(self, tracer):
        """Warm in-process ``trapshift.cli.main(argv)`` per command, stdout discarded."""
        import trapshift.cli

        out = {}
        for name, argv in CLI_COMMANDS.items():
            times = []
            for _ in range(MAIN_REPEATS + 1):
                with contextlib.redirect_stdout(io.StringIO()):
                    start = perf_counter()
                    trapshift.cli.main(argv)
                    times.append(perf_counter() - start)
            out[f"cli.main_ms_{name}"] = 1e3 * statistics.median(times[1:])
        with tracer, contextlib.redirect_stdout(io.StringIO()):
            trapshift.cli.main(CLI_COMMANDS["check"])
        out["fock.displacement_oracle_ms"] = _mean_ms(
            tracer, tracer.named("trapshift.cli.displacement_oracle")
        )
        return out


def _cumulative_import_us(stderr: str, module: str) -> float:
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m and m.group(2) == module:
            return float(m.group(1))
    raise ValueError(f"{module} missing from -X importtime output")


WORKLOADS = {w.name: w for w in (Scan(), Sweep(), Closed(), Cli())}
