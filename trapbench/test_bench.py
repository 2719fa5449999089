"""Fast tests of the benchmark itself: the oracle, the checks, the seeding, the spans.

    PYTHONPATH=src python -m pytest trapbench -q
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import oracle
from child import nearest_rank
from spans import Tracer
from workloads import CLI_COMMANDS, CLI_ROWS, RABI, SWEEP_SETTINGS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


# ------------------------------------------------------------------ oracle


@pytest.mark.parametrize("eta", [0.0, 0.083, 0.4, 1.2])
def test_chi_low_orders(eta):
    assert oracle.chi_amplitude(0, 0, eta) == pytest.approx(math.exp(-eta * eta / 2), abs=1e-15)
    assert oracle.chi_amplitude(0, 1, eta) == pytest.approx(eta * math.exp(-eta * eta / 2), abs=1e-15)
    assert oracle.chi_amplitude(1, 0, eta) == oracle.chi_amplitude(0, 1, eta)


def test_chi_rows_are_unitary():
    ks = np.arange(120)
    for n in range(6):
        assert np.sum(oracle.chi_amplitude(n, ks, 0.7) ** 2) == pytest.approx(1.0, abs=1e-13)


def test_undriven_hamiltonian_has_bare_energies():
    n = np.arange(13)
    bare = np.sort(np.concatenate([n + 0.5 * 0.7, n - 0.5 * 0.7]))
    values = np.linalg.eigvalsh(oracle.hamiltonian(0.4, 0.0, 0.7, 12))
    assert np.max(np.abs(values - bare)) < 1e-13


def test_oracle_hamiltonian_matches_trapshift_spectrum():
    from trapshift import TrapParams, build_hamiltonian

    h = build_hamiltonian(TrapParams(rabi=0.3, eta=0.4, delta=0.7), 22).matrix
    ours = np.linalg.eigvalsh(oracle.hamiltonian(0.4, 0.3, 0.7, 22))
    assert np.max(np.abs(np.linalg.eigvalsh(h) - ours)) < 1e-12


def test_eta_zero_shift_has_the_second_order_limit():
    for n_g, n_e in ((1, 0), (0, 1), (0, 3)):
        order = n_e - n_g
        second = -RABI**2 / (2 * order)
        assert abs(oracle.eta_zero_shift(n_g, n_e, RABI) - second) <= RABI**4 / abs(order) ** 3


def test_closed_shift_is_antisymmetric_and_null_on_carriers():
    assert oracle.closed_shift(2, 2, 0.5, RABI)[0] == 0.0
    forward, scale = oracle.closed_shift(1, 3, 0.5, RABI)
    assert abs(forward + oracle.closed_shift(3, 1, 0.5, RABI)[0]) <= 1e-15 * scale


# ------------------------------------------------------------------ seeding


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    wl = WORKLOADS[name]
    assert wl.cases(7) == wl.cases(7)


@pytest.mark.parametrize("name", ["scan", "sweep", "closed"])
def test_other_seed_other_inputs(name):
    wl = WORKLOADS[name]
    assert wl.cases(7) != wl.cases(8)
    assert sorted(wl.cases(7)) != sorted(wl.cases(8))


def test_case_lists_cover_the_stated_domains():
    scan = WORKLOADS["scan"].cases(3)
    first_red = sorted(eta for sb, eta in scan if sb == (1, 0))
    assert len(scan) == 30 and len(first_red) == 26
    assert first_red[0] == 0.0 and first_red[-1] == 1.0
    assert all(abs(eta - i / 25) <= 0.002 for i, eta in enumerate(first_red))

    closed = WORKLOADS["closed"].cases(3)
    assert len(closed) == 385
    assert {n_e - n_g for n_g, n_e, _ in closed} == set(range(-3, 4))
    assert all(0.0 < eta <= 1.2 and min(n_g, n_e) <= 10 for n_g, n_e, eta in closed)
    keyed = set(closed)
    assert all((n_e, n_g, eta) in keyed for n_g, n_e, eta in closed)

    sweep = WORKLOADS["sweep"].cases(3)
    assert sorted(s for s, _ in sweep) == [0] * 6 + [1] * 3
    for setting, eta in sweep:
        _, _, center, width, *_ = SWEEP_SETTINGS[setting]
        assert abs(eta - center) <= width / 2

    assert sorted(WORKLOADS["cli"].cases(3)) == sorted(CLI_COMMANDS)


def test_tail_percentile_leaves_ten_samples():
    for wl in WORKLOADS.values():
        assert wl.min_ops * (1 - wl.tail_q) >= 10 - 1e-9
    values = list(range(1, 41))
    assert nearest_rank(values, 0.75) == 30
    assert nearest_rank(values, 0.5) == 20


# ------------------------------------------------------------------ checks


def run_cases(name, cases):
    wl = WORKLOADS[name]
    inputs = wl.prepare(ROOT, cases)
    return wl, [wl.run(args) for args in inputs]


@pytest.fixture(scope="module")
def scan_results():
    cases = [((0, 1), 0.1), ((1, 0), 0.0)]
    return cases, *run_cases("scan", cases)


def test_scan_check_passes_on_trapshift(scan_results):
    cases, wl, outputs = scan_results
    assert wl.check(cases, outputs) == []


def test_scan_check_fails_on_moved_resonance(scan_results):
    cases, wl, outputs = scan_results
    for i in range(2):
        pert, report = outputs[i]
        moved = dataclasses.replace(
            report, delta_star=report.delta_star + 1e-6, delta_omega=report.delta_omega + 1e-6
        )
        bad = list(outputs)
        bad[i] = (pert, moved)
        assert wl.check(cases, bad)


def test_scan_check_fails_on_flipped_closed_form(scan_results):
    cases, wl, outputs = scan_results
    pert, report = outputs[0]
    bad = [(dataclasses.replace(pert, delta_omega_full=-pert.delta_omega_full), report), outputs[1]]
    assert wl.check(cases, bad)


def test_scan_check_fails_when_not_converged(scan_results):
    cases, wl, outputs = scan_results
    pert, report = outputs[0]
    bad = [(pert, dataclasses.replace(report, converged=False)), outputs[1]]
    assert wl.check(cases, bad)


def test_closed_check():
    cases = [(0, 2, 0.7), (2, 0, 0.7), (3, 3, 0.7), (4, 1, 1.1), (1, 4, 1.1)]
    wl, outputs = run_cases("closed", cases)
    assert wl.check(cases, outputs) == []

    def with_value(i, value):
        bad = list(outputs)
        bad[i] = dataclasses.replace(outputs[i], delta_omega_full=value)
        return bad

    assert wl.check(cases, with_value(0, -outputs[0].delta_omega_full))
    assert wl.check(cases, with_value(2, 1e-300))
    # A wrong swap partner that still matches the oracle to 1e-12 is caught
    # only by exact antisymmetry.
    assert wl.check(cases, with_value(1, outputs[1].delta_omega_full * (1 + 1e-15)))


@pytest.fixture(scope="module")
def sweep_results():
    cases = [(1, 0.1)]
    return cases, *run_cases("sweep", cases)


def test_sweep_check_passes_on_trapshift(sweep_results):
    cases, wl, outputs = sweep_results
    assert wl.check(cases, outputs) == []


def _with_branches(spectrum, branches, overlaps=None):
    return dataclasses.replace(spectrum, branches=branches, overlaps=overlaps or spectrum.overlaps)


def test_sweep_check_fails_on_permuted_branch(sweep_results):
    cases, wl, outputs = sweep_results
    spectrum, tracked = outputs[0]
    reversed_branch = dict(spectrum.branches)
    reversed_branch[("e", 1)] = spectrum.branches[("e", 1)][::-1].copy()
    assert wl.check(cases, [(_with_branches(spectrum, reversed_branch), tracked)])


def test_sweep_check_fails_on_swapped_tags(sweep_results):
    cases, wl, outputs = sweep_results
    spectrum, tracked = outputs[0]
    swapped = dict(spectrum.branches)
    swapped[("g", 1)], swapped[("e", 1)] = spectrum.branches[("e", 1)], spectrum.branches[("g", 1)]
    assert wl.check(cases, [(_with_branches(spectrum, swapped), tracked)])


def test_sweep_check_fails_when_track_disagrees(sweep_results):
    cases, wl, outputs = sweep_results
    spectrum, tracked = outputs[0]
    shifted = {tag: values + 1e-9 for tag, values in tracked.branches.items()}
    assert wl.check(cases, [(spectrum, _with_branches(tracked, shifted))])


@pytest.fixture(scope="module")
def cli_results():
    cases = list(CLI_COMMANDS)
    return cases, *run_cases("cli", cases)


def test_cli_check_passes_on_trapshift(cli_results):
    cases, wl, outputs = cli_results
    assert wl.check(cases, outputs) == []
    for name, (_, stdout, _) in zip(cases, outputs):
        assert len(stdout.decode().splitlines()) == CLI_ROWS[name] + 1


def test_cli_check_fails_on_wrong_output(cli_results):
    cases, wl, outputs = cli_results
    at = {name: i for i, name in enumerate(cases)}

    def with_stdout(name, edit, code=0):
        bad = list(outputs)
        _, stdout, stderr = outputs[at[name]]
        bad[at[name]] = (code, edit(stdout.decode()).encode(), stderr)
        return bad

    keep = lambda text: text  # noqa: E731
    assert wl.check(cases, with_stdout("check", keep, code=3))
    assert wl.check(cases, with_stdout("sweep", lambda t: t.rsplit("\n", 2)[0] + "\n"))
    assert wl.check(cases, with_stdout("check", lambda t: t.replace(",pass", ",FAIL", 1)))
    lines = outputs[at["sidebands"]][1].decode().splitlines()
    cells = lines[1].split(",")
    cells[-1] = repr(-float(cells[-1]))
    flipped = "\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n"
    assert wl.check(cases, with_stdout("sidebands", lambda t: flipped))
    later = with_stdout("shift", lambda t: t.replace("true", "false"))
    assert wl.repeat_problems(cases, outputs, later)
    assert wl.repeat_problems(cases, outputs, outputs) == []


# ------------------------------------------------------------------ spans


def test_tracer_records_spans_only_inside_with():
    import numpy.linalg

    original = numpy.linalg.eigh
    tracer = Tracer(("numpy.linalg.eigh", "numpy.linalg.eigvalsh"))
    numpy.linalg.eigh(np.eye(3))  # not installed: not recorded
    tracer.op = 5
    with tracer:
        numpy.linalg.eigh(np.eye(4))
    assert numpy.linalg.eigh is original
    [i] = tracer.named("numpy.linalg.eigh")
    span = tracer.spans[i]
    assert (span.dim, span.op, span.parent) == (4, 5, -1)
    assert tracer.counts == {"numpy.linalg.eigh": 1}
    assert tracer.self_times([i])[0] == pytest.approx(span.duration)


def test_traced_pass_counts_eigensolves_and_overhead():
    from child import traced_pass

    wl = WORKLOADS["scan"]
    cases = [((0, 1), 0.1), ((2, 4), 0.3)]
    tracer = Tracer(wl.trace_targets)
    outputs, failed, layers = traced_pass(wl, tracer, wl.prepare(ROOT, cases), want_overhead=True)
    layers.update(wl.layers(tracer, cases, outputs))
    assert failed == 0 and "trace.overhead_pct" in layers
    assert len(tracer.named("trapshift.spectrum.find_resonance")) == 2
    first = [s for s in tracer.spans if s.op == 0 and s.name == "numpy.linalg.eigh"]
    # Reference figures: 125 solves at dim 36 and 125 at dim 68.
    assert sorted({s.dim for s in first}) == [36, 68]
    assert sum(s.dim == 36 for s in first) == 125 and sum(s.dim == 68 for s in first) == 125
    assert 0 < layers["spectrum.eigh_calls_refine_per_resonance"] < layers["spectrum.eigh_calls_per_resonance"]
    assert layers["spectrum.eigh_us_d36"] > 0 and layers["spectrum.eigh_us_d68"] > 0
