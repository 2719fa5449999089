"""Acceptance battery: every release criterion at its stated tolerance.

Each test prints one ``[acceptance] ... PASS`` line (visible with ``pytest -s``
or in failure reports) including the measured margin.
"""

import json
import math
import time

import numpy as np
import pytest

import trapshift as ts
from trapshift import cli


def report(name: str, detail: str) -> None:
    print(f"[acceptance] {name}: PASS ({detail})")


def test_criterion_01_calibration():
    """First blue sideband at the calcium-experiment parameters: ~1 kHz, ~1e-3."""
    start = time.perf_counter()
    omega_t = 2 * math.pi * 1.36e6
    rabi = 2 * math.pi * 53e3
    params = ts.TrapParams(rabi=rabi / omega_t, eta=0.083)
    shift = ts.bs_shift(ts.SidebandId(0, 1), params).delta_omega_full
    shift_hz = abs(shift) * omega_t / (2 * math.pi)
    relative = abs(shift)
    elapsed = time.perf_counter() - start
    assert 900.0 <= shift_hz <= 1100.0
    assert 5e-4 <= relative <= 2e-3
    assert elapsed < 1.0
    report(
        "criterion 1 (calibration)",
        f"|shift| = {shift_hz:.1f} Hz, |shift|/omega_t = {relative:.3e}, {elapsed:.2f} s",
    )


def test_criterion_02_oracle_equivalence():
    """Closed-form sum vs diagonalization within max(1%, 1e-9) across the grid."""
    start = time.perf_counter()
    worst = 0.0
    for eta in (0.05, 0.1, 0.2, 0.3):
        for pair in ((0, 1), (1, 0), (0, 2), (1, 2)):
            sideband = ts.SidebandId(*pair)
            params = ts.TrapParams(rabi=0.01, eta=eta)
            exact = ts.find_resonance(sideband, params).delta_omega
            closed = ts.bs_shift(sideband, params).delta_omega_full
            tolerance = max(0.01 * abs(closed), 1e-9)
            assert abs(exact - closed) <= tolerance, (eta, pair, exact, closed)
            worst = max(worst, abs(exact - closed) / tolerance)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(
        "criterion 2 (oracle equivalence)",
        f"worst margin used {worst:.1%}, {elapsed:.1f} s",
    )


def test_criterion_03_carrier_null():
    """Carriers are unshifted: exactly in the sum, to 1e-10 in the numerics."""
    from trapshift.spectrum import _DetuningScan, _locate

    worst_closed = 0.0
    for n in range(4):
        for eta in (0.0, 0.2, 0.5):
            params = ts.TrapParams(rabi=0.01, eta=eta)
            closed = ts.bs_shift(ts.SidebandId(n, n), params).delta_omega_full
            worst_closed = max(worst_closed, abs(closed))
            numeric = ts.find_resonance(ts.SidebandId(n, n), params)
            assert numeric.delta_omega == 0.0 and numeric.method == "carrier"
    assert worst_closed <= 1e-15

    # probe the spectrum instead of trusting the analytic carrier short-circuit
    worst_probe = 0.0
    for n, eta in ((0, 0.3), (2, 0.4)):
        params = ts.TrapParams(rabi=0.01, eta=eta)
        scan = _DetuningScan(params, ts.default_n_max(ts.SidebandId(n, n), eta))
        delta_star, _, method = _locate(scan, ts.SidebandId(n, n))
        assert method == "extremum"
        worst_probe = max(worst_probe, abs(delta_star))
    assert worst_probe <= 1e-10
    report(
        "criterion 3 (carrier null)",
        f"max closed-form {worst_closed:.1e}, max numeric probe {worst_probe:.1e}",
    )


def test_criterion_04_eta_zero_limit():
    """Both pipelines reproduce -rabi^2/(2 delta0) and flag a true crossing.

    The drive is set to rabi/omega_t = 1e-3 so the exact intersection of the
    decoupled problem, -rabi^2/(2 delta0) - rabi^4/(8 omega_t^3) + ...,
    sits within the 1e-12 omega_t band of the closed form; at rabi/omega_t of
    0.01 the quartic term alone (1.25e-9) would exceed the band for any
    implementation.
    """
    params = ts.TrapParams(rabi=1e-3, eta=0.0)
    worst = 0.0
    for pair in ((0, 1), (1, 0)):
        sideband = ts.SidebandId(*pair)
        closed = ts.eta_zero_shift(sideband, params)
        perturbative = ts.bs_shift(sideband, params).delta_omega_full
        numeric = ts.find_resonance(sideband, params)
        assert abs(perturbative - closed) <= 1e-12
        assert abs(numeric.delta_omega - closed) <= 1e-12
        assert numeric.method == "intersection"
        assert numeric.gap < 1e-10
        worst = max(worst, abs(perturbative - closed), abs(numeric.delta_omega - closed))
    report("criterion 4 (eta = 0 limit)", f"worst deviation {worst:.2e} omega_t")


def test_criterion_05_ld_remainder_scaling():
    """|full - quadratic| shrinks 16x (+-20%) when eta halves from 0.1 to 0.05."""
    ratios = []
    for pair in ((0, 1), (1, 0)):
        sideband = ts.SidebandId(*pair)

        def remainder(eta):
            params = ts.TrapParams(rabi=0.01, eta=eta)
            return abs(
                ts.bs_shift(sideband, params).delta_omega_full
                - sum(ts.bs_shift_ld(sideband, params))
            )

        ratio = remainder(0.1) / remainder(0.05)
        assert 16.0 * 0.8 <= ratio <= 16.0 * 1.2
        ratios.append(ratio)
    report("criterion 5 (quartic remainder)", f"ratios {ratios[0]:.2f}, {ratios[1]:.2f}")


def test_criterion_06_literature_discrepancy():
    """Quadratic expansion minus the older formula equals -eta^2 rabi^2/omega_t."""
    worst = 0.0
    for eta in np.linspace(0.0, 0.3, 13):
        params = ts.TrapParams(rabi=0.01, eta=float(eta))
        diff = (
            sum(ts.bs_shift_ld(ts.SidebandId(1, 0), params))
            - ts.bs_shift_literature(params)
        )
        target = -float(eta) ** 2 * 0.01**2
        assert abs(diff - target) <= 1e-12 * max(abs(target), 1e-30)
        if target != 0.0:
            worst = max(worst, abs(diff - target) / abs(target))
    report("criterion 6 (literature discrepancy)", f"worst relative error {worst:.2e}")


def test_criterion_07_bch_laguerre_consistency():
    """Closed-form tables match the matrix-exponential oracle; rows are unit norm."""
    worst_entry = 0.0
    for eta in (0.1, 0.4, 0.8):
        table = ts.coupling_table(eta, 20)
        oracle = ts.displacement_oracle(eta, 20)
        worst_entry = max(worst_entry, float(np.abs(table - oracle).max()))
    assert worst_entry <= 1e-8

    worst_norm = 0.0
    for eta in (0.1, 0.4, 0.8):
        row_norms = (np.abs(ts.coupling_table(eta, 75)[:21]) ** 2).sum(axis=1)
        worst_norm = max(worst_norm, float(np.abs(row_norms - 1.0).max()))
    assert worst_norm <= 1e-10
    report(
        "criterion 7 (BCH/Laguerre)",
        f"max entry diff {worst_entry:.1e}, max row-norm error {worst_norm:.1e}",
    )


def test_criterion_08_splitting():
    """Measured closest-approach gap equals the pair coupling within 1%."""
    details = []
    for pair in ((0, 1), (1, 2)):
        sideband = ts.SidebandId(*pair)
        params = ts.TrapParams(rabi=0.01, eta=0.1)
        gap = ts.find_resonance(sideband, params).gap
        coupling = params.rabi * abs(ts.chi(*pair, params.eta))
        assert abs(gap - coupling) <= 0.01 * coupling
        # both conventions: the full gap and the half-gap |R_ge|
        half = ts.splitting_half(sideband, params)
        assert half == pytest.approx(coupling / 2.0, rel=1e-15)
        details.append(f"{pair}: gap {gap:.6e} vs {coupling:.6e}")
    report("criterion 8 (splitting)", "; ".join(details))


def test_criterion_09_swap_antisymmetry():
    """shift(a, b) + shift(b, a) vanishes to 1e-15 relative for all a, b <= 4."""
    worst = 0.0
    for eta in (0.05, 0.25, 0.5):
        params = ts.TrapParams(rabi=0.01, eta=eta)
        for a in range(5):
            for b in range(5):
                fwd = ts.bs_shift(ts.SidebandId(a, b), params).delta_omega_full
                rev = ts.bs_shift(ts.SidebandId(b, a), params).delta_omega_full
                scale = max(abs(fwd), abs(rev))
                if scale > 0:
                    worst = max(worst, abs(fwd + rev) / scale)
                else:
                    assert fwd == 0.0 and rev == 0.0
    assert worst <= 1e-15
    report("criterion 9 (swap antisymmetry)", f"worst relative residual {worst:.2e}")


def test_criterion_10_figure_data_regeneration(tmp_path):
    """The four figure datasets regenerate deterministically and validate."""
    start = time.perf_counter()

    def run(args, name):
        out = tmp_path / name
        code = cli.main(args + ["--format", "json", "--out", str(out)])
        assert code == 0, args
        payload = json.loads(out.read_text())
        assert set(payload) == {"config", "columns", "rows"}
        assert payload["rows"]
        for row in payload["rows"]:
            assert len(row) == len(payload["columns"])
        return payload

    # level diagram at its default parameters, wide window (dressed + bare)
    wide = run(["sweep", "--bare"], "fig_levels_wide.json")
    assert len(wide["rows"]) == 101 * 16
    # level diagram zoomed on the first blue anti-crossing
    zoom = run(
        [
            "sweep", "--eta", "0.1", "--rabi", "0.3", "--delta-min", "0.8",
            "--delta-max", "1.2", "--levels", "2",
        ],
        "fig_levels_zoom.json",
    )
    branch = [
        dict(zip(zoom["columns"], row))
        for row in zoom["rows"]
        if row[zoom["columns"].index("branch_id")] == "g0"
    ]
    energies = [r["energy"] for r in branch]
    peak = energies.index(max(energies))
    assert 0 < peak < len(energies) - 1  # displaced extremum inside the window

    # shift vs Lamb-Dicke parameter at its defaults (first red sideband)
    scan = run(["scan-eta"], "fig_scan.json")
    assert len(scan["rows"]) == 26
    for row in scan["rows"]:
        record = dict(zip(scan["columns"], row))
        assert record["shift_exact"] == pytest.approx(
            record["shift_full"], rel=1e-2, abs=1e-9
        )

    # per-sideband shift table at the calibration parameters
    bars = run(["sidebands"], "fig_bars.json")
    rows = [dict(zip(bars["columns"], row)) for row in bars["rows"]]
    assert {r["sideband"] for r in rows} == {"red", "carrier", "blue"}

    # determinism: byte-identical rerun
    first = (tmp_path / "fig_bars.json").read_bytes()
    code = cli.main(["sidebands", "--format", "json", "--out", str(tmp_path / "fig_bars2.json")])
    assert code == 0
    assert (tmp_path / "fig_bars2.json").read_bytes() == first

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report("criterion 10 (figure data)", f"all schemas valid, {elapsed:.1f} s")
