"""CLI contracts: units, schemas, determinism, exit codes."""

import csv
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import trapshift as ts
from trapshift import cli, hamiltonian, resolvent
from trapshift.params import MAX_LEVELS


P01 = ts.TrapParams(rabi=0.01, eta=0.1)
SB10 = ts.SidebandId(1, 0)


def run_cli(args, capsys=None):
    code = cli.main(args)
    return code


def exit_code(argv):
    """main's exit code, whether main returns it or argparse raises SystemExit."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def fail_if_computed(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("computation reached past input checking")

    monkeypatch.setattr(np, "linspace", unreachable)
    monkeypatch.setattr(cli, "bs_shift", unreachable)
    monkeypatch.setattr(cli, "bs_shifts", unreachable)
    monkeypatch.setattr("trapshift.spectrum.find_resonance", unreachable)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestFrequencyParsing:
    def test_angular_notation(self):
        angular, physical = cli.parse_frequency("2pi*1.36MHz")
        assert physical
        assert angular == pytest.approx(2 * math.pi * 1.36e6, rel=1e-15)

    def test_ordinary_notation_same_angular(self):
        a1, _ = cli.parse_frequency("2pi*53kHz")
        a2, _ = cli.parse_frequency("53kHz")
        assert a1 == a2

    def test_dimensionless(self):
        value, physical = cli.parse_frequency("0.01")
        assert not physical
        assert value == 0.01

    def test_round_trip(self):
        angular, _ = cli.parse_frequency("2pi*1.36MHz")
        text = cli.serialize_frequency(angular)
        again, physical = cli.parse_frequency(text)
        assert physical
        assert abs(again - angular) <= 1e-12 * angular

    @pytest.mark.parametrize("bad", ["MHz", "2pi*0.3", "1.5qHz", "abc", "1e999Hz", "2pi*-1e999kHz", "1e999"])
    def test_rejects_garbage(self, bad):
        message = f"{bad!r}: the 2pi* prefix" if bad == "2pi*0.3" else f"cannot parse frequency {bad!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            cli.parse_frequency(bad)

    def test_mass_parsing(self):
        assert cli.parse_mass("40u") == pytest.approx(40 * 1.66053906892e-27, rel=1e-6)
        assert cli.parse_mass("6.6e-26") == 6.6e-26
        for bad in ("heavy", "1e999u", "nan"):
            with pytest.raises(ValueError, match=re.escape(f"cannot parse mass {bad!r}")):
                cli.parse_mass(bad)

    def test_lamb_dicke_from_physical(self):
        # 729 nm laser on a calcium ion in a 2pi*1.36 MHz trap gives eta ~ 0.06
        omega_t = 2 * math.pi * 1.36e6
        k_laser = 2 * math.pi / 729e-9
        eta = cli.lamb_dicke_from_physical(k_laser, cli.parse_mass("40u"), omega_t)
        assert 0.04 < eta < 0.09


def shift_record(flags, capsys):
    """The one CSV row of ``shift`` with these space-separated flags, keyed by column."""
    assert cli.main(["shift", *flags.split()]) == 0
    header, row = capsys.readouterr().out.splitlines()
    return dict(zip(header.split(","), row.split(",")))


# The closed-form columns of shift, byte for byte; the exact-route columns are
# left out, since their last digits depend on the BLAS build.
SHIFT_CLOSED_COLUMNS = (
    "shift_full", "carrier_term", "sideband_term", "shift_ld", "shift_lit",
    "shift_eta0", "gap_coupling",
)
FROZEN_SHIFT_ROWS = [
    ("--ng 1 --ne 0 --rabi 0.01 --eta 0.1",
     "4.925497922902111e-05,4.9e-05,2.5000000000000004e-07,4.925e-05,5.025e-05,5e-05,"
     "0.0009950124791926823"),
    ("--ng 0 --ne 1 --rabi 0.01 --eta 0.1",
     "-4.925497922902111e-05,-4.9e-05,-2.5000000000000004e-07,-4.925e-05,,-5e-05,"
     "0.0009950124791926823"),
    ("--ng 2 --ne 2 --rabi 0.5 --eta 0.1", "0.0,,,,,,0.4875809901163942"),
    ("--ng 0 --ne 1 --trap-freq 2pi*1.36MHz --rabi 2pi*53kHz --eta 0.083",
     "-0.0007515425300218404,-0.00074889100291955,-2.615592695717993e-06,-0.000751506595615268,,"
     "-0.0007593533737024219,0.0032234365519906764"),
]
# (eta, shift_full, shift_ld, shift_lit) of scan-eta over eta 0 and 0.1 at rabi 0.01
FROZEN_SCAN_ROWS = [
    ("1", "0", ["0.0,5e-05,5e-05,5e-05", "0.1,4.925497922902111e-05,4.925e-05,5.025e-05"]),
    ("0", "1", ["0.0,-5e-05,-5e-05,", "0.1,-4.925497922902111e-05,-4.925e-05,"]),
]


class TestShiftCommand:
    @pytest.mark.parametrize("flags, frozen", FROZEN_SHIFT_ROWS)
    @pytest.mark.filterwarnings("ignore::trapshift.PerturbativeRegimeWarning")
    def test_closed_form_columns_frozen(self, flags, frozen, capsys):
        record = shift_record(flags, capsys)
        assert ",".join(record[c] for c in SHIFT_CLOSED_COLUMNS) == frozen

    def test_regime_warning_is_the_only_regime_signal(self, capsys):
        # at rabi 0.5 the closed form is 7% off the exact shift; the
        # closed form's warning says so once, and no column judges it
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            record = shift_record("--ng 0 --ne 1 --rabi 0.5 --eta 0.1", capsys)
        assert [w.category for w in caught] == [ts.PerturbativeRegimeWarning]
        assert list(record)[-3:] == ["method", "n_max_used", "converged"]
        assert abs(float(record["shift_full"]) / float(record["shift_exact"]) - 1.0) > 0.05

    def test_embeds_ld_and_literature(self, capsys):
        red = shift_record("--ng 1 --ne 0 --rabi 0.01 --eta 0.1", capsys)
        carrier_term, sideband_term = ts.bs_shift_ld(SB10, P01)
        assert red["carrier_term"] == repr(carrier_term)
        assert red["sideband_term"] == repr(sideband_term)
        assert red["shift_ld"] == repr(carrier_term + sideband_term)
        assert red["shift_lit"] == repr(ts.bs_shift_literature(P01))
        blue = shift_record("--ng 0 --ne 1 --rabi 0.01 --eta 0.1", capsys)
        assert blue["shift_lit"] == ""

    def test_physical_calibration_run(self, tmp_path):
        out = tmp_path / "shift.csv"
        code = cli.main([
            "shift", "--ng", "0", "--ne", "1",
            "--trap-freq", "2pi*1.36MHz", "--rabi", "2pi*53kHz", "--eta", "0.083",
            "--out", str(out),
        ])
        assert code == 0
        header, rows = read_csv(out)
        record = dict(zip(header, rows[0]))
        assert 900.0 <= abs(float(record["shift_full_hz"])) <= 1100.0
        assert 900.0 <= abs(float(record["shift_exact_hz"])) <= 1100.0
        assert record["method"] == "extremum"
        assert record["converged"] == "true"

    def test_dimensionless_eta_zero_intersection(self, tmp_path):
        out = tmp_path / "shift.csv"
        code = cli.main([
            "shift", "--ng", "0", "--ne", "1", "--rabi", "0.01", "--eta", "0",
            "--out", str(out),
        ])
        assert code == 0
        header, rows = read_csv(out)
        record = dict(zip(header, rows[0]))
        assert record["method"] == "intersection"
        assert float(record["shift_exact"]) == pytest.approx(-5e-5, rel=1e-3)
        assert float(record["shift_eta0"]) == pytest.approx(-5e-5, rel=1e-15)

    def test_carrier_zero(self, tmp_path):
        out = tmp_path / "carrier.csv"
        code = cli.main([
            "shift", "--ng", "2", "--ne", "2", "--rabi", "0.01", "--eta", "0.2",
            "--out", str(out),
        ])
        assert code == 0
        header, rows = read_csv(out)
        record = dict(zip(header, rows[0]))
        assert float(record["shift_full"]) == 0.0
        assert float(record["shift_exact"]) == 0.0
        assert record["shift_ld"] == ""

    def test_carrier_gap_columns_are_magnitudes(self, capsys):
        # chi_11 is negative at eta = 1.2
        argv = ["shift", "--ng", "1", "--ne", "1", "--rabi", "0.01", "--eta", "1.2"]
        assert cli.main(argv) == 0
        header, row = capsys.readouterr().out.splitlines()
        record = dict(zip(header.split(","), row.split(",")))
        gap = float(record["gap"])
        assert gap > 0
        # gap from the operator's block, gap_coupling from the closed form
        assert float(record["gap_coupling"]) == pytest.approx(gap, rel=1e-14)
        assert float(record["gap_half"]) == 0.5 * gap

    def test_carrier_near_the_top_level(self, monkeypatch, capsys):
        # a carrier builds its n_max basis alone, never the doubled one, and
        # reads one column of the operator on it: n_max 9940, padded to 9981
        def unreachable(*args, **kwargs):
            raise AssertionError("the carrier built the whole operator")

        monkeypatch.setattr(hamiltonian, "_real_displacement", unreachable)
        argv = ["shift", "--ng", "9900", "--ne", "9900", "--rabi", "0.01", "--eta", "0.1"]
        assert cli.main(argv) == 0
        header, row = capsys.readouterr().out.splitlines()
        record = dict(zip(header.split(","), row.split(",")))
        assert record["method"] == "carrier" and record["converged"] == "true"
        assert record["n_max_used"] == "9940"
        # |Omega_{9900,9900}| = 0.01 exp(-0.005) |L_9900(0.01)|, from 40-digit mpmath
        assert float(record["gap"]) == pytest.approx(0.0017286520784977481, rel=1e-12)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_clamped_refinement_output_parses(self, fmt, capsys):
        argv = [
            "shift", "--ng", "0", "--ne", "1", "--rabi", "1.5", "--eta", "0.5",
            "--nmax", "25", "--format", fmt,
        ]
        # the refined extremum leaves its bracket at rabi 1.5: no row, exit 3
        with pytest.warns(ts.PerturbativeRegimeWarning):
            assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric failure: no stationary point")
        assert "np." not in captured.err
        argv[argv.index("1.5")] = "1.0"
        with pytest.warns(ts.PerturbativeRegimeWarning):
            assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert "np." not in out
        if fmt == "json":
            payload = json.loads(out)
            record = dict(zip(payload["columns"], payload["rows"][0]))
            assert record["converged"] is True
        else:
            header, row = out.splitlines()
            record = dict(zip(header.split(","), row.split(",")))
            assert record["converged"] == "true"
        assert math.isfinite(float(record["delta_star"]))
        assert math.isfinite(float(record["shift_exact"]))

    def test_json_csv_encode_same_numbers(self, tmp_path):
        args = ["shift", "--ng", "1", "--ne", "0", "--rabi", "0.01", "--eta", "0.1"]
        csv_path, json_path = tmp_path / "a.csv", tmp_path / "a.json"
        assert cli.main(args + ["--out", str(csv_path)]) == 0
        assert cli.main(args + ["--format", "json", "--out", str(json_path)]) == 0
        header, rows = read_csv(csv_path)
        payload = json.loads(json_path.read_text())
        assert payload["columns"] == header
        for name, csv_cell, json_cell in zip(header, rows[0], payload["rows"][0]):
            if isinstance(json_cell, float):
                assert float(csv_cell) == pytest.approx(json_cell, rel=1e-15)
            elif isinstance(json_cell, bool):
                assert csv_cell == ("true" if json_cell else "false")
            elif json_cell is None:
                assert csv_cell == ""
            else:
                assert csv_cell == str(json_cell)

    def test_byte_identical_across_runs(self, tmp_path):
        args = ["shift", "--ng", "0", "--ne", "2", "--rabi", "0.01", "--eta", "0.15"]
        first, second = tmp_path / "one.json", tmp_path / "two.json"
        assert cli.main(args + ["--format", "json", "--out", str(first)]) == 0
        assert cli.main(args + ["--format", "json", "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_config_file_merging(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"rabi": "0.01", "eta": 0.1, "ng": 0, "ne": 1}))
        out = tmp_path / "out.csv"
        # flag overrides the config eta
        code = cli.main([
            "shift", "--config", str(config), "--eta", "0.2", "--out", str(out),
        ])
        assert code == 0
        header, rows = read_csv(out)
        record = dict(zip(header, rows[0]))
        frozen = ts.bs_shift(ts.SidebandId(0, 1), ts.TrapParams(rabi=0.01, eta=0.2))
        assert float(record["shift_full"]) == pytest.approx(
            frozen.delta_omega_full, rel=1e-14
        )


class TestExitCodes:
    def test_missing_required_is_config_error(self, capsys):
        assert cli.main(["shift", "--ng", "0", "--ne", "1"]) == 2

    def test_negative_eta_rejected(self, capsys):
        code = cli.main(["shift", "--ng", "0", "--ne", "1", "--rabi", "0.01", "--eta", "-0.1"])
        assert code == 2

    def test_eta_and_klaser_conflict(self, capsys):
        code = cli.main([
            "shift", "--ng", "0", "--ne", "1", "--rabi", "0.01",
            "--eta", "0.1", "--k-laser", "8.6e6", "--mass", "40u",
        ])
        assert code == 2

    def test_default_eta_yields_to_explicit_derivation_pair(self, tmp_path):
        # sidebands carries a default eta; an explicit k-laser/mass pair must win
        out = tmp_path / "sb.csv"
        code = cli.main([
            "sidebands", "--k-laser", "8617000", "--mass", "40u",
            "--max-n", "0", "--max-order", "1", "--out", str(out),
        ])
        assert code == 0

    def test_physical_units_without_trap_freq(self, capsys):
        code = cli.main([
            "shift", "--ng", "0", "--ne", "1", "--rabi", "2pi*53kHz", "--eta", "0.1",
        ])
        assert code == 2

    def test_check_passes(self, tmp_path):
        assert cli.main(["check", "--out", str(tmp_path / "c.csv")]) == 0

    def test_check_fails_at_impossible_tolerance(self, monkeypatch, capsys):
        # every exact resonance stubbed one omega_t off: the three checks that
        # read find_resonance fail, each against its threshold as written
        def off(sideband, params, n_max=None):
            return ts.ShiftReport(2.0, 1.0, 1.0, "extremum", 20, True)

        monkeypatch.setattr("trapshift.spectrum.find_resonance", off)
        assert cli.main(["check"]) == 4
        captured = capsys.readouterr()
        failed = ["eta_zero_numeric", "eta_zero_crossing_gap", "perturbative_vs_exact"]
        rows = [row.split(",") for row in captured.out.splitlines()[1:]]
        assert [name for name, _, _, status in rows if status == "FAIL"] == failed
        assert {float(threshold) for name, _, threshold, _ in rows if name in failed[:2]} == {1e-12, 1e-10}
        assert captured.err == f"check failed: {', '.join(failed)}\n"

    def test_numeric_failure_maps_to_exit_three(self, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise ts.ResonanceWindowError("no extremum anywhere")

        monkeypatch.setattr("trapshift.spectrum.find_resonance", boom)
        code = cli.main(["shift", "--ng", "0", "--ne", "1", "--rabi", "0.01", "--eta", "0.1"])
        assert code == 3

    def test_window_escalation_exhausted_exits_three(self, capsys):
        argv = ["shift", "--ng", "0", "--ne", "3", "--rabi", "3.0", "--eta", "0.05", "--nmax", "28"]
        with pytest.warns(ts.PerturbativeRegimeWarning):
            assert cli.main(argv) == 3
        assert capsys.readouterr().err.startswith("numeric failure: no interior extremum")

    def test_window_without_a_gap_minimum_exits_three(self, monkeypatch, capsys):
        # no input is known to leave the coarse gap without a local minimum;
        # forced, the window is named rather than its smallest sample taken
        from trapshift import spectrum

        monkeypatch.setattr(spectrum, "_local_minima", lambda values: [])
        assert cli.main(["shift", "--ng", "0", "--ne", "1", "--rabi", "0.01", "--eta", "0.1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "numeric failure: no local minimum of the pair gap of "
            f"{ts.SidebandId(0, 1)} within [0.9, 1.1]\n"
        )

    def test_bisection_exhausted_exits_three(self, monkeypatch, capsys):
        from trapshift import spectrum

        monkeypatch.setattr(spectrum, "TRACK_OVERLAP_MIN", 1.5)
        assert cli.main(["sweep"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric failure: branch continuation ambiguous")

    def test_shift_not_converged_exits_three(self, capsys):
        code = cli.main([
            "shift", "--ng", "0", "--ne", "1", "--rabi", "0.01", "--eta", "1.0", "--nmax", "3",
        ])
        captured = capsys.readouterr()
        assert code == 3
        header, row = captured.out.splitlines()
        assert dict(zip(header.split(","), row.split(",")))["converged"] == "false"
        assert captured.err.startswith("not converged: the exact shift of (0,1) at eta=1.0")

    def test_closed_form_sum_ending_in_negligible_terms_exits_zero(self, capsys):
        # at eta 2.5 every sum runs until its majorant bounds the rest
        assert cli.main(["sidebands", "--rabi", "0.01", "--eta", "2.5"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 5 * 4

    def test_closed_form_sums_reach_far_levels(self, capsys):
        # at eta 4 |chi_{n,k}|^2 has its weight near k = eta^2 = 16, and the
        # sums reach k = 155; each row is the per-term sum over k < 300
        assert cli.main(["sidebands", "--rabi", "0.01", "--eta", "4"]) == 0
        header, *rows = csv.reader(capsys.readouterr().out.splitlines())
        assert len(rows) == 5 * 4

        def per_term(center, exclude):
            return math.fsum(
                ts.chi_magnitude(center, k, 4.0) ** 2 / (exclude - k)
                for k in range(300)
                if k != exclude
            )

        for row in rows:
            record = dict(zip(header, row))
            n_g, n_e = int(record["n_g"]), int(record["n_e"])
            expected = 0.01**2 / 4.0 * (per_term(n_e, n_g) - per_term(n_g, n_e))
            assert float(record["shift"]) == pytest.approx(expected, rel=1e-13, abs=0.0)

    # argv1-argv3 were the eta = 1e200 rows, which now exit 2 in
    # test_huge_eta_is_an_oversized_basis; the other rows keep their ids
    @pytest.mark.parametrize("argv", [
        pytest.param(["sidebands", "--rabi", "0.01", "--eta", "1000"], id="argv0"),  # term majorant, then eta**d
        pytest.param(["sidebands", "--rabi", "1e200", "--eta", "0.1"], id="argv4"),  # rabi**2
        pytest.param(["sidebands", "--rabi", "0.01", "--eta", "20"], id="argv5"),  # eta**d
        pytest.param(  # Laguerre column
            ["shift", "--ng", "3000", "--ne", "0", "--rabi", "0.01", "--eta", "2"], id="argv6"
        ),
        pytest.param(["scan-eta", "--eta-max", "7"], id="argv7"),  # eta**d at the last eta
    ])
    @pytest.mark.filterwarnings("ignore::trapshift.PerturbativeRegimeWarning")
    def test_overflowing_finite_input_exits_three(self, argv, monkeypatch, capsys):
        # each overflow of the closed form is named before any eigensolve
        def unreachable(*args, **kwargs):
            raise AssertionError("find_resonance ran before the closed form overflowed")

        monkeypatch.setattr("trapshift.spectrum.find_resonance", unreachable)
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric failure: the inputs overflow double precision")
        assert "Traceback" not in captured.err

    def test_unbounded_majorant_ends_in_the_named_power_of_eta(self, capsys):
        # the term majorant's exp overflowed with a bare "(math range error)";
        # it is infinite now, stops no sum, and eta**103 names the overflow
        assert cli.main(["sidebands", "--rabi", "0.01", "--eta", "1000"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "numeric failure: the inputs overflow double precision "
            "(eta**103 at eta = 1000.0 overflows)\n"
        )

    def test_scan_eta_overflow_precedes_every_eigensolve(self, monkeypatch, capsys):
        # the closed form of every eta runs before the exact route of the
        # first, so the overflow at eta 7 ends the run with no eigensolve
        def unreachable(*args, **kwargs):
            raise AssertionError("find_resonance ran before the closed form of every eta")

        monkeypatch.setattr("trapshift.spectrum.find_resonance", unreachable)
        argv = ["scan-eta", "--ng", "1", "--ne", "0", "--eta-min", "3", "--eta-max", "7", "--points", "2"]
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "numeric failure: the inputs overflow double precision "
            "(eta**365 at eta = 7.0 overflows)\n"
        )

    @pytest.mark.parametrize("argv", [
        ["sidebands", "--rabi", "1e200", "--eta", "0.1"],
        ["shift", "--ng", "0", "--ne", "1", "--rabi", "1e200", "--eta", "0.1"],
        ["scan-eta", "--rabi", "1e200", "--points", "2", "--eta-max", "0.1"],
    ])
    @pytest.mark.filterwarnings("ignore::trapshift.PerturbativeRegimeWarning")
    def test_overflowing_drive_is_named(self, argv, capsys):
        # the square of the drive raised a bare "(34, 'Numerical result out of range')"
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "numeric failure: the inputs overflow double precision "
            "(rabi**2 at rabi = 1e+200 overflows)\n"
        )

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.filterwarnings("ignore::trapshift.PerturbativeRegimeWarning")
    def test_overflowing_frequency_is_named(self, fmt, capsys):
        # the shift 8.3e307 is finite, but times 2pi*1.36 MHz / 2pi it is not;
        # the rows printed inf in CSV and Infinity, invalid JSON, with exit 0
        argv = ["sidebands", "--rabi", "1.3e154", "--eta", "0.1", "--max-n", "1", "--max-order", "1"]
        assert cli.main([*argv, "--format", fmt]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "numeric failure: the inputs overflow double precision "
            "(8.324091489704567e+307 times the trap frequency overflows in Hz)\n"
        )

    def test_overflowing_power_of_eta_is_named(self, capsys):
        # eta**d raised a bare OverflowError, "(34, 'Numerical result out of range')"
        assert cli.main(["sidebands", "--eta", "7"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "numeric failure: the inputs overflow double precision "
            "(eta**365 at eta = 7.0 overflows)\n"
        )

    def test_overflowing_coupling_exits_three_before_any_eigensolve(self, monkeypatch, capsys):
        # bs_shift is finite at (3000, 6000), but the gap_coupling column,
        # chi_{3000,6000} at eta 0.1, overflows; the exact route would
        # diagonalize on n_max 6032
        def unreachable(*args, **kwargs):
            raise AssertionError("an eigensolve was reached")

        monkeypatch.setattr("trapshift.spectrum.find_resonance", unreachable)
        argv = ["shift", "--ng", "3000", "--ne", "6000", "--rabi", "0.01", "--eta", "0.1"]
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "numeric failure: the inputs overflow double precision "
            "(the Laguerre factor of chi_{3000,6000} at eta = 0.1 overflows)\n"
        )

    @pytest.mark.parametrize("argv", [
        ["shift", "--ng", "0", "--ne", "1", "--rabi", "2pi*1kHz", "--trap-freq", "0Hz", "--eta", "0.1"],
        ["sidebands", "--trap-freq", "0Hz"],
        ["sidebands", "--trap-freq=-1MHz"],
    ])
    def test_non_positive_trap_freq_rejected(self, argv, monkeypatch, capsys):
        fail_if_computed(monkeypatch)
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: a physical --trap-freq must be positive")

    @pytest.mark.parametrize(("argv", "option"), [
        (["sweep", "--delta-max", "inf"], "--delta-max"),
        (["sweep", "--delta-min=-inf"], "--delta-min"),
        (["scan-eta", "--eta-max", "inf"], "--eta-max"),
        (["scan-eta", "--eta-min", "nan"], "--eta-min"),
        (["shift", "--ng", "0", "--ne", "1", "--rabi", "0.01", "--eta", "nan"], "--eta"),
        (["sidebands", "--k-laser", "inf", "--mass", "40u"], "--k-laser"),
    ])
    def test_non_finite_float_rejected_when_parsed(self, argv, option, monkeypatch, capsys):
        fail_if_computed(monkeypatch)
        assert exit_code(argv) == 2
        assert f"argument {option}: " in capsys.readouterr().err


class TestErrorPaths:
    """Each input check of the commands: exit 2, its message, nothing on stdout."""

    @staticmethod
    def rejected(argv, message, monkeypatch, capsys):
        fail_if_computed(monkeypatch)
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(("argv", "message"), [
        (["sidebands", "--k-laser", "8617000", "--mass", "0"],
         "mass and trap frequency must be positive to derive eta\n"),
        (["sidebands", "--trap-freq", "2", "--rabi", "0.01"],
         "a dimensionless trap frequency must be 1 (it sets the unit)\n"),
        (["shift", "--ng", "0", "--ne", "1", "--rabi", "0.01"],
         "eta is undefined: give --eta or both --k-laser and --mass\n"),
        (["shift", "--ng", "0", "--ne", "1", "--rabi", "0.01", "--k-laser", "8617000"],
         "eta is undefined: give --eta or both --k-laser and --mass\n"),
        (["shift", "--ng", "0", "--ne", "1", "--rabi", "0.01", "--k-laser", "8617000", "--mass", "40u"],
         "deriving eta from --k-laser/--mass requires a physical --trap-freq\n"),
        (["shift", "--rabi", "0.01", "--eta", "0.1"], "sideband is undefined: give --ng and --ne\n"),
        (["shift", "--ne", "1", "--rabi", "0.01", "--eta", "0.1"], "sideband is undefined: give --ng and --ne\n"),
    ])
    def test_undefined_physics_or_sideband(self, argv, message, monkeypatch, capsys):
        self.rejected(argv, message, monkeypatch, capsys)

    @pytest.mark.parametrize(("argv", "message"), [
        (["sweep", "--points", "1"], "sweep needs delta_max > delta_min, points >= 2, levels >= 1\n"),
        (["sweep", "--delta-min", "1", "--delta-max", "1"],
         "sweep needs delta_max > delta_min, points >= 2, levels >= 1\n"),
        (["sweep", "--levels", "0"], "sweep needs delta_max > delta_min, points >= 2, levels >= 1\n"),
        (["sweep", "--levels", "30", "--nmax", "10"], "--levels 30 exceeds the basis size n_max + 1 = 11\n"),
        (["scan-eta", "--eta-min", "0.5", "--eta-max", "0.5"],
         "scan-eta needs eta_max > eta_min >= 0 and points >= 2\n"),
        (["scan-eta", "--eta-min=-0.1"], "scan-eta needs eta_max > eta_min >= 0 and points >= 2\n"),
        (["scan-eta", "--points", "1"], "scan-eta needs eta_max > eta_min >= 0 and points >= 2\n"),
        (["scan-eta", "--rabi", "2pi*53kHz"],
         "scan-eta runs dimensionless; give --rabi as a ratio of omega_t\n"),
        (["sidebands", "--max-order", "0"], "sidebands needs max_order >= 1 and max_n >= 0\n"),
        (["sidebands", "--max-n=-1"], "sidebands needs max_order >= 1 and max_n >= 0\n"),
        # both window ends, before the grid is made: at 1e16 a g1 weight of
        # 0.860 came out with exit 0, at +-1e308 two RuntimeWarnings and then
        # LAPACK's non-convergence
        (["sweep", "--delta-min=1e16", "--delta-max=1.5e16", "--points", "2", "--levels", "2",
          "--nmax", "3", "--eta", "0.1"], "delta must be in -20000..20000, got 1e+16\n"),
        (["sweep", "--delta-min=-1e308", "--delta-max=1e308"], "delta must be in -20000..20000, got -1e+308\n"),
        (["sweep", "--delta-min=0", "--delta-max=20000.5"], "delta must be in -20000..20000, got 20000.5\n"),
        # named before the SidebandId(0, levels - 1) of the default n_max, whose message named no flag
        (["sweep", "--levels", "10001", "--points", "2"], "--levels must be in 1..10000, got 10001\n"),
        # within its bound, --levels sizes a default basis beyond MAX_LEVELS: the message names both
        (["sweep", "--levels", "10000", "--points", "2"],
         "basis of 10160 levels before padding is beyond the supported range (10000 levels); "
         "--levels 10000 at eta 0.4 sets the default n_max = 10159\n"),
        # n_max is bounded before --levels is compared with it
        (["sweep", "--nmax", "-5"], "n_max must be in 0..9999, got -5\n"),
        # the same window at sweep's default points, levels and basis
        (["sweep", "--delta-min=1e16", "--delta-max=1.5e16"], "delta must be in -20000..20000, got 1e+16\n"),
        # 9985 + 1 + its pad of 20 levels at eta 0 is 10006, past the bound of 10000
        (["sweep", "--eta", "0", "--nmax", "9985"],
         "padded basis of 10006 levels (n_max 9985 + 1 + pad 20) is beyond the supported range (10000 levels)\n"),
    ])
    def test_command_range(self, argv, message, monkeypatch, capsys):
        self.rejected(argv, message, monkeypatch, capsys)

    @pytest.mark.parametrize(
        "case", ["missing config", "config not json", "config list", "config bare", "unwritable out"]
    )
    def test_input_and_output_files(self, case, tmp_path, monkeypatch, capsys):
        # each config message names the file once
        config, out = tmp_path / "run.json", tmp_path / "out.csv"
        argv = ["sweep", "--config", str(config)]
        if case == "missing config":
            message = f"cannot read config file {str(config)!r}: No such file or directory\n"
        elif case == "config not json":
            config.write_text('{"points":')
            message = f"cannot read config file {str(config)!r}: Expecting value: line 1 column 11 (char 10)\n"
        elif case == "config list":
            config.write_text("[1, 2]")
            message = f"config file {str(config)!r} must hold a JSON object\n"
        elif case == "config bare":
            # true stands for --bare, which doubles 6251 x 8 rows past the bound
            config.write_text(json.dumps({"bare": True, "points": cli.MAX_ROWS // 16 + 1}))
            message = "100016 output rows exceed the limit of 100000\n"
        else:
            # os.access, since file modes do not stop every user
            config.write_text("{}")
            monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
            argv += ["--out", str(out)]
            message = f"cannot write {str(out)!r}: {str(tmp_path)!r} is not writable\n"
        self.rejected(argv, message, monkeypatch, capsys)
        assert not out.exists()

    def test_dimensionless_trap_freq_leaves_hz_empty(self, capsys):
        assert cli.main(["sidebands", "--trap-freq", "1", "--rabi", "0.01"]) == 0
        header, *rows = csv.reader(capsys.readouterr().out.splitlines())
        assert header[-2:] == ["shift", "shift_hz"]
        assert len(rows) == 5 * 4
        assert {row[-1] for row in rows} == {""}
        assert all(math.isfinite(float(row[-2])) for row in rows)


class TestConfigFile:
    @pytest.mark.parametrize(("command", "bad", "named"), [
        ("shift", {"format": "xml"}, "--format"),
        ("sweep", {"bare": "no"}, "'bare'"),
        ("sweep", {"points": 5.7}, "--points"),
        ("shift", {"eta": True}, "'eta'"),
        ("shift", {"nmax": [3]}, "'nmax'"),
        ("sweep", {"bare": 0}, "'bare'"),
        ("scan-eta", {"eta_max": math.inf}, "--eta-max"),
    ])
    def test_bad_value_is_config_error(self, command, bad, named, tmp_path, monkeypatch, capsys):
        base = {"ng": 0, "ne": 1, "rabi": "0.01", "eta": 0.1} if command == "shift" else {}
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({**base, **bad}))
        fail_if_computed(monkeypatch)
        assert exit_code([command, "--config", str(config)]) == 2
        assert named in capsys.readouterr().err

    def test_null_means_not_set(self, tmp_path, capsys):
        config = tmp_path / "null.json"
        config.write_text(json.dumps({"points": None, "levels": 1}))
        assert cli.main(["sweep", "--format", "json", "--config", str(config)]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["points"] == 101

    def test_readme_command_lines_as_config(self, tmp_path, capsys):
        # every value takes the flags' path, so a config file holding a
        # README line's flags writes the same bytes as the line itself
        text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = text.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
        lines = [
            shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith(("trapshift shift ", "trapshift sidebands ", "trapshift sweep --eta "))
        ]
        assert [argv[0] for argv in lines] == ["shift", "sweep", "sidebands"]
        for command, *flags in lines:
            config, it = {}, iter(flags)
            for flag in it:
                key = flag[2:].replace("-", "_")
                config[key] = True if cli._OPTIONS[key].get("action") == "store_true" else next(it)
            path = tmp_path / f"{command}.json"
            path.write_text(json.dumps(config))
            assert cli.main([command, *flags]) == 0
            from_flags = capsys.readouterr().out
            assert cli.main([command, "--config", str(path)]) == 0
            assert capsys.readouterr().out == from_flags


class TestBasisBound:
    @pytest.mark.parametrize("argv", [
        ["shift", "--ng", "0", "--ne", "1", "--rabi", "0.01", "--eta", "0.1"],
        ["sweep"],
        ["scan-eta", "--points", "2"],
    ])
    def test_nmax_above_bound_is_config_error(self, argv, monkeypatch, capsys):
        from trapshift import hamiltonian

        # any array made in hamiltonian now fails with NameError
        monkeypatch.delattr(hamiltonian, "np")
        code = cli.main([*argv, "--nmax", str(hamiltonian.MAX_LEVELS)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: basis of 10001 levels")

    @pytest.mark.parametrize("argv", [
        ["shift", "--ng", "0", "--ne", "1", "--rabi", "0.01", "--eta", "0.1"],
        ["sweep"],
    ])
    def test_nmax_beyond_float_range_is_config_error(self, argv, monkeypatch, capsys):
        # a 401-digit n_max is compared as an integer before oracle_pad's
        # float sqrt could overflow into the exit-3 path
        from trapshift import hamiltonian

        monkeypatch.delattr(hamiltonian, "np")
        assert cli.main([*argv, "--nmax", "9" * 401]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: basis of 1" + "0" * 401 + " levels")
        assert "+ pad" not in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["shift", "--ng", "0", "--ne", "1", "--rabi", "0.01", "--eta", "1e200"],
        ["sweep", "--eta", "1e200"],
        ["scan-eta", "--eta-max", "1e200", "--points", "2"],
    ])
    def test_huge_eta_is_an_oversized_basis(self, argv, monkeypatch, capsys):
        # default_n_max's margin saturates at MAX_LEVELS where 25 eta^2 is an
        # infinite float, which ceil could not convert (exit 3); the basis is
        # rejected before any array is made
        from trapshift import hamiltonian

        monkeypatch.delattr(hamiltonian, "np")
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        # sweep names the flag and the eta that sized its default basis
        why = "; --levels 4 at eta 1e+200 sets the default n_max = 40003" if argv[0] == "sweep" else ""
        message = r"error: basis of \d+ levels before padding is beyond the supported range \(10000 levels\)"
        assert re.fullmatch(message + re.escape(why) + "\n", err), err

    def test_padded_basis_above_bound_is_config_error(self, monkeypatch, capsys):
        # --nmax 9990 is within the bound, but the operator exponential of the
        # coupling block pads it beyond; no array may be made before that is known
        from trapshift import hamiltonian

        # any array made in hamiltonian now fails with NameError
        monkeypatch.delattr(hamiltonian, "np")
        assert cli.main(["sweep", "--eta", "0.1", "--nmax", "9990"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: padded basis of 10031 levels")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["shift", "--ng", "0", "--ne", "1", "--rabi", "0.01", "--eta", "0.1"],
        ["scan-eta", "--points", "2"],
    ])
    def test_doubled_basis_above_bound_is_config_error(self, argv, monkeypatch, capsys):
        # --nmax 6000 is within the bound, but the convergence re-locate on the
        # doubled margin is not; no basis may be built before that is known
        from trapshift import spectrum

        def unreachable(*args, **kwargs):
            raise AssertionError("a basis was solved before the doubled basis was bounded")

        monkeypatch.setattr(spectrum, "_DetuningScan", unreachable)
        assert cli.main([*argv, "--nmax", "6000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: basis of 12000 levels")
        assert "Traceback" not in err

    @pytest.mark.parametrize(("argv", "levels"), [
        (["shift", "--rabi", "0.01", "--eta", "0.1"], 10002),
        (["scan-eta"], 10162),  # padded at the default eta_max 0.5
    ])
    def test_padded_doubled_basis_is_config_error(self, argv, levels, monkeypatch, capsys):
        # --nmax 4981 doubles to 9961, within the bound, but not once padded
        # for the operator exponential of the convergence re-locate
        fail_if_computed(monkeypatch)
        assert cli.main([*argv, "--ng", "0", "--ne", "1", "--nmax", "4981"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: padded basis of {levels} levels")
        assert "doubles the margin of n_max = 4981" in err

    @pytest.mark.parametrize(("argv", "message"), [
        (["shift", "--ng", "10000", "--ne", "0", "--nmax", "9999"], "vibrational quantum numbers must be in 0..9999"),
        (["shift", "--ng", "100000000", "--ne", "0"], "vibrational quantum numbers must be in 0..9999"),
        (["shift", "--ng", "100000000", "--ne", "100000000"], "vibrational quantum numbers must be in 0..9999"),
        (["shift", "--ng", "9998", "--ne", "9999"], "basis of 10040 levels"),
        (["scan-eta", "--ng", "100000000", "--ne", "0", "--points", "2"], "vibrational quantum numbers must be in 0..9999"),
        # within the bound at eta_min = 0, beyond it at eta_max = 1
        (["scan-eta", "--ng", "9960", "--ne", "0", "--eta-max", "1.0", "--points", "2"], "basis of 10361 levels"),
        # a carrier reads its gap off the operator, so its basis is bounded too
        (["shift", "--ng", "9998", "--ne", "9998"], "basis of 10039 levels"),
        # the closed form holds every level below 10000 too
        (["shift", "--ng", "10000", "--ne", "0"], "vibrational quantum numbers must be in 0..9999"),
    ])
    def test_oversized_sideband_rejected_before_computing(self, argv, message, monkeypatch, capsys):
        physics = ["--rabi", "0.01", "--eta", "0.1"] if argv[0] == "shift" else []
        fail_if_computed(monkeypatch)
        assert cli.main([*argv, *physics]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert "Traceback" not in err


class TestRowBound:
    @pytest.mark.parametrize("argv", [
        ["sweep", "--points", str(cli.MAX_ROWS // 8 + 1)],  # 2 sectors x 4 levels per point
        ["sweep", "--points", str(cli.MAX_ROWS // 16 + 1), "--bare"],
        ["scan-eta", "--points", str(cli.MAX_ROWS + 1)],
        ["sidebands", "--max-order", "10", "--max-n", str(cli.MAX_ROWS // 21)],
        ["sidebands", "--max-order", "1", "--max-n", str(MAX_LEVELS - 1)],
    ])
    def test_oversized_table_is_config_error(self, argv, monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("reached past the output bound")

        monkeypatch.setattr(np, "linspace", unreachable)
        monkeypatch.setattr(cli, "bs_shift", unreachable)
        monkeypatch.setattr(cli, "bs_shifts", unreachable)
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestOptions:
    @pytest.mark.parametrize(("command", "flag"), [
        *[("check", flag) for flag in (
            "--trap-freq", "--rabi", "--eta", "--k-laser", "--mass", "--nmax", "--kmax", "--tol-scale",
        )],
        *[(command, "--kmax") for command in ("sweep", "shift", "scan-eta", "sidebands")],
        ("sidebands", "--nmax"),
        *[("scan-eta", flag) for flag in ("--trap-freq", "--k-laser", "--mass", "--eta")],
        *[(command, "--units") for command in ("shift", "sweep", "scan-eta", "sidebands", "check")],
    ])
    def test_flag_the_command_does_not_read_is_rejected(self, command, flag):
        value = "physical" if flag == "--units" else "1"  # a value the old flag accepted
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args([command, flag, value])
        assert exc.value.code == 2

    def test_readme_command_lines_parse(self):
        text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
        block = section.split("```bash", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines() if line.startswith("trapshift ")]
        assert len(lines) == 6
        parser = cli.build_parser()
        for line in lines:
            parser.parse_args(shlex.split(line)[1:])
        # the README's option table lists exactly the options each subcommand takes
        table = {}
        for row in section.splitlines():
            cells = [c.strip() for c in row.strip("|").split("|")]
            if row.startswith("| `") and len(cells) == 2:
                table[cells[0].strip("`")] = set(cells[1].replace("`", "").split())
        assert table == {
            name: {"--" + dest.replace("_", "-") for dest in options}
            for name, (_, _, options, _) in cli.COMMANDS.items()
        }


class TestSweepCommand:
    @pytest.mark.parametrize("eta", [0.2, 0.4, 0.8])
    def test_default_nmax_is_the_package_policy(self, eta, capsys):
        code = cli.main(["sweep", "--eta", str(eta), "--points", "2", "--levels", "2", "--format", "json"])
        assert code == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert config["n_max"] == ts.default_n_max(ts.SidebandId(0, 1), eta)

    def test_zero_field_bare_lines(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = cli.main([
            "sweep", "--rabi", "0", "--eta", "0.1", "--delta-min", "-1",
            "--delta-max", "1", "--points", "11", "--levels", "2",
            "--out", str(out),
        ])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["delta", "branch_id", "energy", "overlap_tag"]
        for row in rows:
            delta, branch, energy = float(row[0]), row[1], float(row[2])
            n = int(branch[1:])
            sign = 0.5 if branch[0] == "g" else -0.5
            assert energy == pytest.approx(n + sign * delta, abs=1e-14)

    def test_default_anticrossing_structure(self, tmp_path):
        out = tmp_path / "fig.csv"
        code = cli.main(["sweep", "--points", "41", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert len(rows) == 41 * 8  # four levels per sector
        deltas = sorted({float(r[0]) for r in rows})
        assert deltas[0] == -2.5 and deltas[-1] == 2.5

    def test_bare_flag_adds_rows(self, tmp_path):
        out = tmp_path / "bare.csv"
        code = cli.main([
            "sweep", "--points", "5", "--levels", "1", "--bare", "--out", str(out),
        ])
        assert code == 0
        _, rows = read_csv(out)
        names = {row[1] for row in rows}
        assert names == {"g0", "e0", "bare_g0", "bare_e0"}

    def test_bare_default_emits_no_warning(self, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["sweep", "--bare", "--points", "3", "--out", str(tmp_path / "s.csv")])
        assert code == 0
        assert not [w for w in caught if issubclass(w.category, UserWarning)]

    def test_row_order_delta_major(self, tmp_path):
        out = tmp_path / "order.csv"
        assert cli.main(["sweep", "--points", "5", "--levels", "2", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        deltas = [float(r[0]) for r in rows]
        assert deltas == sorted(deltas)
        within = [r[1] for r in rows[:4]]
        assert within == ["g0", "g1", "e0", "e1"]


class TestScanEtaCommand:
    def test_schema_and_endpoint(self, tmp_path):
        out = tmp_path / "scan.json"
        code = cli.main([
            "scan-eta", "--points", "3", "--eta-max", "0.1", "--format", "json",
            "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["columns"] == ["eta", "shift_exact", "shift_full", "shift_ld", "shift_lit"]
        first = dict(zip(payload["columns"], payload["rows"][0]))
        assert first["eta"] == 0.0
        # all pipelines meet at the eta -> 0 limit for the default (1, 0)
        assert first["shift_full"] == pytest.approx(5e-5, rel=1e-12)
        assert first["shift_ld"] == pytest.approx(5e-5, rel=1e-12)
        assert first["shift_lit"] == pytest.approx(5e-5, rel=1e-12)
        assert first["shift_exact"] == pytest.approx(5e-5, rel=1e-3)

    def test_exact_indistinguishable_from_full(self, tmp_path):
        out = tmp_path / "scan.json"
        code = cli.main([
            "scan-eta", "--points", "5", "--eta-max", "0.3", "--format", "json",
            "--ng", "0", "--ne", "1", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        for row in payload["rows"]:
            record = dict(zip(payload["columns"], row))
            assert record["shift_exact"] == pytest.approx(
                record["shift_full"], rel=1e-2, abs=1e-9
            )
            assert record["shift_lit"] is None  # defined for (1, 0) only

    def test_literature_discrepancy_column(self, tmp_path):
        out = tmp_path / "scan.json"
        code = cli.main([
            "scan-eta", "--points", "4", "--eta-max", "0.3", "--format", "json",
            "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        for row in payload["rows"]:
            record = dict(zip(payload["columns"], row))
            target = -record["eta"] ** 2 * 0.01**2
            assert record["shift_ld"] - record["shift_lit"] == pytest.approx(
                target, abs=1e-16
            )

    @pytest.mark.parametrize("ng, ne, frozen", FROZEN_SCAN_ROWS)
    def test_closed_form_columns_frozen(self, ng, ne, frozen, capsys):
        argv = [
            "scan-eta", "--ng", ng, "--ne", ne, "--rabi", "0.01",
            "--eta-min", "0", "--eta-max", "0.1", "--points", "2",
        ]
        assert cli.main(argv) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        records = [dict(zip(header.split(","), row.split(","))) for row in rows]
        columns = ("eta", "shift_full", "shift_ld", "shift_lit")
        assert [",".join(r[c] for c in columns) for r in records] == frozen

    def test_rejects_carrier(self, capsys):
        assert cli.main(["scan-eta", "--ng", "1", "--ne", "1", "--points", "3"]) == 2

    def test_regime_warning_shows_once(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            assert cli.main(["scan-eta", "--rabi", "0.15", "--points", "3"]) == 0
        assert [w.category for w in caught] == [ts.PerturbativeRegimeWarning]

    def test_not_converged_exits_three(self, capsys):
        code = cli.main(["scan-eta", "--nmax", "3", "--eta-max", "1.0", "--points", "3"])
        captured = capsys.readouterr()
        assert code == 3
        assert len(captured.out.splitlines()) == 4  # every row is still written
        assert captured.err.splitlines() == [
            f"not converged: the exact shift of (1,0) at eta={eta} moves when the "
            "basis n_max=3 is doubled; raise --nmax"
            for eta in (0.5, 1.0)
        ]


class TestSidebandsCommand:
    def test_calibration_defaults(self, tmp_path):
        out = tmp_path / "sb.json"
        code = cli.main(["sidebands", "--format", "json", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        rows = [dict(zip(payload["columns"], row)) for row in payload["rows"]]
        assert len(rows) == 5 * 4  # orders -2..2, n = 0..3
        by_key = {(r["sideband"], r["order"], r["n"]): r for r in rows}
        first_blue = by_key[("blue", 1, 0)]
        assert -1100.0 <= first_blue["shift_hz"] <= -900.0
        for n in range(4):
            assert by_key[("carrier", 0, n)]["shift"] == 0.0
        # blue/red antisymmetry row by row
        for order in (1, 2):
            for n in range(4):
                blue = by_key[("blue", order, n)]["shift"]
                red = by_key[("red", order, n)]["shift"]
                assert blue + red == 0.0

    def test_default_stdout_bytes(self, capsys):
        # pure closed form with no BLAS call: the bytes do not depend on the BLAS build or threads
        assert cli.main(["sidebands"]) == 0
        assert capsys.readouterr().out == SIDEBANDS_DEFAULT_STDOUT

    def test_long_table_runs_in_one_pass(self, capsys):
        # 6003 rows whose sums reach past level 2000: row by row, each sum
        # building its own Laguerre column at every distance, this took about
        # a minute; one pass shares each column and takes about a second
        argv = ["sidebands", "--trap-freq", "1", "--rabi", "0.01", "--max-order", "1", "--max-n", "2000"]
        start = time.perf_counter()
        assert cli.main(argv) == 0
        elapsed = time.perf_counter() - start
        header, *rows = csv.reader(capsys.readouterr().out.splitlines())
        assert len(rows) == 3 * 2001
        params = ts.TrapParams(rabi=0.01, eta=0.083)
        for row in rows[::97] + rows[-3:]:
            record = dict(zip(header, row))
            sideband = ts.SidebandId(int(record["n_g"]), int(record["n_e"]))
            assert record["shift"] == repr(ts.bs_shift(sideband, params).delta_omega_full), record
        assert elapsed < 20.0

    @pytest.mark.parametrize(("argv", "rows"), [
        (["sidebands", "--eta", "4"], 5 * 4),
        # a dimensionless trap frequency: shift_hz stays empty
        (["sidebands", "--trap-freq", "1", "--rabi", "0.01"], 5 * 4),
        # 29 997 rows up to the top level
        (["sidebands", "--max-order", "1", "--max-n", "9998"], 3 * 9999),
    ], ids=["eta4", "dimensionless", "top-level"])
    def test_documented_table_is_one_pass_without_warning(self, argv, rows, monkeypatch, capsys):
        # the suite's filterwarnings make a UserWarning or RuntimeWarning an error
        passes = []
        sum_terms = resolvent._sum_terms

        def counting(*args, **kwargs):
            passes.append(args)
            return sum_terms(*args, **kwargs)

        monkeypatch.setattr(resolvent, "_sum_terms", counting)
        assert cli.main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + rows
        assert len(passes) == 1


SIDEBANDS_DEFAULT_STDOUT = """\
sideband,order,n,n_g,n_e,shift,shift_hz
red,2,0,2,0,0.00038225193317908794,519.8626291235596
red,2,1,3,1,0.00038392124228544877,522.1328895082105
red,2,2,4,2,0.00038555380249105414,524.3531713878338
red,2,3,5,3,0.0003871499267559694,526.5239003881185
red,1,0,1,0,0.0007515425300218404,1022.097840829703
red,1,1,2,1,0.0007437853820245184,1011.5481195533451
red,1,2,3,2,0.0007360875766298665,1001.0791042166187
red,1,3,4,3,0.0007284487562510941,990.6903085014882
carrier,0,0,0,0,0.0,0.0
carrier,0,1,1,1,0.0,0.0
carrier,0,2,2,2,0.0,0.0
carrier,0,3,3,3,0.0,0.0
blue,1,0,0,1,-0.0007515425300218404,-1022.097840829703
blue,1,1,1,2,-0.0007437853820245184,-1011.5481195533451
blue,1,2,2,3,-0.0007360875766298665,-1001.0791042166187
blue,1,3,3,4,-0.0007284487562510941,-990.6903085014882
blue,2,0,0,2,-0.00038225193317908794,-519.8626291235596
blue,2,1,1,3,-0.00038392124228544877,-522.1328895082105
blue,2,2,2,4,-0.00038555380249105414,-524.3531713878338
blue,2,3,3,5,-0.0003871499267559694,-526.5239003881185
"""


class TestOneWriter:
    """main writes every command's table: "command" first in its config, and
    CSV and JSON hold the same cells."""

    @pytest.mark.parametrize("argv", [
        ["sidebands"],
        ["shift", "--ng", "0", "--ne", "1", "--rabi", "0.01", "--eta", "0"],
        ["sweep", "--points", "3", "--levels", "1"],
        ["scan-eta", "--points", "2"],
        ["check"],
    ], ids=lambda argv: argv[0])
    def test_csv_and_json_hold_the_same_table(self, argv, capsys):
        assert cli.main(argv) == 0
        header, *rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
        assert cli.main([*argv, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert next(iter(payload["config"].items())) == ("command", argv[0])
        assert payload["columns"] == header
        assert [[cli._format_cell(v) for v in row] for row in payload["rows"]] == rows


class TestStdout:
    def test_unwritable_out_is_config_error(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "missing" / "x.csv"
        fail_if_computed(monkeypatch)  # the directory is checked before any computation
        for argv in [
            ["shift", "--ng", "0", "--ne", "1", "--rabi", "0.01", "--eta", "0"],
            ["scan-eta"],
        ]:
            assert cli.main([*argv, "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith(f"error: cannot write {str(out)!r}")
            assert captured.out == ""
            assert not out.parent.exists()

    def test_directory_out_is_config_error(self, tmp_path, monkeypatch, capsys):
        fail_if_computed(monkeypatch)  # rejected before any computation, not on writing
        for argv in [
            ["shift", "--ng", "0", "--ne", "1", "--rabi", "0.01", "--eta", "0"],
            ["scan-eta", "--points", "3"],
            ["sidebands"],
        ]:
            assert cli.main([*argv, "--out", str(tmp_path)]) == 2
            captured = capsys.readouterr()
            assert captured.err == f"error: cannot write {str(tmp_path)!r}: it is a directory\n"
            assert captured.out == ""

    def test_unwritable_existing_file_is_config_error(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "locked.csv"
        out.write_text("kept\n")
        access = os.access
        monkeypatch.setattr(os, "access", lambda path, *a, **kw: Path(path) != out and access(path, *a, **kw))
        fail_if_computed(monkeypatch)  # rejected before any computation, not on writing
        for argv in [
            ["shift", "--ng", "0", "--ne", "1", "--rabi", "0.01", "--eta", "0"],
            ["scan-eta"],
        ]:
            assert cli.main([*argv, "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.err == f"error: cannot write {str(out)!r}: it is not writable\n"
            assert captured.out == ""
            assert out.read_text() == "kept\n"

    def test_write_error_is_config_error(self, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        with pytest.raises(ValueError, match=re.escape(f"cannot write {str(out)!r}: No such file or directory")):
            cli.write_output({}, ["a"], [[1]], "csv", str(out))

    def test_writes_to_stdout_by_default(self, capsys):
        code = cli.main(["shift", "--ng", "0", "--ne", "1", "--rabi", "0.01", "--eta", "0"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("n_g,n_e,")
        assert captured.out.endswith("\n")


class TestEntryPoint:
    """``python -m trapshift.cli``: the interpreter's exit status and stdout, the one
    path that in-process ``main`` calls do not take."""

    @pytest.mark.parametrize(("argv", "code"), [
        (["sidebands"], 0),
        (["sweep", "--levels", "10000", "--points", "2"], 2),
        (["sidebands", "--eta", "7"], 3),
    ], ids=["exit0", "exit2", "exit3"])
    def test_exit_status_and_stdout(self, argv, code):
        src = str(Path(ts.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "trapshift.cli", *argv],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert done.returncode == code, done.stderr
        assert done.stdout == (SIDEBANDS_DEFAULT_STDOUT if code == 0 else "")
