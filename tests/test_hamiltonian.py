"""Bare energies, crossing points, and matrix assembly contracts."""

import dataclasses
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trapshift as ts
from trapshift.hamiltonian import displacement_column
from trapshift.params import MAX_LEVELS


def _forbid_laguerre_columns(monkeypatch):
    """Make every Laguerre column, in the closed form and in its table, fail:
    each is built by ``resolvent._laguerre_column``."""
    from trapshift import resolvent

    def unreachable(*args, **kwargs):
        raise AssertionError("a Laguerre column was built before the bound")

    monkeypatch.setattr(resolvent, "_laguerre_column", unreachable)


class TestTrapParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ts.TrapParams(rabi=-0.1, eta=0.1)
        with pytest.raises(ValueError):
            ts.TrapParams(rabi=0.1, eta=-0.1)
        with pytest.raises(ValueError):
            ts.TrapParams(rabi=float("inf"), eta=0.1)

    def test_detuning_bound_is_inclusive(self):
        for delta in (-2.0 * MAX_LEVELS, 2.0 * MAX_LEVELS):
            assert ts.TrapParams(rabi=0.3, eta=0.1, delta=delta).delta == delta

    def test_has_no_trap_frequency_field(self):
        # energies are in units of omega_t; only the CLI knows physical units
        assert [f.name for f in dataclasses.fields(ts.TrapParams)] == ["rabi", "eta", "delta"]
        with pytest.raises(TypeError):
            ts.TrapParams(rabi=0.01, eta=0.1, omega_t=2.0)

    def test_strong_drive_does_not_warn(self):
        # the perturbative regime is a limit of the closed form, which warns
        # (tests/test_resolvent.py::TestRegimeWarning); the value never does
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ts.TrapParams(rabi=3.0, eta=0.1)

    def test_with_delta(self):
        params = ts.TrapParams(rabi=0.01, eta=0.1)
        moved = params.with_delta(0.7)
        assert moved.delta == 0.7
        assert moved.rabi == params.rabi


class TestSidebandId:
    def test_classification(self):
        assert ts.SidebandId(1, 1).kind == "carrier"
        assert ts.SidebandId(0, 2).kind == "blue"
        assert ts.SidebandId(0, 2).order == 2
        assert ts.SidebandId(3, 1).kind == "red"
        assert ts.SidebandId(3, 1).order == -2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ts.SidebandId(-1, 0)

    def test_rejects_levels_beyond_any_basis_before_computing(self, monkeypatch):
        # the one level bound of both routes, met before any sum or column
        from trapshift.params import MAX_LEVELS

        _forbid_laguerre_columns(monkeypatch)
        for levels in [(MAX_LEVELS, 0), (0, MAX_LEVELS), (10**6, 0)]:
            with pytest.raises(ValueError, match=f"must be in 0..{MAX_LEVELS - 1}"):
                ts.SidebandId(*levels)

    def test_accepts_the_highest_level(self):
        from trapshift.params import MAX_LEVELS

        assert ts.SidebandId(MAX_LEVELS - 1, 0).n_g == 9999
        assert ts.SidebandId(0, MAX_LEVELS - 1).n_e == 9999


class TestBareEnergy:
    def test_ground_zero(self):
        params = ts.TrapParams(rabi=0.01, eta=0.1, delta=0.0)
        assert ts.bare_energy("g", 0, params) == 0.0

    def test_first_blue_degeneracy(self):
        params = ts.TrapParams(rabi=0.01, eta=0.1, delta=1.0)
        assert ts.bare_energy("e", 1, params) == pytest.approx(0.5)
        assert ts.bare_energy("g", 0, params) == pytest.approx(0.5)

    def test_rejects_bad_state(self):
        params = ts.TrapParams(rabi=0.01, eta=0.1)
        with pytest.raises(ValueError):
            ts.bare_energy("x", 0, params)
        with pytest.raises(ValueError):
            ts.bare_energy("g", -1, params)


class TestCrossingPoint:
    # the bare crossing detuning delta0 = n_e - n_g, as the exact route measures
    # its shift from it: delta_omega = delta_star - delta0
    def test_carrier(self):
        params = ts.TrapParams(rabi=0.01, eta=0.1)
        report = ts.find_resonance(ts.SidebandId(0, 0), params)
        assert report.delta_star - report.delta_omega == 0.0

    def test_first_blue(self):
        params = ts.TrapParams(rabi=0.01, eta=0.1)
        report = ts.find_resonance(ts.SidebandId(0, 1), params)
        assert report.delta_star - report.delta_omega == 1.0

    def test_first_red(self):
        params = ts.TrapParams(rabi=0.01, eta=0.1)
        report = ts.find_resonance(ts.SidebandId(1, 0), params)
        assert report.delta_star - report.delta_omega == -1.0

    def test_returns_floats(self, capsys):
        # the CLI prints delta0 by repr, so an int would print as 1, not 1.0
        from trapshift import cli

        for (ng, ne), cell in [((0, 1), "1.0"), ((1, 0), "-1.0"), ((2, 2), "0.0")]:
            argv = ["shift", "--ng", str(ng), "--ne", str(ne), "--rabi", "0.01", "--eta", "0"]
            assert cli.main(argv) == 0
            header, row = capsys.readouterr().out.splitlines()
            assert dict(zip(header.split(","), row.split(",")))["delta0"] == cell


def complex_hamiltonian(params: ts.TrapParams, n_max: int) -> np.ndarray:
    """Oracle: the rotating-frame H in its complex form, from the operator's
    chi table: bare energies n +/- delta/2 on the diagonal, the g-e block
    (rabi/2) chi above it and its Hermitian conjugate below.  The block is
    scaled part by part, so that a zero keeps its sign."""
    chi = ts.displacement_oracle(params.eta, n_max)
    block = np.empty_like(chi)
    block.real, block.imag = 0.5 * params.rabi * chi.real, 0.5 * params.rabi * chi.imag
    nb = n_max + 1
    n = np.arange(nb)
    h = np.zeros((2 * nb, 2 * nb), dtype=complex)
    h[n, n] = n + 0.5 * params.delta
    h[nb + n, nb + n] = n - 0.5 * params.delta
    h[:nb, nb:] = block
    h[nb:, :nb] = block.conj().T
    return h


def conjugate_by_number_phases(h: np.ndarray, sectors: int = 2) -> np.ndarray:
    """G H G^dag with G = diag(i^n) on each of ``sectors`` sectors, a diagonal unitary.

    Entry (n, n') is multiplied by i^(n - n') by swapping and negating its
    parts, which is exact to the sign of every zero; a complex product by i
    adds x*0 and 0*1, which can turn -0.0 into 0.0.
    """
    n = np.tile(np.arange(len(h) // sectors), sectors)
    power = (n[:, None] - n[None, :]) % 4
    a, b = h.real, h.imag
    out = np.empty_like(h)
    out.real = np.choose(power, [a, -b, -a, b])
    out.imag = np.choose(power, [b, a, -b, -a])
    return out


class TestBuildHamiltonian:
    def test_zero_field_is_diagonal_bare(self):
        params = ts.TrapParams(rabi=0.0, eta=0.2, delta=0.3)
        h = ts.build_hamiltonian(params, 4)
        expected = [ts.bare_energy("g", n, params) for n in range(5)]
        expected += [ts.bare_energy("e", n, params) for n in range(5)]
        assert np.abs(h.matrix - np.diag(expected)).max() == 0.0

    def test_eta_zero_block_is_scaled_identity(self):
        params = ts.TrapParams(rabi=0.3, eta=0.0)
        h = ts.build_hamiltonian(params, 3)
        block = h.matrix[:4, 4:]
        assert np.abs(block - 0.15 * np.eye(4)).max() == 0.0

    def test_single_quantum_entry(self):
        # chi_01 = i * eta * exp(-eta^2/2); the gauge phases 1 and i^-1 make it real
        params = ts.TrapParams(rabi=0.01, eta=0.1)
        h = ts.build_hamiltonian(params, 5)
        entry = h.matrix[0, 6 + 1]  # |g,0>, |e,1>
        assert entry == pytest.approx(0.005 * 0.1 * math.exp(-0.005), abs=1e-18)
        assert entry == pytest.approx(0.005 * 0.099501, abs=5e-9)

    @given(
        rabi=st.floats(0.0, 0.1),
        eta=st.floats(0.0, 0.8),
        delta=st.floats(-2.0, 2.0),
        n_max=st.integers(1, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetric(self, rabi, eta, delta, n_max):
        params = ts.TrapParams(rabi=rabi, eta=eta, delta=delta)
        h = ts.build_hamiltonian(params, n_max).matrix
        assert h.dtype == np.float64
        assert np.array_equal(h, h.T)

    def test_basis_ordering(self):
        # |g,0> .. |g,n_max> then |e,0> .. |e,n_max>, checked at every row
        from trapshift.hamiltonian import basis_rows

        n_max = 5
        params = ts.TrapParams(rabi=0.01, eta=0.1, delta=0.3)
        h = ts.build_hamiltonian(params, n_max).matrix
        assert h.shape == (12, 12)
        tags = [(state, n) for state in ("g", "e") for n in range(n_max + 1)]
        rows = basis_rows(n_max)
        assert list(rows) == tags
        # undriven, every branch of a sweep is its tag's bare state
        grid = np.array([0.3, 0.35])
        swept = ts.sweep_spectrum(ts.TrapParams(rabi=0.0, eta=0.1), grid, n_max, tags=tags)
        for state, n in tags:
            row = rows[state, n]
            assert row == (n if state == "g" else n_max + 1 + n)
            assert h[row, row] == ts.bare_energy(state, n, params)
            for j, delta in enumerate(grid):
                assert swept.branches[state, n][j] == ts.bare_energy(state, n, params.with_delta(float(delta)))
                assert swept.overlaps[state, n][j] == 1.0


class TestRealGauge:
    @given(
        rabi=st.floats(0.0, 0.5),
        eta=st.floats(0.0, 1.5),
        delta=st.floats(-2.0, 2.0),
        n_max=st.integers(1, 24),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_gauge_is_exactly_real(self, rabi, eta, delta, n_max):
        from trapshift.hamiltonian import coupling_block, real_pencil
        from trapshift.spectrum import _DetuningScan

        # Signbits are compared on the g-e block, where every entry is the
        # operator's; the e-g block is its transpose.
        params = ts.TrapParams(rabi=rabi, eta=eta, delta=delta)
        rotated = conjugate_by_number_phases(complex_hamiltonian(params, n_max))
        assert np.all(rotated.imag == 0)
        real = rotated.real
        built = ts.build_hamiltonian(params, n_max).matrix
        nb = n_max + 1
        assert np.array_equal(built, real)
        assert np.array_equal(np.signbit(built[:nb, nb:]), np.signbit(real[:nb, nb:]))
        assert np.array_equal(np.signbit(built), np.signbit(built.T))
        scan = _DetuningScan(*real_pencil(coupling_block(params, n_max)))
        scan.eigen(delta)  # a fresh pencil sits at delta = 0
        scanned = scan._h
        assert np.array_equal(scanned, built)
        assert np.array_equal(np.signbit(scanned), np.signbit(built))

    @pytest.mark.parametrize("eta", [0.1, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n_max", [16, 164])
    def test_conjugated_operator_block_has_no_imaginary_part(self, eta, n_max):
        # the i^n conjugation of the operator's chi is real, and is the real
        # exponential the Hamiltonian is built from, bit for bit
        from trapshift.hamiltonian import coupling_block

        rotated = conjugate_by_number_phases(ts.displacement_oracle(eta, n_max), 1)
        assert np.all(rotated.imag == 0)
        block = coupling_block(ts.TrapParams(rabi=2.0, eta=eta), n_max)
        assert block.dtype == np.float64
        assert np.array_equal(rotated.real, block)
        assert np.array_equal(np.signbit(rotated.real), np.signbit(block))

    @pytest.mark.parametrize("eta", [0.1, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n_max", [16, 164])
    def test_real_block_matches_laguerre_table(self, eta, n_max):
        # the two routes' chi, compared in the real gauge
        from trapshift.hamiltonian import coupling_block

        rotated = conjugate_by_number_phases(ts.coupling_table(eta, n_max), 1)
        block = coupling_block(ts.TrapParams(rabi=2.0, eta=eta), n_max)
        assert np.abs(rotated - block).max() <= 2e-13

    @pytest.mark.parametrize("eta", [0.0, 0.05, 0.3, 1.0, 2.0, 4.0, 6.0])
    @pytest.mark.parametrize("n_max", [12, 60, 164, 300])
    def test_real_block_matches_scipy_expm(self, eta, n_max):
        # scipy's Pade expm of the padded generator, cropped, is the reference
        # for the package's own scaling and squaring
        from scipy.linalg import expm

        from trapshift.hamiltonian import _real_displacement, check_padded_basis

        dim = check_padded_basis(eta, n_max)
        ladder = eta * np.sqrt(np.arange(1.0, dim))
        generator = np.diag(ladder, 1) - np.diag(ladder, -1)
        block = _real_displacement(eta, n_max)
        assert block.shape == (n_max + 1, n_max + 1)
        assert np.abs(block - expm(generator)[: n_max + 1, : n_max + 1]).max() <= 2e-13
        if eta == 0.0:
            assert np.array_equal(block, np.eye(n_max + 1))

    def test_real_form_symmetric_same_spectrum(self):
        params = ts.TrapParams(rabi=0.15, eta=0.3, delta=-0.4)
        real = ts.build_hamiltonian(params, 8).matrix
        assert np.array_equal(real, real.T)
        w_complex = np.linalg.eigvalsh(complex_hamiltonian(params, 8))
        w_real = np.linalg.eigvalsh(real)
        assert np.abs(w_complex - w_real).max() < 1e-12

    @pytest.mark.parametrize("eta", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("delta", [-0.4, 0.0, 1.0])
    def test_scan_matrix_is_real_form_bit_for_bit(self, eta, delta):
        from trapshift.hamiltonian import coupling_block, real_pencil
        from trapshift.spectrum import _DetuningScan

        params = ts.TrapParams(rabi=0.15, eta=eta, delta=delta)
        scan = _DetuningScan(*real_pencil(coupling_block(params, 7)))
        scan.eigen(delta)
        real = ts.build_hamiltonian(params, 7).matrix
        assert np.array_equal(scan._h, real)
        assert np.array_equal(np.signbit(scan._h), np.signbit(real))


class TestBasisBound:
    def test_rejected_before_allocating(self, monkeypatch):
        from trapshift import hamiltonian

        # any array made in hamiltonian now fails with NameError
        monkeypatch.delattr(hamiltonian, "np")
        n_max = hamiltonian.MAX_LEVELS
        params = ts.TrapParams(rabi=0.01, eta=0.1)
        with pytest.raises(ValueError, match="beyond the supported range"):
            ts.build_hamiltonian(params, n_max)
        with pytest.raises(ValueError, match="beyond the supported range"):
            ts.find_resonance(ts.SidebandId(0, 1), params, n_max=n_max)

    def test_padded_basis_rejected_before_allocating(self, monkeypatch):
        # n_max 9990 is below MAX_LEVELS, but the operator exponential pads it
        # by oracle_pad(0.1, 9990) = 40 levels, to 10031 > MAX_LEVELS
        from trapshift import hamiltonian

        # any array made in hamiltonian now fails with NameError
        monkeypatch.delattr(hamiltonian, "np")
        params = ts.TrapParams(rabi=0.01, eta=0.1)
        assert ts.oracle_pad(0.1, 9990) == 40
        message = "padded basis of 10031 levels .* beyond the supported range"
        with pytest.raises(ValueError, match=message):
            ts.displacement_oracle(0.1, 9990)
        with pytest.raises(ValueError, match=message):
            ts.build_hamiltonian(params, 9990)
        with pytest.raises(ValueError, match=message):
            ts.sweep_spectrum(params, [0.0, 1.0], 9990, tags=[(s, n) for s in "ge" for n in range(9991)])
        with pytest.raises(ValueError, match="padded basis of 10001 levels"):
            ts.displacement_oracle(0.0, 9980)

    def test_doubled_basis_rejected_before_first_solve(self, monkeypatch):
        from trapshift import spectrum

        class Reached(Exception):
            pass

        def first_solve(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(spectrum, "_DetuningScan", first_solve)
        params = ts.TrapParams(rabi=0.01, eta=0.1)
        # (0, 1) re-locates on n_max 1 + 2 (n - 1), and its chi is exponentiated
        # on oracle_pad(0.1, .) = 40 more levels: the doubled basis pads to
        # 9959 + 1 + 40 = 10000 levels at n = 4980 and to 10002 at n = 4981
        assert spectrum.check_bases(ts.SidebandId(0, 1), 4980, 0.1) == (4980, 9959)
        assert ts.oracle_pad(0.1, 9959) == ts.oracle_pad(0.1, 9961) == 40
        with pytest.raises(Reached):
            ts.find_resonance(ts.SidebandId(0, 1), params, n_max=4980)
        for n_max in (4981, 5000):
            with pytest.raises(ValueError, match="padded basis .* doubles the margin"):
                ts.find_resonance(ts.SidebandId(0, 1), params, n_max=n_max)
        for n_max in (5001, 6000):
            with pytest.raises(ValueError, match="basis of .* before padding.* doubles the margin"):
                ts.find_resonance(ts.SidebandId(0, 1), params, n_max=n_max)

    def test_coupling_table_bounded_before_allocating(self, monkeypatch):
        from trapshift import hamiltonian

        # any array made in hamiltonian now fails with NameError, any column
        # with AssertionError
        monkeypatch.delattr(hamiltonian, "np")
        _forbid_laguerre_columns(monkeypatch)
        # pad 4 ceil(0.3 sqrt(9979)) = 120
        with pytest.raises(ValueError, match="padded basis of 10100 levels"):
            ts.coupling_table(0.3, 9979)
        with pytest.raises(ValueError, match="basis of 10001 levels .* beyond the supported range"):
            ts.coupling_table(0.3, 10000)

    @pytest.mark.parametrize("eta", [0.0, 0.1, 0.5, 1.0, 2.0])
    def test_one_check_rejects_exactly_beyond_the_padded_bound(self, eta):
        from trapshift.hamiltonian import MAX_LEVELS, check_padded_basis

        for n_max in range(9900, 10051):
            levels = n_max + 1 + ts.oracle_pad(eta, n_max)
            if levels <= MAX_LEVELS:
                assert check_padded_basis(eta, n_max) == levels
            else:
                with pytest.raises(ValueError, match="beyond the supported range"):
                    check_padded_basis(eta, n_max)

    def test_huge_n_max_is_compared_as_an_integer(self):
        from trapshift.hamiltonian import check_padded_basis

        # oracle_pad would overflow converting this n_max to a float
        with pytest.raises(OverflowError):
            ts.oracle_pad(0.1, 10**400)
        with pytest.raises(ValueError, match="basis of 1" + "0" * 399 + "1 levels before padding"):
            check_padded_basis(0.1, 10**400)


PARAMS = ts.TrapParams(rabi=0.01, eta=0.1)
LEVEL_ENTRIES = {
    "laguerre": lambda n: ts.laguerre(n, 0, 0.1),
    "chi_magnitude": lambda n: ts.chi_magnitude(n, n, 0.1),
    "chi": lambda n: ts.chi(n, n, 0.1),
    "rabi_coupling": lambda n: ts.rabi_coupling(n, n, PARAMS),
    "bare_energy": lambda n: ts.bare_energy("g", n, PARAMS),
    "SidebandId-n_g": lambda n: ts.SidebandId(n, 0),
    "SidebandId-n_e": lambda n: ts.SidebandId(0, n),
}
BASIS_ENTRIES = {
    "coupling_table": lambda n_max: ts.coupling_table(0.1, n_max),
    "displacement_oracle": lambda n_max: ts.displacement_oracle(0.1, n_max),
    "build_hamiltonian": lambda n_max: ts.build_hamiltonian(PARAMS, n_max),
}
ETA_ENTRIES = {
    "chi_magnitude": lambda eta: ts.chi_magnitude(0, 1, eta),
    "chi": lambda eta: ts.chi(0, 1, eta),
    "coupling_table": lambda eta: ts.coupling_table(eta, 4),
    "displacement_oracle": lambda eta: ts.displacement_oracle(eta, 4),
    "TrapParams": lambda eta: ts.TrapParams(rabi=0.01, eta=eta),
}
DELTA_ENTRIES = {
    "TrapParams": lambda delta: ts.TrapParams(rabi=0.3, eta=0.1, delta=delta),
    # at [1e16, 1.5e16] the g1 weights read 0.86 and 0.95, for true weights near 1
    "sweep_spectrum": lambda delta: ts.sweep_spectrum(
        ts.TrapParams(rabi=0.3, eta=0.1), [delta, 1.5 * delta], 3, tags=[("g", 1)]
    ),
}
LEVEL_RULE = f"must be in 0..{MAX_LEVELS - 1}, got "
INTEGER_RULE = "must be of integer type, got "
DOMAIN_CASES = [
    *(pytest.param(call, n, LEVEL_RULE + str(n), id=f"{name}-{n}")
      for name, call in LEVEL_ENTRIES.items() for n in (-1, MAX_LEVELS)),
    *(pytest.param(call, -1, LEVEL_RULE + "-1", id=f"{name}--1") for name, call in BASIS_ENTRIES.items()),
    *(pytest.param(call, MAX_LEVELS, f"basis of {MAX_LEVELS + 1} levels before padding", id=f"{name}-{MAX_LEVELS}")
      for name, call in BASIS_ENTRIES.items()),
    *(pytest.param(call, eta, f"eta must be finite and >= 0, got {eta!r}", id=f"{name}-eta-{eta!r}")
      for name, call in ETA_ENTRIES.items() for eta in (-0.1, math.nan, math.inf)),
    *(pytest.param(call, delta, f"delta must be in -20000..20000, got {delta!r}", id=f"{name}-delta-{delta!r}")
      for name, call in DELTA_ENTRIES.items() for delta in (1e16, -1e308, 20000.000000001, math.nan, math.inf)),
    # the greater index enters lgamma as hi + 1.0, and the Laguerre order the recurrence
    # as a double, which count integers only up to FLOAT_EXACT_TOP = 2**53 - 1
    pytest.param(lambda n: ts.chi_magnitude(0, n, 0.1), 10**400,
                 f"max(n, nprime) must be in 0..{2**53 - 1}, got {10**400}", id="chi_magnitude-nprime-10**400"),
    pytest.param(lambda n: ts.chi_magnitude(n, 9, 0.1), 2**53,
                 f"max(n, nprime) must be in 0..{2**53 - 1}, got {2**53}", id="chi_magnitude-n-2**53"),
    pytest.param(lambda alpha: ts.laguerre(3, alpha, 0.1), 2**53, f"alpha must be in 0..{2**53 - 1}, got {2**53}",
                 id="laguerre-alpha-2**53"),
    # a level is an integer: chi_magnitude(2, 2.5, 0.1) read a Laguerre value of
    # order 0.5, and a half-integer level ended in a bare TypeError or KeyError
    *(pytest.param(call, 1.5, INTEGER_RULE + "1.5", id=f"{name}-1.5") for name, call in LEVEL_ENTRIES.items()),
    *(pytest.param(call, 2.5, INTEGER_RULE + "2.5", id=f"{name}-2.5") for name, call in BASIS_ENTRIES.items()),
    pytest.param(lambda n: ts.chi_magnitude(n, 2, 0.1), 2.5, "n " + INTEGER_RULE + "2.5",
                 id="chi_magnitude-n-2.5"),
    pytest.param(lambda n: ts.chi_magnitude(2, n, 0.1), 2.5, "nprime " + INTEGER_RULE + "2.5",
                 id="chi_magnitude-nprime-2.5"),
    # each index is an integer before the two are ordered: a non-number ended in a bare TypeError
    pytest.param(lambda n: ts.chi_magnitude(n, 1, 0.1), None, "n " + INTEGER_RULE + "None",
                 id="chi_magnitude-n-None"),
    pytest.param(lambda n: ts.chi(1, n, 0.1), None, "nprime " + INTEGER_RULE + "None", id="chi-nprime-None"),
    pytest.param(lambda n: ts.rabi_coupling(n, 1, PARAMS), "2", "n " + INTEGER_RULE + "'2'",
                 id="rabi_coupling-n-str"),
    pytest.param(lambda alpha: ts.laguerre(3, alpha, 0.1), 1.5, "alpha " + INTEGER_RULE + "1.5",
                 id="laguerre-alpha-1.5"),
    # a float n_max is not an integer, however large: at or above MAX_LEVELS it
    # was reported as a basis size, and a float tag level matched its integer row
    *(pytest.param(call, n_max, "n_max " + INTEGER_RULE + repr(n_max), id=f"{name}-{n_max!r}")
      for name, call in {**BASIS_ENTRIES, "sweep_spectrum": lambda n_max: ts.sweep_spectrum(
          PARAMS, [0.1, 0.2], n_max, tags=[("g", 1)])}.items() for n_max in (10000.0, 1e5)),
    pytest.param(lambda n: ts.sweep_spectrum(PARAMS, [0.1, 0.2], 5, tags=[("g", n)]), 1.0,
                 "the level of branch tag ('g', 1.0) " + INTEGER_RULE + "1.0", id="sweep_spectrum-tag-1.0"),
    pytest.param(lambda n: ts.bs_shift(ts.SidebandId(n, 1), PARAMS), 0.5, INTEGER_RULE + "0.5",
                 id="bs_shift-0.5"),
    pytest.param(lambda n: ts.find_resonance(ts.SidebandId(n, 1), PARAMS), 0.5, INTEGER_RULE + "0.5",
                 id="find_resonance-0.5"),
    pytest.param(lambda n_max: ts.find_resonance(ts.SidebandId(0, 1), PARAMS, n_max=n_max), 20.0,
                 "n_max " + INTEGER_RULE + "20.0", id="find_resonance-n_max-20.0"),
    # the one operator column a carrier reads lies on the basis: -1 read the
    # last pad level's column, n_max + 1 one from inside the pad
    *(pytest.param(lambda n: displacement_column(0.1, 10, n), n, message, id=f"displacement_column-{n!r}")
      for n, message in [(-1, "n must be in 0..10, got -1"), (11, "n must be in 0..10, got 11"),
                         (2.0, "n " + INTEGER_RULE + "2.0")]),
]


class TestDomainRules:
    """Every public entry holds levels, eta and detunings to the rules of ``params``."""

    @pytest.mark.parametrize(("call", "value", "message"), DOMAIN_CASES)
    def test_rejected_before_anything_is_built(self, call, value, message, monkeypatch):
        from trapshift import hamiltonian

        # any array made in hamiltonian now fails with NameError, any column
        # with AssertionError
        monkeypatch.delattr(hamiltonian, "np")
        _forbid_laguerre_columns(monkeypatch)
        with pytest.raises(ValueError, match=re.escape(message)):
            call(value)

    def test_greater_index_accepted_below_2_53(self):
        assert ts.chi_magnitude(0, 2**53 - 1, 0.1) == 0.0

    def test_numpy_integers_are_levels(self):
        two, three = np.int64(2), np.int32(3)
        assert ts.SidebandId(two, three) == ts.SidebandId(2, 3)
        assert ts.chi_magnitude(two, three, 0.1) == ts.chi_magnitude(2, 3, 0.1)
        assert ts.laguerre(three, two, 0.1) == ts.laguerre(3, 2, 0.1)
        assert np.array_equal(displacement_column(0.1, 10, three), displacement_column(0.1, 10, 3))


class TestDefaultNMax:
    def test_margin_grows_with_eta(self):
        sb = ts.SidebandId(0, 1)
        assert ts.default_n_max(sb, 0.0) == 16
        assert ts.default_n_max(sb, 0.1) == 17
        assert ts.default_n_max(sb, 0.8) == 32

    def test_margin_covers_the_spread_of_the_displaced_level(self):
        # n + max(15 + ceil(25 eta^2), 4 ceil(eta sqrt(n))): the spread term
        # first wins at n = 1601 for eta 0.1, n = 101 for eta 0.4 to 1.0 but
        # 0.8, where 25 eta^2 = 16 exactly and it wins from n = 77
        def fixed(n, eta):
            return n + 15 + math.ceil(25.0 * eta * eta)

        assert ts.default_n_max(ts.SidebandId(0, 800), 1.0) == 916
        assert fixed(800, 1.0) == 840
        for n in range(11):
            for i in range(1201):
                eta = i / 1000
                assert ts.default_n_max(ts.SidebandId(0, n), eta) == fixed(n, eta), (n, eta)
        for eta, first in [(0.1, 1601), (0.4, 101), (0.5, 101), (0.8, 77), (1.0, 101)]:
            for n in (first - 1, first):
                assert (ts.default_n_max(ts.SidebandId(n, 0), eta) > fixed(n, eta)) == (n == first)

    @pytest.mark.parametrize("eta", [1e3, 1e200, sys.float_info.max])
    def test_huge_eta_is_an_oversized_basis(self, eta):
        # 25 eta^2 and eta sqrt(n) saturate at MAX_LEVELS, not at an
        # infinite float that ceil cannot convert
        from trapshift.hamiltonian import check_padded_basis

        for n in (0, 1, MAX_LEVELS - 1):
            n_max = ts.default_n_max(ts.SidebandId(0, n), eta)
            assert n_max >= MAX_LEVELS
            with pytest.raises(ValueError, match=f"^basis of {n_max + 1} levels before padding is beyond"):
                check_padded_basis(eta, n_max)
