"""Bare energies, crossing points, and matrix assembly contracts."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trapshift as ts


class TestTrapParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ts.TrapParams(rabi=-0.1, eta=0.1)
        with pytest.raises(ValueError):
            ts.TrapParams(rabi=0.1, eta=-0.1)
        with pytest.raises(ValueError):
            ts.TrapParams(rabi=float("inf"), eta=0.1)

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
    def test_carrier(self):
        params = ts.TrapParams(rabi=0.01, eta=0.1)
        assert ts.crossing_point(ts.SidebandId(0, 0), params) == (0.0, 0.0)

    def test_first_blue(self):
        params = ts.TrapParams(rabi=0.01, eta=0.1)
        assert ts.crossing_point(ts.SidebandId(0, 1), params) == (0.5, 1.0)

    def test_first_red(self):
        params = ts.TrapParams(rabi=0.01, eta=0.1)
        assert ts.crossing_point(ts.SidebandId(1, 0), params) == (0.5, -1.0)

    def test_returns_floats(self):
        # the CLI prints delta0 by repr, so an int would print as 1, not 1.0
        params = ts.TrapParams(rabi=0.01, eta=0.1)
        for sideband in (ts.SidebandId(0, 0), ts.SidebandId(0, 1), ts.SidebandId(3, 1)):
            e0, delta0 = ts.crossing_point(sideband, params)
            assert type(e0) is float and type(delta0) is float
        assert repr(ts.crossing_point(ts.SidebandId(0, 1), params)) == "(0.5, 1.0)"


def complex_hamiltonian(params: ts.TrapParams, n_max: int) -> np.ndarray:
    """Oracle: the rotating-frame H in its complex form, from the operator's
    coupling block: bare energies n +/- delta/2 on the diagonal, the g-e block
    (rabi/2) chi above it and its Hermitian conjugate below."""
    from trapshift.hamiltonian import coupling_block

    block = coupling_block(params, n_max)
    nb = n_max + 1
    n = np.arange(nb)
    h = np.zeros((2 * nb, 2 * nb), dtype=complex)
    h[n, n] = n + 0.5 * params.delta
    h[nb + n, nb + n] = n - 0.5 * params.delta
    h[:nb, nb:] = block
    h[nb:, :nb] = block.conj().T
    return h


def conjugate_by_number_phases(h: np.ndarray) -> np.ndarray:
    """G H G^dag with G = diag(i^n) on each sector, a diagonal unitary."""
    nb = len(h) // 2
    phases = np.array([1.0, 1.0j, -1.0, -1.0j])[np.arange(nb) % 4]
    gauge = np.concatenate([phases, phases])
    return (gauge[:, None] * h) * gauge.conj()[None, :]


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
        # |g,0> .. |g,n_max> then |e,0> .. |e,n_max>
        params = ts.TrapParams(rabi=0.01, eta=0.1, delta=0.3)
        h = ts.build_hamiltonian(params, 3)
        assert h.matrix.shape == (8, 8)
        assert h.matrix[2, 2] == ts.bare_energy("g", 2, params)
        assert h.matrix[4, 4] == ts.bare_energy("e", 0, params)


class TestRealGauge:
    @given(
        rabi=st.floats(0.0, 0.5),
        eta=st.floats(0.0, 1.5),
        delta=st.floats(-2.0, 2.0),
        n_max=st.integers(1, 24),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_gauge_is_exactly_real(self, rabi, eta, delta, n_max):
        from trapshift.spectrum import _DetuningScan

        # The structural zeros of the oracle's g-g and e-e blocks pick up signs
        # from the phase products, so signbits are compared on the g-e block;
        # the e-g block is its transpose.
        params = ts.TrapParams(rabi=rabi, eta=eta, delta=delta)
        rotated = conjugate_by_number_phases(complex_hamiltonian(params, n_max))
        assert np.all(rotated.imag == 0)
        real = rotated.real
        built = ts.build_hamiltonian(params, n_max).matrix
        nb = n_max + 1
        assert np.array_equal(built, real)
        assert np.array_equal(np.signbit(built[:nb, nb:]), np.signbit(real[:nb, nb:]))
        assert np.array_equal(np.signbit(built), np.signbit(built.T))
        scanned = _DetuningScan(params, n_max)._h
        assert np.array_equal(scanned, built)
        assert np.array_equal(np.signbit(scanned), np.signbit(built))

    @pytest.mark.parametrize("eta", [0.1, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n_max", [16, 164])
    def test_conjugated_operator_block_has_no_imaginary_part(self, eta, n_max):
        # so the .real of real_gauge_matrix drops nothing of the expm block
        from trapshift.hamiltonian import _gauge_phases, coupling_block

        block = coupling_block(ts.TrapParams(rabi=0.01, eta=eta), n_max)
        phases = _gauge_phases(n_max + 1)
        assert np.all(((phases[:, None] * block) * phases.conj()[None, :]).imag == 0)

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
        from trapshift.spectrum import _DetuningScan

        params = ts.TrapParams(rabi=0.15, eta=eta, delta=delta)
        scan = _DetuningScan(params, 7)
        scan.eigen(delta)
        real = ts.build_hamiltonian(params, 7).matrix
        assert np.array_equal(scan._h, real)
        assert np.array_equal(np.signbit(scan._h), np.signbit(real))


class TestBasisBound:
    def test_rejected_before_allocating(self, monkeypatch):
        from trapshift import hamiltonian

        # any array made in hamiltonian now fails with NameError
        monkeypatch.delattr(hamiltonian, "np")
        n_max = hamiltonian.MAX_DIM // 2
        params = ts.TrapParams(rabi=0.01, eta=0.1)
        with pytest.raises(ValueError, match="beyond the supported range"):
            ts.build_hamiltonian(params, n_max)
        with pytest.raises(ValueError, match="beyond the supported range"):
            ts.find_resonance(ts.SidebandId(0, 1), params, n_max=n_max)

    def test_padded_basis_rejected_before_allocating(self, monkeypatch):
        # n_max 9990 passes check_n_max, but the operator exponential pads it
        # by oracle_pad(0.1, 9990) = 40 levels, to 10031 > MAX_DIM // 2
        from trapshift import hamiltonian

        # any array made in hamiltonian now fails with NameError
        monkeypatch.delattr(hamiltonian, "np")
        params = ts.TrapParams(rabi=0.01, eta=0.1)
        hamiltonian.check_n_max(9990)
        assert ts.oracle_pad(0.1, 9990) == 40
        message = "padded basis of 10031 levels .* beyond the supported range"
        with pytest.raises(ValueError, match=message):
            ts.displacement_oracle(0.1, 9990)
        with pytest.raises(ValueError, match=message):
            ts.build_hamiltonian(params, 9990)
        with pytest.raises(ValueError, match=message):
            ts.sweep_spectrum(params, [0.0, 1.0], 9990)
        with pytest.raises(ValueError, match="padded basis of 10001 levels"):
            ts.displacement_oracle(0.0, 9980, pad=20)

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
        assert spectrum.check_bases(ts.SidebandId(0, 1), 4980, 0.1) == 9959
        assert ts.oracle_pad(0.1, 9959) == ts.oracle_pad(0.1, 9961) == 40
        with pytest.raises(Reached):
            ts.find_resonance(ts.SidebandId(0, 1), params, n_max=4980)
        for n_max in (4981, 5000):
            with pytest.raises(ValueError, match="padded basis .* doubles the margin"):
                ts.find_resonance(ts.SidebandId(0, 1), params, n_max=n_max)
        for n_max in (5001, 6000):
            with pytest.raises(ValueError, match="basis dimension .* doubles the margin"):
                ts.find_resonance(ts.SidebandId(0, 1), params, n_max=n_max)


class TestDefaultNMax:
    def test_margin_grows_with_eta(self):
        sb = ts.SidebandId(0, 1)
        assert ts.default_n_max(sb, 0.0) == 16
        assert ts.default_n_max(sb, 0.1) == 17
        assert ts.default_n_max(sb, 0.8) == 32
