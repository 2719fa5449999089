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
        params = ts.TrapParams(rabi=0.01, eta=0.1)
        h = ts.build_hamiltonian(params, 5)
        entry = h.matrix[h.index_of("g", 0), h.index_of("e", 1)]
        assert entry == pytest.approx(0.005 * 0.1 * math.exp(-0.005) * 1j, abs=1e-18)
        assert entry == pytest.approx(0.005 * 0.099501j, abs=5e-9)

    @given(
        rabi=st.floats(0.0, 0.1),
        eta=st.floats(0.0, 0.8),
        delta=st.floats(-2.0, 2.0),
        n_max=st.integers(1, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_hermitian(self, rabi, eta, delta, n_max):
        params = ts.TrapParams(rabi=rabi, eta=eta, delta=delta)
        h = ts.build_hamiltonian(params, n_max).matrix
        scale = max(np.abs(h).max(), 1.0)
        assert np.abs(h - h.conj().T).max() <= 1e-14 * scale

    def test_index_of(self):
        params = ts.TrapParams(rabi=0.01, eta=0.1)
        h = ts.build_hamiltonian(params, 3)
        assert h.index_of("g", 2) == 2
        assert h.index_of("e", 0) == 4
        assert h.dim == 8
        with pytest.raises(ValueError):
            h.index_of("g", 4)


def real_gauge(h: ts.HamiltonianMatrix) -> np.ndarray:
    """The real symmetric gauge of an assembled Hamiltonian, from its g-e block."""
    from trapshift.hamiltonian import real_gauge_matrix

    nb = h.n_max + 1
    return real_gauge_matrix(h.params, h.matrix[:nb, nb:])


class TestRealGauge:
    def test_gauge_is_exactly_real(self):
        from trapshift.hamiltonian import _gauge_phases

        params = ts.TrapParams(rabi=0.2, eta=0.4, delta=0.7)
        h = ts.build_hamiltonian(params, 9)
        phases = _gauge_phases(h.n_max + 1)
        gauge = np.concatenate([phases, phases])
        rotated = (gauge[:, None] * h.matrix) * gauge.conj()[None, :]
        assert np.abs(rotated.imag).max() == 0.0
        assert np.array_equal(rotated.real, real_gauge(h))

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
        h = ts.build_hamiltonian(params, 8)
        real = real_gauge(h)
        assert np.array_equal(real, real.T)
        w_complex = np.linalg.eigvalsh(h.matrix)
        w_real = np.linalg.eigvalsh(real)
        assert np.abs(w_complex - w_real).max() < 1e-12

    @pytest.mark.parametrize("eta", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("delta", [-0.4, 0.0, 1.0])
    def test_scan_matrix_is_real_form_bit_for_bit(self, eta, delta):
        from trapshift.spectrum import _DetuningScan

        params = ts.TrapParams(rabi=0.15, eta=eta, delta=delta)
        scan = _DetuningScan(params, 7)
        scan.eigen(delta)
        real = real_gauge(ts.build_hamiltonian(params, 7))
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
        # (0, 1) re-locates on n_max 1 + 2 (n - 1): 9999 at n = 5000, 10001 at 5001
        with pytest.raises(Reached):
            ts.find_resonance(ts.SidebandId(0, 1), params, n_max=5000)
        for n_max in (5001, 6000):
            with pytest.raises(ValueError, match="doubles the margin"):
                ts.find_resonance(ts.SidebandId(0, 1), params, n_max=n_max)


class TestDefaultNMax:
    def test_margin_grows_with_eta(self):
        sb = ts.SidebandId(0, 1)
        assert ts.default_n_max(sb, 0.0) == 16
        assert ts.default_n_max(sb, 0.1) == 17
        assert ts.default_n_max(sb, 0.8) == 32
