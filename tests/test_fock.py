"""Laguerre/displacement-operator algebra against independent oracles."""

import dataclasses
import math
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trapshift as ts
from trapshift import resolvent
from trapshift.params import MAX_LEVELS
from trapshift.resolvent import PHASES


def laguerre_binomial(n: int, alpha: int, x: float) -> float:
    """Finite alternating-sum oracle, reliable for small n only."""
    return math.fsum(
        (-1) ** k * math.comb(n + alpha, n - k) * x**k / math.factorial(k)
        for k in range(n + 1)
    )


class TestLaguerre:
    def test_zeroth_is_one(self):
        for alpha in (0, 1, 7):
            for x in (0.0, 0.3, 2.5):
                assert ts.laguerre(0, alpha, x) == 1.0

    def test_first_order(self):
        for x in (0.0, 0.04, 1.0):
            assert ts.laguerre(1, 0, x) == pytest.approx(1.0 - x, abs=1e-15)

    def test_frozen_example(self):
        # binomial sum: 3 - 3x + x^2/2 at x = 0.04
        assert ts.laguerre(2, 1, 0.04) == pytest.approx(2.8808, abs=1e-12)

    @given(
        n=st.integers(0, 10),
        alpha=st.integers(0, 10),
        x=st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_recurrence_matches_binomial_sum(self, n, alpha, x):
        expected = laguerre_binomial(n, alpha, x)
        assert ts.laguerre(n, alpha, x) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ts.laguerre(-1, 0, 0.5)
        with pytest.raises(ValueError):
            ts.laguerre(2, -1, 0.5)
        with pytest.raises(ValueError):
            ts.laguerre(2, 0, float("nan"))


class TestColumnBound:
    def test_rejects_a_column_at_the_bound_before_building_it(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a Laguerre column was built past the bound")

        monkeypatch.setattr(resolvent, "_laguerre_column", unreachable)
        message = f"must be in 0..{MAX_LEVELS - 1}, got"
        for n in (MAX_LEVELS, 10**8):
            with pytest.raises(ValueError, match=f"n {message} {n}"):
                ts.laguerre(n, 0, 0.1)
            with pytest.raises(ValueError, match=rf"min\(n, nprime\) {message} {n}"):
                ts.chi_magnitude(n, n + 5, 0.1)
        with pytest.raises(ValueError, match=message):
            ts.chi_magnitude(MAX_LEVELS, MAX_LEVELS, 0.1)
        with pytest.raises(ValueError, match=message):
            ts.chi(MAX_LEVELS + 3, MAX_LEVELS, 0.1)
        with pytest.raises(ValueError, match=message):
            ts.rabi_coupling(MAX_LEVELS, MAX_LEVELS, ts.TrapParams(rabi=0.01, eta=0.1))

    def test_bounds_only_the_column_length(self):
        # the lesser index runs the column; the greater may pass the bound, as
        # the closed-form sum around the top level reaches k = 10034
        assert ts.laguerre(MAX_LEVELS - 1, 0, 0.1) != 0.0
        m = ts.chi_magnitude(MAX_LEVELS - 2, 10034, 0.083)
        assert m == ts.chi_magnitude(10034, MAX_LEVELS - 2, 0.083)
        assert 0.0 < abs(m) < 1e-9


class TestClosedFormThreads:
    def test_every_thread_sees_the_serial_result(self):
        # more threads than cores and a short switch interval, so that the sums
        # interleave; with no module state, each thread must see the serial bits
        cases = [
            (ts.SidebandId(n, n + order), ts.TrapParams(rabi=0.01, eta=eta))
            for n in (0, 4, 10)
            for order in range(-3, 4)
            if n + order >= 0
            for eta in (0.1, 0.6, 1.2)
        ]
        serial = [dataclasses.astuple(ts.bs_shift(*case)) for case in cases]
        bad = []

        def run():
            for _ in range(3):
                for case, expected in zip(cases, serial):
                    if dataclasses.astuple(ts.bs_shift(*case)) != expected:
                        bad.append(case)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert bad == []


class TestChi:
    def test_ground_diagonal(self):
        assert ts.chi(0, 0, 0.4) == pytest.approx(math.exp(-0.08), abs=1e-15)

    def test_identity_at_eta_zero(self):
        for n in range(6):
            for nprime in range(6):
                expected = 1.0 if n == nprime else 0.0
                assert ts.chi(n, nprime, 0.0) == expected

    def test_first_offdiagonal(self):
        value = ts.chi(0, 1, 0.1)
        assert value == pytest.approx(1j * 0.1 * math.exp(-0.005), abs=1e-15)
        assert abs(value - 0.099501j) < 1e-6

    @given(
        n=st.integers(0, 20),
        nprime=st.integers(0, 20),
        eta=st.sampled_from([0.05, 0.1, 0.3, 0.8]),
    )
    @settings(max_examples=150, deadline=None)
    def test_magnitude_symmetric_exactly(self, n, nprime, eta):
        assert abs(ts.chi(n, nprime, eta)) == abs(ts.chi(nprime, n, eta))

    def test_diagonal_strictly_real(self):
        for n in range(12):
            assert ts.chi(n, n, 0.37).imag == 0.0

    def test_phase_is_quarter_turn_times_real(self):
        for n in range(8):
            for nprime in range(8):
                value = ts.chi(n, nprime, 0.3)
                d = abs(n - nprime)
                unwound = value / PHASES[d % 4]
                assert unwound.imag == pytest.approx(0.0, abs=1e-18)

    @pytest.mark.parametrize("eta", [0.3, 0.8, 1.0])
    @pytest.mark.parametrize("n", [0, 5, 20])
    def test_row_sum_monotone_to_unity(self, eta, n):
        partial = 0.0
        previous = -1.0
        for k in range(n + 51):
            partial += abs(ts.chi(n, k, eta)) ** 2
            assert partial >= previous
            previous = partial
        assert partial == pytest.approx(1.0, abs=1e-10)

    def test_rejects_negative_eta(self):
        with pytest.raises(ValueError):
            ts.chi(0, 1, -0.1)

    @pytest.mark.parametrize("n, nprime", [(3000, 6000), (6000, 3000), (9999, 20000), (100, 10**6)])
    def test_overflowing_laguerre_factor_raises(self, n, nprime):
        # L_lo^d(eta^2) overflows while eta^d sqrt(lo!/hi!) underflows, whose
        # product would be nan
        with pytest.raises(OverflowError, match=rf"chi_\{{{n},{nprime}\}} at eta = 0\.1 overflows"):
            ts.chi_magnitude(n, nprime, 0.1)
        with pytest.raises(OverflowError):
            ts.chi(n, nprime, 0.1)

    def test_overflowing_power_of_eta_is_named(self):
        # 7.0**400 raises Python's bare OverflowError before the product is formed
        with pytest.raises(OverflowError, match=r"^eta\*\*400 at eta = 7\.0 overflows$"):
            ts.chi_magnitude(0, 400, 7.0)


class TestRabiCoupling:
    def test_zero_field(self):
        params = ts.TrapParams(rabi=0.0, eta=0.3)
        for n in range(4):
            for nprime in range(4):
                assert ts.rabi_coupling(n, nprime, params) == 0.0

    def test_carrier_at_eta_zero(self):
        params = ts.TrapParams(rabi=0.01, eta=0.0)
        assert ts.rabi_coupling(0, 0, params) == pytest.approx(0.01, abs=1e-18)

    def test_first_sideband(self):
        params = ts.TrapParams(rabi=0.01, eta=0.1)
        expected = 0.01 * 0.1 * math.exp(-0.005)
        assert ts.rabi_coupling(0, 1, params) == pytest.approx(1j * expected, abs=1e-18)
        assert abs(ts.rabi_coupling(0, 1, params) - 9.9501e-4j) < 1e-8


class TestCouplingTable:
    def test_identity_at_eta_zero(self):
        table = ts.coupling_table(0.0, 5)
        assert np.array_equal(table, np.eye(6, dtype=complex))

    def test_two_level_entries(self):
        table = ts.coupling_table(0.1, 1)
        assert table[0, 0] == pytest.approx(0.99501, abs=1e-5)
        assert table[0, 1] == pytest.approx(0.099501j, abs=1e-6)
        assert table[1, 0] == pytest.approx(0.099501j, abs=1e-6)
        # (1,1): exp(-0.005) * L_1^0(0.01) = exp(-0.005) * 0.99
        assert table[1, 1] == pytest.approx(0.98506, abs=1e-5)
        assert table[1, 1] == pytest.approx(math.exp(-0.005) * 0.99, abs=1e-15)

    def test_row_norm_converged(self):
        table = ts.coupling_table(0.3, 40)
        assert abs(np.sum(np.abs(table[0]) ** 2) - 1.0) < 1e-12

    def test_matches_scalar_chi(self):
        table = ts.coupling_table(0.45, 12)
        for n in range(13):
            for nprime in range(13):
                assert table[n, nprime] == pytest.approx(
                    ts.chi(n, nprime, 0.45), rel=1e-13, abs=1e-16
                )

    @pytest.mark.parametrize("eta", [0.0, 0.083, 0.4, 1.2, 2.0])
    def test_equals_scalar_chi_bit_for_bit(self, eta):
        # the table is the closed form itself, not a second evaluation of it
        table = ts.coupling_table(eta, 40)
        for n in range(41):
            for nprime in range(41):
                assert table[n, nprime] == ts.chi(n, nprime, eta), (n, nprime)

    def test_magnitude_symmetry(self):
        entries = ts.coupling_table(0.6, 25)
        mags = np.abs(entries)
        assert np.array_equal(mags, mags.T)

    def test_table_stays_finite_at_large_quantum_numbers(self):
        entries = ts.coupling_table(0.8, 200)
        assert np.all(np.isfinite(entries))
        assert np.abs(entries).max() <= 1.0 + 1e-12

    def test_overflowing_laguerre_factor_raises(self):
        # 37 036 entries of this table would be nan; the first one built, by
        # distance and then by row, is named as chi_magnitude names it
        with pytest.raises(OverflowError, match=r"chi_\{724,1100\} at eta = 0\.1 overflows") as raised:
            ts.coupling_table(0.1, 1100)
        with pytest.raises(OverflowError, match=f"^{re.escape(str(raised.value))}$"):
            ts.chi_magnitude(724, 1100, 0.1)
        with pytest.raises(OverflowError):
            ts.chi_magnitude(378, 1099, 0.1)

    def test_overflowing_power_of_eta_is_named(self):
        # 7.0**365 is the first power past double precision
        with pytest.raises(OverflowError, match=r"^eta\*\*365 at eta = 7\.0 overflows$"):
            ts.coupling_table(7.0, 400)


class TestDisplacementOracle:
    def test_identity_at_eta_zero(self):
        oracle = ts.displacement_oracle(0.0, 5)
        assert np.abs(oracle - np.eye(6)).max() < 1e-14

    def test_single_quantum_element(self):
        oracle = ts.displacement_oracle(0.1, 5)
        assert abs(oracle[0, 1] - ts.chi(0, 1, 0.1)) < 1e-10

    def test_matches_closed_form_mid_eta(self):
        table = ts.coupling_table(0.4, 10)
        oracle = ts.displacement_oracle(0.4, 10)
        assert np.abs(table - oracle).max() < 1e-8

    @pytest.mark.parametrize("eta", [0.05, 0.1, 0.3, 0.8])
    def test_oracle_equivalence_battery(self, eta):
        table = ts.coupling_table(eta, 20)
        oracle = ts.displacement_oracle(eta, 20)
        assert np.abs(table - oracle).max() <= 1e-8

    def test_unitarity_of_oracle(self):
        entries = ts.displacement_oracle(0.5, 8)
        # cropped rows of a unitary: row norms slightly under 1
        norms = np.sum(np.abs(entries) ** 2, axis=1)
        assert np.all(norms <= 1.0 + 1e-12)
