"""Closed-form shift pipeline: level-shift elements and the three formulas."""

import math
import warnings

import pytest

import trapshift as ts
from trapshift import resolvent


P01 = ts.TrapParams(rabi=0.01, eta=0.1)
SB01 = ts.SidebandId(0, 1)
SB10 = ts.SidebandId(1, 0)

# (n_g, n_e, eta, delta_omega_full) at rabi 0.01
FROZEN = [
    (0, 1, 0.1, -4.925497922902111e-05),
    (1, 0, 0.3, 4.364021409670116e-05),
    (2, 4, 0.3, -2.800179264269982e-05),
    (4, 2, 0.7, 1.5565034063838885e-05),
    (3, 0, 0.5, 1.8971438346303213e-05),
    (0, 3, 1.2, -1.9356302896237222e-05),
    (5, 6, 1.2, 4.95526397867557e-07),
    (7, 5, 0.9, -2.6989634713310985e-06),
    (10, 7, 1.1, 7.566701599847419e-07),
    (1, 2, 0.05, -4.9626091961587e-05),
    (6, 9, 0.45, -2.1379879458715386e-05),
    (9, 10, 0.83, -6.496756083550033e-07),
]


class TestLevelShiftDiag:
    def test_eta_zero_stark_pair(self):
        params = ts.TrapParams(rabi=0.01, eta=0.0)
        el = ts.level_shift_diag(SB01, params)
        # opposite Stark shifts of magnitude rabi^2 / (4 delta0)
        assert el.r_gg == pytest.approx(0.01**2 / 4.0, rel=1e-15)
        assert el.r_ee == pytest.approx(-(0.01**2) / 4.0, rel=1e-15)

    def test_zero_field(self):
        params = ts.TrapParams(rabi=0.0, eta=0.2)
        el = ts.level_shift_diag(SB01, params)
        assert el.r_gg == 0.0 and el.r_ee == 0.0 and el.r_ge_abs == 0.0

    def test_difference_matches_brute_force_sum(self):
        el = ts.level_shift_diag(SB01, P01, k_max=30)
        brute_gg = math.fsum(
            (0.005 * abs(ts.chi(0, k, 0.1))) ** 2 / (1.0 - k) for k in range(31) if k != 1
        )
        brute_ee = math.fsum(
            (0.005 * abs(ts.chi(1, k, 0.1))) ** 2 / (0.0 - k) for k in range(31) if k != 0
        )
        assert el.r_gg == pytest.approx(brute_gg, rel=1e-13)
        assert el.r_ee == pytest.approx(brute_ee, rel=1e-13)
        assert el.r_ee - el.r_gg == pytest.approx(-4.93e-5, abs=5e-8)

    @pytest.mark.parametrize("n_g, n_e, eta, frozen", FROZEN)
    def test_matches_bare_energy_denominators(self, n_g, n_e, eta, frozen):
        # the closed form writes E0 - E_{e,k} and E0 - E_{g,k} as n_e - k and
        # n_g - k; here they are the literal bare energies at the crossing
        sideband, params = ts.SidebandId(n_g, n_e), ts.TrapParams(rabi=0.01, eta=eta)
        e0, delta0 = ts.crossing_point(sideband, params)
        at_crossing = params.with_delta(delta0)
        ks = range(max(n_g, n_e) + resolvent.DEFAULT_K_MARGIN + 1)

        def brute(center, exclude, state):
            return math.fsum(
                (0.005 * abs(ts.chi(center, k, eta))) ** 2
                / (e0 - ts.bare_energy(state, k, at_crossing))
                for k in ks
                if k != exclude
            )

        el = ts.level_shift_diag(sideband, params)
        assert el.r_gg == pytest.approx(brute(n_g, n_e, "e"), rel=1e-13)
        assert el.r_ee == pytest.approx(brute(n_e, n_g, "g"), rel=1e-13)

    def test_carrier_is_valid_input(self):
        el = ts.level_shift_diag(ts.SidebandId(2, 2), P01)
        assert el.r_gg == el.r_ee  # same sums by symmetry

    def test_coupling_element(self):
        el = ts.level_shift_diag(SB01, P01)
        assert el.r_ge_abs == pytest.approx(0.5 * 0.01 * 0.1 * math.exp(-0.005), rel=1e-15)

    def test_tail_bound_small_when_converged(self):
        el = ts.level_shift_diag(SB01, P01)
        assert el.tail_bound <= 1e-3 * max(abs(el.r_gg), abs(el.r_ee))

    def test_k_max_validation(self):
        with pytest.raises(ValueError):
            ts.level_shift_diag(ts.SidebandId(0, 4), P01, k_max=3)


class TestBsShift:
    @pytest.mark.parametrize("n_g, n_e, eta, frozen", FROZEN)
    def test_matches_level_shift_difference(self, n_g, n_e, eta, frozen):
        sideband, params = ts.SidebandId(n_g, n_e), ts.TrapParams(rabi=0.01, eta=eta)
        el = ts.level_shift_diag(sideband, params)
        shift = ts.bs_shift(sideband, params).delta_omega_full
        scale = abs(el.r_gg) + abs(el.r_ee)
        assert abs(shift - (el.r_ee - el.r_gg)) <= 1e-14 * scale

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize("eta", [0.0, 0.1, 0.3, 0.5])
    def test_carrier_null_exact(self, n, eta):
        params = ts.TrapParams(rabi=0.01, eta=eta)
        assert ts.bs_shift(ts.SidebandId(n, n), params).delta_omega_full == 0.0

    @pytest.mark.parametrize("pair", [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)])
    @pytest.mark.parametrize("eta", [0.05, 0.25, 0.5])
    def test_swap_antisymmetry_exact(self, pair, eta):
        a, b = pair
        params = ts.TrapParams(rabi=0.01, eta=eta)
        fwd = ts.bs_shift(ts.SidebandId(a, b), params).delta_omega_full
        rev = ts.bs_shift(ts.SidebandId(b, a), params).delta_omega_full
        assert fwd + rev == 0.0

    # delta_omega_full recorded before the closed-form sums were first
    # restructured; no restructuring of them may move a single bit.
    @pytest.mark.parametrize("n_g, n_e, eta, frozen", FROZEN)
    def test_frozen_bitwise(self, n_g, n_e, eta, frozen):
        params = ts.TrapParams(rabi=0.01, eta=eta)
        assert ts.bs_shift(ts.SidebandId(n_g, n_e), params).delta_omega_full == frozen

    def test_one_chi_evaluation_per_retained_term(self, monkeypatch):
        calls = []
        chi_magnitude = resolvent.chi_magnitude

        def counting(n, k, eta):
            calls.append((n, k))
            return chi_magnitude(n, k, eta)

        monkeypatch.setattr(resolvent, "chi_magnitude", counting)
        sideband, params = ts.SidebandId(2, 4), ts.TrapParams(rabi=0.01, eta=0.3)
        ts.level_shift_diag(sideband, params)
        retained = sorted(calls)  # every retained term of both sides, plus chi_{n_g,n_e}
        calls.clear()
        ts.bs_shift(sideband, params)
        assert len(calls) == len(set(calls))
        assert sorted(calls) == retained

    def test_frozen_first_blue(self):
        shift = ts.bs_shift(SB01, P01).delta_omega_full
        assert shift == pytest.approx(-4.925497922902111e-05, rel=1e-12)

    def test_quadratic_field_scaling_exact_ratio(self):
        weak = ts.TrapParams(rabi=1e-3, eta=0.2)
        strong = ts.TrapParams(rabi=2e-3, eta=0.2)
        ratio = (
            ts.bs_shift(SB01, strong).delta_omega_full
            / ts.bs_shift(SB01, weak).delta_omega_full
        )
        assert abs(ratio - 4.0) <= 1e-12 * 4.0

    def test_calibration_magnitude(self):
        omega_t = 2 * math.pi * 1.36e6
        rabi = 2 * math.pi * 53e3
        params = ts.TrapParams(rabi=rabi / omega_t, eta=0.083)
        shift = ts.bs_shift(SB01, params).delta_omega_full
        hz = abs(shift) * 1.36e6  # |shift|/omega_t times nu_t
        assert 900.0 <= hz <= 1100.0
        assert 5e-4 <= abs(shift) <= 2e-3

    def test_isolation_flag(self):
        # carrier coupling rabi * chi_11 / 2 = 0.246 exceeds the 0.1 threshold
        params = ts.TrapParams(rabi=0.5, eta=0.1)
        with pytest.warns(ts.PerturbativeRegimeWarning):
            result = ts.bs_shift(ts.SidebandId(1, 1), params)
        assert not result.well_isolated
        assert ts.bs_shift(SB10, P01).well_isolated

    def test_isolation_uses_the_splitting_magnitude(self):
        # chi_11 is negative at eta = 1.2, and |R_ge| = 0.107 exceeds 0.1
        params = ts.TrapParams(rabi=1.0, eta=1.2)
        carrier = ts.SidebandId(1, 1)
        assert ts.splitting_half(carrier, params) == pytest.approx(0.10709, abs=1e-5)
        with pytest.warns(ts.PerturbativeRegimeWarning):
            elements = ts.level_shift_diag(carrier, params)
        assert elements.r_ge_abs == ts.splitting_half(carrier, params)
        with pytest.warns(ts.PerturbativeRegimeWarning):
            result = ts.bs_shift(carrier, params)
        assert not result.well_isolated

    def test_embeds_ld_and_literature(self):
        full = ts.bs_shift(SB10, P01)
        assert full.delta_omega_ld == ts.bs_shift_ld(SB10, P01).delta_omega_ld
        assert full.delta_omega_lit == ts.bs_shift_literature(P01)
        blue = ts.bs_shift(SB01, P01)
        assert blue.delta_omega_lit is None


class TestRegimeWarning:
    """The closed-form sums, not TrapParams, judge the perturbative regime."""

    def test_warning_names_the_caller(self):
        # |R_ge| = 0.148 exceeds ISOLATION_RATIO; that adds no second warning
        carrier = ts.SidebandId(1, 1)
        params = ts.TrapParams(rabi=0.3, eta=0.1)
        for closed_form in (ts.bs_shift, ts.level_shift_diag):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                closed_form(carrier, params)
            assert [w.category for w in caught] == [ts.PerturbativeRegimeWarning], closed_form
            assert caught[0].filename == __file__

    def test_limit_itself_does_not_warn(self):
        params = ts.TrapParams(rabi=resolvent.PERTURBATIVE_RATIO_LIMIT, eta=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ts.bs_shift(SB10, params)
            ts.level_shift_diag(SB10, params)


class TestBsShiftLd:
    def test_first_red_formula(self):
        eta, rabi = 0.1, 0.01
        params = ts.TrapParams(rabi=rabi, eta=eta)
        result = ts.bs_shift_ld(SB10, params)
        expected_carrier = rabi**2 / 2.0 * (1.0 - 2.0 * eta**2)
        expected_side = eta**2 * rabi**2 / 4.0
        assert result.carrier_term == pytest.approx(expected_carrier, rel=1e-15)
        assert result.sideband_term == pytest.approx(expected_side, rel=1e-15)
        assert result.delta_omega_ld == result.carrier_term + result.sideband_term

    def test_first_blue_frozen(self):
        result = ts.bs_shift_ld(SB01, P01)
        assert result.delta_omega_ld == pytest.approx(-4.925e-5, rel=1e-12)

    def test_eta_zero_collapses(self):
        params = ts.TrapParams(rabi=0.01, eta=0.0)
        for pair in [(0, 1), (0, 2), (2, 1)]:
            sb = ts.SidebandId(*pair)
            expected = 0.01**2 / (2.0 * (sb.n_g - sb.n_e))
            assert ts.bs_shift_ld(sb, params).delta_omega_ld == pytest.approx(
                expected, rel=1e-15
            )

    def test_carrier_rejected(self):
        with pytest.raises(ValueError):
            ts.bs_shift_ld(ts.SidebandId(2, 2), P01)

    @pytest.mark.parametrize("pair", [(0, 1), (1, 0)])
    def test_remainder_is_quartic(self, pair):
        # halving eta must shrink |full - LD| by 16x (up to higher orders)
        sb = ts.SidebandId(*pair)
        def remainder(eta):
            params = ts.TrapParams(rabi=0.01, eta=eta)
            return abs(
                ts.bs_shift(sb, params).delta_omega_full
                - ts.bs_shift_ld(sb, params).delta_omega_ld
            )
        ratio = remainder(0.1) / remainder(0.05)
        assert 16.0 * 0.8 <= ratio <= 16.0 * 1.2


class TestLiteratureFormula:
    def test_agrees_with_ld_at_eta_zero(self):
        params = ts.TrapParams(rabi=0.01, eta=0.0)
        assert ts.bs_shift_literature(params) == ts.bs_shift_ld(SB10, params).delta_omega_ld

    def test_frozen_value(self):
        assert ts.bs_shift_literature(P01) == pytest.approx(5.025e-5, rel=1e-12)

    @pytest.mark.parametrize("eta", [0.0, 0.05, 0.1, 0.2, 0.3])
    def test_discrepancy_is_exactly_quadratic(self, eta):
        params = ts.TrapParams(rabi=0.01, eta=eta)
        diff = ts.bs_shift_ld(SB10, params).delta_omega_ld - ts.bs_shift_literature(params)
        target = -(eta**2) * 0.01**2
        assert abs(diff - target) <= 1e-12 * max(abs(target), 1e-30)


class TestEtaZeroShift:
    def test_first_blue(self):
        params = ts.TrapParams(rabi=0.01, eta=0.0)
        assert ts.eta_zero_shift(SB01, params) == pytest.approx(-5e-5, rel=1e-15)

    def test_first_red_sign_flip(self):
        params = ts.TrapParams(rabi=0.01, eta=0.0)
        assert ts.eta_zero_shift(SB10, params) == pytest.approx(5e-5, rel=1e-15)

    def test_agrees_with_full_sum_at_eta_zero(self):
        params = ts.TrapParams(rabi=0.01, eta=0.0)
        for pair in [(0, 1), (1, 0), (0, 2), (3, 1)]:
            sb = ts.SidebandId(*pair)
            full = ts.bs_shift(sb, params).delta_omega_full
            closed = ts.eta_zero_shift(sb, params)
            assert abs(full - closed) <= 1e-15 * abs(closed)

    def test_carrier_rejected(self):
        with pytest.raises(ValueError):
            ts.eta_zero_shift(ts.SidebandId(1, 1), P01)
