"""Closed-form shift pipeline: level-shift elements, their tail bound and the three formulas."""

import dataclasses
import math
import re
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
# (n_g, n_e, eta, delta_omega_full, tail_bound) at rabi 0.01: each sum bounds its
# own tail where it stops, bit for bit, from the first blue sideband to the top level
FROZEN_TAILS = [
    (0, 1, 0.1, -4.925497922902111e-05, 1.8452244185430135e-22),
    (0, 800, 1.0, -6.257832092515164e-08, 3.490019863074288e-24),
    (9998, 9999, 0.083, -2.94477646799413e-08, 1.2852501065149104e-21),
]

DIFFERENTIAL_ETAS = [0.0, 1e-3, 0.083, 0.4, 1.2, 2.5, 4.0]


def majorant(center, eta, d):
    """((eta * sqrt(center + d))^d / d!)^2, which bounds |chi_{center,k}|^2 at distance d."""
    log_root = d * math.log(eta * math.sqrt(center + d)) if eta else -math.inf
    return math.exp(2.0 * (log_root - math.lgamma(d + 1.0)))


def reference_sum(center, exclude, eta):
    """The sum of ``resolvent._sum_terms`` with one validated chi_magnitude
    call per term.

    Returns (sum, largest retained k, distance reached): the sum runs over
    every k >= 0 until the majorant of the terms left bounds the rest.
    """
    terms, running, k_used, d = [], 0.0, 0, 0
    while True:
        for k in (center - d, center + d) if d else (center,):
            if k >= 0 and k != exclude:
                m = ts.chi_magnitude(center, k, eta)
                terms.append(m * m / (exclude - k))
                running += abs(terms[-1])
                k_used = max(k_used, k)
        d += 1
        if majorant(center, eta, d) <= resolvent.TERM_CUTOFF * running:
            return math.fsum(terms), k_used, d


def reference_terms(center, exclude, eta):
    """``resolvent._sum_terms`` for one pair: (sum, largest retained k, tail),
    the tail the geometric bound 2 M(d) / (1 - M(d+1)/M(d)) on both sides
    past the stop d of ``reference_sum``, M the ``majorant`` (0 when M(d) is 0)."""
    total, k_used, d = reference_sum(center, exclude, eta)
    m_d = majorant(center, eta, d)
    tail = 2.0 * m_d / (1.0 - majorant(center, eta, d + 1) / m_d) if m_d else 0.0
    return total, k_used, tail


def one_sum(center, exclude, eta):
    """``resolvent._sum_terms`` over the one pair (center, exclude)."""
    [result] = resolvent._sum_terms([(center, exclude)], eta)
    return result


def reference_majorant_tail(center, exclude, eta):
    """The 60-term majorant sum past the stop of ``reference_sum``, both sides."""
    d = reference_sum(center, exclude, eta)[2]
    if eta == 0.0:
        return 0.0
    return 2.0 * math.fsum(majorant(center, eta, j) for j in range(d, d + 60))


class TestLevelShiftDiag:
    """The diagonal level shifts r_gg, r_ee that bs_shift reports."""

    def test_eta_zero_stark_pair(self):
        params = ts.TrapParams(rabi=0.01, eta=0.0)
        el = ts.bs_shift(SB01, params)
        # opposite Stark shifts of magnitude rabi^2 / (4 delta0)
        assert el.r_gg == pytest.approx(0.01**2 / 4.0, rel=1e-15)
        assert el.r_ee == pytest.approx(-(0.01**2) / 4.0, rel=1e-15)

    def test_zero_field(self):
        params = ts.TrapParams(rabi=0.0, eta=0.2)
        el = ts.bs_shift(SB01, params)
        assert el.r_gg == 0.0 and el.r_ee == 0.0
        assert 0.5 * abs(ts.rabi_coupling(0, 1, params)) == 0.0

    def test_difference_matches_brute_force_sum(self):
        el = ts.bs_shift(SB01, P01)
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
        e0, delta0 = 0.5 * (n_g + n_e), float(n_e - n_g)
        at_crossing = params.with_delta(delta0)
        ks = range(max(n_g, n_e) + 61)

        def brute(center, exclude, state):
            return math.fsum(
                (0.005 * abs(ts.chi(center, k, eta))) ** 2
                / (e0 - ts.bare_energy(state, k, at_crossing))
                for k in ks
                if k != exclude
            )

        el = ts.bs_shift(sideband, params)
        assert el.r_gg == pytest.approx(brute(n_g, n_e, "e"), rel=1e-13)
        assert el.r_ee == pytest.approx(brute(n_e, n_g, "g"), rel=1e-13)

    def test_carrier_is_valid_input(self):
        el = ts.bs_shift(ts.SidebandId(2, 2), P01)
        assert el.r_gg == el.r_ee  # same sums by symmetry

    def test_coupling_element(self):
        assert 0.5 * abs(ts.rabi_coupling(0, 1, P01)) == pytest.approx(0.5 * 0.01 * 0.1 * math.exp(-0.005), rel=1e-15)

    def test_tail_bound_small_when_converged(self):
        el = ts.bs_shift(SB01, P01)
        assert el.tail_bound <= 1e-3 * max(abs(el.r_gg), abs(el.r_ee))

    @pytest.mark.parametrize("eta", [0.01, 0.4, 1.2, 2.5])
    def test_tail_bound_covers_the_omitted_terms(self, eta):
        # every term each sum left out, 200 levels past its stop on both sides
        def omitted(center, exclude):
            d = reference_sum(center, exclude, eta)[2]
            return math.fsum(
                ts.chi_magnitude(center, k, eta) ** 2 / abs(exclude - k)
                for j in range(d, d + 200)
                for k in (center - j, center + j)
                if k >= 0 and k != exclude
            )

        params = ts.TrapParams(rabi=0.01, eta=eta)
        for n_g in range(11):
            for n_e in {0, n_g, n_g + 1}:
                el = ts.bs_shift(ts.SidebandId(n_g, n_e), params)
                brute = (0.5 * 0.01) ** 2 * (omitted(n_g, n_e) + omitted(n_e, n_g))
                assert brute <= el.tail_bound, (n_g, n_e)

    @pytest.mark.parametrize("eta", [0.0, 0.01, 0.083, 0.4, 1.2, 2.5, 4.0])
    def test_tail_bound_is_the_majorant_tail_within_two_per_mille(self, eta):
        # the geometric tail is never below the 60-term majorant sum it
        # replaced, and at most 0.2% above it
        params = ts.TrapParams(rabi=0.01, eta=eta)
        for n_g in range(11):
            for n_e in {0, n_g, n_g + 1, n_g + 3}:
                el = ts.bs_shift(ts.SidebandId(n_g, n_e), params)
                ref = (0.5 * 0.01) ** 2 * (
                    reference_majorant_tail(n_g, n_e, eta) + reference_majorant_tail(n_e, n_g, eta)
                )
                assert ref <= el.tail_bound <= 1.002 * ref, (n_g, n_e)

    @pytest.mark.parametrize("pair", [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4), (0, 7)])
    @pytest.mark.parametrize("eta", [0.0, 0.05, 0.5, 1.2])
    def test_swap_exchanges_the_level_shifts_exactly(self, pair, eta):
        a, b = pair
        params = ts.TrapParams(rabi=0.01, eta=eta)
        fwd = ts.bs_shift(ts.SidebandId(a, b), params)
        rev = ts.bs_shift(ts.SidebandId(b, a), params)
        assert (rev.r_gg, rev.r_ee) == (fwd.r_ee, fwd.r_gg)
        assert (rev.k_max_used, rev.tail_bound) == (fwd.k_max_used, fwd.tail_bound)
        carrier = ts.bs_shift(ts.SidebandId(a, a), params)
        assert carrier.r_gg == carrier.r_ee



class TestBsShift:
    @pytest.mark.parametrize("n_g, n_e, eta, frozen", FROZEN)
    def test_matches_level_shift_difference(self, n_g, n_e, eta, frozen):
        sideband, params = ts.SidebandId(n_g, n_e), ts.TrapParams(rabi=0.01, eta=eta)
        el = ts.bs_shift(sideband, params)
        scale = abs(el.r_gg) + abs(el.r_ee)
        assert abs(el.delta_omega_full - (el.r_ee - el.r_gg)) <= 1e-14 * scale

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

    @pytest.mark.parametrize("n_g, n_e, eta, frozen, tail", FROZEN_TAILS)
    def test_frozen_tail_bound_bitwise(self, n_g, n_e, eta, frozen, tail):
        result = ts.bs_shift(ts.SidebandId(n_g, n_e), ts.TrapParams(rabi=0.01, eta=eta))
        assert (result.delta_omega_full, result.tail_bound) == (frozen, tail)
        assert result.tail_bound <= 1e-12 * abs(result.r_gg)

    def test_batch_is_each_shift_bit_for_bit(self):
        # any order and any iterable: one pass over all the sums gives each shift
        sidebands = [ts.SidebandId(n_g, n_e) for n_g in (0, 7, 3) for n_e in (5, 0, 3)]
        assert ts.bs_shifts(iter(sidebands), P01) == [ts.bs_shift(sb, P01) for sb in sidebands]
        assert ts.bs_shifts([], P01) == []

    @pytest.mark.parametrize("eta", DIFFERENTIAL_ETAS)
    def test_sums_match_per_term_chi(self, eta, monkeypatch):
        # every (sum, largest k, tail) equals the per-term reference bit for
        # bit, run alone and in one batch of the whole grid, whose chunks of
        # 100 sums each mix every center
        pairs = [(center, exclude) for exclude in range(31) for center in range(31)]
        monkeypatch.setattr(resolvent, "SUM_CHUNK", 100)
        batch = list(resolvent._sum_terms(pairs, eta))
        assert len(batch) == len(pairs)
        for (center, exclude), in_batch in zip(pairs, batch):
            expected = reference_terms(center, exclude, eta)
            assert one_sum(center, exclude, eta) == expected, (center, exclude)
            assert in_batch == expected, (center, exclude)

    # Far sidebands of high levels: the sum around the high level ends on its
    # majorant long before the excluded level, whose Laguerre columns would
    # leave double precision (at distance 352 around n = 800, eta 1).
    @pytest.mark.parametrize("n_g, n_e, eta, shift", [
        (0, 800, 1.0, -6.257832092515164e-08),
        (800, 0, 1.0, 6.257832092515164e-08),
        (0, 600, 1.5, -8.364753724901895e-08),
    ])
    def test_far_sidebands_of_high_levels_are_finite(self, n_g, n_e, eta, shift):
        sideband, params = ts.SidebandId(n_g, n_e), ts.TrapParams(rabi=0.01, eta=eta)
        ref_ee, ref_gg = reference_terms(n_e, n_g, eta), reference_terms(n_g, n_e, eta)
        assert one_sum(n_e, n_g, eta) == ref_ee
        assert one_sum(n_g, n_e, eta) == ref_gg
        result = ts.bs_shift(sideband, params)
        assert result.tail_bound == (0.5 * 0.01) ** 2 * (ref_gg[2] + ref_ee[2])
        got = result.delta_omega_full
        assert got == 0.01**2 / 4.0 * (ref_ee[0] - ref_gg[0])
        assert got == pytest.approx(shift, rel=1e-9)
        # within 1% of the off-resonant carrier's Stark shift -rabi^2 / (2 delta0)
        assert got == pytest.approx(ts.eta_zero_shift(sideband, params), rel=1e-2)

    @pytest.mark.parametrize("n_g, n_e, eta, frozen", FROZEN)
    def test_bs_shift_and_level_shift_diag_retain_the_same_k(self, n_g, n_e, eta, frozen):
        sideband, params = ts.SidebandId(n_g, n_e), ts.TrapParams(rabi=0.01, eta=eta)
        s_gg, k_gg, _ = reference_sum(n_g, n_e, eta)
        s_ee, k_ee, _ = reference_sum(n_e, n_g, eta)
        el = ts.bs_shift(sideband, params)
        assert (el.r_gg, el.r_ee) == ((0.5 * 0.01) ** 2 * s_gg, (0.5 * 0.01) ** 2 * s_ee)
        assert el.k_max_used == max(k_gg, k_ee)
        # the shift is the difference of the same two sums, bit for bit
        assert el.delta_omega_full == 0.01**2 / 4.0 * (s_ee - s_gg)
        # the name level_shift_diag is bs_shift itself, not a second pass
        assert resolvent.level_shift_diag is resolvent.bs_shift

    def test_high_level_sum_runs_until_its_majorant_ends_it(self):
        # around n = 2000 at eta 1 both sides of each sum stay open for 142
        # levels, so the sums end on their majorant alone, at k = 2142
        sideband, params = ts.SidebandId(2000, 2001), ts.TrapParams(rabi=0.01, eta=1.0)
        s_gg, k_gg, _ = reference_sum(2000, 2001, 1.0)
        s_ee, k_ee, _ = reference_sum(2001, 2000, 1.0)
        result = ts.bs_shift(sideband, params)
        assert result.delta_omega_full == 0.01**2 / 4.0 * (s_ee - s_gg) == -3.959395401631242e-09
        assert result.k_max_used == max(k_gg, k_ee)

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

    def test_returns_its_five_sums_only(self):
        fields = dataclasses.fields(ts.PerturbativeShift)
        assert [f.name for f in fields] == [
            "delta_omega_full", "r_gg", "r_ee", "k_max_used", "tail_bound",
        ]
        assert all(f.default is dataclasses.MISSING and "None" not in str(f.type) for f in fields)

    def test_asks_for_no_comparison(self, monkeypatch):
        # the Lamb-Dicke terms, the literature formula and the splitting are
        # the command line's columns; bs_shift runs its two sums alone
        def unreachable(*args, **kwargs):
            raise AssertionError("bs_shift computed a comparison")

        sidebands = (SB10, SB01, ts.SidebandId(2, 2))
        expected = [ts.bs_shift(sideband, P01) for sideband in sidebands]
        for name in ("bs_shift_ld", "bs_shift_literature", "rabi_coupling"):
            monkeypatch.setattr(resolvent, name, unreachable)
        assert [ts.bs_shift(sideband, P01) for sideband in sidebands] == expected

    def test_far_pair_whose_coupling_overflows_is_finite(self):
        # chi_{3000,6000} at eta 0.1 leaves double precision, but neither sum
        # reaches the other level: the shift is the two sums, bit for bit
        sideband, params = ts.SidebandId(3000, 6000), ts.TrapParams(rabi=0.01, eta=0.1)
        s_ee = one_sum(6000, 3000, 0.1)[0]
        s_gg = one_sum(3000, 6000, 0.1)[0]
        result = ts.bs_shift(sideband, params)
        assert math.isfinite(result.delta_omega_full) and math.isfinite(result.tail_bound)
        assert result.delta_omega_full == 0.01**2 / 4.0 * (s_ee - s_gg)
        with pytest.raises(OverflowError):
            0.5 * abs(ts.rabi_coupling(3000, 6000, params))

    def test_overflowing_power_of_eta_is_named(self):
        # 7.0**365 leaves double precision before any term of that distance
        # is formed, in the one message of chi_magnitude and coupling_table
        message = r"^eta\*\*365 at eta = 7\.0 overflows$"
        with pytest.raises(OverflowError, match=message):
            one_sum(0, 1, 7.0)
        with pytest.raises(OverflowError, match=message):
            ts.bs_shift(ts.SidebandId(0, 1), ts.TrapParams(rabi=0.01, eta=7.0))
        with pytest.raises(OverflowError, match=message):
            ts.bs_shifts([SB10, ts.SidebandId(5, 5)], ts.TrapParams(rabi=0.01, eta=7.0))

    def test_unbounded_majorant_ends_in_the_named_power_of_eta(self):
        # at eta 1000 the majorant is infinite from distance 61 or 62, where
        # its exp overflowed with a bare "math range error"; it stops no
        # sum, which runs on to eta**103
        with pytest.raises(OverflowError, match=r"^eta\*\*103 at eta = 1000\.0 overflows$"):
            ts.bs_shifts([SB01, ts.SidebandId(3, 3)], ts.TrapParams(rabi=0.01, eta=1000.0))

    @pytest.mark.parametrize("rabi", [1e200, 1.5e154])
    @pytest.mark.filterwarnings("ignore::trapshift.PerturbativeRegimeWarning")
    def test_overflowing_drive_is_named(self, rabi):
        # rabi**2 overflows above 1.34e154 and (0.5 * rabi)**2 above 2.68e154;
        # both raised a bare "(34, 'Numerical result out of range')"
        message = rf"^rabi\*\*2 at rabi = {re.escape(repr(rabi))} overflows$"
        params = ts.TrapParams(rabi=rabi, eta=0.1)
        with pytest.raises(OverflowError, match=message):
            ts.bs_shift(SB01, params)
        with pytest.raises(OverflowError, match=message):
            ts.bs_shifts([SB01, ts.SidebandId(3, 3)], params)
        with pytest.raises(OverflowError, match=message):
            ts.bs_shift_ld(SB01, params)
        with pytest.raises(OverflowError, match=message):
            ts.bs_shift_literature(params)
        with pytest.raises(OverflowError, match=message):
            ts.eta_zero_shift(SB01, params)

    def test_overflowing_eta_square_is_named(self):
        # eta**2 of the Lamb-Dicke and literature shifts raised a bare OverflowError too
        params = ts.TrapParams(rabi=0.01, eta=1e200)
        with pytest.raises(OverflowError, match=r"^eta\*\*2 at eta = 1e\+200 overflows$"):
            ts.bs_shift_ld(SB01, params)
        with pytest.raises(OverflowError, match=r"^eta\*\*2 at eta = 1e\+200 overflows$"):
            ts.bs_shift_literature(params)

    def test_overflowing_term_names_its_pair(self):
        # around n = 3000 at eta 2 a Laguerre factor leaves double precision;
        # the sum names the element as chi_magnitude does
        with pytest.raises(OverflowError) as raised:
            one_sum(3000, 0, 2.0)
        found = re.fullmatch(r"the Laguerre factor of chi_\{3000,(\d+)\} at eta = 2\.0 overflows", str(raised.value))
        assert found, str(raised.value)
        with pytest.raises(OverflowError, match=f"^{re.escape(str(raised.value))}$"):
            ts.chi_magnitude(3000, int(found[1]), 2.0)


class TestRegimeWarning:
    """The closed-form sums, not TrapParams, judge the perturbative regime."""

    def test_warning_names_the_caller(self):
        # a strong carrier coupling, |R_ge| = 0.148, adds no second warning
        carrier = ts.SidebandId(1, 1)
        params = ts.TrapParams(rabi=0.3, eta=0.1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ts.bs_shift(carrier, params)
        assert [w.category for w in caught] == [ts.PerturbativeRegimeWarning]
        assert caught[0].filename == __file__

    def test_batch_warns_once_at_the_caller(self):
        sidebands = [ts.SidebandId(n_g, n_e) for n_g in range(4) for n_e in range(4)]
        params = ts.TrapParams(rabi=0.3, eta=0.1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ts.bs_shifts(sidebands, params)
        assert [w.category for w in caught] == [ts.PerturbativeRegimeWarning]
        assert caught[0].filename == __file__

    def test_limit_itself_does_not_warn(self):
        params = ts.TrapParams(rabi=resolvent.PERTURBATIVE_RATIO_LIMIT, eta=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ts.bs_shift(SB10, params)


class TestBsShiftLd:
    def test_first_red_formula(self):
        eta, rabi = 0.1, 0.01
        params = ts.TrapParams(rabi=rabi, eta=eta)
        carrier_term, sideband_term = ts.bs_shift_ld(SB10, params)
        expected_carrier = rabi**2 / 2.0 * (1.0 - 2.0 * eta**2)
        expected_side = eta**2 * rabi**2 / 4.0
        assert carrier_term == pytest.approx(expected_carrier, rel=1e-15)
        assert sideband_term == pytest.approx(expected_side, rel=1e-15)

    def test_first_blue_frozen(self):
        assert sum(ts.bs_shift_ld(SB01, P01)) == pytest.approx(-4.925e-5, rel=1e-12)
        assert ts.bs_shift_ld(SB01, P01) == (-4.9e-05, -2.5000000000000004e-07)

    def test_eta_zero_collapses(self):
        params = ts.TrapParams(rabi=0.01, eta=0.0)
        for pair in [(0, 1), (0, 2), (2, 1)]:
            sb = ts.SidebandId(*pair)
            expected = 0.01**2 / (2.0 * (sb.n_g - sb.n_e))
            assert sum(ts.bs_shift_ld(sb, params)) == pytest.approx(
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
                - sum(ts.bs_shift_ld(sb, params))
            )
        ratio = remainder(0.1) / remainder(0.05)
        assert 16.0 * 0.8 <= ratio <= 16.0 * 1.2


class TestLiteratureFormula:
    def test_agrees_with_ld_at_eta_zero(self):
        params = ts.TrapParams(rabi=0.01, eta=0.0)
        assert ts.bs_shift_literature(params) == sum(ts.bs_shift_ld(SB10, params))

    def test_frozen_value(self):
        assert ts.bs_shift_literature(P01) == pytest.approx(5.025e-5, rel=1e-12)
        assert ts.bs_shift_literature(P01) == 5.025e-05

    @pytest.mark.parametrize("eta", [0.0, 0.05, 0.1, 0.2, 0.3])
    def test_discrepancy_is_exactly_quadratic(self, eta):
        params = ts.TrapParams(rabi=0.01, eta=eta)
        diff = sum(ts.bs_shift_ld(SB10, params)) - ts.bs_shift_literature(params)
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
