"""Exact diagonalization pipeline: eigensolves, tracking, resonance location."""

import functools
import json
import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trapshift as ts
from trapshift import cli, hamiltonian, resolvent, spectrum
from trapshift.hamiltonian import _real_displacement, coupling_block, displacement_column, real_pencil
from trapshift.spectrum import _DetuningScan, _locate


P01 = ts.TrapParams(rabi=0.01, eta=0.1)
SB01 = ts.SidebandId(0, 1)


def ion_scan(params: ts.TrapParams, n_max: int, sideband: ts.SidebandId | None = None) -> _DetuningScan:
    """The scan of the ion's pencil on 0..n_max, as find_resonance and sweep_spectrum build it."""
    return _DetuningScan(*real_pencil(coupling_block(params, n_max)), sideband)


def all_tags(n_max: int) -> list[tuple[str, int]]:
    """Every branch tag of the basis 0..n_max, ground sector first."""
    return [(state, n) for state in ("g", "e") for n in range(n_max + 1)]


def solve(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh of h, with each eigenpair's residual checked against 1e-10 ||H||."""
    values, vectors = np.linalg.eigh(h)
    residual = np.linalg.norm(h @ vectors - vectors * values[None, :], axis=0).max()
    assert residual <= 1e-10 * max(np.abs(values).max(), 1e-300)
    return values, vectors


class TestEigenlevels:
    def test_zero_field_sorted_bare(self):
        params = ts.TrapParams(rabi=0.0, eta=0.2, delta=0.3)
        values, _ = solve(ts.build_hamiltonian(params, 6).matrix)
        bare = sorted(
            [ts.bare_energy("g", n, params) for n in range(7)]
            + [ts.bare_energy("e", n, params) for n in range(7)]
        )
        assert np.abs(values - np.array(bare)).max() < 1e-14

    def test_two_level_splitting(self):
        # restriction to {|g,0>, |e,1>} at the crossing detuning
        h = ts.build_hamiltonian(ts.TrapParams(rabi=0.01, eta=0.1, delta=1.0), 3).matrix
        pair = [0, 4 + 1]  # |g,0> and |e,1> at n_max 3
        values, _ = solve(h[np.ix_(pair, pair)])
        assert values[1] - values[0] == pytest.approx(9.9501e-4, abs=1e-8)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            rabi, eta, delta = rng.uniform(0.0, 0.5), rng.uniform(0.0, 1.5), rng.uniform(-2.0, 2.0)
            h = ts.build_hamiltonian(ts.TrapParams(rabi=rabi, eta=eta, delta=delta), 10).matrix
            values, vectors = solve(h)
            rebuilt = (vectors * values[None, :]) @ vectors.T
            assert np.linalg.norm(rebuilt - h) <= 1e-10 * np.linalg.norm(h)

    def test_hamiltonian_matrix_path_diagonalizes_original(self):
        params = ts.TrapParams(rabi=0.2, eta=0.4, delta=0.6)
        values, vectors = solve(ts.build_hamiltonian(params, 8).matrix)
        assert np.all(np.diff(values) >= 0)
        assert np.allclose(vectors.T @ vectors, np.eye(18), rtol=0, atol=1e-12)


class TestTrackBranch:
    def test_zero_field_bare_line(self):
        params = ts.TrapParams(rabi=0.0, eta=0.1)
        grid = np.linspace(0.8, 1.2, 21)
        branch = ts.track_branch(params, grid, ("g", 0), n_max=6)
        assert np.abs(branch.branches[("g", 0)] - grid / 2.0).max() == 0.0
        assert np.all(branch.overlaps[("g", 0)] == 1.0)

    def test_single_extremum_in_anticrossing_window(self):
        params = ts.TrapParams(rabi=0.3, eta=0.1)
        grid = np.linspace(0.8, 1.2, 81)
        branch = ts.track_branch(params, grid, ("g", 0), n_max=12)
        energy = branch.branches[("g", 0)]
        interior = int(np.argmax(energy))
        assert 0 < interior < len(grid) - 1
        # one extremum only: derivative changes sign exactly once
        sign_changes = np.sum(np.diff(np.sign(np.diff(energy))) != 0)
        assert sign_changes == 1

    def test_eta_zero_branches_cross(self):
        params = ts.TrapParams(rabi=0.3, eta=0.0)
        grid = np.linspace(0.8, 1.2, 81)
        swept = ts.sweep_spectrum(params, grid, n_max=8, tags=[("g", 0), ("e", 1)])
        diff = swept.branches[("g", 0)] - swept.branches[("e", 1)]
        assert np.any(np.sign(diff[:-1]) != np.sign(diff[1:]))

    def test_rejects_bad_tag(self):
        with pytest.raises(ValueError):
            ts.track_branch(P01, np.linspace(0, 1, 5), ("x", 0), n_max=4)


class TestSweepSpectrum:
    def test_branch_union_is_permutation_of_raw_eigenvalues(self):
        params = ts.TrapParams(rabi=0.15, eta=0.3)
        grid = np.linspace(-1.5, 1.5, 31)
        n_max = 5
        swept = ts.sweep_spectrum(params, grid, n_max, tags=all_tags(n_max))
        scan = ion_scan(params, n_max)
        stacked = np.stack([swept.branches[t] for t in swept.branches], axis=1)
        for j, delta in enumerate(grid):
            raw, _ = scan.eigen(float(delta))
            assert np.allclose(np.sort(stacked[j]), raw, rtol=0, atol=1e-12)

    def test_overlap_high_away_from_crossings(self):
        params = ts.TrapParams(rabi=0.02, eta=0.1)
        grid = np.linspace(0.4, 0.6, 11)  # no resonance inside
        swept = ts.sweep_spectrum(params, grid, 6, tags=[("g", 0), ("e", 0)])
        assert np.all(swept.overlaps[("g", 0)] > 0.5)
        assert np.all(swept.overlaps[("e", 0)] > 0.5)

    def test_unknown_tag_rejected_before_the_hamiltonian_is_built(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the coupling block was built before the tags were checked")

        monkeypatch.setattr(spectrum, "coupling_block", unreachable)
        params = ts.TrapParams(rabi=0.01, eta=0.1)
        with pytest.raises(ValueError, match=r"^unknown branch tag \('g', 301\) for n_max = 300$"):
            ts.sweep_spectrum(params, [0.0, 1.0], 300, tags=[("g", 301)])

    @pytest.mark.parametrize("deltas", [[[0.0, 1.0], [2.0, 3.0]], [1.0]], ids=["2-D", "one point"])
    def test_grid_must_be_one_dimensional_with_two_points(self, deltas):
        with pytest.raises(ValueError, match="^deltas must be a 1-D grid with at least two points$"):
            ts.sweep_spectrum(P01, deltas, 4, tags=[("g", 0)])


class TestRefineMaximum:
    """The Newton polish after the parabolic search stops, leaving the searched
    point as it is, on a curvature that is not negative or a step wider than
    the bracket."""

    def test_convex_function_keeps_the_searched_point(self):
        # d^2 peaks at the ends of [-1, 1]; a Newton step from there (-1 on its
        # curvature 2) would land on its minimum at 0
        searched, _ = spectrum._refine_minimum(lambda d: -(d * d), -1.0, 1.0)
        assert abs(abs(searched) - 1.0) < 1e-6
        assert spectrum._refine_maximum(lambda d: d * d, -1.0, 1.0) == searched

    def test_step_wider_than_the_bracket_keeps_the_searched_point(self):
        # -(d - 10)^2 peaks at 10, outside [0, 1]: the Newton step from near 1
        # is about -9, wider than the bracket
        searched, _ = spectrum._refine_minimum(lambda d: (d - 10) ** 2, 0.0, 1.0)
        assert abs(searched - 1.0) < 1e-6
        assert spectrum._refine_maximum(lambda d: -(d - 10) ** 2, 0.0, 1.0) == searched


@given(st.lists(st.sampled_from([0.0, 1.0, 2.0, -math.inf, math.nan]) | st.floats(), max_size=12))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_local_minima_match_the_loop(values):
    # a strict drop into a sample and no drop out of it, the rule the coarse
    # gap scan applies; the loop is the reference for the vectorized form
    v = np.array(values, dtype=float)
    loop = [i for i in range(1, len(v) - 1) if v[i] < v[i - 1] and v[i] <= v[i + 1]]
    assert spectrum._local_minima(v) == loop


def test_exact_pipeline_does_not_warn():
    # diagonalization has no weak-drive limit; only the closed form warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        params = ts.TrapParams(rabi=0.3, eta=0.1)
        ts.build_hamiltonian(params, 8)
        ts.sweep_spectrum(params, np.linspace(0.8, 1.2, 9), n_max=8, tags=all_tags(8))
        assert ts.find_resonance(SB01, params).converged


class TestFindResonance:
    def test_frozen_first_blue(self):
        # (params, n_max, frozen shift and tolerance, doubled basis of the re-locate)
        cases = [
            (P01, 20, pytest.approx(-4.9256561e-5, abs=2e-11), 39),
            (P01, None, pytest.approx(-4.9256561e-5, abs=2e-11), 33),
            (
                ts.TrapParams(rabi=0.01, eta=0.8), None,
                pytest.approx(-1.7995848780483215e-05, rel=1e-4), 63,
            ),
        ]
        for params, n_max, frozen, n_doubled in cases:
            report = ts.find_resonance(SB01, params, n_max=n_max)
            assert report.method == "extremum"
            assert report.delta_omega == frozen
            assert report.converged
            assert spectrum.check_bases(SB01, n_max, params.eta) == (report.n_max_used, n_doubled)

    def test_matches_ld_to_quartic_order(self):
        report = ts.find_resonance(SB01, P01, n_max=20)
        ld = sum(ts.bs_shift_ld(SB01, P01))
        assert abs(report.delta_omega - ld) <= 10.0 * 0.1**4 * 0.01**2

    def test_eta_zero_intersection_mode(self):
        params = ts.TrapParams(rabi=0.01, eta=0.0)
        report = ts.find_resonance(SB01, params)
        assert report.method == "intersection"
        assert report.gap < 1e-10
        assert report.delta_omega == pytest.approx(-5.0e-5, rel=1e-3)
        # exact closed form of the decoupled two-block problem
        assert report.delta_omega == pytest.approx(math.sqrt(1.0 - 1e-4) - 1.0, abs=1e-12)
        assert report.converged
        assert spectrum.check_bases(SB01, None, params.eta) == (report.n_max_used, 31)

    def test_eta_zero_tight_agreement_at_weak_drive(self):
        params = ts.TrapParams(rabi=1e-3, eta=0.0)
        for pair in [(0, 1), (1, 0)]:
            sb = ts.SidebandId(*pair)
            report = ts.find_resonance(sb, params)
            closed = ts.eta_zero_shift(sb, params)
            assert abs(report.delta_omega - closed) <= 1e-12
            assert report.gap < 1e-10

    def test_carrier_analytic(self):
        for carrier in [ts.SidebandId(2, 2), ts.SidebandId(1, 1)]:
            report = ts.find_resonance(carrier, P01)
            assert report.method == "carrier"
            assert report.delta_omega == 0.0
            assert report.converged

    def test_carrier_gap_is_a_magnitude(self):
        # chi_11 = exp(-eta^2/2) * (1 - eta^2) is negative beyond eta = 1
        assert ts.chi_magnitude(1, 1, 1.2) < 0
        params = ts.TrapParams(rabi=0.01, eta=1.2)
        report = ts.find_resonance(ts.SidebandId(1, 1), params)
        # |Omega_11|, read off one column of the operator on the reported
        # basis: the entry of its whole coupling block to roundoff
        block = coupling_block(params, report.n_max_used)
        assert report.gap == pytest.approx(float(2 * abs(block[1, 1])), rel=1e-12)
        assert type(report.gap) is float
        # the closed form agrees to roundoff (the two differ by 1 ulp here)
        assert report.gap == pytest.approx(0.01 * abs(ts.chi_magnitude(1, 1, 1.2)), rel=1e-14)
        assert report.gap > 0

    @pytest.mark.parametrize("n", [0, 3, 50, 200])
    @pytest.mark.parametrize("eta", [0.0, 0.1, 0.6, 1.5])
    def test_carrier_column_matches_the_whole_operator(self, n, eta):
        n_max = ts.default_n_max(ts.SidebandId(n, n), eta)
        whole = _real_displacement(eta, n_max)
        column = displacement_column(eta, n_max, n)
        assert column.shape == (n_max + 1,)
        assert abs(column[n] - whole[n, n]) <= 1e-12 * abs(whole[n, n])
        assert np.abs(column - whole[:, n]).max() <= 1e-12

    def test_carrier_builds_no_matrix(self, monkeypatch):
        from trapshift import hamiltonian

        def unreachable(*args, **kwargs):
            raise AssertionError("a carrier built the whole operator")

        monkeypatch.setattr(spectrum, "coupling_block", unreachable)
        monkeypatch.setattr(hamiltonian, "_real_displacement", unreachable)
        params = ts.TrapParams(rabi=0.01, eta=1.0)
        report = ts.find_resonance(ts.SidebandId(800, 800), params)
        assert report.method == "carrier" and report.converged
        assert report.gap == pytest.approx(0.01 * abs(ts.chi_magnitude(800, 800, 1.0)), rel=1e-10)

    @pytest.mark.parametrize("pair", [(0, 1), (1, 0)])
    @pytest.mark.parametrize("eta", [0.5, 0.8])
    def test_clamped_refinement_reports_python_scalars(self, pair, eta):
        # at rabi 1.5 the polished extremum leaves its coarse bracket, where
        # the branch is not stationary: no shift is reported
        with pytest.raises(ts.ResonanceWindowError, match="no stationary point"):
            ts.find_resonance(ts.SidebandId(*pair), ts.TrapParams(rabi=1.5, eta=eta), n_max=25)
        report = ts.find_resonance(ts.SidebandId(*pair), ts.TrapParams(rabi=1.0, eta=eta), n_max=25)
        for name in ("delta_star", "delta_omega", "gap"):
            assert type(getattr(report, name)) is float, name
        assert type(report.converged) is bool
        assert type(report.n_max_used) is int

    def test_rejects_zero_field(self):
        with pytest.raises(ValueError):
            ts.find_resonance(SB01, ts.TrapParams(rabi=0.0, eta=0.1))

    def test_rejects_too_small_basis(self):
        with pytest.raises(ValueError):
            ts.find_resonance(ts.SidebandId(0, 3), P01, n_max=3)
        # a carrier's gap is an entry of the block on n_max
        with pytest.raises(ValueError, match="n_max must exceed"):
            ts.find_resonance(ts.SidebandId(3, 3), P01, n_max=2)

    def test_extremum_derivative_residual(self):
        report = ts.find_resonance(SB01, P01, n_max=20)
        scan = ion_scan(P01, 20, SB01)
        h = 1e-5
        slope = (scan.pair_levels(report.delta_star + h)[0] - scan.pair_levels(report.delta_star - h)[0]) / (2.0 * h)
        assert abs(slope) <= 1e-7

    def test_numeric_swap_antisymmetry(self):
        fwd = ts.find_resonance(ts.SidebandId(0, 2), P01).delta_omega
        rev = ts.find_resonance(ts.SidebandId(2, 0), P01).delta_omega
        tol = 2.0 * max(1e-4 * abs(fwd), 1e-12)
        assert abs(fwd + rev) <= tol

    def test_carrier_extremum_probed_numerically(self):
        # the pair machinery applied to a carrier must find its extremum at 0
        params = ts.TrapParams(rabi=0.01, eta=0.3)
        delta_star, gap, method = _locate(ion_scan(params, 18, ts.SidebandId(0, 0)))
        assert method == "extremum"
        assert abs(delta_star) <= 1e-10
        assert gap == pytest.approx(0.01 * abs(ts.chi(0, 0, 0.3)), rel=1e-4)

    @pytest.mark.parametrize("rabi", [0.01, 0.3])
    def test_scan_solves_the_pencil_it_is_given(self, rabi, monkeypatch):
        # the eta = 0 pencil at n_max 1, built by hand: |g,0> and |e,1> are
        # decoupled and cross where sqrt(delta^2 + rabi^2) = 1; nothing may
        # build the ion's pencil behind the scan
        def unreachable(*args, **kwargs):
            raise AssertionError("the scan built a coupling block of its own")

        monkeypatch.setattr(spectrum, "coupling_block", unreachable)
        a = np.diag([0.0, 1.0, 0.0, 1.0])
        a[:2, 2:] = a[2:, :2] = 0.5 * rabi * np.eye(2)
        delta_star, _, method = _locate(_DetuningScan(a, np.array([0.5, 0.5, -0.5, -0.5]), SB01))
        assert method == "intersection"
        expected = math.sqrt(1.0 - rabi * rabi)
        # within 4 ulp of the exact crossing (measured: 2 ulp at rabi 0.01, 1 at 0.3)
        assert abs(delta_star - expected) <= 4 * math.ulp(expected)


def test_exact_route_evaluates_no_laguerre_formula(monkeypatch):
    # chi of the exact route comes from the operator, so a wrong factor in the
    # closed form cannot enter both routes; carriers included
    from trapshift import resolvent

    def unreachable(*args, **kwargs):
        raise AssertionError("the exact route evaluated the Laguerre closed form")

    monkeypatch.setattr(resolvent, "_laguerre_column", unreachable)
    report = ts.find_resonance(SB01, P01)
    assert report.method == "extremum" and report.gap > 0
    assert ts.find_resonance(SB01, ts.TrapParams(rabi=0.01, eta=0.0)).method == "intersection"
    carrier = ts.find_resonance(ts.SidebandId(1, 1), P01)
    assert carrier.method == "carrier" and carrier.gap > 0
    swept = ts.sweep_spectrum(P01, np.linspace(0.9, 1.1, 5), 8, tags=all_tags(8))
    assert len(swept.branches) == 18


def test_decoupled_crossing_is_root_found_once_per_basis(monkeypatch):
    # _locate root-finds the tagged crossing on the gap bracket once, and
    # reports that root instead of searching the whole window again
    sideband = ts.SidebandId(1, 0)
    bases, roots = [], []
    difference, brentq = _DetuningScan.tagged_difference, spectrum.brentq

    def recording(self, delta):
        bases.append(len(self._h) // 2)
        return difference(self, delta)

    def counting(*args, **kwargs):
        roots.append(bases[-1])
        return brentq(*args, **kwargs)

    monkeypatch.setattr(_DetuningScan, "tagged_difference", recording)
    monkeypatch.setattr(spectrum, "brentq", counting)
    report = ts.find_resonance(sideband, ts.TrapParams(rabi=0.01, eta=0.0))
    assert report.method == "intersection" and report.converged
    n_used, n_doubled = spectrum.check_bases(sideband, None, 0.0)
    # one contiguous run of sign tests and root iterations per basis
    runs = [nb for i, nb in enumerate(bases) if i == 0 or bases[i - 1] != nb]
    assert runs == roots == [n_used + 1, n_doubled + 1]


@pytest.mark.parametrize(("pair", "eta", "solves", "method"), [
    ((0, 1), 0.1, {36: 125, 68: 125}, "extremum"),
    ((1, 0), 0.0, {34: 126, 64: 125}, "intersection"),
    ((2, 4), 0.3, {46: 123, 82: 129}, "extremum"),
])
def test_eigensolve_counts(pair, eta, solves, method, monkeypatch):
    # eigensolves per basis dimension at rabi 0.01: the count does not depend
    # on the machine, so a locator change that moves it must say so
    dims = []
    eigen = _DetuningScan.eigen

    def counting(self, delta):
        values, vectors = eigen(self, delta)
        dims.append(len(values))
        return values, vectors

    monkeypatch.setattr(_DetuningScan, "eigen", counting)
    report = ts.find_resonance(ts.SidebandId(*pair), ts.TrapParams(rabi=0.01, eta=eta))
    assert report.method == method
    # the doubled basis is solved only after the first is done
    assert dims == sorted(dims)
    assert dict(Counter(dims)) == solves


def test_every_eigensolve_samples_a_detuning_scan():
    # scripts/exact_route_trace.py counts the solves of _DetuningScan.eigen and,
    # apart, every numpy.linalg.eigh; equal counts say no eigensolve bypasses the
    # scan.  Its eigh hash is not pinned: the coupling block comes from BLAS
    # products, whose last bits can differ by CPU.
    script = Path(__file__).parents[1] / "scripts" / "exact_route_trace.py"
    out = subprocess.run([sys.executable, "-B", str(script)], capture_output=True, text=True, check=True).stdout
    counts = {line.split()[0]: int(line.split()[1]) for line in out.splitlines() if line.startswith(("solves ", "eigh "))}
    assert counts["solves"] > 0
    assert counts["eigh"] == counts["solves"]


#: delta* to 30 digits of the truncated problem find_resonance solves on its
#: default basis, from scripts/exact_reference.py (mpmath, outside this suite)
REFERENCE = json.loads((Path(__file__).parent / "exact_reference.json").read_text(encoding="utf-8"))["cases"]
#: today's measured |delta* - reference|, above ROADMAP item 7's 1e-13 target; at
#: (4,1) the pair gap, 3.9e-10, is narrower than the finite-difference polish's step
REFERENCE_MISSES = {(2, 4): 1.96e-13, (3, 4): 2.66e-13, (1, 0): 7.31e-13, (4, 1): 1.18e-9}


@functools.cache
def located(n_g: int, n_e: int, rabi: float, eta: float) -> ts.ShiftReport:
    return ts.find_resonance(ts.SidebandId(n_g, n_e), ts.TrapParams(rabi=rabi, eta=eta))


def reference_cases(misses: dict) -> list:
    """Each REFERENCE case as a pytest.param, an xfail (strict, as every xfail of this
    suite) where ``misses`` names its pair."""
    params = []
    for case in REFERENCE:
        pair = (case["n_g"], case["n_e"])
        marks = [
            pytest.mark.xfail(
                raises=AssertionError,
                reason=f"delta* misses the reference by {misses[pair]:.3g} (ROADMAP item 7)",
            )
        ] if pair in misses else []
        params.append(pytest.param(case, marks=marks, id=f"{pair[0]}-{pair[1]}-eta{case['eta']}"))
    return params


class TestExactReference:
    """find_resonance against a 30-digit maximum of the lower pair branch
    (ROADMAP item 17), computed with none of the package's numerics."""

    @pytest.mark.parametrize("case", reference_cases({}))
    def test_reference_is_the_extremum_on_the_default_basis(self, case):
        report = located(case["n_g"], case["n_e"], case["rabi"], case["eta"])
        assert report.method == "extremum"
        assert report.n_max_used == case["n_max"]

    @pytest.mark.parametrize("case", reference_cases(REFERENCE_MISSES))
    def test_delta_star_meets_the_30_digit_reference(self, case):
        report = located(case["n_g"], case["n_e"], case["rabi"], case["eta"])
        assert abs(report.delta_star - float(case["delta_star"])) <= 1e-13


SWEEP_PARAMS = ts.TrapParams(rabi=0.3, eta=0.4)
SWEEP_GRID = np.linspace(-2.5, 2.5, 101)
SWEEP_N_MAX = ts.default_n_max(ts.SidebandId(0, 3), 0.4)  # the sweep command's defaults


class TestLocatorFallbacks:
    """Paths the locator and the continuation keep for inputs that need them."""

    def test_window_escalation(self, monkeypatch):
        windows = []
        linspace = np.linspace

        def recording(start, stop, num=50, *args, **kwargs):
            if num == spectrum.COARSE_POINTS:
                windows.append((start, stop))
            return linspace(start, stop, num, *args, **kwargs)

        monkeypatch.setattr(np, "linspace", recording)
        params = ts.TrapParams(rabi=0.8, eta=0.05)
        report = ts.find_resonance(SB01, params)
        # each basis's first half-width, from the coupling entry _locate reads
        firsts = [
            max(
                spectrum.WINDOW_GAP_MULTIPLE * 2.0 * abs(float(coupling_block(params, n)[0, 1])),
                spectrum.WINDOW_FRACTION,
            )
            for n in spectrum.check_bases(SB01, None, params.eta)
        ]
        # the maximum sits 0.4 below delta0: two doublings on each basis
        halves = [(stop - start) / 2.0 for start, stop in windows]
        assert halves == pytest.approx([first * 2.0**k for first in firsts for k in range(3)], rel=1e-14)
        assert report.method == "extremum"
        assert report.converged
        assert report.delta_star == pytest.approx(0.60195, abs=1e-5)
        scan = ion_scan(params, report.n_max_used, SB01)
        h = 1e-5
        slope = (scan.pair_levels(report.delta_star + h)[0] - scan.pair_levels(report.delta_star - h)[0]) / (2.0 * h)
        assert abs(slope) <= 1e-7

    def test_decoupled_pair_without_a_crossing_in_the_gap_bracket(self, monkeypatch):
        # forced: a closed gap whose bracket holds no sign change of the
        # tagged difference leaves _locate no crossing to report
        monkeypatch.setattr(spectrum, "_refine_minimum", lambda fun, lo, hi: (lo, 0.0))
        difference = _DetuningScan.tagged_difference
        monkeypatch.setattr(
            _DetuningScan, "tagged_difference", lambda self, *args: abs(difference(self, *args)) + 1.0
        )
        with pytest.raises(ts.ResonanceWindowError, match="inside the gap bracket"):
            ts.find_resonance(ts.SidebandId(1, 0), ts.TrapParams(rabi=0.01, eta=0.0))

    def test_window_escalation_exhausted(self):
        with pytest.raises(ts.ResonanceWindowError, match="after escalation"):
            ts.find_resonance(ts.SidebandId(0, 3), ts.TrapParams(rabi=3.0, eta=0.05), n_max=28)

    @pytest.mark.parametrize("pair", [(0, 2), (2, 0)])
    def test_several_gap_minima_without_a_stationary_point(self, pair, monkeypatch):
        # at rabi 2 the gap of (0,2) has two local minima in the first window
        # where the lower branch peaks inside; the gap is taken at the one
        # nearest delta0, and the refined peak leaves its bracket
        solves = []
        eigen = _DetuningScan.eigen

        def counting(self, delta):
            solves.append(delta)
            return eigen(self, delta)

        monkeypatch.setattr(_DetuningScan, "eigen", counting)
        params = ts.TrapParams(rabi=2.0, eta=0.2)
        with pytest.raises(ts.ResonanceWindowError, match="no stationary point"):
            ts.find_resonance(ts.SidebandId(*pair), params)
        assert len(solves) == 490

    def test_forced_bisection_keeps_a_permutation(self, monkeypatch):
        solves = []
        eigen = _DetuningScan.eigen

        def counting(self, delta):
            solves.append(delta)
            return eigen(self, delta)

        monkeypatch.setattr(spectrum, "TRACK_OVERLAP_MIN", 0.9)
        monkeypatch.setattr(_DetuningScan, "eigen", counting)
        swept = ts.sweep_spectrum(SWEEP_PARAMS, SWEEP_GRID, SWEEP_N_MAX, tags=all_tags(SWEEP_N_MAX))
        assert len(solves) - len(SWEEP_GRID) == 18
        # Finer steps follow narrow anti-crossings adiabatically, so the
        # branches may differ from the unforced sweep; the union may not.
        scan = ion_scan(SWEEP_PARAMS, SWEEP_N_MAX)
        stacked = np.stack([swept.branches[t] for t in swept.branches], axis=1)
        for j, delta in enumerate(SWEEP_GRID):
            raw, _ = eigen(scan, float(delta))
            assert np.allclose(np.sort(stacked[j]), raw, rtol=0, atol=1e-12)

    def test_bisection_exhausted(self, monkeypatch):
        monkeypatch.setattr(spectrum, "TRACK_OVERLAP_MIN", 1.5)
        with pytest.raises(ts.TrackingAmbiguityError) as info:
            ts.sweep_spectrum(SWEEP_PARAMS, SWEEP_GRID, SWEEP_N_MAX, tags=all_tags(SWEEP_N_MAX))
        message = str(info.value)
        assert message.startswith("branch continuation ambiguous between delta = -2.5 and ")
        assert "np." not in message


class TestMeasureSplitting:
    """The measured splitting is ``find_resonance``'s ``gap``: the minimal
    separation of the pair over its scan window."""

    def test_first_blue_gap(self):
        gap = ts.find_resonance(SB01, P01).gap
        expected = 0.01 * abs(ts.chi(0, 1, 0.1))
        assert gap == pytest.approx(9.95e-4, abs=1e-6)
        assert abs(gap - expected) <= 0.01 * expected

    def test_second_pair_gap(self):
        sb = ts.SidebandId(1, 2)
        gap = ts.find_resonance(sb, P01).gap
        expected = 0.01 * abs(ts.chi(1, 2, 0.1))
        assert abs(gap - expected) <= 0.01 * expected

    def test_eta_zero_true_crossing(self):
        gap = ts.find_resonance(SB01, ts.TrapParams(rabi=0.01, eta=0.0)).gap
        assert gap < 1e-10

    def test_zero_field(self):
        # no coupling, no anti-crossing to locate
        with pytest.raises(ValueError, match="requires rabi > 0"):
            ts.find_resonance(SB01, ts.TrapParams(rabi=0.0, eta=0.1))


def run_probe(probe: str, stdlib: bool = False) -> str:
    """stdout of ``probe`` run in a fresh interpreter that imports this package.

    With ``stdlib``, under ``-I -S -B``: site-packages stay off sys.path, so
    numpy and scipy cannot be imported at all, and no bytecode is written;
    the probe itself puts this checkout's ``src`` on sys.path (``-I`` ignores
    PYTHONPATH)."""
    src = str(Path(ts.__file__).resolve().parents[1])
    if stdlib:
        argv = [sys.executable, "-I", "-S", "-B", "-c", f"import sys\nsys.path.insert(0, {src!r})\n{probe}"]
    else:
        argv = [sys.executable, "-c", probe]
    out = subprocess.run(argv, env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True)
    return out.stdout.strip()


#: Every closed-form call the probe below makes on the standard library alone, and
#: the type it returns or the error it raises, message and all; the values are
#: pinned in test_resolvent and test_fock.
STDLIB_CALLS = {
    "ts.bs_shift(ts.SidebandId(2, 4), ts.TrapParams(rabi=0.01, eta=0.3))": "PerturbativeShift",
    "ts.bs_shift(ts.SidebandId(0, 1), ts.TrapParams(rabi=0.01, eta=0.1))": "PerturbativeShift",
    "ts.bs_shift(ts.SidebandId(0, 800), ts.TrapParams(rabi=0.01, eta=1.0))": "PerturbativeShift",
    "ts.bs_shift(ts.SidebandId(9998, 9999), ts.TrapParams(rabi=0.01, eta=0.083))": "PerturbativeShift",
    # finite, although chi_{3000,6000} at eta 0.1 overflows, which is an error
    "ts.bs_shift(ts.SidebandId(3000, 6000), ts.TrapParams(rabi=0.01, eta=0.1))": "PerturbativeShift",
    "ts.bs_shifts([ts.SidebandId(1, 0), ts.SidebandId(3, 3)], ts.TrapParams(rabi=0.01, eta=0.3))": "list",
    "ts.bs_shift_ld(ts.SidebandId(0, 1), ts.TrapParams(rabi=0.01, eta=0.1))": "tuple",
    "ts.bs_shift_literature(ts.TrapParams(rabi=0.01, eta=0.1))": "float",
    "ts.eta_zero_shift(ts.SidebandId(2, 4), ts.TrapParams(rabi=0.01, eta=0.3))": "float",
    "ts.chi(3, 5, 0.3)": "complex",
    "ts.chi_magnitude(3, 5, 0.3)": "float",
    "ts.laguerre(4, 2, 0.09)": "float",
    "ts.rabi_coupling(3, 5, ts.TrapParams(rabi=0.01, eta=0.3))": "complex",
    "ts.chi_magnitude(3000, 6000, 0.1)":
        "OverflowError: the Laguerre factor of chi_{3000,6000} at eta = 0.1 overflows",
    # the square of the drive names its overflow (it also warns: rabi > 0.1)
    "ts.bs_shift(ts.SidebandId(0, 1), ts.TrapParams(rabi=1e200, eta=0.1))":
        "OverflowError: rabi**2 at rabi = 1e+200 overflows",
    "ts.SidebandId(10_000, 0)": "ValueError: vibrational quantum numbers must be in 0..9999, got 10000",
    "ts.laguerre(10_000, 0, 0.1)": "ValueError: n must be in 0..9999, got 10000",
    "ts.chi_magnitude(10_000, 10_000, 0.1)": "ValueError: min(n, nprime) must be in 0..9999, got 10000",
    # a ValueError, not the OverflowError of lgamma or the nan of the product
    "ts.chi_magnitude(0, 10**400, 0.1)": f"ValueError: max(n, nprime) must be in 0..{2**53 - 1}, got {10**400}",
    "ts.chi(0, 1, float('nan'))": "ValueError: eta must be finite and >= 0, got nan",
    # every level is an integer, not a Laguerre order of 0.5
    "ts.SidebandId(1.5, 2)": "ValueError: vibrational quantum numbers must be of integer type, got 1.5",
    "ts.chi_magnitude(2.5, 2, 0.1)": "ValueError: n must be of integer type, got 2.5",
    "ts.laguerre(3, 1.5, 0.1)": "ValueError: alpha must be of integer type, got 1.5",
    # the integer rule of params, top 2**53 - 1, holds chi's greater index
    "ts.chi_magnitude(0, 2**53, 0.1)": "ValueError: max(n, nprime) must be in 0..9007199254740991, got 9007199254740992",
}


class TestLazyImport:
    """Fresh interpreters: what each route loads.  The closed form and the CLI's
    usage paths run with numpy and scipy out of reach (``run_probe``'s stdlib)."""

    def test_closed_form_import_leaves_spectrum_unloaded(self):
        probe = (
            "import sys, trapshift.resolvent; "
            "print(sorted({'trapshift.spectrum', 'scipy.optimize'} & set(sys.modules)))"
        )
        assert run_probe(probe, stdlib=True) == "[]"

    def test_closed_form_import_leaves_scipy_linalg_unloaded(self):
        probe = "import sys, trapshift.resolvent; print('scipy.linalg' in sys.modules)"
        assert run_probe(probe, stdlib=True) == "False"

    def test_closed_form_route_loads_no_scipy(self):
        probe = "\n".join([
            "import sys",
            "import trapshift as ts",
            "from trapshift import bs_shift, chi_magnitude, laguerre",
            "sideband, params = ts.SidebandId(2, 4), ts.TrapParams(rabi=0.01, eta=0.3)",
            "bs_shift(sideband, params)",
            "chi_magnitude(3, 5, 0.3)",
            "laguerre(4, 2, 0.09)",
            "table = ts.coupling_table(0.3, 6)",
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
            "print(all(table[n, k] == ts.chi(n, k, 0.3) for n in range(7) for k in range(7)))",
        ])
        loaded, table_exact = run_probe(probe).splitlines()
        assert loaded == "[]"
        assert table_exact == "True"

    def test_operator_and_hamiltonian_load_no_scipy(self):
        # a None entry in sys.modules makes every import of scipy fail
        probe = "\n".join([
            "import sys",
            "sys.modules['scipy'] = None",
            "import numpy as np",
            "import trapshift as ts",
            "from trapshift.hamiltonian import coupling_block, displacement_column",
            "params = ts.TrapParams(rabi=0.01, eta=0.3)",
            "arrays = [",
            "    coupling_block(params, 40),",
            "    ts.build_hamiltonian(params, 40).matrix,",
            "    ts.displacement_oracle(0.3, 40),",
            "    displacement_column(0.3, 40, 7),",
            "    ts.coupling_table(0.3, 40),",
            "]",
            "print([bool(np.isfinite(array).all()) for array in arrays])",
            # the column index lies on the basis: -1 read the column of a pad level
            "try:",
            "    displacement_column(0.3, 40, -1)",
            "except ValueError as error:",
            "    print(error)",
        ])
        assert run_probe(probe).splitlines() == [str([True] * 5), "n must be in 0..40, got -1"]

    def test_closed_form_route_loads_no_numpy(self):
        probe = "\n".join([
            "import json, sys",
            "import trapshift as ts",
            "outcomes = []",
            f"for call in {list(STDLIB_CALLS)!r}:",
            "    try:",
            "        outcomes.append(type(eval(call)).__name__)",
            "    except Exception as error:",
            "        outcomes.append(f'{type(error).__name__}: {error}')",
            "print(json.dumps(outcomes))",
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))",
        ])
        outcomes, loaded = run_probe(probe, stdlib=True).splitlines()
        assert dict(zip(STDLIB_CALLS, json.loads(outcomes))) == STDLIB_CALLS
        assert loaded == "[]"

    def test_cli_import_loads_no_exact_route(self):
        probe = "\n".join([
            "import sys, trapshift.cli",
            "print(sorted(m for m in sys.modules"
            " if m == 'trapshift.spectrum' or m.split('.')[0] in ('numpy', 'scipy')))",
        ])
        assert run_probe(probe, stdlib=True) == "[]"

    def test_version_and_usage_error_load_no_exact_route(self):
        # the CLI imports, prints its version and rejects a usage error on the standard library alone
        probe = "\n".join([
            "import contextlib, io, sys",
            "from trapshift import cli",
            "codes = []",
            "for argv in (['--version'], ['shift', '--help'], ['check', '--tol-scale', '1']):",
            "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):",
            "        try:",
            "            cli.main(argv)",
            "        except SystemExit as exc:",
            "            codes.append(exc.code)",
            "print(codes, sorted(m for m in sys.modules"
            " if m == 'trapshift.spectrum' or m.split('.')[0] in ('numpy', 'scipy')))",
        ])
        assert run_probe(probe, stdlib=True) == "[0, 0, 2] []"

    def test_cli_displacement_oracle_matches_hamiltonian_bits(self):
        got = cli.displacement_oracle(0.4, 12)
        want = hamiltonian.displacement_oracle(0.4, 12)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_every_subcommand_loads_exact_route(self):
        """Pins the contract of the benchmark's traced ``cli`` layer, which reads
        ``scipy.optimize`` from the ``-X importtime`` log of every command, the
        closed-form ``sidebands`` included.  ROADMAP item 6 deletes this test when
        it narrows the import to the commands that solve."""
        probe = "\n".join([
            "import contextlib, io, sys",
            "from trapshift import cli",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    code = cli.main(['sidebands'])",
            "print(code, 'trapshift.spectrum' in sys.modules)",
        ])
        assert run_probe(probe) == "0 True"

    def test_every_public_name_resolves_in_a_fresh_process(self):
        probe = "\n".join([
            "import trapshift as ts, trapshift.hamiltonian",
            "missing = [name for name in ts.__all__ if not hasattr(ts, name)]",
            "print(missing, ts.coupling_table is trapshift.hamiltonian.coupling_table)",
        ])
        assert run_probe(probe) == "[] True"

    def test_package_names_resolve(self):
        assert ts.find_resonance is spectrum.find_resonance
        assert ts.ShiftReport is spectrum.ShiftReport
        assert ts.ResonanceWindowError is spectrum.ResonanceWindowError
        assert ts.TrackingAmbiguityError is spectrum.TrackingAmbiguityError
        assert ts.TrapshiftError is spectrum.TrapshiftError
        assert ts.PerturbativeRegimeWarning is resolvent.PerturbativeRegimeWarning
        # the one warning of the closed form lives with the sums that raise it
        assert ts.PerturbativeRegimeWarning.__module__ == "trapshift.resolvent"
        with pytest.raises(AttributeError):
            ts.no_such_name
