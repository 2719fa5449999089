"""Domain-wide differential tests of the two routes, drawn by hypothesis.

Domain: n_g, n_e in 0..4 with |n_e - n_g| <= 3, carriers included, eta in
[0, 0.6] and rabi in [0.001, 0.03].  Every draw is derandomized, so the suite
stays deterministic.  Two checks of ROADMAP item 10 are left out: closed form
vs exact waits on the O(Omega^3) offset of item 3, and stationarity at
delta* on item 7's locator (``TestNarrowMaximum`` pins why).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trapshift as ts
from trapshift.hamiltonian import coupling_block, real_pencil
from trapshift.spectrum import CONVERGENCE_RELATIVE, _DetuningScan

DOMAIN = settings(derandomize=True, max_examples=30, deadline=None)

sidebands = (
    st.tuples(st.integers(0, 4), st.integers(0, 4))
    .filter(lambda levels: abs(levels[1] - levels[0]) <= 3)
    .map(lambda levels: ts.SidebandId(*levels))
)
etas = st.floats(0.0, 0.6)
rabis = st.floats(0.001, 0.03)


@DOMAIN
@given(sideband=sidebands, eta=etas, rabi=rabis)
@example(sideband=ts.SidebandId(1, 3), eta=0.0, rabi=0.01)
def test_closed_form_identities(sideband, eta, rabi):
    params = ts.TrapParams(rabi=rabi, eta=eta)
    swapped = ts.SidebandId(sideband.n_e, sideband.n_g)
    shift = ts.bs_shift(sideband, params).delta_omega_full
    if sideband.is_carrier:
        assert shift == 0.0
    assert ts.bs_shift(swapped, params).delta_omega_full == -shift
    assert ts.bs_shifts([sideband, swapped], params) == [ts.bs_shift(sideband, params), ts.bs_shift(swapped, params)]


@DOMAIN
@given(sideband=sidebands, eta=etas, rabi=rabis)
@example(sideband=ts.SidebandId(4, 1), eta=0.0, rabi=0.03)
def test_exact_route(sideband, eta, rabi):
    report = ts.find_resonance(sideband, ts.TrapParams(rabi=rabi, eta=eta))
    assert report.converged
    if sideband.is_carrier:
        assert report.method == "carrier"
    elif eta == 0.0:
        # the pair is decoupled and crosses; the Stark-shifted crossing is exact
        delta0 = float(sideband.order)
        root = math.copysign(math.sqrt(delta0 * delta0 - rabi * rabi), delta0) - delta0
        assert report.method == "intersection"
        assert abs(report.delta_omega - root) <= 1e-13


class TestNarrowMaximum:
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the finite-difference polish misses a maximum narrower than its step (ROADMAP item 7)",
    )
    def test_delta_star_is_the_lower_branch_maximum(self):
        # the pair gap, 3.9e-10, is far below the polish's step; the branch's
        # maximum on a 2001-point grid lies 1.2e-9 from delta*, 0.73% of the shift
        sideband = ts.SidebandId(4, 1)
        params = ts.TrapParams(rabi=0.001, eta=0.0078125)
        report = ts.find_resonance(sideband, params)
        assert report.converged
        scan = _DetuningScan(*real_pencil(coupling_block(params, report.n_max_used)), sideband)
        grid = report.delta_star + np.linspace(-5e-8, 5e-8, 2001)
        lower = [scan.pair_levels(float(d))[0] for d in grid]
        peak = float(grid[int(np.argmax(lower))])
        assert abs(report.delta_star - peak) <= CONVERGENCE_RELATIVE * abs(report.delta_omega)
