"""Domain-wide differential tests of the two routes, drawn by hypothesis.

Domain: n_g, n_e in 0..4 with |n_e - n_g| <= 3, carriers included, eta in
[0, 0.6] and rabi in [0.001, 0.03].  Every draw is derandomized, so the suite
stays deterministic.  Two checks of ROADMAP item 10 are left out: closed form
vs exact waits on the O(Omega^3) offset of item 3, and stationarity at
delta* on item 7's locator (the (4,1) case of ``test_spectrum.TestExactReference``
pins why).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trapshift as ts

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


class TestVanishingDrive:
    """As rabi -> 0 the exact shift over rabi**2 tends to bs_shift's, which is
    rabi**2 times a constant: the one limit where the closed form is exact, so
    a gap here is a fault of one route, with no tolerance model needed.

    shift/rabi**2 at the four RABIS, a quadratic in rabi through the three
    smallest, extrapolated to rabi 0, against bs_shift/rabi**2 at rabi 0.001.
    The bound is the scatter (max - min) of shift/rabi**2 over the four RABIS,
    relative to bs_shift's; it is not widened.  Measured gaps: 5.7e-9, 3.1e-7
    and 7.6e-6, against scatters of 2.1e-5, 1.7e-6 and 5.6e-3.  (3,4) at eta
    0.6 waits for the analytic rabi**3 term of ROADMAP item 3: the fit carries
    most of its 8.6e-5 gap.
    """

    RABIS = (0.008, 0.004, 0.002, 0.001)

    @pytest.mark.parametrize("n_g, n_e, eta", [(0, 1, 0.1), (2, 4, 0.3), (1, 0, 1.0)])
    def test_exact_shift_over_rabi_squared_tends_to_the_closed_form(self, n_g, n_e, eta):
        sideband = ts.SidebandId(n_g, n_e)
        ratios = [
            ts.find_resonance(sideband, ts.TrapParams(rabi=rabi, eta=eta)).delta_omega / rabi**2
            for rabi in self.RABIS
        ]
        limit = np.polyfit(self.RABIS[1:], ratios[1:], 2)[-1]
        closed = ts.bs_shift(sideband, ts.TrapParams(rabi=0.001, eta=eta)).delta_omega_full / 0.001**2
        scatter = (max(ratios) - min(ratios)) / abs(closed)
        assert abs(limit / closed - 1.0) <= scatter
