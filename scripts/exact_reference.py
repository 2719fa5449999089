"""Write tests/exact_reference.json: delta* of the exact route to 30 digits.

For each case it builds the truncated problem that ``find_resonance`` solves
on its default basis, in mpmath at ``DPS`` digits and with none of the
package's numerics: the real displacement exp(eta*(a - a^dag)) by ``mp.expm``
on the padded basis (``default_n_max`` plus ``oracle_pad``, the package's
sizes), cropped to 0..n_max; the pencil H(delta) = A + delta*diag(s), A with
the bare energies n on its diagonal and the g-e block (rabi/2)*D above it,
s = +1/2 on g and -1/2 on e; and ``mp.eigsy`` of H(delta).  The lower pair
branch is the lower of the two eigenstates with most weight on |g, n_g> and
|e, n_e>.  Newton on its Hellmann-Feynman slope v^T S v, with the curvature
2 * sum_k (v_k^T S v)^2 / (E - E_k), starts from delta0 = n_e - n_g and stops
when a step falls below 10**-(DPS - 5).  A case whose pair gap is narrower
than its shift lies outside Newton's basin from delta0; it is bisected instead
on the sign of the slope alone over delta0 -+ its bracket, until the bracket
is narrower than ``BISECTION_WIDTH`` (the curvature sum, which meets
degenerate levels there, is never formed).  The result is the maximum of that
branch: the delta* of the extremum mode, to compare with what the locator
finds.

    python scripts/exact_reference.py

It needs mpmath (the tests only read the JSON) and takes about five minutes
on one core, three of them for the bisected case.
"""

import json
import sys
from pathlib import Path

import mpmath
from mpmath import mp

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from trapshift import SidebandId  # noqa: E402
from trapshift.hamiltonian import default_n_max, oracle_pad  # noqa: E402

DPS = 30
OUT = ROOT / "tests" / "exact_reference.json"
#: ((n_g, n_e), rabi, eta, bracket): each double is taken by mpmath exactly, as the
#: package has it; bracket None is Newton from delta0, a half-width is bisection.
CASES = [
    ((0, 1), 0.01, 0.1, None), ((2, 4), 0.01, 0.3, None), ((3, 4), 0.01, 0.6, None), ((1, 0), 0.01, 1.0, None),
    # the pair gap, 3.9e-10, is far narrower than the shift, 1.7e-7
    ((4, 1), 0.001, 0.0078125, 0.1),
]
MAX_NEWTON_STEPS = 30
BISECTION_WIDTH = "1e-25"


def pencil(n_max: int, pad: int, rabi, eta) -> tuple:
    """(A, s) of the truncated problem on 0..n_max, its displacement cropped from 0..n_max + pad."""
    dim = n_max + 1 + pad
    generator = mp.zeros(dim, dim)
    for n in range(1, dim):
        generator[n - 1, n] = eta * mp.sqrt(n)  # a
        generator[n, n - 1] = -eta * mp.sqrt(n)  # -a^dag
    displacement = mp.expm(generator)
    nb = n_max + 1
    a = mp.zeros(2 * nb, 2 * nb)
    for i in range(nb):
        a[i, i] = a[nb + i, nb + i] = i
        for j in range(nb):
            a[i, nb + j] = a[nb + j, i] = rabi / 2 * displacement[i, j]
    return a, [mpmath.mpf(1) / 2] * nb + [-mpmath.mpf(1) / 2] * nb


def lower_pair_branch(a, s, pair: tuple[int, int], delta) -> tuple:
    """(couplings, values, j) at delta: the eigenvalues of H(delta), j the lower pair
    branch, and v_k^T S v_j for every eigenvector v_k, of which the j-th is its slope."""
    h = a.copy()
    for i, si in enumerate(s):
        h[i, i] += si * delta
    values, vectors = mp.eigsy(h)
    dim = len(s)
    support = [vectors[pair[0], j] ** 2 + vectors[pair[1], j] ** 2 for j in range(dim)]
    top = sorted(range(dim), key=lambda j: support[j])[-2:]
    j = min(top, key=lambda k: values[k])
    coupling = [mp.fsum(vectors[i, k] * s[i] * vectors[i, j] for i in range(dim)) for k in range(dim)]
    return coupling, values, j


def newton(a, s, pair: tuple[int, int], delta) -> tuple:
    """(delta*, the record of its search): Newton on the slope from delta."""
    tolerance = mpmath.mpf(10) ** -(DPS - 5)
    for steps in range(1, MAX_NEWTON_STEPS + 1):
        coupling, values, j = lower_pair_branch(a, s, pair, delta)
        curvature = 2 * mp.fsum(coupling[k] ** 2 / (values[j] - values[k]) for k in range(len(s)) if k != j)
        if not curvature < 0:
            raise ArithmeticError(f"{pair}: curvature {curvature} at delta {delta} is not < 0")
        step = coupling[j] / curvature
        delta -= step
        if abs(step) < tolerance:
            return delta, {"newton_steps": steps, "last_step": mpmath.nstr(step, 3)}
    raise ArithmeticError(f"{pair}: Newton did not converge in {MAX_NEWTON_STEPS} steps")


def bisection(a, s, pair: tuple[int, int], delta, half) -> tuple:
    """(delta*, the record of its search): the slope's sign change in delta -+ half, bisected."""
    lo, hi, width = delta - half, delta + half, mpmath.mpf(BISECTION_WIDTH)

    def slope(at):
        coupling, _, j = lower_pair_branch(a, s, pair, at)
        return coupling[j]

    if not slope(lo) > 0 > slope(hi):
        raise ArithmeticError(f"{pair}: the slope does not fall through 0 on [{lo}, {hi}]")
    steps = 0
    while hi - lo >= width:
        mid = (lo + hi) / 2
        if slope(mid) > 0:
            lo = mid
        else:
            hi = mid
        steps += 1
    return (lo + hi) / 2, {"bisection_steps": steps, "bracket_width": mpmath.nstr(hi - lo, 3)}


def reference(n_g: int, n_e: int, rabi: float, eta: float, bracket: float | None) -> dict:
    sideband = SidebandId(n_g, n_e)
    n_max = default_n_max(sideband, eta)
    a, s = pencil(n_max, oracle_pad(eta, n_max), mpmath.mpf(rabi), mpmath.mpf(eta))
    pair, delta0 = (n_g, n_max + 1 + n_e), mpmath.mpf(sideband.order)
    if bracket is None:
        delta, search = newton(a, s, pair, delta0)
    else:
        delta, search = bisection(a, s, pair, delta0, mpmath.mpf(bracket))
    return {
        "n_g": n_g, "n_e": n_e, "rabi": rabi, "eta": eta, "n_max": n_max,
        "delta_star": mpmath.nstr(delta, DPS), **search,
    }


def main() -> int:
    mp.dps = DPS
    cases = []
    for (n_g, n_e), rabi, eta, bracket in CASES:
        cases.append(reference(n_g, n_e, rabi, eta, bracket))
        print(json.dumps(cases[-1]), flush=True)
    record = {"generator": "scripts/exact_reference.py", "dps": DPS, "cases": cases}
    OUT.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
