"""Exact numerical pipeline: detuning sweeps, branch tracking, resonance location.

The dressed levels E(delta) are eigenvalues of the full coupled Hamiltonian.
A sideband resonance is located as the extremum of the dressed branch that
enters the target anti-crossing from the tagged bare state; when the pair is
decoupled (a true crossing, gap below ``GAP_FLOOR_FRACTION``) the
locator switches to root-finding the intersection of the two tagged branches.

Every eigensolve samples the real pencil H(delta) = A + delta*diag(s) that
one ``_DetuningScan`` is given.  ``find_resonance`` and ``sweep_spectrum``
give it (A, s) of the one Hamiltonian the package assembles,
``real_pencil`` of ``hamiltonian`` (its exact real symmetric gauge), from the
real displacement operator exp(eta*(a - a^dag)) that its ``coupling_block``
exponentiates, never from the Laguerre formula that ``resolvent`` sums;
bare-state overlap magnitudes are gauge invariant, so nothing downstream can
observe the gauge.  A scan that locates a resonance is built with its pair and
gives the locator the pair's rows, delta0 and coupling entry; a sweep's scan
has none.  This module imports nothing of the closed form (``resolvent``), so
their agreement is a cross-check; it defines ``TrapshiftError`` and its
subclasses, which it alone raises.  Each job has one code path:
``_search_window`` is the coarse window scan behind ``find_resonance``, and
``_locate`` measures the pair's gap inside it and chooses the mode, extremum
or intersection, in one place; the measured splitting is ``find_resonance``'s
``gap`` (a carrier's is read off one column of the same operator);
``find_resonance`` is the one basis-doubling check (one re-locate on the
doubled margin), and ``sweep_spectrum`` the branch continuation behind
``track_branch``.  Scans are sequential and deterministic; share nothing
across threads except the immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, linear_sum_assignment, minimize_scalar

from .hamiltonian import basis_rows, check_padded_basis, coupling_block, default_n_max, displacement_column, real_pencil
from .params import SidebandId, TrapParams, check_delta, check_level

#: Measured pair gaps below this many omega_t count as true crossings.
GAP_FLOOR_FRACTION = 1e-10
#: Coarse scan resolution of the resonance window.
COARSE_POINTS = 101
#: Window half-width: max of this many omega_t and 5x the gap estimate.
WINDOW_FRACTION = 0.1
WINDOW_GAP_MULTIPLE = 5.0
#: Centered finite-difference step for derivative residuals, in omega_t.
FD_STEP_FRACTION = 1e-5
#: Basis-margin doubling convergence thresholds (the absolute one in omega_t).
CONVERGENCE_RELATIVE = 1e-4
CONVERGENCE_ABSOLUTE = 1e-12
#: Branch continuation is trusted only above this eigenvector overlap.
TRACK_OVERLAP_MIN = 0.5
MAX_BISECTION_LEVELS = 12
MAX_WINDOW_ESCALATIONS = 4


class TrapshiftError(Exception):
    """Base class for numerical failures in this package."""


class TrackingAmbiguityError(TrapshiftError):
    """Branch continuation stayed ambiguous after maximal grid refinement."""


class ResonanceWindowError(TrapshiftError):
    """No stationary point of the pair branch found inside the scan window."""


@dataclass(frozen=True)
class ShiftReport:
    """Located resonance of one sideband from the numerically exact spectrum."""

    delta_star: float
    delta_omega: float
    gap: float
    method: str  # "extremum" | "intersection" | "carrier"
    n_max_used: int
    converged: bool


@dataclass(frozen=True, eq=False)
class DressedSpectrum:
    """Tracked dressed-level branches over a detuning grid.

    ``branches[(state, n)]`` follows the eigenvalue that is continuously
    connected to the bare level |state, n>; ``overlaps`` records the squared
    weight of that bare state in the branch eigenvector at every sample.
    """

    grid: np.ndarray
    branches: dict[tuple[str, int], np.ndarray]
    overlaps: dict[tuple[str, int], np.ndarray]


class _DetuningScan:
    """The real pencil H(delta) = A + delta*diag(s) it is given, and the pair it locates.

    A is real symmetric, and the scan takes it over: a sample rewrites its
    diagonal only, to A's own diagonal plus s*delta (``real_pencil``).
    ``sideband`` (None for a sweep) gives delta0 and the messages' label, its
    rows |g, n_g>, |e, n_e> (``basis_rows``), and ``coupling``, their A entry.
    Not thread-safe; make one per thread."""

    def __init__(self, a: np.ndarray, s: np.ndarray, sideband: SidebandId | None = None):
        self._h, self._a0, self._s = a, a.diagonal().copy(), s
        self.sideband = sideband
        if sideband is not None:
            rows = basis_rows(len(a) // 2 - 1)
            g, e = self._pair = rows["g", sideband.n_g], rows["e", sideband.n_e]
            self.coupling = float(a[g, e])

    def eigen(self, delta: float) -> tuple[np.ndarray, np.ndarray]:
        np.fill_diagonal(self._h, self._a0 + self._s * delta)
        return np.linalg.eigh(self._h)

    def pair_levels(self, delta: float) -> tuple[float, float]:
        """(E_low, E_up) of the two eigenstates with most weight on the pair."""
        values, vectors = self.eigen(delta)
        support = np.sum(vectors[self._pair, :] ** 2, axis=0)
        top = np.argpartition(support, -2)[-2:]
        pair = np.sort(values[top])
        return float(pair[0]), float(pair[1])

    def pair_gap(self, delta: float) -> float:
        low, up = self.pair_levels(delta)
        return up - low

    def tagged_difference(self, delta: float) -> float:
        """E(g, n_g) - E(e, n_e) with each branch tagged by its dominant bare state."""
        values, vectors = self.eigen(delta)
        jg, je = np.argmax(vectors[self._pair, :] ** 2, axis=1)
        return float(values[jg] - values[je])


def _local_minima(v: np.ndarray) -> list[int]:
    return (np.flatnonzero((v[1:-1] < v[:-2]) & (v[1:-1] <= v[2:])) + 1).tolist()


def _refine_maximum(fun, lo: float, hi: float) -> float:
    """Successive parabolic interpolation for the branch extremum, then a
    Newton polish on the centered finite-difference slope; not clamped to [lo, hi]."""
    d_star, _ = _refine_minimum(lambda d: -fun(d), lo, hi)
    h = FD_STEP_FRACTION
    for _ in range(4):
        f_plus, f_minus, f_mid = fun(d_star + h), fun(d_star - h), fun(d_star)
        slope = (f_plus - f_minus) / (2.0 * h)
        curvature = (f_plus - 2.0 * f_mid + f_minus) / (h * h)
        if curvature >= 0.0 or not math.isfinite(curvature):
            break
        step = slope / curvature
        if abs(step) > (hi - lo):
            break
        d_star -= step
        if abs(step) < 1e-13:
            break
    return float(d_star)


def _refine_minimum(fun, lo: float, hi: float) -> tuple[float, float]:
    result = minimize_scalar(
        fun,
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-12, "maxiter": 200},
    )
    return float(result.x), float(result.fun)


def _search_window(scan: _DetuningScan) -> tuple[float, tuple[float, float], tuple[float, float]]:
    """Coarse scan of the scan's pair around its delta0.

    The window is widened until the lower pair branch has an interior
    maximum; of several local minima of the gap, the one nearest delta0 is
    kept, and a window with none raises ``ResonanceWindowError``.
    Returns (window half-width, coarse bracket of that maximum, coarse
    bracket of that gap minimum).
    """
    delta0 = float(scan.sideband.order)
    # the gap estimate |Omega_{n_g,n_e}| = 2|coupling| is the scan's own, not the closed form's
    half = max(WINDOW_GAP_MULTIPLE * (2.0 * abs(scan.coupling)), WINDOW_FRACTION)

    escalations = 0
    while True:
        grid = np.linspace(delta0 - half, delta0 + half, COARSE_POINTS)
        levels = np.array([scan.pair_levels(d) for d in grid])
        low, gaps = levels[:, 0], levels[:, 1] - levels[:, 0]

        i_max = int(np.argmax(low))
        if i_max not in (0, COARSE_POINTS - 1):
            break
        if escalations >= MAX_WINDOW_ESCALATIONS:
            raise ResonanceWindowError(
                f"no interior extremum for {scan.sideband} within "
                f"[{delta0 - half!r}, {delta0 + half!r}] after escalation"
            )
        escalations += 1
        half *= 2.0

    minima = _local_minima(gaps)
    if not minima:
        raise ResonanceWindowError(
            f"no local minimum of the pair gap of {scan.sideband} within "
            f"[{delta0 - half!r}, {delta0 + half!r}]"
        )
    i_gap = min(minima, key=lambda i: abs(grid[i] - delta0))
    bracket = (float(grid[i_max - 1]), float(grid[i_max + 1]))
    # a local minimum is an interior sample, so both neighbours exist
    return half, bracket, (float(grid[i_gap - 1]), float(grid[i_gap + 1]))


def _locate(scan: _DetuningScan) -> tuple[float, float, str]:
    """Locate the scan's resonance: returns (delta_star, minimal gap, method).

    The minimal gap comes from the parabolic minimizer on the gap bracket of
    ``_search_window``.  Below 1e-6 the pair may be a near-crossing, whose
    V-shaped bottom defeats the minimizer's relative positioning floor, so
    the sign change of the tagged branch difference E(g, n_g) - E(e, n_e) is
    root-found on the same bracket and the gap is sampled there as well.
    A gap below ``GAP_FLOOR_FRACTION`` marks a decoupled pair: its crossing
    is reported as it is ("intersection"), and a bracket without one raises
    ``ResonanceWindowError``.  Otherwise the lower branch's maximum is
    refined on its bracket ("extremum").
    """
    _, (lo, hi), (g_lo, g_hi) = _search_window(scan)
    _, gap_min = _refine_minimum(scan.pair_gap, g_lo, g_hi)
    root = None
    if gap_min < 1e-6 and scan.tagged_difference(g_lo) * scan.tagged_difference(g_hi) < 0:
        root = float(brentq(scan.tagged_difference, g_lo, g_hi, xtol=1e-14))
        gap_min = min(gap_min, scan.pair_gap(root))

    if gap_min < GAP_FLOOR_FRACTION:
        if root is None:
            raise ResonanceWindowError(
                f"tagged branches of {scan.sideband} do not intersect inside "
                f"the gap bracket [{g_lo!r}, {g_hi!r}]"
            )
        return root, gap_min, "intersection"

    delta_star = _refine_maximum(lambda d: scan.pair_levels(d)[0], lo, hi)
    if not lo <= delta_star <= hi:
        raise ResonanceWindowError(
            f"no stationary point of the lower branch of {scan.sideband} inside "
            f"[{lo!r}, {hi!r}]: its refinement ends at {delta_star!r}"
        )
    return delta_star, gap_min, "extremum"


def check_bases(sideband: SidebandId, n_max: int | None, eta: float) -> tuple[int, int]:
    """Bound the bases ``find_resonance`` builds before any is built: n_max (``default_n_max``
    when None) by ``check_padded_basis`` at ``eta``, then above max(n_g, n_e), and, but for a
    carrier, its doubled margin by ``check_padded_basis``.  Returns (n_max, doubled n_max)."""
    n_used = n_max if n_max is not None else default_n_max(sideband, eta)
    check_padded_basis(eta, n_used)
    base = max(sideband.n_g, sideband.n_e)
    if n_used <= base:
        raise ValueError(f"n_max must exceed max(n_g, n_e) = {base}, got {n_used!r}")
    n_doubled = base + 2 * (n_used - base)
    if not sideband.is_carrier:
        doubles = f"; the convergence check doubles the margin of n_max = {n_used}"
        check_padded_basis(eta, n_doubled, why=doubles)
    return n_used, n_doubled


def find_resonance(
    sideband: SidebandId,
    params: TrapParams,
    n_max: int | None = None,
) -> ShiftReport:
    """Locate one sideband resonance from the exact spectrum.

    Scans the branch that enters the target anti-crossing from |g, n_g>,
    refines its extremum (or, for decoupled pairs, the branch intersection)
    and reports delta_omega = delta_star - delta0 on n_max.  The location is
    repeated once on the basis with doubled margin over max(n_g, n_e), and
    ``converged`` says whether the two shifts agree; a larger n_max is the
    way to go further.  ``check_bases`` bounds every basis built before the
    first solve.  ``gap`` is the measured splitting, the minimal separation
    of the pair over the scan window: it approaches |Omega_{n_g,n_e}| for a
    resolved anti-crossing and collapses to zero for a decoupled pair.
    Carriers are unshifted by symmetry and solve nothing: their ``gap`` is
    |Omega_{n,n}|, read off column n of the operator on n_max
    (``displacement_column``), so no result of the exact route comes from
    the closed form.
    delta_star carries a roundoff floor of about one ulp of delta0, which
    meets ``CONVERGENCE_ABSOLUTE`` (1e-12) at the highest levels: ulp(delta)
    is 9.1e-13 for 4096 <= |delta| < 8192 and 1.8e-12 from 8192 on, so there
    a shift below 1.8e-8 can read as not converged on roundoff alone.
    From n of a few hundred, ``converged`` follows the noise of the
    finite-difference polish (``_refine_maximum``), not truncation: a change
    of 1e-14 in the operator flips (200,201) at eta 0.3, rabi 0.01.
    """
    delta0 = float(sideband.order)
    if not sideband.is_carrier and params.rabi <= 0:
        raise ValueError("find_resonance requires rabi > 0 for non-carrier sidebands")
    n_used, n_doubled = check_bases(sideband, n_max, params.eta)
    if sideband.is_carrier:
        n = sideband.n_g
        gap = float(2 * abs(0.5 * params.rabi * displacement_column(params.eta, n_used, n)[n]))
        delta_star, method, converged = 0.0, "carrier", True
    else:
        delta_star, gap, method = _locate(_DetuningScan(*real_pencil(coupling_block(params, n_used)), sideband))
        shift = delta_star - delta0
        doubled = _locate(_DetuningScan(*real_pencil(coupling_block(params, n_doubled)), sideband))[0] - delta0
        converged = abs(doubled - shift) <= max(CONVERGENCE_RELATIVE * abs(doubled), CONVERGENCE_ABSOLUTE)
    return ShiftReport(
        delta_star=delta_star,
        delta_omega=delta_star - delta0,
        gap=gap,
        method=method,
        n_max_used=n_used,
        converged=converged,
    )


def _assign(prev_vectors: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, float]:
    """Permutation matching previous eigenvectors to new ones by overlap."""
    overlap = np.abs(prev_vectors.T @ vectors)
    rows, cols = linear_sum_assignment(-(overlap**2))
    perm = np.empty(len(rows), dtype=int)
    perm[rows] = cols
    matched = overlap[rows, cols]
    return perm, float(np.min(matched))


def _step_permutation(
    scan: _DetuningScan,
    d_from: float,
    v_from: np.ndarray,
    d_to: float,
    v_to: np.ndarray,
    depth: int = 0,
) -> np.ndarray:
    perm, worst = _assign(v_from, v_to)
    if worst >= TRACK_OVERLAP_MIN:
        return perm
    if depth >= MAX_BISECTION_LEVELS:
        raise TrackingAmbiguityError(
            f"branch continuation ambiguous between delta = {d_from!r} and {d_to!r} "
            f"after {MAX_BISECTION_LEVELS} bisection levels (best overlap {worst:.3f})"
        )
    d_mid = 0.5 * (d_from + d_to)
    _, v_mid = scan.eigen(d_mid)
    first = _step_permutation(scan, d_from, v_from, d_mid, v_mid, depth + 1)
    second = _step_permutation(scan, d_mid, v_mid, d_to, v_to, depth + 1)
    return second[first]


def sweep_spectrum(
    params: TrapParams,
    deltas: np.ndarray,
    n_max: int,
    tags: list[tuple[str, int]],
) -> DressedSpectrum:
    """Track dressed branches across a detuning grid by eigenvector continuity.

    Consecutive eigenbases are matched with an optimal assignment on overlap
    magnitudes; intervals whose assignment is uncertain (overlap below 0.5)
    are bisected internally, up to ``MAX_BISECTION_LEVELS``, without changing
    the output grid.  The union of all branches at each grid point is exactly
    a permutation of the raw eigenvalues.  n_max (``check_padded_basis``),
    every tag and every detuning are checked before the Hamiltonian is built.
    """
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim != 1 or len(deltas) < 2:
        raise ValueError("deltas must be a 1-D grid with at least two points")
    points = deltas.tolist()
    for delta in points:
        check_delta(delta)
    check_padded_basis(params.eta, n_max)
    rows = basis_rows(n_max)
    for tag in tags:
        if tag not in rows:
            raise ValueError(f"unknown branch tag {tag!r} for n_max = {n_max}")
        check_level(f"the level of branch tag {tag!r}", tag[1], top=n_max)  # 1.0 matches row 1
    scan = _DetuningScan(*real_pencil(coupling_block(params, n_max)))

    values, vectors = scan.eigen(points[0])
    # Identify eigenvectors with bare states at the first grid point.
    perm, _ = _assign(np.eye(len(rows)), vectors)

    energy = {tag: np.empty(len(deltas)) for tag in tags}
    weight = {tag: np.empty(len(deltas)) for tag in tags}
    for j, delta in enumerate(points):
        if j > 0:
            prev_vectors = vectors
            values, vectors = scan.eigen(delta)
            step = _step_permutation(scan, points[j - 1], prev_vectors, delta, vectors)
            perm = step[perm]
        for tag in tags:
            col = perm[rows[tag]]
            energy[tag][j] = values[col]
            weight[tag][j] = vectors[rows[tag], col] ** 2

    return DressedSpectrum(grid=deltas, branches=energy, overlaps=weight)


def track_branch(
    params: TrapParams,
    deltas: np.ndarray,
    tag: tuple[str, int],
    n_max: int,
) -> DressedSpectrum:
    """The one branch ``tag`` of ``sweep_spectrum``, tracked the same way."""
    return sweep_spectrum(params, deltas, n_max, tags=[tag])
