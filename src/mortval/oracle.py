"""Independent numerical checks of the closed-form solvers.

Three routes, each built on different machinery than the solvers:

* :func:`psor_value` discretizes the obstacle problem
  min{L_H V - r V + c, f - V} = 0 in log-price coordinates, with end rows
  that continue the scheme exactly beyond the grid, and solves the
  resulting linear complementarity problem exactly, by Howard policy
  iteration on nested grids.  Each policy is evaluated in closed form:
  the stencil has constant coefficients and the coupon is affine between
  kinks, so the never-stopping value is a particular solution plus a few
  columns of the inverse matrix, and each continuation run adds the
  stencil's two geometric modes fitted to the payoff at its ends.
* :func:`threshold_policy_value` computes the exact expected discounted
  cashflow of a *given* two-threshold stopping policy from the power
  solutions h^{p1}, h^{-p2} of the pricing ODE (no optimization anywhere).
* :func:`mc_cashflow_value` samples the exponential horizon.  For
  T ~ Exp(r) independent of the path, the value is E[rho_T] / r, with rho_t
  the coupon c(H_t) until the stop and r times the payoff from then on
  (held forever, the coupon always).  It samples only T, on a randomly
  shifted 1-D lattice under the tent transform, and takes E[rho_T | T] in
  closed form (conditional Monte Carlo): the coupon is affine between
  kinks, so the lognormal price gives a short sum of normal distribution
  functions, and a stop at one threshold, lower or upper, adds an image
  term per kink by the method of images (Carr's exponential horizon;
  Borodin and Salminen).  The standard error is the spread of the shifts'
  means.  Everything runs on the calling thread.  Nothing is time-stepped
  or truncated, and nothing uses the solvers' exponents.

:func:`oracle_triangle` checks one closed-form solve against all three.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .contracts import ContractSpec, PerpetualCashflows, no_prepay_cashflows, perpetual_cashflows
from .errors import (
    InvalidHorizon,
    InvalidParams,
    InvalidThresholds,
    NotConverged,
    float_faults_unsupported,
)
from .model import ModelParams, compute_exponents
from .options import solve_contract, solve_no_prepay
from .solution import checked_price

_DT = 1.0 / 52.0      # McResult.dt, nominal: no estimate takes a time step
_SHIFTS = 32          # random shifts of the Monte Carlo lattice, so its SE has 31 degrees of freedom
_COARSE_NODES = 126   # smallest level of the nested policy-iteration solve
# Phi for arrays (numpy has no erfc): pieces of width 1/128 in s = x / (x + 2)
# up to s = 1, each a polynomial of degree 6 (see ``_phi_table``); fewer
# pieces of higher degree are as accurate but cost a gather and two passes
# more per degree.
# Past x = |z| / sqrt(2) = 26.5 (z = -37.48), where erfc(x) / 2 < 1.2e-307,
# Phi is taken as 0 or 1, so that no step leaves the normal floats.
_PHI_WIDTH, _PHI_DEGREE, _PHI_TAIL = 128, 6, 26.5


@dataclass(frozen=True)
class GridSpec:
    """Log-uniform grid for the obstacle solver."""

    h_min: float
    h_max: float
    n_points: int = 2001

    def __post_init__(self) -> None:
        if not (0.0 < self.h_min < self.h_max < math.inf):
            raise InvalidParams(f"the grid window needs 0 < h_min < h_max < inf, got [{self.h_min}, {self.h_max}]")
        if self.n_points < 101:
            raise InvalidParams(f"n_points must be at least 101, got {self.n_points}")


@dataclass(frozen=True)
class OracleResult:
    """Grid values of the discrete obstacle problem and its stopping set.

    ``sweeps`` counts the policy iterations summed over all grid levels,
    each one closed-form evaluation of a stopping set; ``stopping`` is the
    last level's policy and ``stop_intervals`` the node spans of its runs.
    """

    grid: np.ndarray
    values: np.ndarray
    stopping: np.ndarray
    stop_intervals: tuple[tuple[float, float], ...]
    sweeps: int


def _evaluate(f, h) -> np.ndarray:
    """``f(h)`` as a float array shaped like ``h``: a cashflow that returns a
    scalar, such as a constant coupon, takes that value at every price."""
    h = np.asarray(h, dtype=float)
    values = np.asarray(f(h), dtype=float)
    if values.shape == h.shape:
        return values
    try:
        return np.broadcast_to(values, h.shape)
    except ValueError:
        raise InvalidParams(f"a cashflow returned shape {values.shape} for prices of shape {h.shape}") from None


def _log_grid(h_min: float, h_max: float, n: int, kinks: tuple[float, ...]) -> tuple[np.ndarray, float]:
    """Log-uniform nodes with payoff/coupon kinks placed exactly on nodes.

    The window is shifted (and, with two interior kinks, the spacing
    adjusted) by less than one cell so the kinks coincide with nodes.
    """
    x0, x1 = math.log(h_min), math.log(h_max)
    ks = sorted(math.log(k) for k in kinks if h_min < k < h_max)
    dx = (x1 - x0) / (n - 1)
    if ks:
        if len(ks) >= 2:
            span = ks[1] - ks[0]
            dx = span / max(1, round(span / dx))
        j = min(max(round((ks[0] - x0) / dx), 1), n - 2)
        x0 = ks[0] - j * dx
    return np.exp(x0 + dx * np.arange(n)), dx


def _level_sizes(n: int) -> list[int]:
    """Node counts from the coarsest level up to ``n``, spacing halved per level."""
    sizes = [n]
    while (sizes[-1] - 1) // 2 + 1 >= _COARSE_NODES:
        sizes.append((sizes[-1] - 1) // 2 + 1)
    return sizes[::-1]


def _runs(mask: np.ndarray) -> tuple[list[int], list[int]]:
    """First and last index of each run of True in ``mask``, as Python ints:
    the per-run arithmetic of the policy iteration is slower on numpy ints."""
    padded = np.zeros(len(mask) + 2, dtype=bool)
    padded[1:-1] = mask
    edges = (padded[1:] != padded[:-1]).nonzero()[0].tolist()
    return edges[::2], [e - 1 for e in edges[1::2]]


class _Level(NamedTuple):
    """One grid level of n nodes: its stencil, end-row roots, right-hand side,
    held-forever value, and ``green`` with green[n + d] = kt^d for d >= 0 and
    kb^-d for d <= 0."""

    lower: float
    diag: float
    upper: float
    kb: float
    kt: float
    rhs: np.ndarray
    held: np.ndarray
    green: np.ndarray


def _level(params: ModelParams, cashflows: PerpetualCashflows, h: np.ndarray, dx: float) -> _Level | None:
    """The scheme on nodes ``h``, or None when the grid is too coarse for the drift.

    ``held`` is built as ``psor_value`` describes: the pieces' particular
    solution P plus (rhs - A P)_j times column j of A^{-1} for each row j
    that P misses.  Column j is C green[n - j + i] over the rows i, with
    C = 1 / (diag - lower kb - upper kt) = 1 / root for an interior row and
    1 / (1 - kb kt) = (diag + root) / (2 root) for an end row.
    """
    r, sig2 = params.r, params.sigma**2
    nu = r - params.delta - 0.5 * sig2
    lower = 0.5 * sig2 / dx**2 - 0.5 * nu / dx   # weight of V_{i-1}
    upper = 0.5 * sig2 / dx**2 + 0.5 * nu / dx   # weight of V_{i+1}
    diag = sig2 / dx**2 + r
    # r and den as the rounded stencil sums them, without cancellation: the
    # held value moves by about eps diag / min(r, den) relative with them,
    # so it must solve the rows as rounded.
    rate = math.fsum((diag, -lower, -upper))
    den = math.fsum((rate, -lower * math.expm1(-dx), -upper * math.expm1(dx)))
    if lower <= 0.0 or upper <= 0.0 or den <= 0.0:
        return None
    root = math.sqrt(rate * (diag + lower + upper) + (upper - lower) ** 2)   # of diag^2 - 4 lower upper
    kb, kt = 2.0 * upper / (diag + root), 2.0 * lower / (diag + root)
    n = len(h)
    steps = np.arange(n + 1.0)
    green = np.concatenate((np.exp(math.log(kb) * steps[:0:-1]), np.exp(math.log(kt) * steps)))

    q = _evaluate(cashflows.coupon, h)
    x0 = math.log(h[0])
    cuts = sorted({0, n - 1} | {round((math.log(k) - x0) / dx) for k in cashflows.kinks if h[0] < k < h[-1]})
    tol = 1e-12 * np.max(np.abs(q))
    part = np.empty(n)
    for lo, hi in zip(cuts, cuts[1:]):
        s = (q[hi] - q[lo]) / (h[hi] - h[lo])
        a = q[lo] - s * h[lo]
        if np.any(np.abs(a + s * h[lo : hi + 1] - q[lo : hi + 1]) > tol):
            raise InvalidParams(f"the coupon is not affine between the kinks {cashflows.kinks} on the grid nodes")
        part[lo : hi + 1] = a / rate + s / den * h[lo : hi + 1]
        if lo == 0:   # the bottom row continues the first piece's particular below the grid
            bottom = part[0] - kb * (a / rate + s / den * h[1])
    rhs = q.copy()
    rhs[0], rhs[-1] = bottom, (1.0 - kt) * q[-1] / r

    level = _Level(lower, diag, upper, kb, kt, rhs, part, green)
    miss = rhs - _apply(level, part)
    held = part.copy()
    for j in {0, n - 1} | {i for k in cuts[1:-1] for i in (k - 1, k)}:
        scale = 0.5 * (diag + root) / root if j in (0, n - 1) else 1.0 / root
        held += scale * miss[j] * green[n - j : 2 * n - j]
    return level._replace(held=held)


def _apply(level: _Level, v: np.ndarray) -> np.ndarray:
    """A v, the end rows reading v_0 - kb v_1 and v_N - kt v_{N-1}."""
    av = v.copy()
    av[1:-1] = level.diag * v[1:-1] - level.lower * v[:-2] - level.upper * v[2:]
    av[0] -= level.kb * v[1]
    av[-1] -= level.kt * v[-2]
    return av


def _policy_value(level: _Level, stop: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The solution of one policy's system: V = f on stopped rows, A V = rhs elsewhere.

    On a continuation run [s, e] of L nodes V = held + A kt^{i-s+1} + B kb^{e+1-i},
    both modes solving the interior rows' homogeneous recurrence; V_{s-1} = f_{s-1}
    and V_{e+1} = f_{e+1} fix A and B through a 2x2 system with determinant
    1 - (kt kb)^{L+1}.  The end rows annul the mode that grows towards them, so
    a run touching the bottom has A = 0 and one touching the top B = 0.
    """
    held, green = level.held, level.green
    n = len(f)
    values = np.where(stop, f, held)
    for s, e in zip(*_runs(~stop)):
        span = e - s + 2   # L + 1
        u = float(f[s - 1] - held[s - 1]) if s > 0 else 0.0
        w = float(f[e + 1] - held[e + 1]) if e < n - 1 else 0.0
        cb = float(green[n - span]) if s > 0 else 0.0       # kb^{L+1}: the B mode at s - 1
        ct = float(green[n + span]) if e < n - 1 else 0.0   # kt^{L+1}: the A mode at e + 1
        det = 1.0 - ct * cb
        a, b = (u - cb * w) / det, (w - ct * u) / det
        values[s : e + 1] += a * green[n + 1 : n + span] + b * green[n - span + 1 : n]
    return values


def psor_value(params: ModelParams, cashflows: PerpetualCashflows, grid: GridSpec) -> OracleResult:
    """Solve the discrete obstacle problem for a minimizing stopper.

    Central differences of L_H - r in log price give a tridiagonal
    M-matrix A.  The linear complementarity problem V <= f, A V <= q,
    min(f - V, q - A V) = 0 is solved exactly by Howard policy iteration:
    each iteration solves the linear system of the current stopping set
    (V = f on stopped rows, A V = q elsewhere), then every node takes the
    row with the larger residual, stopping where V - f >= A V - q, until
    the stopping set repeats.  Where the two residuals tie within
    1e-12 max(1, max |f|) a node keeps its action: stopping and continuing
    are then equal to rounding, and switching on the rounding can cycle
    for ever.  The solve runs on nested grids: it starts
    with no stopping at about 126 nodes over the same window and kinks,
    halves the spacing up to ``n_points``, and starts each level from the
    previous level's stopping set; levels too coarse for the drift are
    skipped.

    Each policy's system is solved in closed form, as the stencil has
    constant coefficients and the coupon is affine between kink nodes.
    The never-stopping value ``held`` is computed once per level: a
    particular solution a / r + s h / den on each coupon piece, with a and
    s read off the coupon at the piece's end nodes, plus closed-form
    columns of A^{-1} (C kt^{i-j} below row j and C kb^{j-i} above it) for
    the rows the particular misses: the end rows and rows k - 1 and k at
    each kink node k.  Each continuation run [s, e] of a policy then adds
    A kt^{i-s+1} + B kb^{e+1-i}, the two solutions of the homogeneous
    recurrence, with A and B set by the payoff at the stopped nodes on
    either side.  A coupon that strays from its pieces at a node raises
    ``InvalidParams``.

    The end rows stop or continue on the bounded solution of the same
    stencil beyond the grid, where the coupon is affine, a + s h, below the
    first kink and constant, c, above the last: V_0 - kb V_1 = P_0 - kb P_1
    with P_i = a / r + s h_i / (diag - lower e^{-dx} - upper e^{dx}), and
    V_N - kt V_{N-1} = (1 - kt) c / r; kb, kt < 1 are the smaller roots of
    lower k^2 - diag k + upper and upper k^2 - diag k + lower.  So the values
    solve the problem on the whole half-line when every kink lies inside the
    grid and each end node lies in the region, stopping or not, that reaches
    its end: the top node above every upper boundary or inside a stopping
    region that extends to infinity, the bottom node likewise towards 0.

    ``sweeps`` of the result is the total number of policy iterations, and
    ``stopping`` the last policy.  Each level is capped at its node count,
    which an M-matrix never reaches; hitting it raises ``NotConverged``.
    (The name predates the policy-iteration solve and is kept for callers.)
    """
    prev = None
    sweeps = 0
    for n in _level_sizes(grid.n_points):
        h, dx = _log_grid(grid.h_min, grid.h_max, n, cashflows.kinks)
        level = _level(params, cashflows, h, dx)
        if level is None:
            if n < grid.n_points:
                continue
            raise InvalidParams(
                f"grid too coarse for the drift (dx={dx:.3g}); increase n_points or shrink the window"
            )
        f = _evaluate(cashflows.payoff, h)
        stop = np.zeros(n, dtype=bool) if prev is None else np.interp(np.log(h), *prev) >= 0.5
        tie = 1e-12 * max(1.0, float(np.abs(f).max()))
        for _ in range(n):
            values = _policy_value(level, stop, f)
            sweeps += 1
            gain = (values - f) - (_apply(level, values) - level.rhs)
            improved = gain > tie
            improved |= stop & (gain >= -tie)
            if (improved == stop).all():
                break
            stop = improved
        else:
            raise NotConverged(f"policy iteration did not settle within {n} iterations on {n} nodes")
        prev = (np.log(h), stop)

    intervals = tuple((float(h[s]), float(h[e])) for s, e in zip(*_runs(stop)))
    return OracleResult(grid=h, values=values, stopping=stop, stop_intervals=intervals, sweeps=sweeps)


def _linear_pieces(
    cashflows: PerpetualCashflows, edges: list[float]
) -> list[tuple[float, float]]:
    """(intercept, slope) of the coupon on each cell between ``edges``.

    The perpetual coupons are piecewise linear with breaks only at the
    published kinks, so two probes per cell recover each piece exactly.  A
    third probe checks the piece: a coupon that leaves it by more than
    1e-12 of the largest probe, the grid's tolerance, raises ``InvalidParams``.
    """
    pieces = []
    for a, b in zip(edges, edges[1:]):
        if math.isinf(b):
            t1 = 2.0 * a if a > 0.0 else 1.0
            t2, t3 = 2.0 * t1, 4.0 * t1
        else:
            t1 = a + (b - a) / 3.0
            t2 = a + 2.0 * (b - a) / 3.0
            t3 = 0.5 * (a + b)
        c1, c2, c3 = (float(_evaluate(cashflows.coupon, t)) for t in (t1, t2, t3))
        slope = (c2 - c1) / (t2 - t1)
        intercept = c1 - slope * t1
        if abs(intercept + slope * t3 - c3) > 1e-12 * max(abs(c1), abs(c2), abs(c3)):
            raise InvalidParams(f"the coupon is not affine between the kinks {cashflows.kinks} and thresholds")
        pieces.append((intercept, slope))
    return pieces


def _check_thresholds(lower: float | None, upper: float | None) -> None:
    for side, x in (("lower", lower), ("upper", upper)):
        if x is not None and not 0.0 < x < math.inf:
            raise InvalidThresholds(f"{side} threshold must be positive and finite, got {x}")
    if lower is not None and upper is not None and not lower < upper:
        raise InvalidThresholds(f"need lower < upper, got ({lower}, {upper})")


@float_faults_unsupported
def threshold_policy_value(
    params: ModelParams,
    cashflows: PerpetualCashflows,
    thresholds: tuple[float | None, float | None],
    h: float,
) -> float:
    """Exact value of the policy "stop at first exit from (lower, upper)".

    On (lower, upper) the policy value W solves L_H W - r W + c = 0 with
    W = payoff at any finite threshold, boundedness replacing the missing
    condition when a side is absent.  Each linear coupon piece c0 + c1 h
    contributes the particular solution c0/r + c1 h/delta; the homogeneous
    coefficients follow from a small linear system with value and slope
    matching at the coupon kinks.  Nothing here depends on the closed-form
    solvers, so agreement with them at their own boundaries is a genuine
    cross-check.  A threshold that is not positive and finite, or
    lower >= upper, raises ``InvalidThresholds``; a coupon that is not affine
    between the kinks ``InvalidParams``; and a power of a threshold past the
    float range ``UnsupportedRegime``.
    """
    lower, upper = thresholds
    _check_thresholds(lower, upper)
    h = checked_price(h)

    if (lower is not None and h <= lower) or (upper is not None and h >= upper):
        return float(_evaluate(cashflows.payoff, h))

    lo = 0.0 if lower is None else lower
    hi = math.inf if upper is None else upper
    edges = [lo] + [k for k in sorted(cashflows.kinks) if lo < k < hi] + [hi]
    pieces = _linear_pieces(cashflows, edges)

    ex = compute_exponents(params)
    p1, p2 = ex.p1, ex.p2
    r, delta = params.r, params.delta

    def particular(i: int, x: float) -> float:
        c0, c1 = pieces[i]
        return c0 / r + c1 * x / delta

    n_pieces = len(pieces)
    size = 2 * n_pieces
    mat = np.zeros((size, size))
    rhs = np.zeros(size)
    row = 0

    if lower is None:
        mat[row, 1] = 1.0  # boundedness at 0: kill the h^{-p2} mode
    else:
        mat[row, 0] = lower**p1
        mat[row, 1] = lower**-p2
        rhs[row] = float(_evaluate(cashflows.payoff, lower)) - particular(0, lower)
    row += 1

    for i, k in enumerate(edges[1:-1]):
        a_i, b_i = 2 * i, 2 * i + 1
        a_n, b_n = 2 * i + 2, 2 * i + 3
        mat[row, a_i], mat[row, b_i] = k**p1, k**-p2
        mat[row, a_n], mat[row, b_n] = -(k**p1), -(k**-p2)
        rhs[row] = particular(i + 1, k) - particular(i, k)
        row += 1
        mat[row, a_i], mat[row, b_i] = p1 * k ** (p1 - 1.0), -p2 * k ** (-p2 - 1.0)
        mat[row, a_n], mat[row, b_n] = -p1 * k ** (p1 - 1.0), p2 * k ** (-p2 - 1.0)
        rhs[row] = pieces[i + 1][1] / delta - pieces[i][1] / delta
        row += 1

    if upper is None:
        mat[row, size - 2] = 1.0  # boundedness at infinity: kill h^{p1}
    else:
        mat[row, size - 2] = upper**p1
        mat[row, size - 1] = upper**-p2
        rhs[row] = float(_evaluate(cashflows.payoff, upper)) - particular(n_pieces - 1, upper)

    coef = np.linalg.solve(mat, rhs)
    # Zero the pinned modes exactly: h^{p1} or h^{-p2} would amplify LU rounding.
    if lower is None:
        coef[1] = 0.0
    if upper is None:
        coef[size - 2] = 0.0
    i = max(0, np.searchsorted(np.array(edges[1:-1]), h, side="right"))
    return float(coef[2 * i] * h**p1 + coef[2 * i + 1] * h**-p2 + particular(i, h))


@dataclass(frozen=True)
class McResult:
    """Monte Carlo estimate with its sampling diagnostics.

    ``std_error`` is over the means of the lattice's ``_SHIFTS`` random
    shifts, and ``n_paths`` counts the sampled times over all shifts and
    strata: half the requested count, rounded up to whole lattices (10 016
    at 20 000), or three times that where a stop splits the times into
    strata.  No estimate is time-stepped or truncated, so ``tail_bound`` is
    always 0.0.  ``horizon`` (the argument as given), ``dt`` (a nominal
    1/52) and ``tail_bound`` carry no information; they are kept because
    the benchmark's tracer (``perfbench/tracing.py``) reads them, and go
    when the benchmark stops reading them.
    """

    estimate: float
    std_error: float
    tail_bound: float
    n_paths: int
    horizon: float
    dt: float
    note: str


def mc_cashflow_value(
    params: ModelParams,
    cashflows: PerpetualCashflows,
    policy: tuple[float | None, float | None] | None,
    h: float,
    n_paths: int,
    horizon: float,
    seed: int,
) -> McResult:
    """Estimate the discounted contract cashflows, held forever or stopped
    at one threshold.

    ``policy`` is None or (None, None) to never stop, (lower, None) to stop
    at the first fall to ``lower``, or (None, upper) to stop at the first
    rise to ``upper``; two thresholds, or one that is not positive and
    finite, raise ``InvalidThresholds``.
    Coupons accrue until the stop, which pays the payoff at the threshold.
    A run started at or beyond its threshold pays the payoff with no
    sampling.

    For T ~ Exp(r) independent of the path, the value is E[rho_T] / r,
    with rho_t the coupon c(H_t) before tau, the first hit of the threshold
    L, and r f(L) from tau on; held forever rho_t = c(H_t).  Only T is
    sampled (conditional Monte Carlo): given T, H_T is lognormal, killed at
    L by a stop, and the coupon is affine between its kinks, so E[rho_T | T]
    is a short sum of normal distribution functions (see
    ``_coupon_given_time``), each taken over all times at once by a
    piecewise polynomial within 6e-14 relative of ``math.erfc``
    (``_normal_cdf``).  The times run over the lattice k / N,
    N = ceil(n_paths / (2 ``_SHIFTS``)), moved mod 1 by each of ``_SHIFTS``
    independent uniform shifts drawn from ``seed``; the tent q = |2 u - 1|
    takes each point u to T = -log(q) / r (see ``_lattice_means`` and
    ``_tent_time``).  Where the path without noise crosses L sharply, the
    times take three strata of q, each with its own tent over the same
    points and shifts (see ``_strata``).  The estimate is the mean of the
    shifts' means, and its standard error their spread; the result's
    ``n_paths`` counts the sampled times, not paths.  The coupon is read as
    pieces between its kinks: one that is not affine there raises
    ``InvalidParams``.

    ``horizon`` is still validated but not used.  An estimate is
    reproducible bit for bit from ``seed`` on one numpy build and CPU
    dispatch only: numpy's SIMD ``exp`` and ``log`` kernels round
    differently from one instruction set to another.
    """
    if n_paths < 10_000:
        raise InvalidParams(f"n_paths must be at least 10_000, got {n_paths}")
    if horizon < 200.0:
        raise InvalidHorizon(f"horizon must be at least 200 years, got {horizon}")
    h = checked_price(h)
    lower, upper = (None, None) if policy is None else policy
    if lower is not None and upper is not None:
        raise InvalidThresholds(f"need at most one threshold, got ({lower}, {upper})")
    _check_thresholds(lower, upper)

    level = upper if lower is None else lower
    n = -(-n_paths // (2 * _SHIFTS))   # half as many times as paths
    if (lower is not None and h <= lower) or (upper is not None and h >= upper):
        return McResult(
            estimate=float(_evaluate(cashflows.payoff, h)), std_error=0.0, tail_bound=0.0,
            n_paths=_SHIFTS * n, horizon=horizon, dt=_DT, note="started at or beyond the threshold; nothing sampled",
        )
    strata = _strata(params, h, level)
    note = (f"E[rho_T | T] in closed form at the times of a tent-transformed lattice of {n} points in "
            f"{len(strata)} strata, {_SHIFTS} random shifts; nothing truncated")
    shifts = np.random.default_rng(seed).random(_SHIFTS)
    samples = _lattice_means(params, cashflows, h, level, n, shifts, strata)
    return McResult(
        estimate=float(np.mean(samples)),
        std_error=float(np.std(samples, ddof=1) / math.sqrt(len(samples))),
        tail_bound=0.0, n_paths=_SHIFTS * n * len(strata), horizon=horizon, dt=_DT, note=note,
    )


def _coupon_pieces(cashflows):
    """The coupon's kinks in (0, inf) and its (intercept, slope) between them,
    from 0 to infinity (``_linear_pieces``)."""
    kinks = sorted({k for k in cashflows.kinks if 0.0 < k < math.inf})
    return kinks, _linear_pieces(cashflows, [0.0, *kinks, math.inf])


def _coupon_given_time(params, cashflows, h, t, level=None):
    """E[rho_t | H_0 = h] at each time of the array ``t``, in closed form:
    rho_t is the coupon c(H_t), for ever when ``level`` is None, and
    otherwise until the first hit of the threshold L = ``level`` and
    r f(L) from then on.

    With pieces a_j + b_j H between the kinks, F = E[H_t] = h e^{(r - delta) t},
    s = sigma sqrt(t) and z_k = (log k - log h - mu t) / s, P(H_t < k) = Phi(z_k)
    and E[H_t; H_t < k] = F Phi(z_k - s).  Telescoped over the kinks,

        E[c(H_t)] = a_last + b_last F + sum_k [da_k Phi(z_k) + db_k F Phi(z_k - s)],

    da_k and db_k the coefficients below kink k less those above it.

    A stop makes L one more kink, with the piece (r f(L), 0) beyond it,
    and drops the kinks beyond it.  For a lower threshold the sum runs in
    -log H, the reflection y -> -y, so that L lies above: z, s and the
    differences change sign, and the first piece, (r f(L), 0), takes the
    last one's place.  Each Phi(z_k) then becomes the killed law's
    P(H_t < k, no hit by t) = Phi(z_k) - K Phi(w_k) by the method of images
    (Borodin and Salminen), with w_k = z_k + 2 (x - l) / s for x = log h and
    l = log L (both times the sign) and K = exp(-2 nu (x - l) / sigma^2),
    nu the drift of log H: mu for the Phi(z_k) terms and mu + sigma^2, the
    share measure's, for the F terms.  K overflows at small sigma
    (log K ~ 1e10 at sigma = 1e-6), so it is never formed:
    K Phi(w) = e^{-z^2 / 2 - 2 (x - l)(log k - l) / (sigma^2 t)} R(|w| / sqrt(2))
    for w <= 0, with R(x) = e^{x^2} erfc(x) / 2 (``_scaled_erfc``) and an
    exponential of at most 1; for w > 0 it is K less that, and w > 0 needs a
    drift away from L, where K < 1.

    Phi is the whole-array ``_normal_cdf``, within 6e-14 relative of
    ``math.erfc``.  A coefficient that is zero adds no term, so a flat coupon
    never meets an overflowed F, and a time of 0 takes c(h) itself.
    """
    kinks, pieces = _coupon_pieces(cashflows)
    r, sigma = params.r, params.sigma
    mu = r - params.delta - 0.5 * sigma**2
    x = math.log(h)
    sign = 1.0
    if level is not None:
        stop = (r * float(_evaluate(cashflows.payoff, level)), 0.0)
        if level < h:
            sign = -1.0
            i = bisect.bisect_right(kinks, level)
            kinks, pieces = [level, *kinks[i:]], [stop, *pieces[i:]]
        else:
            i = bisect.bisect_left(kinks, level)
            kinks, pieces = [*kinks[:i], level], [*pieces[: i + 1], stop]
        gap = x - math.log(level)
    s = sigma * np.sqrt(t)

    def below(z, k, drift):
        """P(sign log H_t < sign log k, and no hit of L by t) for a drift of
        log H of ``drift``, from z = sign (log k - x - drift t) / s."""
        p = _normal_cdf(z)
        if level is None:
            return p
        w = 2.0 * sign * gap / s
        w += z
        image = _scaled_erfc(np.fmin(np.abs(w) * math.sqrt(0.5), 2.0**52))
        exponent = -0.5 * z * z
        exponent -= 2.0 * gap * (math.log(k) - math.log(level)) / sigma**2 / t
        image *= np.exp(exponent, out=exponent)
        if drift * gap > 0.0:   # away from L, the only drift with some w > 0
            np.subtract(math.exp(-2.0 * drift * gap / sigma**2), image, out=image, where=w > 0.0)
        p -= image
        return p

    # At t = 0, s = 0 and z is +-inf or, on a kink, NaN; those entries are
    # replaced by c(h) below.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        forward = h * np.exp((r - params.delta) * t)
        a, b = pieces[0] if sign < 0.0 else pieces[-1]
        out = np.full_like(t, a)
        if b != 0.0:
            out += b * forward
        for k, (a_lo, b_lo), (a_hi, b_hi) in zip(kinks, pieces, pieces[1:]):
            z = (sign * (math.log(k) - x) - sign * mu * t) / s
            if a_lo != a_hi:
                out += sign * (a_lo - a_hi) * below(z, k, mu)
            if b_lo != b_hi:
                out += sign * (b_lo - b_hi) * forward * below(z - sign * s, k, mu + sigma**2)
    out[t == 0.0] = _evaluate(cashflows.coupon, h)
    return out


def _half_erfcx(x: float) -> float:
    """e^{x^2} erfc(x) / 2 to a few ulp, for x >= 0.

    Below 25 it is ``math.erfc`` times e^{x^2}, taken as e^{hi^2} e^{(x - hi)(x + hi)}
    with hi^2 exact: e^{x x} would carry the rounding of x x, up to 7e-14
    relative.  Beyond, where erfc nears the end of the normal floats, it is
    Laplace's continued fraction
    erfc(x) = e^{-x^2} / sqrt(pi) / (x + (1/2) / (x + 1 / (x + (3/2) / (x + ...)))),
    which 20 terms settle to an ulp from x = 5 up.
    """
    if x < 25.0:
        hi = round(x * 4096.0) / 4096.0
        return 0.5 * math.erfc(x) * math.exp(hi * hi) * math.exp((x - hi) * (x + hi))
    f = x
    for k in range(20, 0, -1):
        f = x + 0.5 * k / f
    return 0.5 / (math.sqrt(math.pi) * f)


@functools.cache
def _phi_table() -> np.ndarray:
    """Coefficients of the pieces of R(x) = e^{x^2} erfc(x) / 2: row i holds the
    v^i coefficient of every piece.

    Piece j covers s = x / (x + 2) in [j, j + 1) / ``_PHI_WIDTH``, with
    v = ``_PHI_WIDTH`` s - j in [0, 1), up to s = 1, where x is infinite and
    R is 0.  Each interpolates R at the n + 1 = ``_PHI_DEGREE`` + 1
    Chebyshev-Lobatto points t_k = cos(pi k / n) of t = 2 v - 1: the
    interpolant is sum_j c_j T_j(t) with c_j = (2 / n) sum_k f_k cos(pi j k / n),
    the terms k = 0 and n halved and c_0 and c_n halved again, expanded here
    into powers of v.  It meets the data at both ends of its piece, so the
    pieces join; its constant term is the data at the left end itself, which
    makes Phi(0) exactly 1/2.  No least-squares fit and no ``numpy.polynomial``;
    the table is built on first use, in about a millisecond, so importing
    the oracles does not pay for it.
    """
    n = _PHI_DEGREE
    k = np.arange(n + 1)
    weights = np.cos(np.pi / n * np.outer(k, k))
    weights[:, [0, n]] *= 0.5
    weights[[0, n]] *= 0.5
    # power[j, i] is the coefficient of v^i in T_j(2 v - 1) = (4 v - 2) T_{j-1} - T_{j-2}.
    power = np.zeros((n + 1, n + 1))
    power[0, 0], power[1, :2] = 1.0, (-1.0, 2.0)
    for j in range(2, n + 1):
        power[j, 1:] = 4.0 * power[j - 1, :-1]
        power[j] -= 2.0 * power[j - 1] + power[j - 2]
    s = (np.arange(_PHI_WIDTH)[:, None] + 0.5 + 0.5 * np.cos(np.pi / n * k)) / _PHI_WIDTH
    f = np.array([[_half_erfcx(2.0 * si / (1.0 - si)) if si < 1.0 else 0.0 for si in row] for row in s.tolist()])
    # Chebyshev coefficients first, then powers: f times the two matrices'
    # product would cancel terms of order 1e2 into coefficients of order 1e-8.
    coef = (2.0 / n * f @ weights) @ power
    coef[:, 0] = f[:, n]
    table = coef.T.copy()
    table.setflags(write=False)   # one cached table serves every call
    return table


def _scaled_erfc(x: np.ndarray) -> np.ndarray:
    """R(x) = e^{x^2} erfc(x) / 2 for a float array of x in [0, 2^52].

    R is the piecewise polynomial of ``_phi_table``: each piece's
    coefficients are picked by one ``np.take`` each and summed by Horner's
    rule in place, so every step is a whole-array pass.  It is within
    1.3e-14 relative of ``_half_erfcx`` up to x = 254, the last piece, and
    within 3e-17 absolute beyond, where R < 1.2e-3 falls like
    1 / (2 sqrt(pi) x) and the rounding of s = x / (x + 2) near 1 sets the
    error (measured on a dense grid of x up to 2^52).  Past 2^52, s rounds
    to 1.
    """
    v = x * (1.0 / _PHI_WIDTH)
    v += 2.0 / _PHI_WIDTH
    np.divide(x, v, out=v)    # _PHI_WIDTH s
    j = v.astype(np.intp)
    v -= j
    coef = _phi_table()
    # j is in range; under the default mode "raise" numpy buffers ``out``.
    half = np.take(coef[-1], j, mode="clip")
    term = np.empty_like(half)
    for row in coef[-2::-1]:
        half *= v
        half += np.take(row, j, out=term, mode="clip")
    return half


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    """Phi(z) for a float array, within 6e-14 relative of ``math.erfc`` where
    Phi(z) >= 1e-300 (measured on a dense grid of z in [-37.5, 8.3]).

    With x = |z| / sqrt(2), erfc(x) / 2 = e^{-x^2} R(x) is Phi(z) for z <= 0
    and 1 - Phi(z) for z > 0, with R from ``_scaled_erfc``.  The error is
    mostly the rounding of x x inside e^{-x^2}.
    Phi(-inf) = 0, Phi(inf) = 1 and Phi(nan) = nan, and no step overflows or
    underflows, so nothing raises under ``np.errstate(all="raise")``.
    """
    x = np.abs(z)
    x *= math.sqrt(0.5)
    tail = ~(x < _PHI_TAIL)   # NaN too: a NaN index is undefined
    far = tail.any()
    if far:
        x[tail] = _PHI_TAIL
    half = _scaled_erfc(x)
    x *= x
    np.negative(x, out=x)
    half *= np.exp(x, out=x)
    if far:
        half[tail] = np.where(np.isnan(z[tail]), np.nan, 0.0)
    return np.subtract(1.0, half, out=half, where=z > 0.0)


def _strata(params, h, level):
    """The strata (lo, hi) of q = e^{-rT} over which the lattice's times run.

    One, (0, 1), unless the path without noise, log h + mu T, reaches the
    threshold's log at T* > 0 with a crossing layer w = sigma sqrt(T*) / |mu|
    such that 8 w < T* / 2.  Then E[rho_T | T] turns from the coupon's rate
    to the payoff's within a few w of T*, close to a step, which a shifted
    lattice resolves only at O(1 / n); so the times take three strata, split
    at T* -+ 8 w, where Phi(-+8) is 0 or 1 to within 7e-16.  Splitting at T*
    alone puts a stratum end inside the step, a kink that the tent does not
    smooth.
    """
    if level is not None:
        mu = params.r - params.delta - 0.5 * params.sigma**2
        gap = math.log(level) - math.log(h)
        if gap * mu > 0.0:
            crossing = gap / mu
            layer = 8.0 * params.sigma * math.sqrt(crossing) / abs(mu)
            if layer < 0.5 * crossing:
                lo, hi = math.exp(-params.r * (crossing + layer)), math.exp(-params.r * (crossing - layer))
                return ((0.0, lo), (lo, hi), (hi, 1.0))
    return ((0.0, 1.0),)


def _lattice_means(params, cashflows, h, level, n, shifts, strata):
    """The mean of E[rho_T | T] / r, T ~ Exp(r), over each shift of an
    n-point lattice, stopped at ``level`` unless it is None.

    Shift s moves the points k / n to u = k / n + s mod 1, wrapped as
    x - floor(x).  In each stratum (lo, hi) of ``strata`` the tent
    q = lo + (hi - lo) |2 u - 1|, uniform on (lo, hi) like u, gives
    T = -log(q) / r (``_tent_time``), and the stratum's mean counts with its
    width hi - lo.  The tent makes the integrand's periodic extension
    continuous, so the shifted rule converges at close to O(n^-2) on it
    (Hickernell 2002).  The plain map T = -log(u) / r jumps from the limit
    at T = inf back to c(h) at T = 0, and its SE held forever on the README
    contracts is 80 times larger or more.
    """
    u = np.arange(n) / n + shifts[:, None]
    u -= np.floor(u)
    means = 0.0
    for lo, hi in strata:
        t = _tent_time(u.copy(), params.r, lo, hi)
        means += (hi - lo) * np.mean(_coupon_given_time(params, cashflows, h, t, level=level), axis=1)
    return means / params.r


def _tent_time(u, r, lo, hi):
    """Overwrite u, points in [0, 1), with T = -log(q) / r of the tent
    q = lo + (hi - lo) |2 u - 1|, and return it; a q of 0, at u = 1/2 when
    lo = 0, is taken as 2^-53.

    q is uniform on (lo, hi) like u on (0, 1), so with (0, 1) T ~ Exp(r).
    Every T is finite; u = 0 gives q = hi, so T = 0 when hi = 1.
    """
    u *= 2.0
    u -= 1.0
    np.abs(u, out=u)
    u *= hi - lo
    u += lo
    np.maximum(u, 2.0**-53, out=u)
    np.log(u, out=u)
    u /= -r
    return u


# Gates of the oracle triangle; Monte Carlo passes within max(3 SE, MC_TOL_FLOOR).
GRID_TOL, POLICY_TOL, MC_TOL_FLOOR = 1e-3, 1e-8, 5e-4


class Verdict(NamedTuple):
    """One oracle check: its gap and the tolerance it must stay within."""

    name: str
    gap: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.gap <= self.tol


class Triangle(NamedTuple):
    """Closed-form ``value`` and ``held`` (no prepayment) at h, the oracles' answers, and the verdicts.

    ``mc_stop`` is the default boundary h1 at which the Monte Carlo estimate
    stops, or None when it holds the contract forever.
    """

    value: float
    grid: OracleResult
    policy: float
    held: float
    mc: McResult
    verdicts: tuple[Verdict, ...]
    mc_stop: float | None


def oracle_triangle(params: ModelParams, spec: ContractSpec, h: float, n_points: int, n_paths: int, seed: int,
                    window: tuple[float, float] = (0.05, 3.0)) -> Triangle:
    """Check the closed form of ``spec`` against the three oracles, each within its gate.

    The grid runs from 2e-3 to twice the highest of ``window``'s top and the solved boundaries,
    and is compared with the closed form on ``window``; with an APRM band edge h3, its one
    stopping interval above par must end within a cell of h3.  The policy oracle values
    (h1, h2), or (h3, None) at and above h3; Monte Carlo values the contract without prepayment.
    """
    solved = solve_contract(params, spec)
    cashflows = perpetual_cashflows(spec, params)
    h_max = 2.0 * max([window[1], *solved.boundaries.values()])
    grid = psor_value(params, cashflows, GridSpec(2e-3, h_max, n_points=n_points))
    on = (grid.grid >= window[0]) & (grid.grid <= window[1])
    grid_gap = float(np.max(np.abs(grid.values[on] - solved.value(grid.grid[on]))))
    verdicts = [Verdict("grid sup-gap", grid_gap, GRID_TOL)]
    h1, h2, h3 = (solved.boundaries.get(name) for name in ("h1", "h2", "h3"))
    if h3 is not None:
        bands = [top for bottom, top in grid.stop_intervals if bottom > 1.0]
        edge_gap = abs(math.log(bands[0] / h3)) if len(bands) == 1 else math.inf
        verdicts.append(Verdict("grid band-edge log-gap to h3", edge_gap, math.log(grid.grid[1] / grid.grid[0])))
    policy = threshold_policy_value(params, cashflows, (h3, None) if h3 is not None and h >= h3 else (h1, h2), h)
    value = solved.value(h)
    verdicts.append(Verdict("threshold-policy gap", abs(policy - value), POLICY_TOL))
    nopp = solve_no_prepay(params, spec)
    stop = nopp.boundaries.get("h1")
    # The horizon, 200 years, is validated but unused: no estimate is truncated.
    mc = mc_cashflow_value(params, no_prepay_cashflows(spec, params), (stop, None), h, n_paths, 200.0, seed)
    held = nopp.value(h)
    verdicts.append(Verdict("mc no-prepay gap", abs(mc.estimate - held), max(3.0 * mc.std_error, MC_TOL_FLOOR)))
    return Triangle(value, grid, policy, held, mc, tuple(verdicts), stop)
