"""Independent numerical checks of the closed-form solvers.

Three routes, each built on different machinery than the solvers:

* :func:`psor_value` discretizes the obstacle problem
  min{L_H V - r V + c, f - V} = 0 in log-price coordinates, with end rows
  that continue the scheme exactly beyond the grid, and solves the
  resulting linear complementarity problem exactly, by Howard policy
  iteration on nested grids (a finite number of tridiagonal solves).
* :func:`threshold_policy_value` computes the exact expected discounted
  cashflow of a *given* two-threshold stopping policy from the power
  solutions h^{p1}, h^{-p2} of the pricing ODE (no optimization anywhere).
* :func:`mc_cashflow_value` averages discounted cashflows over antithetic
  pairs of exact GBM samples.  The held-forever integral
  V = int_0^inf e^{-rt} E[c(H_t)] dt equals E[c(H_t)] / r for t ~ Exp(r),
  so it samples H_t exactly at stratified exponential times, with no
  time step and no horizon.  A policy that stops at one threshold, lower
  or upper, is valued from the same samples: the exact Brownian-bridge
  probability that the path crossed the threshold before t weights the
  payoff there against the coupon at t (Carr's exponential horizon).

:func:`oracle_triangle` checks one closed-form solve against all three.
"""

from __future__ import annotations

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
)
from .model import ModelParams, compute_exponents
from .options import solve_contract, solve_no_prepay
from .solution import checked_price

_BLOCK_PAIRS = 8192   # fixed Monte Carlo block size; results do not depend on scheduling
_DT = 1.0 / 52.0      # McResult.dt, nominal: no estimate takes a time step
# Equal-probability strata of Exp(r) per antithetic pair of the Monte Carlo
# estimate.  256 keeps every no-prepay acceptance case at 3 SE < 5e-4 with
# 20 000 paths (SE 6e-5 to 1.1e-4); 64 reaches SE 2.1e-4.
_TIME_STRATA = 256
_STRATA_SLAB = 32     # strata drawn per vectorized slab; divides _TIME_STRATA
_COARSE_NODES = 126   # smallest level of the nested policy-iteration solve


@dataclass(frozen=True)
class GridSpec:
    """Log-uniform grid for the obstacle solver."""

    h_min: float
    h_max: float
    n_points: int = 2001

    def __post_init__(self) -> None:
        if not (0.0 < self.h_min < self.h_max):
            raise InvalidParams(f"need 0 < h_min < h_max, got [{self.h_min}, {self.h_max}]")
        if self.n_points < 101:
            raise InvalidParams(f"n_points must be at least 101, got {self.n_points}")


@dataclass(frozen=True)
class OracleResult:
    """Grid values of the discrete obstacle problem and its stopping set.

    ``sweeps`` counts the policy iterations (one tridiagonal solve each)
    summed over all grid levels.
    """

    grid: np.ndarray
    values: np.ndarray
    stopping: np.ndarray
    stop_intervals: tuple[tuple[float, float], ...]
    sweeps: int


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


def _policy_solve(
    stop: list[bool], f: list[float], rhs: list[float], lower: float, diag: float, upper: float, kb: float, kt: float,
) -> list[float]:
    """Thomas solve of one policy's tridiagonal system.

    Stopped rows read V_i = f_i, the others
    diag V_i - lower V_{i-1} - upper V_{i+1} = rhs_i, or at the ends
    V_0 - kb V_1 = rhs_0 and V_N - kt V_{N-1} = rhs_N.  Forward elimination
    leaves V_i = d_i + g_i V_{i+1}.
    """
    n = len(f)
    g = [0.0] * n
    d = [0.0] * n
    gi, di = (0.0, f[0]) if stop[0] else (kb, rhs[0])
    g[0], d[0] = gi, di
    for i in range(1, n - 1):
        if stop[i]:
            gi, di = 0.0, f[i]
        else:
            den = diag - lower * gi
            gi, di = upper / den, (rhs[i] + lower * di) / den
        g[i] = gi
        d[i] = di
    v = f[-1] if stop[-1] else (rhs[-1] + kt * di) / (1.0 - kt * gi)
    d[-1] = v
    for i in range(n - 2, -1, -1):
        v = d[i] + g[i] * v
        d[i] = v
    return d


def psor_value(params: ModelParams, cashflows: PerpetualCashflows, grid: GridSpec) -> OracleResult:
    """Solve the discrete obstacle problem for a minimizing stopper.

    Central differences of L_H - r in log price give a tridiagonal
    M-matrix A.  The linear complementarity problem V <= f, A V <= q,
    min(f - V, q - A V) = 0 is solved exactly by Howard policy iteration:
    each iteration solves the linear system of the current stopping set
    (V = f on stopped rows, A V = q elsewhere), then every node takes the
    row with the larger residual, stopping where V - f >= A V - q, until
    the stopping set repeats.  The solve runs on nested grids: it starts
    with no stopping at about 126 nodes over the same window and kinks,
    halves the spacing up to ``n_points``, and starts each level from the
    previous level's stopping set; levels too coarse for the drift are
    skipped.

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

    ``sweeps`` of the result is the total number of policy iterations.
    Each level is capped at its node count, which an M-matrix never
    reaches; hitting it raises ``NotConverged``.  (The name predates the
    policy-iteration solve and is kept for callers.)
    """
    r, sig2 = params.r, params.sigma**2
    nu = r - params.delta - 0.5 * sig2
    prev = None
    sweeps = 0
    for n in _level_sizes(grid.n_points):
        h, dx = _log_grid(grid.h_min, grid.h_max, n, cashflows.kinks)
        lower = 0.5 * sig2 / dx**2 - 0.5 * nu / dx   # weight of V_{i-1}
        upper = 0.5 * sig2 / dx**2 + 0.5 * nu / dx   # weight of V_{i+1}
        diag = sig2 / dx**2 + r
        den = diag - lower * math.exp(-dx) - upper * math.exp(dx)
        if lower <= 0.0 or upper <= 0.0 or den <= 0.0:
            if n < grid.n_points:
                continue
            raise InvalidParams(
                f"grid too coarse for the drift (dx={dx:.3g}); increase n_points or shrink the window"
            )

        f = np.asarray(cashflows.payoff(h), dtype=float)
        rhs = np.array(cashflows.coupon(h), dtype=float)
        root = math.sqrt(diag * diag - 4.0 * lower * upper)
        kb, kt = 2.0 * upper / (diag + root), 2.0 * lower / (diag + root)
        s = (rhs[1] - rhs[0]) / (h[1] - h[0])
        part = (rhs[0] - s * h[0]) / r + s / den * h[:2]   # P_0 and P_1
        rhs[0], rhs[-1] = part[0] - kb * part[1], (1.0 - kt) * rhs[-1] / r
        stop = np.zeros(n, dtype=bool) if prev is None else np.interp(np.log(h), *prev) >= 0.5
        f_list, rhs_list = f.tolist(), rhs.tolist()
        for _ in range(n):
            values = np.array(_policy_solve(stop.tolist(), f_list, rhs_list, lower, diag, upper, kb, kt))
            sweeps += 1
            av = values.copy()   # A V, with the end rows' own left-hand sides
            av[1:-1] = diag * values[1:-1] - lower * values[:-2] - upper * values[2:]
            av[0] -= kb * values[1]
            av[-1] -= kt * values[-2]
            improved = values - f >= av - rhs
            if np.array_equal(improved, stop):
                break
            stop = improved
        else:
            raise NotConverged(f"policy iteration did not settle within {n} iterations on {n} nodes")
        prev = (np.log(h), stop)

    stopping = (f - values) <= 1e-12 * (1.0 + np.abs(f))
    intervals = []
    start = None
    for i, flag in enumerate(stopping):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            intervals.append((float(h[start]), float(h[i - 1])))
            start = None
    if start is not None:
        intervals.append((float(h[start]), float(h[-1])))

    return OracleResult(
        grid=h, values=values, stopping=stopping,
        stop_intervals=tuple(intervals), sweeps=sweeps,
    )


def _linear_pieces(
    cashflows: PerpetualCashflows, edges: list[float]
) -> list[tuple[float, float]]:
    """(intercept, slope) of the coupon on each cell between ``edges``.

    The perpetual coupons are piecewise linear with breaks only at the
    published kinks, so two probes per cell recover each piece exactly.
    """
    pieces = []
    for a, b in zip(edges, edges[1:]):
        if math.isinf(b):
            t1 = 2.0 * a if a > 0.0 else 1.0
            t2 = 2.0 * t1
        else:
            t1 = a + (b - a) / 3.0
            t2 = a + 2.0 * (b - a) / 3.0
        c1, c2 = float(cashflows.coupon(t1)), float(cashflows.coupon(t2))
        slope = (c2 - c1) / (t2 - t1)
        pieces.append((c1 - slope * t1, slope))
    return pieces


def _check_thresholds(lower: float | None, upper: float | None) -> None:
    if lower is not None and lower <= 0.0:
        raise InvalidThresholds(f"lower threshold must be positive, got {lower}")
    if lower is not None and upper is not None and not lower < upper:
        raise InvalidThresholds(f"need lower < upper, got ({lower}, {upper})")


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
    cross-check.
    """
    lower, upper = thresholds
    _check_thresholds(lower, upper)
    h = checked_price(h)

    if (lower is not None and h <= lower) or (upper is not None and h >= upper):
        return float(cashflows.payoff(h))

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
        rhs[row] = float(cashflows.payoff(lower)) - particular(0, lower)
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
        rhs[row] = float(cashflows.payoff(upper)) - particular(n_pieces - 1, upper)

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

    ``std_error`` is the standard error of the mean over antithetic pairs.
    No estimate is time-stepped or truncated, so ``tail_bound`` is always
    0.0.  ``horizon`` (the argument as given), ``dt`` (a nominal 1/52) and
    ``tail_bound`` carry no information; they are kept because the
    benchmark's tracer (``perfbench/tracing.py``) reads them, and go when
    the benchmark stops reading them.
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
    rise to ``upper``; two finite thresholds raise ``InvalidThresholds``.
    Coupons accrue until the stop, which pays the payoff at the threshold.
    A run started at or beyond its threshold pays the payoff with no
    sampling.

    For T ~ Exp(r) independent of the path, the value is
    E[1{tau > T} c(H_T) / r + 1{tau <= T} f(L)], with tau the first hit of
    the threshold L.  Each antithetic pair takes one time in each of 256
    equal-probability strata of Exp(r) and samples
    H_T = h exp(mu T +- sigma sqrt(T) Z) exactly there.  Given
    y = log H_T, the Brownian bridge from x = log h reaches l = log L
    before T with probability p = exp(min(0, -2 (x - l)(y - l) / (sigma^2 T))),
    which is 1 when y is at or beyond l.  So each sample adds
    (1 - p) c(H_T) / r + p f(L), and the estimate has no discretization or
    truncation bias.  Without a threshold p = 0 and the estimate is the
    coupon integral, with no terminal payment.  ``horizon`` is still
    validated but not used.

    Blocks of antithetic pairs have a fixed size and per-block derived
    seeds, so the estimate does not depend on how blocks are scheduled.
    It is reproducible bit for bit from ``seed`` on one numpy build and CPU
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

    n_pairs = (n_paths + 1) // 2
    level = upper if lower is None else lower
    note = f"exact marginals at {_TIME_STRATA} stratified exponential times per pair; nothing truncated"
    if level is not None:
        note += "; threshold crossing by the Brownian-bridge probability"
        if (lower is not None and h <= lower) or (upper is not None and h >= upper):
            return McResult(
                estimate=float(cashflows.payoff(h)), std_error=0.0, tail_bound=0.0,
                n_paths=2 * n_pairs, horizon=horizon, dt=_DT, note=note,
            )

    n_blocks = (n_pairs + _BLOCK_PAIRS - 1) // _BLOCK_PAIRS
    children = np.random.SeedSequence(seed).spawn(n_blocks)
    pair_values = np.empty(n_pairs)
    filled = 0
    for b in range(n_blocks):
        bp = min(_BLOCK_PAIRS, n_pairs - filled)
        rng = np.random.default_rng(children[b])
        pair_values[filled : filled + bp] = _integral(rng, params, cashflows, bp, h, level)
        filled += bp

    estimate = float(np.mean(pair_values))
    if n_pairs > 1:
        std_error = float(np.std(pair_values, ddof=1) / math.sqrt(n_pairs))
    else:
        std_error = 0.0
    return McResult(
        estimate=estimate, std_error=std_error, tail_bound=0.0,
        n_paths=2 * n_pairs, horizon=horizon, dt=_DT, note=note,
    )


def _integral(rng, params, cashflows, bp, h, level):
    """Pair values of ``bp`` antithetic pairs.

    A pair's value is (1 / (2 K r)) sum_k [g(y_k^+) + g(y_k^-)] over its K
    strata, with t_k = -log(1 - (k + U_k) / K) / r and
    y_k^+- = log h + mu t_k +- sigma sqrt(t_k) Z_k.  With no threshold
    (``level`` None) g(y) = c(e^y).  With a threshold L it is
    c(e^y) + p (r f(L) - c(e^y)), p the bridge's crossing probability.
    (x - l)(y - l) keeps its value when all three log-prices change sign,
    so one expression serves an upper threshold as well as a lower one.
    The strata are drawn ``_STRATA_SLAB`` at a time, the uniforms of a
    slab before its normals.
    """
    mu = params.r - params.delta - 0.5 * params.sigma**2
    x = math.log(h)
    if level is not None:
        ell = math.log(level)
        stop = params.r * float(cashflows.payoff(level))

        def crossed(c, y, t):
            p = np.exp(np.minimum(-2.0 * (x - ell) * (y - ell) / (params.sigma**2 * t), 0.0))
            return c + p * (stop - c)

    total = np.zeros(bp)
    for k0 in range(0, _TIME_STRATA, _STRATA_SLAB):
        u = rng.random((bp, _STRATA_SLAB))
        # K - k - U is exact and positive, so the top stratum's time is finite.
        t = np.log((_TIME_STRATA - np.arange(k0, k0 + _STRATA_SLAB) - u) / _TIME_STRATA) / -params.r
        spread = rng.standard_normal((bp, _STRATA_SLAB)) * (params.sigma * np.sqrt(t))
        centre = x + mu * t
        y_up, y_down = centre + spread, centre - spread
        c_up, c_down = cashflows.coupon(np.exp(y_up)), cashflows.coupon(np.exp(y_down))
        if level is not None:
            c_up, c_down = crossed(c_up, y_up, t), crossed(c_down, y_down, t)
        total += np.sum(c_up + c_down, axis=1)
    return total / (2 * _TIME_STRATA * params.r)


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
    """Closed-form ``value`` and ``held`` (no prepayment) at h, the oracles' answers, and the verdicts."""

    value: float
    grid: OracleResult
    policy: float
    held: float
    mc: McResult
    verdicts: tuple[Verdict, ...]


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
    # The horizon, 200 years, is validated but unused: no estimate is truncated.
    mc = mc_cashflow_value(params, no_prepay_cashflows(spec, params), (nopp.boundaries.get("h1"), None),
                           h, n_paths, 200.0, seed)
    held = nopp.value(h)
    verdicts.append(Verdict("mc no-prepay gap", abs(mc.estimate - held), max(3.0 * mc.std_error, MC_TOL_FLOOR)))
    return Triangle(value, grid, policy, held, mc, tuple(verdicts))
