"""Independent numerical checks of the closed-form solvers.

Three routes, each built on different machinery than the solvers:

* :func:`psor_value` discretizes the obstacle problem
  min{L_H V - r V + c, f - V} = 0 in log-price coordinates and solves the
  resulting linear complementarity problem exactly, by Howard policy
  iteration on nested grids (a finite number of tridiagonal solves).
* :func:`threshold_policy_value` computes the exact expected discounted
  cashflow of a *given* two-threshold stopping policy from the power
  solutions h^{p1}, h^{-p2} of the pricing ODE (no optimization anywhere).
* :func:`mc_cashflow_value` averages discounted cashflows over antithetic
  pairs of exact GBM samples.  The held-forever integral
  V = int_0^inf e^{-rt} E[c(H_t)] dt equals E[c(H_t)] / r for t ~ Exp(r),
  so it samples H_t exactly at stratified exponential times, with no
  time step and no horizon.  A threshold policy is simulated on a weekly
  grid: every live path advances through a chunk of weeks at once, and
  each path's exit step is found within the chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contracts import PerpetualCashflows
from .errors import (
    InvalidHorizon,
    InvalidParams,
    InvalidThresholds,
    NotConverged,
)
from .model import ModelParams, compute_exponents
from .solution import SolvedContract

_BLOCK_PAIRS = 8192   # fixed Monte Carlo block size; results do not depend on scheduling
_TIME_CHUNK = 256     # steps simulated per vectorized slab
_ROW_SLAB = 1024      # paths whose prices a policy chunk holds at once
# Equal-probability strata of Exp(r) per antithetic pair of the held-forever
# integral.  256 keeps every no-prepay acceptance case at 3 SE < 5e-4 with
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
    stop: list[bool], f: list[float], q: list[float], lower: float, diag: float, upper: float, top: float,
) -> list[float]:
    """Thomas solve of one policy's tridiagonal system.

    Stopped rows read V_i = f_i; the others read
    diag V_i - lower V_{i-1} - upper V_{i+1} = q_i.  End nodes are fixed at
    f_0 and ``top``.  Forward elimination leaves V_i = d_i + g_i V_{i+1}.
    """
    n = len(f)
    g = [0.0] * n
    d = [0.0] * n
    gi, di = 0.0, f[0]
    for i in range(1, n - 1):
        if stop[i]:
            gi, di = 0.0, f[i]
        else:
            den = diag - lower * gi
            gi, di = upper / den, (q[i] + lower * di) / den
        g[i] = gi
        d[i] = di
    v = top
    for i in range(n - 2, 0, -1):
        v = d[i] + g[i] * v
        d[i] = v
    d[0], d[-1] = f[0], top
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
    skipped.  Boundary nodes carry V = f at the bottom and
    V = min(f, sup-coupon / r) at the top, matching the contracts' tail
    behaviour; accuracy near either end needs the window padded past the
    region of interest.

    ``sweeps`` of the result is the total number of policy iterations.
    Each level is capped at its node count, which an M-matrix never
    reaches; hitting it raises ``NotConverged``.  (The name predates the
    policy-iteration solve and is kept for callers.)
    """
    sig2 = params.sigma**2
    nu = params.r - params.delta - 0.5 * sig2
    prev = None
    sweeps = 0
    for n in _level_sizes(grid.n_points):
        h, dx = _log_grid(grid.h_min, grid.h_max, n, cashflows.kinks)
        lower = 0.5 * sig2 / dx**2 - 0.5 * nu / dx   # weight of V_{i-1}
        upper = 0.5 * sig2 / dx**2 + 0.5 * nu / dx   # weight of V_{i+1}
        diag = sig2 / dx**2 + params.r
        if lower <= 0.0 or upper <= 0.0:
            if n < grid.n_points:
                continue
            raise InvalidParams(
                f"grid too coarse for the drift (dx={dx:.3g}); increase n_points or shrink the window"
            )

        f = np.asarray(cashflows.payoff(h), dtype=float)
        q = np.asarray(cashflows.coupon(h), dtype=float)
        top = min(float(f[-1]), float(q.max()) / params.r)
        if prev is None:
            stop = np.zeros(n, dtype=bool)
        else:
            h_prev, stop_prev = prev
            stop = np.interp(np.log(h), np.log(h_prev), stop_prev.astype(float)) >= 0.5
        f_list, q_list = f.tolist(), q.tolist()
        for _ in range(n):
            values = np.array(_policy_solve(stop.tolist(), f_list, q_list, lower, diag, upper, top))
            sweeps += 1
            av = diag * values[1:-1] - lower * values[:-2] - upper * values[2:]
            improved = values[1:-1] - f[1:-1] >= av - q[1:-1]
            if np.array_equal(improved, stop[1:-1]):
                break
            stop[1:-1] = improved
        else:
            raise NotConverged(f"policy iteration did not settle within {n} iterations on {n} nodes")
        prev = (h, stop)

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


def grid_window(solved: SolvedContract) -> tuple[float, float]:
    """Top node of a :func:`psor_value` grid for checking ``solved``, and the
    top of the window from 0.05 on which ``mortval oracle-check`` compares them."""
    bounds = solved.boundaries
    if "h3" in bounds:
        # Top node inside the prepayment band, where the boundary data are
        # exact in both branches of min(f, sup-coupon/r).
        h_max = 0.5 * (bounds["h2"] + bounds["h3"])
        return h_max, min(3.0, 0.99 * h_max)
    if "h2" in bounds:
        return max(3.0, 2.0 * bounds["h2"]), 3.0  # inside the top prepay region
    # No stopping set above: the top condition is only asymptotic, and its
    # error reaches the window like (3 / h_max)^{p1}; pad until that is 1e-3.
    return max(12.0, 3.0 * 1e3 ** (1.0 / solved.exponents.p1)), 3.0


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
    if not h > 0.0:
        raise InvalidThresholds(f"evaluation price must be positive, got {h}")

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
    i = max(0, np.searchsorted(np.array(edges[1:-1]), h, side="right"))
    return float(coef[2 * i] * h**p1 + coef[2 * i + 1] * h**-p2 + particular(i, h))


@dataclass(frozen=True)
class McResult:
    """Monte Carlo estimate with its sampling and truncation diagnostics.

    ``std_error`` is the standard error of the mean over antithetic pairs.
    ``horizon`` is the argument as given.  The held-forever integral
    truncates nothing, so its ``tail_bound`` is 0.0.  A policy run stops at
    ``horizon``, and its ``tail_bound`` bounds the bias from that:
    sup-coupon / r * e^{-r * horizon}.  ``dt`` is the policy run's weekly
    monitoring step; the integral has no step.  Policy exits are detected
    on that grid, so stopping happens at the first *monitored* crossing;
    the induced bias is second order at smooth-pasting optimal thresholds
    but first order away from them.
    """

    estimate: float
    std_error: float
    tail_bound: float
    n_paths: int
    horizon: float
    dt: float
    note: str


def _coupon_sup(cashflows: PerpetualCashflows) -> float:
    probes = np.array(list(cashflows.kinks) + [1e-9, 1.0, 1e9])
    return float(np.max(cashflows.coupon(probes)))


def mc_cashflow_value(
    params: ModelParams,
    cashflows: PerpetualCashflows,
    policy: tuple[float | None, float | None] | None,
    h: float,
    n_paths: int,
    horizon: float,
    seed: int,
) -> McResult:
    """Estimate the discounted contract cashflows, held forever or under a
    threshold policy.

    ``policy`` of None (or (None, None)) means never stop: the estimate
    targets the discounted coupon integral, with no terminal payment.  It
    is E[c(H_t)] / r for t ~ Exp(r).  Each antithetic pair takes one time
    in each of 256 equal-probability strata of Exp(r) and samples
    H_t = h exp(mu t +- sigma sqrt(t) Z) exactly there, so the estimate has
    no discretization or truncation bias.  ``horizon`` is still validated
    but not used.

    With thresholds, GBM is sampled exactly on a weekly step.  Coupons
    accrue until the first monitored exit from (lower, upper), the payoff
    is applied there, and paths alive at the horizon receive the payoff at
    truncation.  A run started outside the band pays the payoff with no
    sampling.

    Both estimators use antithetic pairs in fixed-size blocks with
    per-block derived seeds, so estimates are reproducible bit for bit from
    ``seed`` and independent of how blocks might be scheduled.
    """
    if n_paths < 10_000:
        raise InvalidParams(f"n_paths must be at least 10_000, got {n_paths}")
    if horizon < 200.0:
        raise InvalidHorizon(f"horizon must be at least 200 years, got {horizon}")
    if not h > 0.0:
        raise InvalidParams(f"starting price must be positive, got {h}")
    if policy is not None and policy == (None, None):
        policy = None
    if policy is not None:
        _check_thresholds(*policy)

    dt = 1.0 / 52.0
    n_pairs = (n_paths + 1) // 2
    n_blocks = (n_pairs + _BLOCK_PAIRS - 1) // _BLOCK_PAIRS
    children = np.random.SeedSequence(seed).spawn(n_blocks)

    if policy is None:
        tail_bound = 0.0
        note = f"exact marginals at {_TIME_STRATA} stratified exponential times per pair; nothing truncated"

        def block(rng, bp):
            return _integral(rng, params, cashflows, bp, h)
    else:
        n_steps = int(round(horizon * 52.0))
        drift = (params.r - params.delta - 0.5 * params.sigma**2) * dt
        vol = params.sigma * math.sqrt(dt)
        step_disc = math.exp(-params.r * dt)
        tail_bound = _coupon_sup(cashflows) / params.r * math.exp(-params.r * horizon)
        note = "weekly exit monitoring; coupon integral by trapezoid on the step grid"
        if (policy[0] is not None and h <= policy[0]) or (policy[1] is not None and h >= policy[1]):
            # Already outside the band: stop immediately, no sampling noise.
            return McResult(
                estimate=float(cashflows.payoff(h)), std_error=0.0, tail_bound=tail_bound,
                n_paths=2 * n_pairs, horizon=horizon, dt=dt, note=note,
            )

        def block(rng, bp):
            return _simulate(rng, cashflows, policy, bp, n_steps, h, drift, vol, step_disc, dt)

    pair_values = np.empty(n_pairs)
    filled = 0
    for b in range(n_blocks):
        bp = min(_BLOCK_PAIRS, n_pairs - filled)
        pair_values[filled : filled + bp] = block(np.random.default_rng(children[b]), bp)
        filled += bp

    estimate = float(np.mean(pair_values))
    if n_pairs > 1:
        std_error = float(np.std(pair_values, ddof=1) / math.sqrt(n_pairs))
    else:
        std_error = 0.0
    return McResult(
        estimate=estimate, std_error=std_error, tail_bound=tail_bound,
        n_paths=2 * n_pairs, horizon=horizon, dt=dt, note=note,
    )


def _integral(rng, params, cashflows, bp, h):
    """Pair values of ``bp`` antithetic pairs of the held-forever integral.

    A pair's value is (1 / (2 K r)) sum_k [c(H_k^+) + c(H_k^-)] over its K
    strata, with t_k = -log(1 - (k + U_k) / K) / r and
    log H_k^+- = log h + mu t_k +- sigma sqrt(t_k) Z_k.  The strata are drawn
    ``_STRATA_SLAB`` at a time, the uniforms of a slab before its normals.
    """
    mu = params.r - params.delta - 0.5 * params.sigma**2
    total = np.zeros(bp)
    for k0 in range(0, _TIME_STRATA, _STRATA_SLAB):
        u = rng.random((bp, _STRATA_SLAB))
        # K - k - U is exact and positive, so the top stratum's time is finite.
        t = np.log((_TIME_STRATA - np.arange(k0, k0 + _STRATA_SLAB) - u) / _TIME_STRATA) / -params.r
        spread = rng.standard_normal((bp, _STRATA_SLAB)) * (params.sigma * np.sqrt(t))
        centre = math.log(h) + mu * t
        up, down = np.exp(centre + spread), np.exp(centre - spread)
        total += np.sum(cashflows.coupon(up) + cashflows.coupon(down), axis=1)
    return total / (2 * _TIME_STRATA * params.r)


def _simulate(rng, cashflows, policy, bp, n_steps, h, drift, vol, step_disc, dt):
    """Pair values of ``bp`` antithetic pairs under a threshold policy,
    simulated in time chunks.

    Each chunk draws one (bp, nc) slab of normals that both sides share,
    and each side sums its live paths' discounted coupons over the chunk's
    steps.  A path ends at its first monitored step at or beyond a policy
    threshold, or at the horizon: its coupons after that step are dropped,
    the trapezoid rule halves the weight of its first and last coupon, and
    it receives the payoff discounted to that step.  Ended paths leave the
    later chunks, and the simulation stops once none is left on either side.

    The normals and the coupons live in work areas made once per call, and
    prices are formed ``_ROW_SLAB`` paths at a time, so no chunk allocates
    a (bp, nc) slab.  This keeps the peak memory of repeated runs in one
    process close to that of the first.
    """
    lo = -math.inf if policy[0] is None else policy[0]
    hi = math.inf if policy[1] is None else policy[1]
    g0 = float(cashflows.coupon(h))

    def close(acc, disc_end, g_end, h_end):
        # acc sums the discounted coupons of steps 1..end; the trapezoid
        # rule takes half of step 0's and of the end step's.
        payoff = np.asarray(cashflows.payoff(h_end), dtype=float)
        return dt * (acc + g0 - 0.5 * (g0 + disc_end * g_end)) + disc_end * payoff

    values = np.zeros((2, bp))
    rows = [np.arange(bp), np.arange(bp)]   # pair index of each live path
    logs = [np.full(bp, math.log(h)), np.full(bp, math.log(h))]
    accs = [np.zeros(bp), np.zeros(bp)]
    z_area, g_area = np.empty((2, bp * _TIME_CHUNK))

    def advance(s, sign, z, disc):
        """Move side ``s`` through one chunk; close and drop the paths that end in it."""
        live = rows[s]
        nc = len(disc)
        g = g_area[: live.size * nc].reshape(live.size, nc)
        exits = []
        for a in range(0, live.size, _ROW_SLAB):
            b = min(a + _ROW_SLAB, live.size)
            price = logs[s][a:b, None] + np.cumsum(
                drift + sign * vol * (z[a:b] if live.size == bp else z[live[a:b]]), axis=1
            )
            logs[s][a:b] = price[:, -1]
            np.exp(price, out=price)
            # The rows that leave the band are found from their extremes.
            ended = np.flatnonzero((price.min(axis=1) <= lo) | (price.max(axis=1) >= hi))
            leaving = price[ended]
            k = ((leaving <= lo) | (leaving >= hi)).argmax(axis=1)   # first step at or beyond a threshold
            g[a:b] = cashflows.coupon(price)
            g[a + ended] *= np.arange(nc) <= k[:, None]   # no coupons after the exit
            exits.append((a + ended, k, leaving[np.arange(ended.size), k]))
        # One product over all live rows: its rounding depends on the row count.
        accs[s] += g @ disc
        ended, k, h_end = (np.concatenate(parts) for parts in zip(*exits))
        if ended.size:
            values[s, live[ended]] = close(accs[s][ended], disc[k], g[ended, k], h_end)
            rows[s], logs[s], accs[s] = (np.delete(a, ended) for a in (live, logs[s], accs[s]))

    done = 0
    disc_prev = 1.0
    while done < n_steps and (rows[0].size or rows[1].size):
        nc = min(_TIME_CHUNK, n_steps - done)
        z = rng.standard_normal(out=z_area[: bp * nc].reshape(bp, nc))
        disc = disc_prev * step_disc ** np.arange(1, nc + 1)
        for s, sign in enumerate((1.0, -1.0)):
            if rows[s].size:
                advance(s, sign, z, disc)
        disc_prev = disc[-1]
        done += nc
    for s in range(2):
        if rows[s].size:
            price = np.exp(logs[s])
            g_end = np.asarray(cashflows.coupon(price), dtype=float)
            values[s, rows[s]] = close(accs[s], disc_prev, g_end, price)
    return 0.5 * (values[0] + values[1])
