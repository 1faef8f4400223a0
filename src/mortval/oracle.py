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
* :func:`mc_cashflow_value` samples the exponential horizon.  The
  held-forever integral V = int_0^inf e^{-rt} E[c(H_t)] dt equals
  E[c(H_t)] / r for t ~ Exp(r), so it samples only t, at stratified
  exponential times, and integrates the lognormal price at each time in
  closed form: the coupon is affine between kinks, so E[c(H_t) | t] is a
  short sum of normal distribution functions (conditional Monte Carlo).
  A policy that stops at one threshold, lower or upper, samples H_t
  exactly over antithetic pairs at the same kind of times: the exact
  Brownian-bridge probability that the path crossed the threshold before
  t weights the payoff there against the coupon at t (Carr's exponential
  horizon).  The stopped leg draws on one helper thread in the generator's
  order, so the estimate does not depend on thread timing.  Nothing is
  time-stepped or truncated, and nothing uses the solvers' exponents.

:func:`oracle_triangle` checks one closed-form solve against all three.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
import os
import queue
import threading
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

_BLOCK_PAIRS = 8192   # fixed Monte Carlo block size; results do not depend on scheduling
_DT = 1.0 / 52.0      # McResult.dt, nominal: no estimate takes a time step
# Equal-probability strata of Exp(r) per replicate (held forever) or per
# antithetic pair (stopped) of the Monte Carlo estimate.  At 20 000 paths 256
# keeps the FRM stopped at its default boundary at 3 SE < 5e-4 (SE 6e-5 to
# 1.1e-4 for pairs; 64 strata reach 2.1e-4), and the contracts held forever
# at SE 1.6e-5 to 3.1e-5.
_TIME_STRATA = 256
_STRATA_SLAB = 32     # strata drawn per vectorized slab; divides _TIME_STRATA
_ROWS = 1024          # antithetic pairs per in-place pass: 256 KB per (rows, slab) buffer
# Drawn chunks in flight when the draws run on a helper thread, which then
# runs at most two chunks ahead.  Its chunks take _ROWS // 2 pairs, so the
# ring's 13 buffers of 128 KB hold less than the 8 of 256 KB that drawing
# inline takes.  (At 256 KB the 13 buffers made malloc hand the heap back
# after every stopped estimate, ~1 200 page faults each; one core keeps full
# chunks, as each chunk costs ~30 numpy calls.)
_RING = 3
_COARSE_NODES = 126   # smallest level of the nested policy-iteration solve
# Phi for arrays (numpy has no erfc): pieces of width 1/128 in s = x / (x + 2),
# each a polynomial of degree 6 (see ``_phi_table``); fewer pieces of higher
# degree are as accurate but cost a gather and two passes more per degree.
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
        if not (0.0 < self.h_min < self.h_max):
            raise InvalidParams(f"need 0 < h_min < h_max, got [{self.h_min}, {self.h_max}]")
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


def _runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last index of each run of True in ``mask``."""
    padded = np.zeros(len(mask) + 2, dtype=bool)
    padded[1:-1] = mask
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return edges[::2], edges[1::2] - 1


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
    the stopping set repeats.  The solve runs on nested grids: it starts
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
        for _ in range(n):
            values = _policy_value(level, stop, f)
            sweeps += 1
            improved = values - f >= _apply(level, values) - level.rhs
            if np.array_equal(improved, stop):
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
    if lower is not None and lower <= 0.0:
        raise InvalidThresholds(f"lower threshold must be positive, got {lower}")
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
    cross-check.  A coupon that is not affine between the kinks raises
    ``InvalidParams``, and a power of a threshold past the float range
    ``UnsupportedRegime``.
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

    Held forever, ``std_error`` is the standard error of the mean over
    independent replicates of ``_TIME_STRATA`` stratified times, and
    ``n_paths`` counts the sampled times: the requested count rounded up
    to whole replicates.  Stopped at a threshold, ``std_error`` is over
    antithetic pairs and ``n_paths`` counts the paths, rounded up to whole
    pairs.  No estimate is time-stepped or truncated, so ``tail_bound`` is
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
    rise to ``upper``; two finite thresholds raise ``InvalidThresholds``.
    Coupons accrue until the stop, which pays the payoff at the threshold.
    A run started at or beyond its threshold pays the payoff with no
    sampling.

    For T ~ Exp(r) independent of the path, the value is
    E[1{tau > T} c(H_T) / r + 1{tau <= T} f(L)], with tau the first hit of
    the threshold L; held forever it is E[c(H_T)] / r.

    Held forever, only T is sampled (conditional Monte Carlo): given T,
    H_T = h exp(mu T + sigma sqrt(T) Z) is lognormal and the coupon is
    affine between its kinks, so E[c(H_T) | T] is a short sum of normal
    distribution functions (see ``_coupon_given_time``), each taken over
    all times at once by a piecewise polynomial within 6e-14 relative of
    ``math.erfc`` (``_normal_cdf``).  The estimate
    takes ceil(n_paths / 256) independent replicates, each one time in
    every one of 256 equal-probability strata of Exp(r), and its standard
    error comes from the spread of the replicates.  ``n_paths`` counts
    sampled times here, not paths.

    Stopped at a threshold, each antithetic pair takes one time in each of
    the 256 strata and samples H_T = h exp(mu T +- sigma sqrt(T) Z) exactly
    there.  Given y = log H_T, the Brownian bridge from x = log h reaches
    l = log L before T with probability
    p = exp(min(0, -2 (x - l)(y - l) / (sigma^2 T))), which is 1 when y is
    at or beyond l.  So each sample adds (1 - p) c(H_T) / r + p f(L), and
    the estimate has no discretization or truncation bias.  Blocks of
    antithetic pairs have a fixed size and per-block derived seeds, so the
    estimate does not depend on how blocks are scheduled.  The stopped leg
    draws on one helper thread in the generator's order, so the estimate
    does not depend on thread timing either (see ``_integral``).

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
    if level is None:
        n_reps = -(-n_paths // _TIME_STRATA)
        samples = _held_forever(np.random.default_rng(seed), params, cashflows, n_reps, h)
        n_drawn = n_reps * _TIME_STRATA
        note = (f"E[c(H_T) | T] in closed form at {_TIME_STRATA} stratified exponential times "
                f"per replicate, {n_reps} replicates; nothing truncated")
    else:
        n_pairs = (n_paths + 1) // 2
        n_drawn = 2 * n_pairs
        note = (f"exact marginals at {_TIME_STRATA} stratified exponential times per pair; nothing truncated"
                "; threshold crossing by the Brownian-bridge probability")
        if (lower is not None and h <= lower) or (upper is not None and h >= upper):
            return McResult(
                estimate=float(_evaluate(cashflows.payoff, h)), std_error=0.0, tail_bound=0.0,
                n_paths=n_drawn, horizon=horizon, dt=_DT, note=note,
            )
        n_blocks = (n_pairs + _BLOCK_PAIRS - 1) // _BLOCK_PAIRS
        children = np.random.SeedSequence(seed).spawn(n_blocks)
        samples = np.empty(n_pairs)
        filled = 0
        for b in range(n_blocks):
            bp = min(_BLOCK_PAIRS, n_pairs - filled)
            rng = np.random.default_rng(children[b])
            samples[filled : filled + bp] = _integral(rng, params, cashflows, bp, h, level)
            filled += bp

    return McResult(
        estimate=float(np.mean(samples)),
        std_error=float(np.std(samples, ddof=1) / math.sqrt(len(samples))),
        tail_bound=0.0, n_paths=n_drawn, horizon=horizon, dt=_DT, note=note,
    )


def _coupon_given_time(params, cashflows, h, t):
    """E[c(H_t) | H_0 = h] at each time of the array ``t``, in closed form.

    With pieces a_j + b_j H between the kinks, F = E[H_t] = h e^{(r - delta) t},
    s = sigma sqrt(t) and z_k = (log k - log h - mu t) / s, P(H_t < k) = Phi(z_k)
    and E[H_t; H_t < k] = F Phi(z_k - s).  Telescoped over the kinks,

        E[c(H_t)] = a_last + b_last F + sum_k [da_k Phi(z_k) + db_k F Phi(z_k - s)],

    da_k and db_k the coefficients below kink k less those above it, and
    Phi the whole-array ``_normal_cdf``, within 6e-14 relative of
    ``math.erfc``.  A coefficient that is zero adds no term, so a flat coupon
    never meets an overflowed F, and a time of 0 takes c(h) itself.
    """
    kinks = sorted({k for k in cashflows.kinks if 0.0 < k < math.inf})
    pieces = _linear_pieces(cashflows, [0.0, *kinks, math.inf])
    r, sigma = params.r, params.sigma
    mu = r - params.delta - 0.5 * sigma**2
    x = math.log(h)
    s = sigma * np.sqrt(t)
    # At t = 0, s = 0 and z is +-inf or, on a kink, NaN; those entries are
    # replaced by c(h) below.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        forward = h * np.exp((r - params.delta) * t)
        a, b = pieces[-1]
        out = np.full_like(t, a)
        if b != 0.0:
            out += b * forward
        for k, (a_lo, b_lo), (a_hi, b_hi) in zip(kinks, pieces, pieces[1:]):
            z = (math.log(k) - x - mu * t) / s
            if a_lo != a_hi:
                out += (a_lo - a_hi) * _normal_cdf(z)
            if b_lo != b_hi:
                out += (b_lo - b_hi) * forward * _normal_cdf(z - s)
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
    v = ``_PHI_WIDTH`` s - j in [0, 1), up to the piece that x = ``_PHI_TAIL``
    reaches.  Each interpolates R at the n + 1 = ``_PHI_DEGREE`` + 1
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
    pieces = int(_PHI_WIDTH * _PHI_TAIL / (_PHI_TAIL + 2.0)) + 1
    s = (np.arange(pieces)[:, None] + 0.5 + 0.5 * np.cos(np.pi / n * k)) / _PHI_WIDTH
    f = np.array([[_half_erfcx(2.0 * si / (1.0 - si)) for si in row] for row in s.tolist()])
    # Chebyshev coefficients first, then powers: f times the two matrices'
    # product would cancel terms of order 1e2 into coefficients of order 1e-8.
    coef = (2.0 / n * f @ weights) @ power
    coef[:, 0] = f[:, n]
    table = coef.T.copy()
    table.setflags(write=False)   # one cached table serves every call
    return table


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    """Phi(z) for a float array, within 6e-14 relative of ``math.erfc`` where
    Phi(z) >= 1e-300 (measured on a dense grid of z in [-37.5, 8.3]).

    With x = |z| / sqrt(2), erfc(x) / 2 = e^{-x^2} R(x) is Phi(z) for z <= 0
    and 1 - Phi(z) for z > 0.  R is the piecewise polynomial of
    ``_phi_table``: each piece's coefficients are picked by one ``np.take``
    each and summed by Horner's rule in place, so every step is a whole-array
    pass.  The error is mostly the rounding of x x inside e^{-x^2}.
    Phi(-inf) = 0, Phi(inf) = 1 and Phi(nan) = nan, and no step overflows or
    underflows, so nothing raises under ``np.errstate(all="raise")``.
    """
    x = np.abs(z)
    x *= math.sqrt(0.5)
    tail = ~(x < _PHI_TAIL)   # NaN too: a NaN index is undefined
    far = tail.any()
    if far:
        x[tail] = _PHI_TAIL
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
    x *= x
    np.negative(x, out=x)
    half *= np.exp(x, out=x)
    if far:
        half[tail] = np.where(np.isnan(z[tail]), np.nan, 0.0)
    return np.subtract(1.0, half, out=half, where=z > 0.0)


def _held_forever(rng, params, cashflows, n_reps, h):
    """Replicate values of the coupon integral E[c(H_T)] / r, T ~ Exp(r).

    Replicate i takes t_ik = -log(1 - (k + U_ik) / K) / r in each of its
    K = ``_TIME_STRATA`` strata and averages E[c(H_t)] over them.  K - k - U
    is exact and positive, so the top stratum's time is finite.
    """
    u = rng.random((n_reps, _TIME_STRATA))
    t = np.log((_TIME_STRATA - np.arange(_TIME_STRATA) - u) / _TIME_STRATA) / -params.r
    return np.mean(_coupon_given_time(params, cashflows, h, t), axis=1) / params.r


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _drawn_in_order(draw, n, slots):
    """Yield 0, ..., n - 1, each once ``draw`` has returned for it.

    ``draw`` runs for 0, ..., n - 1 in that order, filling one of ``slots``
    ring slots each.  With one slot it runs inline, just before each yield.
    With more it runs on one helper thread that stays at most ``slots`` - 1
    calls ahead: draw(g) starts only once the consumer has asked for the
    value after g - ``slots``, so a slot is refilled only after its use.
    An error in ``draw`` is raised here; closing the generator stops the
    helper and joins it, so no thread outlives the loop.
    """
    if slots == 1:
        for g in range(n):
            draw(g)
            yield g
        return
    ready, free = queue.SimpleQueue(), queue.SimpleQueue()

    def helper():
        try:
            for g in range(n):
                if g >= slots and not free.get():
                    return
                draw(g)
                ready.put(None)
        except BaseException as exc:  # raised again in the consumer
            ready.put(exc)

    # The helper runs in a copy of this context, so numpy's error state is the caller's.
    thread = threading.Thread(target=contextvars.copy_context().run, args=(helper,), name="mortval-mc-draws")
    thread.start()
    try:
        for g in range(n):
            error = ready.get()
            if error is not None:
                raise error
            yield g
            free.put(True)
    finally:
        free.put(False)
        thread.join()


def _integral(rng, params, cashflows, bp, h, level):
    """Pair values of ``bp`` antithetic pairs stopped at the threshold ``level``.

    A pair's value is (1 / (2 K r)) sum_k [g(y_k^+) + g(y_k^-)] over its K
    strata, with t_k = -log(1 - (k + U_k) / K) / r,
    y_k^+- = log h + mu t_k +- sigma sqrt(t_k) Z_k and
    g(y) = c(e^y) + p (r f(L) - c(e^y)), p the bridge's crossing probability
    of the threshold L.  (x - l)(y - l) keeps its value when all three
    log-prices change sign, so one expression serves an upper threshold as
    well as a lower one.

    The strata go ``_STRATA_SLAB`` at a time: a slab's uniforms are drawn
    into one reused buffer, then its pairs are taken in chunks of rows,
    each chunk turning its rows of uniforms into times, drawing its normals
    and running every pass in place on buffers that stay in cache.  The
    generator fills its output in order, so the draws are those of one
    (bp, slab) array of uniforms followed by one of normals per slab, and
    each element takes the same operations in the same order, up and down
    samples evaluated together as one (2, rows, slab) stack.

    The stopped leg draws on one helper thread in the generator's order,
    so the estimate does not depend on thread timing: each chunk's times
    and normals fill one of ``_RING`` slots, which the helper refills only
    once this thread has evaluated the chunk there (``_drawn_in_order``).
    With one usable CPU the draws run inline, in chunks of ``_ROWS`` rows;
    the ring's chunks take half as many.
    """
    mu = params.r - params.delta - 0.5 * params.sigma**2
    x = math.log(h)
    ell = math.log(level)
    scale = -2.0 * (x - ell)
    stop = params.r * float(_evaluate(cashflows.payoff, level))
    uniforms = np.empty((bp, _STRATA_SLAB))
    upper = _TIME_STRATA - np.arange(_TIME_STRATA)  # K - k for stratum k
    slots = _RING if _usable_cpus() > 1 else 1
    rows = _ROWS if slots == 1 else _ROWS // 2
    n_rows = -(-bp // rows)                    # row chunks per slab
    # Flat buffers, so a chunk's views are contiguous however many rows it has.
    size = min(bp, rows) * _STRATA_SLAB
    z_ring = np.empty((slots, size))
    # Drawn inline, a chunk's times stay in the uniforms' buffer; the helper
    # may draw the next slab's uniforms there first, so the ring takes them.
    t_ring = np.empty((slots, size)) if slots > 1 else None
    s_buf = np.empty(size)
    y_buf, e_buf, w_buf = np.empty(2 * size), np.empty(2 * size), np.empty(2 * size)
    total = np.zeros(bp)

    def chunk(g):
        """Chunk g's first row and its views of its times and normals."""
        r0 = g % n_rows * rows
        shape = (min(rows, bp - r0), _STRATA_SLAB)
        n = shape[0] * _STRATA_SLAB
        slot = g % slots
        t = uniforms[r0 : r0 + shape[0]] if t_ring is None else t_ring[slot, :n].reshape(shape)
        return r0, t, z_ring[slot, :n].reshape(shape)

    def draw(g):
        if g % n_rows == 0:
            rng.random(out=uniforms)
        r0, t, spread = chunk(g)
        k0 = g // n_rows * _STRATA_SLAB
        # K - k - U is exact and positive, so the top stratum's time is finite.
        np.subtract(upper[k0 : k0 + _STRATA_SLAB], uniforms[r0 : r0 + len(t)], out=t)
        t /= _TIME_STRATA
        np.log(t, out=t)
        t /= -params.r
        rng.standard_normal(out=spread)

    with contextlib.closing(_drawn_in_order(draw, n_rows * (_TIME_STRATA // _STRATA_SLAB), slots)) as drawn:
        for g in drawn:
            r0, t, spread = chunk(g)
            n, shape = t.size, (2, *t.shape)
            sd = s_buf[:n].reshape(t.shape)
            y, e = y_buf[: 2 * n].reshape(shape), e_buf[: 2 * n].reshape(shape)
            np.sqrt(t, out=sd)
            sd *= params.sigma
            spread *= sd
            np.multiply(mu, t, out=y[0])
            y[0] += x                               # the centre, x + mu t
            np.subtract(y[0], spread, out=y[1])
            y[0] += spread
            c = _evaluate(cashflows.coupon, np.exp(y, out=e))
            y -= ell
            y *= scale
            np.multiply(params.sigma**2, t, out=sd)
            y /= sd
            np.minimum(y, 0.0, out=y)
            p = np.exp(y, out=y)
            w = np.subtract(stop, c, out=w_buf[: 2 * n].reshape(shape))
            w *= p
            c = np.add(c, w, out=w)                 # c + p (stop - c)
            np.add(c[0], c[1], out=spread)         # the normals' buffer takes the pair sums
            total[r0 : r0 + len(t)] += np.sum(spread, axis=1)
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
