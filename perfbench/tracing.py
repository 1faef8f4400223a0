"""Spans recorded around the calls into each ``mortval`` layer.

The benchmark does not edit the package.  It replaces, for the length of
a traced pass, the module attributes through which ``mortval`` modules
call each other (``mortval.foreclosure.solve_abm``,
``mortval.aprm.compute_exponents``, ...) and the public functions the
workloads call, with wrappers that record a span per call.  Spans stay in
memory and are written out when the run ends.

A span is ``[name, start_ns, end_ns, parent, op, tag]``: ``parent`` is the
index of the enclosing span (the op's root span for calls made from pool
threads), ``op`` the op id, and ``tag`` a small detail the layer metrics
split on (regime, point count, root-finder evaluations, sweeps).
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

SOLVER_SPANS = ("frm.solve_frm", "abm.solve_abm", "aprm.solve_aprm")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self.root: int | None = None
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op, None])
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack().pop()

    @contextmanager
    def op_span(self, op: int):
        """Root span of one op; pool-thread spans attach to it."""
        self.op = op
        self.root = None
        idx = self.begin("op")
        self.root = idx
        try:
            yield
        finally:
            self.end(idx)
            self.root = None


def traced(tracer: Tracer, name: str, fn, tagger=None):
    """``fn`` recording one span per call; ``tagger(args, result)`` sets its tag."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            tracer.spans[idx][5] = ("error", getattr(exc, "code", type(exc).__name__))
            raise
        finally:
            tracer.end(idx)
        if tagger is not None:
            tracer.spans[idx][5] = tagger(args, kwargs, result)
        return result
    return wrapper


def traced_rootfinder(tracer: Tracer, name: str, site: str, fn):
    """Root finder whose callback evaluations are counted and spanned.

    Callback spans are named after the calling module, so the work the
    callback does is charged to that layer and not to the root finder.
    """
    @functools.wraps(fn)
    def wrapper(f, *args, **kwargs):
        evals = 0

        def counted(x):
            nonlocal evals
            evals += 1
            j = tracer.begin(site + ".callback")
            try:
                return f(x)
            finally:
                tracer.end(j)

        idx = tracer.begin(name)
        try:
            return fn(counted, *args, **kwargs)
        finally:
            tracer.end(idx)
            tracer.spans[idx][5] = evals
    return wrapper


def _abm_tag(args, kwargs, result):
    params, m = args[0], args[1]
    return "one_sided" if m <= params.delta else "two_sided"


def aprm_label(params, m: float, result) -> str:
    """APRM regime of a solved contract: low/mid/high, frozen without a band."""
    ex = result.exponents
    if m <= params.delta:
        regime = "low"
    elif m < ex.p1 * params.delta / (ex.p1 - 1.0):
        regime = "mid"
    else:
        regime = "high"
    return regime if "h2" in result.boundaries else regime + "_frozen"


def _aprm_tag(args, kwargs, result):
    return aprm_label(args[0], args[1], result)


def _value_tag(args, kwargs, result):
    h = args[1]
    return 0 if getattr(h, "ndim", 0) == 0 else int(h.size)


def _psor_tag(args, kwargs, result):
    return (result.sweeps, len(result.grid))


def _mc_tag(args, kwargs, result):
    policy = args[2] if len(args) > 2 else kwargs.get("policy")
    path = "integral" if policy is None or policy == (None, None) else "policy"
    steps = result.n_paths * round(result.horizon / result.dt)
    return (path, steps, result.tail_bound)


def _targets(mortval):
    """(module, attribute, span name, tagger) for every wrapped call site."""
    m = mortval
    t = []
    for mod in (m.frm, m.abm, m.aprm, m.oracle):
        t.append((mod, "compute_exponents", "model.compute_exponents", None))
    for mod, attr, name in (
        (m.foreclosure, "solve_frm", "frm.solve_frm"),
        (m.options, "solve_frm", "frm.solve_frm"),
        (m.options, "solve_frm_no_prepay", "frm.solve_frm_no_prepay"),
        (m.options, "solve_abm_no_prepay", "abm.solve_abm_no_prepay"),
        (m.options, "solve_aprm_no_prepay", "aprm.solve_aprm_no_prepay"),
        (m.aprm, "aprm_regime", "aprm.aprm_regime"),
        (m.cli, "aprm_regime", "aprm.aprm_regime"),
    ):
        t.append((mod, attr, name, None))
    # aprm reaches the ABM solver as ``abm.solve_abm``, the others by name.
    for mod in (m.abm, m.foreclosure, m.options):
        t.append((mod, "solve_abm", "abm.solve_abm", _abm_tag))
    for mod in (m.foreclosure, m.options):
        t.append((mod, "solve_aprm", "aprm.solve_aprm", _aprm_tag))
    t.append((m.solution.SolvedContract, "value", "solution.value", _value_tag))
    t.append((m.solution.SolvedContract, "region_at", "solution.region_at", None))
    for attr in ("prepay_option_value", "default_option_value"):
        for mod in (m.options, m.cli):
            if hasattr(mod, attr):
                t.append((mod, attr, "options." + attr, None))
    for attr in ("max_rate", "endogenous_spread", "equivalent_foreclosure_cost",
                 "frm_value_with_foreclosure"):
        for mod in (m.foreclosure, m.cli):
            if hasattr(mod, attr):
                t.append((mod, attr, "foreclosure." + attr, None))
    for attr, name, tagger in (
        ("psor_value", "oracle.grid", _psor_tag),
        ("threshold_policy_value", "oracle.policy", None),
        ("mc_cashflow_value", "oracle.mc", _mc_tag),
    ):
        for mod in (m.oracle, m.cli):
            t.append((mod, attr, name, tagger))
    return t


_ROOT_SITES = (("frm", "find_root_bracketed"), ("abm", "find_root_bracketed"),
               ("abm", "grow_bracket"), ("aprm", "find_root_bracketed"),
               ("foreclosure", "find_root_bracketed"))


@contextmanager
def installed(tracer: Tracer):
    """Wrap every call site for the duration of the block, then restore."""
    import mortval
    import mortval.cli  # noqa: F401  (the cli module is a call site too)

    saved = []
    for owner, attr, name, tagger in _targets(mortval):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, traced(tracer, name, getattr(owner, attr), tagger))
    for site, attr in _ROOT_SITES:
        mod = getattr(mortval, site)
        saved.append((mod, attr, mod.__dict__[attr]))
        setattr(mod, attr, traced_rootfinder(tracer, "rootfind." + attr, site, getattr(mod, attr)))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[int]:
    """Duration of each span minus the part of it its children cover.

    Children from pool threads may overlap one another, so the covered
    part is the length of the union of the children's intervals, clipped
    to the parent's.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for name, start, end, parent, _op, _tag in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for idx, (_name, start, end, _parent, _op, _tag) in enumerate(spans):
        covered, reach = 0, start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def descendant_counts(spans: list[list], ancestors: tuple[str, ...], names: tuple[str, ...]):
    """For each span named in ``ancestors``: how many ``names`` spans sit under it."""
    counts: dict[int, int] = {i: 0 for i, s in enumerate(spans) if s[0] in ancestors}
    for span in spans:
        if span[0] not in names:
            continue
        parent = span[3]
        while parent is not None:
            if parent in counts:
                counts[parent] += 1
            parent = spans[parent][3]
    return counts


def layer_metrics(spans: list[list], n_ops: int, grid_cap: int, grid_nodes: int) -> dict[str, float]:
    """Per-layer numbers of one traced pass over ``n_ops`` ops.

    A grid solve that raised ran its whole sweep budget ``grid_cap`` on
    ``grid_nodes`` nodes.

    ``.us``/``.ms`` figures are self time per call for the solver and
    solution layers and inclusive time per call for options, foreclosure
    and oracle entry points, whose work is mostly their children's.
    """
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    incl_ns: dict[str, int] = defaultdict(int)
    layer_self: dict[str, int] = defaultdict(int)
    op_ns = 0
    for span, own in zip(spans, selfs):
        name, start, end, _parent, _op, tag = span
        dur = end - start
        if name == "op":
            op_ns += dur
            continue
        key = name
        if name in ("abm.solve_abm", "aprm.solve_aprm") and isinstance(tag, str):
            key = f"{name}.{tag}"
        elif name == "solution.value":
            key = "solution.value.scalar" if tag == 0 else "solution.value.array"
        elif name == "oracle.mc" and isinstance(tag, tuple):
            key = "oracle.mc." + tag[0]
        calls[key] += 1
        self_ns[key] += own
        incl_ns[key] += dur
        layer_self[name.split(".", 1)[0]] += own

    def per_call(table, key, scale):
        return table[key] / calls[key] / scale if calls[key] else 0.0

    out: dict[str, float] = {}
    n = max(n_ops, 1)
    out["model.compute_exponents.calls_per_op"] = calls["model.compute_exponents"] / n
    roots = [s for s in spans if s[0] == "rootfind.find_root_bracketed"]
    out["rootfind.find_root_bracketed.calls_per_op"] = len(roots) / n
    out["rootfind.find_root_bracketed.evals_per_call"] = (
        sum(s[5] or 0 for s in roots) / len(roots) if roots else 0.0)
    out["rootfind.self_share"] = layer_self["rootfind"] / op_ns if op_ns else 0.0

    for key in ("frm.solve_frm", "abm.solve_abm.one_sided", "abm.solve_abm.two_sided",
                "aprm.aprm_regime", "frm.solve_frm_no_prepay", "abm.solve_abm_no_prepay",
                "aprm.solve_aprm_no_prepay") + tuple(
                    f"aprm.solve_aprm.{r}" for r in
                    ("low", "low_frozen", "mid", "mid_frozen", "high")):
        out[key + ".us"] = per_call(self_ns, key, 1e3)
    out["solution.value.scalar.us"] = per_call(self_ns, "solution.value.scalar", 1e3)
    points = sum(s[5] for s in spans if s[0] == "solution.value" and s[5])
    out["solution.value.array.ns_per_point"] = (
        self_ns["solution.value.array"] / points if points else 0.0)
    out["solution.region_at.calls_per_op"] = calls["solution.region_at"] / n

    out["options.prepay_option_value.us"] = per_call(incl_ns, "options.prepay_option_value", 1e3)
    out["options.default_option_value.us"] = per_call(incl_ns, "options.default_option_value", 1e3)

    out["foreclosure.max_rate.ms"] = per_call(incl_ns, "foreclosure.max_rate", 1e6)
    out["foreclosure.endogenous_spread.ms"] = per_call(incl_ns, "foreclosure.endogenous_spread", 1e6)
    out["foreclosure.equivalent_foreclosure_cost.us"] = per_call(
        incl_ns, "foreclosure.equivalent_foreclosure_cost", 1e3)
    for name in ("max_rate", "endogenous_spread"):
        counts = descendant_counts(spans, ("foreclosure." + name,), SOLVER_SPANS)
        out[f"foreclosure.{name}.solves_per_call"] = (
            sum(counts.values()) / len(counts) if counts else 0.0)
    out["foreclosure.self_share"] = layer_self["foreclosure"] / op_ns if op_ns else 0.0

    grid = [(s, s[2] - s[1]) for s in spans if s[0] == "oracle.grid"]
    sweeps = nodes = 0
    for span, _dur in grid:
        tag = span[5]
        if isinstance(tag, tuple) and tag[0] == "error":
            n_sweeps, n_points = grid_cap, grid_nodes
        else:
            n_sweeps, n_points = tag
        sweeps += n_sweeps
        nodes += n_sweeps * (n_points - 2)
    grid_ns = sum(d for _s, d in grid)
    out["oracle.grid.ms"] = grid_ns / len(grid) / 1e6 if grid else 0.0
    out["oracle.grid.iterations"] = sweeps / len(grid) if grid else 0.0
    out["oracle.grid.node_updates"] = nodes / len(grid) if grid else 0.0
    out["oracle.grid.ns_per_node_update"] = grid_ns / nodes if nodes else 0.0
    out["oracle.policy.us"] = per_call(incl_ns, "oracle.policy", 1e3)
    out["oracle.mc.integral.ms"] = per_call(incl_ns, "oracle.mc.integral", 1e6)
    out["oracle.mc.policy.ms"] = per_call(incl_ns, "oracle.mc.policy", 1e6)
    mc = [s for s in spans if s[0] == "oracle.mc" and isinstance(s[5], tuple) and s[5][0] != "error"]
    steps = sum(s[5][1] for s in mc)
    out["oracle.mc.path_steps"] = float(steps)
    out["oracle.mc.ns_per_path_step"] = sum(s[2] - s[1] for s in mc) / steps if steps else 0.0
    out["oracle.mc.tail_bound"] = max((s[5][2] for s in mc), default=0.0)
    return out
