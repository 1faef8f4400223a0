"""Benchmark of the mortval engine: one workload, one seed, one run.

    python3 perfbench/run.py --workload quotes --seed 1 --seconds 12 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  One process drives one closed loop: each op starts
when the previous one ends, and output checks run between ops, outside
the timed region.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs a fixed number of ops twice, untraced and then with
spans around every layer call, checks that both give bit-identical
outputs, and prints the per-layer metrics.  The last line of standard
output is the result object; the line before it holds the run's context
(draw box, regime shares, shared-parameter share, machine and versions).
Results and spans are also written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
CHILD_REF_EVERY = 4
STARTUP_REPEATS = 3
ERROR_CODES = ("NotConverged", "NoBracket", "MaxIterExceeded", "UnsupportedRegime")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


class Outcomes:
    """Per-op times and verdicts of one pass over a workload."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.spans: list[tuple[float, float]] = []
        self.failures: dict[str, int] = {}
        self.summaries: list = []
        self.fingerprints: list[bytes] = []
        self.incorrect: list[str] = []
        self.passed = 0

    def fail(self, kind: str) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + 1

    @property
    def failed(self) -> int:
        return len(self.times) - self.passed


def run_op(wl, x, runner, outcomes: Outcomes, check: bool = True, keep: bool = True, probe=None):
    """Time ``runner(x)``; then, untimed, check it and record the verdict.

    ``keep`` keeps the output's fingerprint, for comparing traced and
    untraced passes; timed runs drop it so their memory stays flat.  Time
    ``probe`` spent on its reference chunk during the op is not the op's.
    """
    from workloads import ChildFailed
    from mortval.errors import ValuationError

    paused = probe.paused if probe else 0.0
    start = time.perf_counter()
    try:
        out, err = runner(x), None
    except (ValuationError, ChildFailed) as exc:
        out, err = None, exc.code
    except Exception as exc:  # an untyped error is a defect: count it, keep going
        traceback.print_exc(file=sys.stderr)
        out, err = None, "other"
        outcomes.incorrect.append(f"untyped {type(exc).__name__}: {exc}")
    end = time.perf_counter()
    outcomes.times.append(end - start - (probe.paused - paused if probe else 0.0))
    if probe:
        outcomes.spans.append((start, end))

    if err is not None:
        outcomes.fail(err if err in ERROR_CODES else "exit" if err.startswith("exit_") else "other")
        if keep:
            outcomes.fingerprints.append(("error:" + err).encode())
    else:
        if keep:
            outcomes.fingerprints.append(wl.fingerprint(out))
        verdict = wl.check(x, out) if check else None
        if verdict is None:
            outcomes.passed += 1
        else:
            kind, why = verdict
            outcomes.fail(kind)
            if kind == "check":
                outcomes.incorrect.append(why)
            print(f"op failed its {kind}: {why}", file=sys.stderr)
    if check:
        outcomes.summaries.append(wl.summary(x, out))
    return out


def measure_children(args: list[str], repeats: int) -> list[float]:
    """Wall time of ``python args`` from spawn to exit, ``repeats`` times."""
    from workloads import run_child

    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run_child(args, str(ROOT), child_env())
        times.append(time.perf_counter() - start)
    return times


def reference_child() -> float:
    """Wall time of one reference child (see ``speed.py``)."""
    from speed import reference_child_args

    return measure_children(reference_child_args(str(HERE)), 1)[0]


def measure_setup(wl) -> tuple[list[float], float]:
    """Set-up times of fresh workload processes, and the factor scaling them.

    Each set-up child follows a reference child, whose times give the
    factor (``speed.child_factor``).
    """
    from speed import child_factor

    setup, refs = [], []
    for _ in range(SETUP_REPEATS):
        refs.append(reference_child())
        setup += measure_children([str(HERE / "run.py"), "--workload", wl.name, "--seed", str(wl.seed),
                                   "--setup-only"], 1)
    return setup, child_factor(refs)


def make_workload(name: str, seed: int):
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    if name == "cli":
        return cls(seed, root=str(ROOT), env=child_env())
    return cls(seed)


def repeat_share(wl, n_ops: int) -> float:
    """Share of ops whose market parameters an earlier op already used."""
    seen, repeats = set(), 0
    for i in range(n_ops):
        key = wl.market_key(wl.inputs(i))
        repeats += key in seen
        seen.add(key)
    return repeats / max(n_ops, 1)


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def timed_run(wl, seconds: float) -> dict:
    """End-to-end metrics of one closed-loop run of ``seconds`` timed seconds.

    All times are scaled to nominal core speed (see ``speed.py``).
    In-process ops are scaled by the factor ``SpeedProbe`` measures around
    each op; child processes (set-up, and ``cli`` ops) by the run's
    reference children, one before every ``CHILD_REF_EVERY`` child ops.
    The raw figures go to the context line.
    """
    from speed import SpeedProbe, child_factor

    setup, setup_factor = measure_setup(wl)
    refs = []
    with (nullcontext() if wl.in_children else SpeedProbe()) as probe:
        wl.warm_up()
        outcomes = Outcomes()
        i, timed = 0, 0.0
        while timed < seconds or i % wl.round_ops:
            if wl.in_children and i % CHILD_REF_EVERY == 0:
                refs.append(reference_child())
            run_op(wl, wl.inputs(i), wl.op, outcomes, keep=False, probe=probe)
            timed += outcomes.times[-1]
            i += 1
    if probe is None:
        scaled = [t * child_factor(refs) for t in outcomes.times]
    else:
        scaled = [t * probe.factor(a, b) for t, (a, b) in zip(outcomes.times, outcomes.spans)]
    if wl.in_children:
        rss_kb = wl.rusage_max_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setup) * setup_factor,
        "ops_per_s": outcomes.passed / sum(scaled),
        "op_p50_ms": statistics.median(scaled) * 1e3,
        "op_p90_ms": p90(scaled) * 1e3,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    raw = {
        "setup_s": statistics.median(setup),
        "ops_per_s": outcomes.passed / sum(outcomes.times),
        "op_p50_ms": statistics.median(outcomes.times) * 1e3,
        "op_p90_ms": p90(outcomes.times) * 1e3,
    }
    extra = {"raw": raw, "speed_factor": sum(scaled) / sum(outcomes.times),
             "speed_samples": len(probe.samples) if probe else len(refs),
             "setup_speed_factor": setup_factor, "raw_setup_samples_s": setup,
             "op_samples": len(outcomes.times), "failed_frac": outcomes.failed / len(outcomes.times)}
    return {"outcomes": outcomes, "metrics": metrics, "extra": extra, "n_ops": i}


def traced_run(wl) -> dict:
    """Per-layer metrics: the same ops untraced, then traced, compared."""
    from tracing import Tracer, installed, layer_metrics
    from workloads import CLI_COMMANDS, GRID_NODES, GRID_SWEEP_CAP, command_group, mc_stderr_max

    startup = measure_children(["-c", "import mortval.cli"], STARTUP_REPEATS)
    wl.warm_up()
    n = wl.trace_ops
    xs = [wl.inputs(i) for i in range(n)]
    cli = wl.name == "cli"

    plain = Outcomes()
    for x in xs:
        run_op(wl, x, wl.op, plain)
    metrics: dict[str, float] = {"cli.startup_ms": statistics.median(startup) * 1e3}
    groups = sorted({command_group(c) for c in CLI_COMMANDS})
    for g in groups:
        metrics[f"cli.{g}.process_ms"] = metrics[f"cli.{g}.in_process_ms"] = 0.0
    base = plain
    if cli:
        # In-process twins of the child-process ops: the untraced baseline
        # of the traced pass, and the in-process time of each command.
        base = Outcomes()
        for x in xs:
            run_op(wl, x, wl.in_process, base, check=False)
        for g in groups:
            idx = [k for k, x in enumerate(xs) if command_group(x.label) == g]
            metrics[f"cli.{g}.process_ms"] = statistics.median(plain.times[k] for k in idx) * 1e3
            metrics[f"cli.{g}.in_process_ms"] = statistics.median(base.times[k] for k in idx) * 1e3

    tracer = Tracer()
    traced = Outcomes()
    runner = wl.in_process if cli else wl.op
    with installed(tracer):
        for k, x in enumerate(xs):
            with tracer.op_span(k):
                run_op(wl, x, runner, traced, check=False)
    mismatched = [k for k, (a, b) in enumerate(zip(plain.fingerprints, traced.fingerprints)) if a != b]
    if cli:
        mismatched += [k for k, (a, b) in enumerate(zip(base.fingerprints, traced.fingerprints)) if a != b]
    if mismatched:
        plain.incorrect.append(f"traced outputs differ from untraced ones at ops {sorted(set(mismatched))}")

    metrics.update(layer_metrics(tracer.spans, n, GRID_SWEEP_CAP, GRID_NODES))
    grid = wl.name == "grid"
    gaps = [gap for _regime, gap in plain.summaries if gap is not None] if grid else []
    metrics["oracle.grid.gap_max"] = max(gaps, default=0.0)
    metrics["oracle.grid.not_converged"] = float(plain.failures.get("NotConverged", 0)) if grid else 0.0
    for code in ERROR_CODES + ("exit", "gate", "check", "other"):
        metrics[f"errors.{code}.count"] = float(plain.failures.get(code, 0))
    metrics["failed_frac"] = plain.failed / n
    metrics["mc_stderr_max"] = mc_stderr_max(plain.summaries) if wl.name == "montecarlo" else 0.0
    metrics["trace.overhead_pct"] = 100.0 * (sum(traced.times) / sum(base.times) - 1.0)

    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"spans-{wl.name}-seed{wl.seed}.jsonl", "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    extra = {"trace_ops": n, "spans": len(tracer.spans), "failed_frac": plain.failed / n}
    return {"outcomes": plain, "metrics": metrics, "extra": extra, "n_ops": n}


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["quotes", "spreads", "grid", "montecarlo", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import, generate inputs and warm up, then exit (times set-up)")
    args = ap.parse_args(argv)

    if not (SRC / "mortval" / "__init__.py").is_file():
        print(f"no mortval package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        make_workload(args.workload, args.seed).warm_up()
        return 0

    wl = make_workload(args.workload, args.seed)

    spec = load_spec()
    run = traced_run(wl) if args.trace else timed_run(wl, args.seconds)
    outcomes: Outcomes = run["outcomes"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in run["metrics"]]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1

    import numpy

    info = {
        "workload": wl.name, "why": next(w["why"] for w in spec["workloads"] if w["name"] == wl.name),
        "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops": run["n_ops"], "failures": outcomes.failures,
        "repeat_share": repeat_share(wl, run["n_ops"]),
        "incorrect": outcomes.incorrect[:10], **run["extra"], **wl.info(outcomes.summaries),
        "nproc": os.cpu_count(), "cpu": cpu_model(), "python": platform.python_version(),
        "numpy": numpy.__version__, "commit": commit(),
    }
    result = {
        "correct": not outcomes.incorrect,
        "attempted": len(outcomes.times),
        "failed": outcomes.failed,
        "metrics": {m["name"]: {"value": run["metrics"][m["name"]], "unit": m["unit"]} for m in wanted},
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
