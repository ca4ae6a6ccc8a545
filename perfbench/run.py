#!/usr/bin/env python3
"""Closed-loop benchmark of sparselab, one workload per invocation.

Run from the repository root:

    python3 perfbench/run.py --workload opnorm --seed 1 --seconds 20 --trace 0

One client runs the workload's operations one after another, in whole
rounds (see workloads.py), in this process; nothing runs in parallel.

--trace 0 times rounds until --seconds have passed and the run holds enough
operations for its tail percentile, then prints the end-to-end metrics.
--trace 1 runs the workload's fixed traced rounds twice, untraced and then
with every traced sparselab function wrapped, checks that both passes
computed bitwise identical values, and prints the per-layer metrics.

Every operation's output is checked (workloads.py, reference.py). The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the same object, with detail, is written to
perfbench/out/. Without sparselab sources under src/ the run stops with a
non-zero exit code before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("opnorm", "lsu-local", "testing-sums", "sharpness-deep")
SETUP_PROBES = 4  # extra set-ups in fresh interpreters; setup_s is the median of five
SHOWN_FAILURES = 5
WARM_UP_S = 2.0


def import_sparselab():
    """Import sparselab from this checkout's src/; return it and the seconds taken.

    Nothing else is imported before it, so the time includes numpy's import.
    """
    init = SRC / "sparselab" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: no sparselab sources at {init}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import sparselab

    seconds = time.perf_counter() - start
    if Path(sparselab.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported sparselab from {sparselab.__file__}, not {init}")
    return sparselab, seconds


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="time one set-up (import and input generation), print the seconds and exit",
    )
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


class Tally:
    """Attempted and failed operations, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.shown = []

    def add(self, ops, reasons):
        for op, why in zip(ops, reasons):
            self.attempted += 1
            if why:
                self.failed += 1
                if len(self.shown) < SHOWN_FAILURES:
                    self.shown.append(f"{op.label}: {'; '.join(why)}")


def run_round(sl, wl, inputs, refs, k, tracer=None):
    """Run round k once; return its ops, outputs, latencies (ns) and failure reasons."""
    ops = wl.round_ops(sl, inputs, refs, k)
    outputs, latencies, raised = [], [], {}
    for i, op in enumerate(ops):
        start = time.perf_counter_ns()
        try:
            if tracer is None:
                out = op.call()
            else:
                with tracer.span("op"):
                    out = op.call()
        except Exception as err:  # an operation that raises counts as failed
            out = None
            raised[i] = f"raised {type(err).__name__}: {err}"
        latencies.append(time.perf_counter_ns() - start)
        outputs.append(out)
    reasons = wl.check_round(ops, outputs)
    for i, why in raised.items():
        reasons[i].append(why)
    return ops, outputs, latencies, reasons


def warm_up(sl, wl, inputs, refs):
    """Run operations of round 0, uncounted, for WARM_UP_S (at least one).

    First calls, and the allocator's first large blocks (sharpness-deep),
    cost more than the same calls later.
    """
    start = time.perf_counter()
    for op in wl.round_ops(sl, inputs, refs, 0):
        op.call()
        if time.perf_counter() - start >= WARM_UP_S:
            break


def timed_run(sl, wl, inputs, refs, seconds):
    """Whole rounds until `seconds` have passed and there are wl.min_ops operations."""
    warm_up(sl, wl, inputs, refs)
    tally = Tally()
    latencies = []
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds or len(latencies) < wl.min_ops:
        ops, _, times, reasons = run_round(sl, wl, inputs, refs, rounds)
        latencies += times
        tally.add(ops, reasons)
        rounds += 1
    return latencies, tally, rounds


def setup_probe_seconds(workload, seed):
    """Set-up time of a fresh interpreter running this file with --setup-only."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def end_to_end(sl, wl, args, import_s):
    start = time.perf_counter()
    inputs = wl.setup(sl, args.seed)
    setups = [import_s + time.perf_counter() - start]
    setups += [setup_probe_seconds(wl.name, args.seed) for _ in range(SETUP_PROBES)]
    refs = wl.prepare(inputs)
    latencies, tally, rounds = timed_run(sl, wl, inputs, refs, args.seconds)
    ms = [t / 1e6 for t in latencies]
    percentiles = statistics.quantiles(ms, n=100, method="inclusive")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(latencies) / (sum(latencies) / 1e9), "1/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_tail": (percentiles[wl.tail_percentile - 1], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "rounds": rounds,
        "tail_percentile": wl.tail_percentile,
        "setup_samples_s": setups,
    }
    return tally, metrics, detail


def _canonical(outputs):
    """Outputs as text that is equal exactly when every float is bitwise equal."""
    return [
        None if out is None else [x.hex() if isinstance(x, float) else repr(x) for x in out]
        for out in outputs
    ]


def _pass(sl, wl, seed, refs, tracer):
    """Set up and run the traced rounds; return wall seconds, outputs and tally."""
    outputs, tally = [], Tally()
    start = time.perf_counter()
    if tracer is None:
        inputs = wl.setup(sl, seed)
    else:
        with tracer.span("setup"):
            inputs = wl.setup(sl, seed)
    for k in range(wl.trace_rounds):
        ops, outs, _, reasons = run_round(sl, wl, inputs, refs, k, tracer)
        outputs += outs
        tally.add(ops, reasons)
    return time.perf_counter() - start, outputs, tally


def per_layer(sl, wl, args):
    import tracer as tr

    inputs = wl.setup(sl, args.seed)
    refs = wl.prepare(inputs)
    warm_up(sl, wl, inputs, refs)
    wall0, outs0, _ = _pass(sl, wl, args.seed, refs, None)
    with tr.Tracer() as tracer:
        wall1, outs1, tally = _pass(sl, wl, args.seed, refs, tracer)
    identical = _canonical(outs0) == _canonical(outs1)
    summary = tracer.summary()
    metrics = {}
    for layer in tr.LAYERS:
        row = summary.get(layer, {"calls": 0, "total_ns": 0, "self_ns": 0})
        metrics[f"{layer}.calls"] = (row["calls"], "count")
        metrics[f"{layer}.self_ms"] = (row["self_ns"] / 1e6, "ms")
    iterations = tracer.counts["ascent.iterations"]
    shells = tracer.counts["sharpness.shells"]
    maximize_ns = summary.get("ascent.maximize", {}).get("total_ns", 0)
    sweep_ns = sum(summary.get(f"sharpness.{f}", {}).get("self_ns", 0)
                   for f in ("primal_quantities", "dual_quantities"))
    metrics["ascent.iterations"] = (iterations, "count")
    metrics["ascent.grad_rows"] = (tracer.counts["ascent.grad_rows"], "count")
    ms_per_iteration = maximize_ns / 1e6 / iterations if iterations else 0.0
    metrics["ascent.ms_per_iteration"] = (ms_per_iteration, "ms")
    metrics["sharpness.shells"] = (shells, "count")
    metrics["sharpness.ns_per_shell"] = (sweep_ns / shells if shells else 0.0, "ns")
    metrics["trace.overhead_s"] = (wall1 - wall0, "s")
    detail = {
        "trace_rounds": wl.trace_rounds,
        "untraced_wall_s": wall0,
        "traced_wall_s": wall1,
        "bitwise_identical": identical,
    }
    spans = {
        "columns": ["name", "parent", "start_ns", "end_ns"],
        "spans": tracer.spans,
    }
    return identical, tally, metrics, detail, spans


def machine():
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    sl, import_s = import_sparselab()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        start = time.perf_counter()
        wl.setup(sl, args.seed)
        print(import_s + time.perf_counter() - start)
        return 0

    spans = None
    if args.trace:
        correct, tally, metrics, detail, spans = per_layer(sl, wl, args)
    else:
        correct = True  # every operation is checked; a miss counts in `failed`
        tally, metrics, detail = end_to_end(sl, wl, args, import_s)

    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}: "
          f"{tally.attempted} operations attempted, {tally.failed} failed their check")
    for line in tally.shown:
        print(f"  failed: {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    record = dict(result, workload=wl.name, seed=args.seed, seconds=args.seconds,
                  detail=detail, failures_shown=tally.shown, machine=machine())
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(spans) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
