#!/usr/bin/env python3
"""The chamcovers benchmark: one command, every metric with its unit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it imports the package from
the checkout's ``src`` directory and nowhere else.  With ``--trace 0`` it
runs operations for ``--seconds`` seconds, sets the workload up again at
intervals, and prints the end-to-end metrics.  With ``--trace 1`` it runs a
fixed work list three times: once counting group element operations (which
also warms every cache), once with layer spans, and once untraced, and
prints the per-layer metrics.
Every operation's output is checked.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the full record, which is also written to
``bench/out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from tracing import ElemCounter, Tracer, layer_metrics, self_shares  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-ups per untraced run: one before the operations and the rest spread
# over the run, so that setup_s, their median, samples the machine over the
# same period as the operations do.
SETUP_REPS = 9


def _ours(name: str) -> bool:
    return name == "chamcovers" or name.startswith("chamcovers.")


def fresh_import():
    """Import chamcovers from the checkout's src, discarding any loaded copy.

    Re-executing the modules makes each set-up pay for the import and for
    the empty automorphism cache again.
    """
    for name in [n for n in sys.modules if _ours(n)]:
        del sys.modules[name]
    pkg = importlib.import_module("chamcovers")
    importlib.import_module("chamcovers.cli")
    if Path(pkg.__file__).resolve().parent.parent != ROOT / "src":
        raise ImportError(f"chamcovers was imported from {pkg.__file__}, not {ROOT / 'src'}")
    return pkg


def setup(name: str, seed: int, golden: dict):
    """One timed set-up: a fresh import, the inputs, the automorphism tables."""
    gc.collect()
    start = time.perf_counter()
    wl = WORKLOADS[name](fresh_import(), seed, golden, OUT)
    return wl, time.perf_counter() - start


def setup_again(name: str, seed: int, golden: dict) -> float:
    """Time another set-up, then put back the package the run is using."""
    loaded = {n: m for n, m in sys.modules.items() if _ours(n)}
    seconds = setup(name, seed, golden)[1]
    for n in [n for n in sys.modules if _ours(n)]:
        del sys.modules[n]
    sys.modules.update(loaded)
    gc.collect()
    return seconds


class Calibration:
    """The machine's current speed, from a fixed loop timed around each unit.

    On a shared host a virtual machine's speed can drift by tens of percent
    over tens of seconds, and a pure-Python loop slows down with it.  Work is timed
    between two runs of the loop and scaled to `REFERENCE_S`, the loop's time
    at the reference speed: scaled = measured * REFERENCE_S / mean loop time.
    """

    REFERENCE_S = 0.002

    def __init__(self):
        self.samples: list[float] = []

    @staticmethod
    def loop() -> int:
        table: dict = {}
        for i in range(5000):
            key = (i % 61, i % 7)
            table[key] = table.get(key, 0) + i * 3 % 11
        return len(table)

    def time_loop(self) -> float:
        gc.disable()
        try:
            start = time.perf_counter()
            self.loop()
            seconds = time.perf_counter() - start
        finally:
            gc.enable()
        self.samples.append(seconds)
        return seconds

    def around(self, fn, *args):
        """fn(*args) between two timings of the loop, and the scale factor."""
        before = self.time_loop()
        out = fn(*args)
        return out, 2 * self.REFERENCE_S / (before + self.time_loop())


def run_rounds(wl, rounds, cal, deadline=None, between=None) -> list:
    """Run the units of each round; stop at the deadline, if one is given.

    Each operation gets the scale factor measured around its unit.
    `between` is called before each unit, outside any timed operation.
    """
    ops = []
    for units in rounds:
        wl.begin_round()
        for unit in units:
            if deadline is not None and ops and time.perf_counter() >= deadline:
                return ops
            if between is not None:
                between()
            unit_ops, factor = cal.around(wl.run, unit)
            for op in unit_ops:
                op.factor = factor
            ops += unit_ops
    return ops


def endless_rounds(wl):
    while True:
        yield wl.round()


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def metadata(args) -> dict:
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "run_seconds": args.seconds,
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def summarize(ops, scaled: bool) -> dict:
    lat = [op.seconds * (op.factor if scaled else 1.0) for op in ops]
    busy = sum(lat)
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]
    return {
        "ops_per_s": len(ops) / busy,
        "vertices_per_s": sum(op.vertices for op in ops) / busy,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "samples_beyond_p90": sum(1 for x in lat if x > p90),
    }


def untraced(args, golden) -> tuple[dict, list, dict]:
    cal = Calibration()
    (wl, first), factor = cal.around(setup, args.workload, args.seed, golden)
    setup_raw = [first]
    setup_scaled = [first * factor]
    try:
        wl.prepare_checks()
        gc.collect()
        start = time.perf_counter()
        step = args.seconds / SETUP_REPS

        def between():
            if len(setup_raw) < SETUP_REPS and time.perf_counter() >= start + step * len(setup_raw):
                seconds, factor = cal.around(setup_again, args.workload, args.seed, golden)
                setup_raw.append(seconds)
                setup_scaled.append(seconds * factor)

        ops = run_rounds(wl, endless_rounds(wl), cal, start + args.seconds, between)
        wall = time.perf_counter() - start
    finally:
        wl.close()
    scaled = summarize(ops, scaled=True)
    raw = summarize(ops, scaled=False)
    timing_units = {"ops_per_s": "1/s", "vertices_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms"}
    metrics = {"setup_s": {"value": statistics.median(setup_scaled), "unit": "s"}}
    metrics.update({k: {"value": scaled[k], "unit": u} for k, u in timing_units.items()})
    metrics["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}
    record = {
        "inputs_digest": wl.inputs_digest(),
        "op_samples": len(ops),
        "samples_beyond_p90": scaled["samples_beyond_p90"],
        "unscaled": {"setup_s": statistics.median(setup_raw), **{k: raw[k] for k in timing_units}},
        "setup_samples_s": setup_raw,
        "calibration_loop_s": {
            "median": statistics.median(cal.samples),
            "min": min(cal.samples),
            "max": max(cal.samples),
            "samples": len(cal.samples),
        },
        "wall_s": wall,
    }
    return record, ops, metrics


def traced(args, golden) -> tuple[dict, list, dict]:
    pkg = fresh_import()
    tracer = Tracer()
    tracer.install(pkg)
    wl = WORKLOADS[args.workload](pkg, args.seed, golden, OUT)
    tracer.uninstall()
    try:
        wl.prepare_checks()
        rounds = [wl.round() for _ in range(wl.trace_rounds)]
        # The counting pass goes first and also warms every cache, so the
        # traced and the untraced pass that are compared run alike.
        cal = Calibration()
        with ElemCounter(pkg) as elems:
            counted_ops = run_rounds(wl, rounds, cal)
        gc.collect()
        tracer.install(pkg)
        first = len(tracer.spans)
        wl.reset_stats()
        traced_ops = run_rounds(wl, rounds, cal)
        extra = wl.trace_extra()
        tracer.uninstall()
        gc.collect()
        plain_ops = run_rounds(wl, rounds, cal)
    finally:
        tracer.uninstall()
        wl.close()
    traced_s = sum(op.seconds for op in traced_ops)
    extra["trace_overhead_ratio"] = sum(op.seconds * op.factor for op in traced_ops) / sum(
        op.seconds * op.factor for op in plain_ops
    )
    metrics = layer_metrics(tracer.spans, tracer.counts, elems.calls, extra)
    spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_file)
    record = {
        "inputs_digest": wl.inputs_digest(),
        "trace_rounds": wl.trace_rounds,
        "self_time_shares": self_shares(tracer.spans, first, int(traced_s * 1e9)),
        "spans": len(tracer.spans),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "unwrapped": tracer.missing,
    }
    return record, counted_ops + traced_ops + plain_ops, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        golden = json.loads((BENCH / "golden.json").read_text())
        fresh_import()
        OUT.mkdir(exist_ok=True)
    except (OSError, ValueError, ImportError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2

    run = traced if args.trace else untraced
    record, ops, metrics = run(args, golden)
    failed = sum(not op.ok for op in ops)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "meta": metadata(args),
        "attempted": len(ops),
        "failed": failed,
        "failed_ratio": failed / len(ops),
        **record,
        "metrics": metrics,
    }
    out = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(ops),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
