#!/usr/bin/env python3
"""pearl benchmark: one workload, one process, one thread.

    python3 benchmarks/run.py --workload mixed --seed 0 --seconds 30 --trace 0

Run from the repository root (or anywhere: pearl is imported from the
``src`` directory next to this one, never from an installed copy).

--trace 0 measures the end-to-end metrics: the set-up runs three times
(``setup_s`` is their median), then whole rounds run until --seconds have
passed, then the checks.  --trace 1 runs a fixed number of rounds twice,
first plain and then with every traced pearl name wrapped, and reports
the per-layer metrics plus the tracing overhead (traced minus plain
host time of set-up and rounds).

The last line of standard output is the JSON result; a longer report
goes to standard error and to benchmarks/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import sys
import time
from math import ceil

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 3
# Rounds of a traced run: fixed, so that its counts repeat exactly.
TRACE_ROUNDS = {"mixed": 8, "replay": 8, "examine": 1}
MIN_TAIL_SAMPLES = 10
# Quantiles written to the report next to the metrics.
LADDER = (0.9, 0.95, 0.98, 0.99, 0.995, 0.999, 0.9999)


def import_pearl():
    """Put the checkout's sources first on the path and make sure the
    pearl that loads is theirs."""
    if not os.path.isfile(os.path.join(SRC, "pearl", "__init__.py")):
        sys.exit(f"error: no pearl sources under {SRC}")
    sys.path.insert(0, SRC)
    import pearl
    if os.path.dirname(os.path.dirname(os.path.abspath(pearl.__file__))) != SRC:
        sys.exit(f"error: pearl imported from {pearl.__file__}, not {SRC}")


def quantile(ordered, q):
    """Nearest-rank quantile of a sorted list, and how many samples lie
    beyond it."""
    i = max(0, ceil(q * len(ordered)) - 1)
    return ordered[i], len(ordered) - 1 - i


def unit_of(name):
    last = name.rsplit(".", 1)[-1]
    if last == "us" or last.endswith("_us"):
        return "us"
    return "s" if last.endswith("_s") else "count"


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def build(cls, seed, seconds, paused=contextlib.nullcontext):
    gc.collect()
    t0 = time.perf_counter()
    wl = cls(seed, seconds, paused)
    return wl, time.perf_counter() - t0


def timed_phase(wl, seconds=None, rounds=None):
    """Whole rounds until `seconds` of wall time or `rounds` rounds."""
    gc.collect()
    start = time.perf_counter()
    while wl.max_rounds is None or wl.rounds_run < wl.max_rounds:
        if rounds is not None and wl.rounds_run >= rounds:
            break
        if seconds is not None and wl.rounds_run and \
                time.perf_counter() - start >= seconds:
            break
        wl.run_round()
    if seconds is not None and time.perf_counter() - start < seconds:
        print(f"warning: inputs ran out after {wl.rounds_run} rounds, before "
              f"{seconds} s", file=sys.stderr)


def kind_stats(wl):
    by_kind = {}
    for kind, ns in zip(wl.kinds, wl.latencies_ns):
        by_kind.setdefault(str(kind), []).append(ns)
    return {k: {"count": len(v), "median_us": statistics.median(v) / 1e3,
                "total_s": sum(v) / 1e9} for k, v in sorted(by_kind.items())}


def end_to_end(cls, seed, seconds, report):
    setups = []
    for _ in range(SETUP_REPEATS):
        wl = None   # free the previous set-up before the next one
        wl, dt = build(cls, seed, seconds)
        setups.append(dt)
    report["_measured"] = wl
    timed_phase(wl, seconds=seconds)
    rss = peak_rss_mb()
    wl.check()
    ordered = sorted(wl.latencies_ns)
    n = len(ordered)
    tail, beyond = quantile(ordered, cls.tail_quantile)
    if beyond < MIN_TAIL_SAMPLES:
        print(f"warning: only {beyond} samples beyond the "
              f"{cls.tail_quantile} quantile", file=sys.stderr)
    report.update(setups_s=setups, rounds=wl.rounds_run, timed_s=wl.timed_s(),
                  tail_quantile=cls.tail_quantile, tail_beyond=beyond,
                  kinds=kind_stats(wl),
                  quantiles_us={q: quantile(ordered, q)[0] / 1e3 for q in LADDER})
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (n / wl.timed_s(), "1/s"),
        "op_p50_us": (quantile(ordered, 0.5)[0] / 1e3, "us"),
        "op_tail_us": (tail / 1e3, "us"),
        "peak_rss_mb": (rss, "MB"),
    }
    return wl, metrics


def traced(cls, seed, seconds, report):
    from tracer import Tracer
    from workloads import CheckingAdapter

    rounds = TRACE_ROUNDS[cls.name]
    plain, setup = build(cls, seed, seconds)
    report["_measured"] = plain
    timed_phase(plain, rounds=rounds)
    plain_s = setup + plain.timed_s()
    plain.check()
    del plain

    tracer = Tracer()
    with tracer.installed([(CheckingAdapter, "submit", "harness.submit")]):
        wl, setup = build(cls, seed, seconds, paused=tracer.paused)
        report["_measured"] = wl
        timed_phase(wl, rounds=rounds)
        traced_s = setup + wl.timed_s()
        simulated = wl.simulated()
    wl.check()
    metrics = {name: (value, unit_of(name))
               for name, value in tracer.layer_metrics().items()}
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    if hasattr(wl, "dftl_bytes_per_s"):
        dftl = wl.dftl_bytes_per_s()
        simulated["dftl_bytes_per_s"] = dftl
        simulated["bytes_per_s_vs_dftl"] = simulated["bytes_per_s"] / dftl
    report.update(rounds=wl.rounds_run, plain_s=plain_s, traced_s=traced_s,
                  simulated=simulated, flash_peeks=tracer.counts["flash.peeks"],
                  spans={k: {"calls": c, "us": ns / 1e3, "self_us": s / 1e3}
                         for k, (c, ns, s) in sorted(tracer.spans.items())})
    return wl, metrics


def main(argv=None):
    import_pearl()
    from checks import CheckFailed
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    cls = WORKLOADS[args.workload]
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    run = traced if args.trace else end_to_end
    try:
        wl, metrics = run(cls, args.seed, args.seconds, report)
    except CheckFailed as exc:
        # No metrics from a run whose outputs are wrong.
        wl = report.pop("_measured", None)
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False,
                          "attempted": len(wl.latencies_ns) if wl else 0,
                          "failed": wl.failed if wl else 0, "metrics": {}}))
        return 1
    del report["_measured"]
    result = {
        "correct": True,
        "attempted": len(wl.latencies_ns),
        "failed": wl.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report["result"] = result
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    print(json.dumps({k: v for k, v in report.items() if k != "spans"},
                     sort_keys=True), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
