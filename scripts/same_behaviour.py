#!/usr/bin/env python3
"""Check that two source trees of pearl simulate the same behaviour.

    python3 scripts/same_behaviour.py PARENT_TREE CHANGE_TREE

Runs ``benchmarks/run.py --workload W --seed 0 --seconds 30 --trace 1``
of both trees, for every workload, and compares the two runs: the
``simulated`` block of the report (device clock, op counts,
amplification) and every count-unit per-layer metric (encoder, cipher,
OOB, cache, monitor, flash and collection calls) must be equal.  Host
times are not compared, so the two runs of a workload go at the same
time, as two processes that each write only into their own tree.
Prints one line per workload and every difference, and exits 1 if any
run failed or differs, else 0.

A refactor that must leave behaviour unchanged runs this against a
checkout of its parent commit (``git archive`` or ``git clone``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

WORKLOADS = ("mixed", "replay", "examine")


def start_run(tree, workload):
    """Start one traced run of tree; finish_run collects it."""
    args = [sys.executable, os.path.join(tree, "benchmarks", "run.py"),
            "--workload", workload, "--seed", "0", "--seconds", "30",
            "--trace", "1"]
    return subprocess.Popen(args, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def finish_run(proc, tree, workload):
    """(simulated block, {count metric: value}) of the started run of
    tree, or a string saying why the run gave none."""
    stdout, stderr = proc.communicate()
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode or not result.get("correct"):
        return f"{tree}: exit {proc.returncode}: {stderr.strip()[-500:]}"
    report = os.path.join(tree, "benchmarks", "out",
                          f"{workload}-seed0-trace1.json")
    with open(report) as f:
        simulated = json.load(f)["simulated"]
    counts = {name: m["value"] for name, m in result["metrics"].items()
              if m["unit"] == "count"}
    counts["attempted"], counts["failed"] = result["attempted"], result["failed"]
    return simulated, counts


def differences(parent, change):
    """'name: parent != change' for every key whose values differ."""
    return [f"{key}: {parent.get(key)!r} != {change.get(key)!r}"
            for key in sorted(parent.keys() | change.keys())
            if parent.get(key) != change.get(key)]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit("usage: same_behaviour.py PARENT_TREE CHANGE_TREE")
    parent_tree, change_tree = argv
    same = True
    for workload in WORKLOADS:
        trees = parent_tree, change_tree
        procs = [start_run(tree, workload) for tree in trees]
        runs = [finish_run(proc, tree, workload)
                for proc, tree in zip(procs, trees)]
        failed = [run for run in runs if isinstance(run, str)]
        if failed:
            diffs = failed
        else:
            (sim_p, counts_p), (sim_c, counts_c) = runs
            diffs = ([f"simulated.{d}" for d in differences(sim_p, sim_c)]
                     + differences(counts_p, counts_c))
        print(f"{workload}: {'differs' if diffs else 'same'}")
        for line in diffs:
            print(f"  {line}")
        same = same and not diffs
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
