"""Command-line front end: code verification, device lifecycle, scripted
I/O, benchmarking, adversary experiments, and snapshot tooling.

Exit codes: 0 success, 1 property violation / distinguisher fired,
2 usage error.  Every run appends a JSON-lines manifest record so any
published number can be regenerated from one command line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .adversary import (classify_snapshot, diff_transitions,
                        frequency_distinguisher, ui1_inference)
from .bench import (export_report, gen_synthetic, init_device, mix_hidden,
                    mixed_workload, parse_trace, replay)
from .config import PearlConfig, desk_config, paper_config
from .dftl import Dftl
from .errors import PearlError
from .flash import PRESETS, FlashDevice, Snapshot
from .ftl import PearlFtl
from .mutants import BrokenAllocatorFtl
from .wom import (BUILTIN_CODES, load_code_file, verify_equal_partition,
                  verify_wom2)

EXIT_OK, EXIT_VIOLATION, EXIT_USAGE = 0, 1, 2

_PASSWORD_FLAGS = ("--public-password", "--hidden-password")


def _config_for(args, **overrides) -> PearlConfig:
    maker = paper_config if args.preset == "paper" else desk_config
    kw = {"seed": args.seed}
    if getattr(args, "code", None):
        kw["code"] = BUILTIN_CODES[args.code]
    if getattr(args, "config", None):
        with open(args.config) as f:
            kw.update(json.load(f))
    kw.update(overrides)
    try:
        return maker(**kw)
    except (TypeError, ValueError) as exc:
        raise PearlError(f"invalid configuration: {exc}") from exc


def _without_passwords(argv):
    """argv minus the password options and their values: a recorded
    hidden password would both leak it and prove the volume exists."""
    out, skip = [], False
    for tok in argv:
        if skip:
            skip = False
            continue
        flag = tok.split("=", 1)[0]
        # argparse also accepts any unambiguous prefix of an option.
        if len(flag) > 2 and flag.startswith("--") and any(
                f.startswith(flag) for f in _PASSWORD_FLAGS):
            skip = "=" not in tok
            continue
        out.append(tok)
    return out


def _write_manifest(args, outputs):
    out_dir = getattr(args, "out", None) or "."
    os.makedirs(out_dir, exist_ok=True)
    record = {
        "command": args.command,
        "seed": args.seed,
        "preset": getattr(args, "preset", None),
        "version": __version__,
        "argv": args.argv,
        "outputs": outputs,
    }
    with open(os.path.join(out_dir, "manifest.jsonl"), "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")


# ---------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------


def cmd_verify_code(args):
    if args.code_file:
        code = load_code_file(args.code_file)
    else:
        code = BUILTIN_CODES[args.code or "wom3x5"]
    validity = verify_wom2(code)
    partition = verify_equal_partition(code)
    print(f"code {code.name}: k={code.k} n={code.n}")
    print(f"two-write validity: {'pass' if validity.ok else 'FAIL'}")
    for v in validity.violations:
        print(f"  {v}")
    sizes = sorted(partition.sizes.items())
    print("partition sizes:",
          ", ".join(f"m={m}: |A|={a} |B|={b}" for m, (a, b) in sizes))
    print(f"equal partition: {'yes' if partition.equal else 'no'}")
    _write_manifest(args, {"code": code.name, "valid": validity.ok,
                           "equal_partition": partition.equal})
    if not validity.ok:
        return EXIT_VIOLATION
    if args.require_equal_partition and not partition.equal:
        return EXIT_VIOLATION
    return EXIT_OK


def _make_pearl(args):
    cfg = _config_for(args)
    return PearlFtl.format(FlashDevice(cfg.geometry), cfg,
                           args.public_password, args.hidden_password)


def cmd_init(args):
    ftl = init_device(_make_pearl(args), fill_fraction=args.fill,
                      seed=args.seed)
    ftl.prepare_unmount()
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "device.img")
    ftl.snapshot().save(path)
    print(f"device image: {path}")
    print(f"gc runs during fill: {ftl.gc_runs}")
    _write_manifest(args, {"device": path, "gc_runs": ftl.gc_runs})
    return EXIT_OK


def _io_request(line):
    """(volume, lpn, op, data) of one `io` script line."""
    try:
        req = json.loads(line)
        request = (req["volume"], req["lpn"], req["op"],
                   bytes.fromhex(req.get("data_hex", "")))
    except (ValueError, KeyError, TypeError) as exc:
        raise PearlError(f"bad request: {exc!r}") from None
    if type(request[1]) is not int:
        raise PearlError(f"bad request: lpn {request[1]!r} is not an integer")
    return request


def cmd_io(args):
    ftl = PearlFtl.mount(FlashDevice.restore(Snapshot.load(args.device)),
                         args.public_password, args.hidden_password,
                         seed=args.seed)
    failures = 0
    with open(args.script) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                volume, lpn, op, data = _io_request(line)
                out = ftl.submit(volume, lpn, op, data)
            except PearlError as exc:
                failures += 1
                print(f"{lineno}: error: {exc}")
                continue
            if op == "read":
                print(f"{lineno}: {volume} lpn {lpn} = {out.hex()}")
            else:
                done = "wrote" if op == "write" else "trimmed"
                print(f"{lineno}: {done} {volume} lpn {lpn}")
    ftl.prepare_unmount()
    ftl.snapshot().save(args.device)
    _write_manifest(args, {"device": args.device, "failures": failures})
    return EXIT_VIOLATION if failures else EXIT_OK


def cmd_bench(args):
    ftl = (Dftl(FlashDevice(PRESETS[args.preset])) if args.ftl == "dftl"
           else _make_pearl(args))
    init_device(ftl, fill_fraction=args.fill, seed=args.seed)
    vols = ftl.volumes()
    volume = args.volume
    if volume not in vols:
        volume = next(iter(vols))
    pages, payload = vols[volume]
    if args.trace:
        workload = parse_trace(args.trace, pages * payload, volume)
    else:
        workload = gen_synthetic(args.requests, args.req_bytes or payload,
                                 args.read_fraction, args.interarrival,
                                 volume, args.seed + 1, pages, payload)
    if args.hidden_fraction > 0 and "hidden" in vols:
        h_pages, h_payload = vols["hidden"]
        workload = mix_hidden(workload, args.hidden_fraction, args.seed + 2,
                              h_pages, h_payload)
    metrics = replay(ftl, workload, cpu_overhead_us=args.cpu_overhead,
                     seed=args.seed + 3)
    os.makedirs(args.out, exist_ok=True)
    base = os.path.join(args.out, f"{args.ftl}-{volume}")
    paths = export_report(metrics, base)
    s = metrics.summary()
    print(f"requests {s['requests']} mean {s['mean_us']:.1f}us "
          f"p99 {s['p99_us']:.1f}us iops {s['iops']:.1f} "
          f"throughput {s['bytes_per_second']:.0f} B/s")
    _write_manifest(args, {"report": list(paths), **{
        k: s[k] for k in ("requests", "mean_us", "iops", "bytes_per_second")}})
    return EXIT_OK


def cmd_attack(args):
    cls = BrokenAllocatorFtl if args.ftl == "mutant" else PearlFtl
    detected = 0
    for trial in range(args.trials):
        cfg = _config_for(args, seed=args.seed + trial, cmt_capacity=64)
        _, snaps, _ = mixed_workload(cls, cfg, args.seed + trial, nops=1500)
        if args.experiment == "frequency":
            report = frequency_distinguisher(snaps, cfg.code, min_groups=1)
            hit = report.distinguishes()
            print(f"trial {trial}: groups {report.total_groups} "
                  f"p {report.p_value:.4g} -> "
                  f"{'distinguished' if hit else 'no distinguisher'}")
        elif args.experiment == "transitions":
            n = sum(len(diff_transitions(a, b).implausible)
                    for a, b in zip(snaps, snaps[1:]))
            hit = n > 0
            print(f"trial {trial}: {n} implausible transitions")
        else:
            n = sum(len(ui1_inference(a, b))
                    for a, b in zip(snaps, snaps[1:]))
            hit = n > 0
            print(f"trial {trial}: {n} UI1 alarms")
        detected += hit
    verdict = "distinguished" if detected else "no distinguisher"
    print(f"verdict: {verdict} ({detected}/{args.trials} trials)")
    _write_manifest(args, {"experiment": args.experiment,
                           "detected": detected, "trials": args.trials})
    return EXIT_VIOLATION if detected else EXIT_OK


def cmd_snapshot(args):
    snap = Snapshot.load(args.device)
    observations = classify_snapshot(snap, k_pub=None)
    counts = {}
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "pages.txt")
    with open(path, "w") as f:
        for obs in observations:
            f.write(f"page {obs.ppn} {obs.stage}\n")
            counts[obs.stage] = counts.get(obs.stage, 0) + 1
    print(f"page report: {path}")
    for stage in ("empty", "first", "second"):
        print(f"{stage}: {counts.get(stage, 0)}")
    _write_manifest(args, {"report": path, "counts": counts})
    return EXIT_OK


# ---------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pearl",
        description="deniable WOM-coded FTL simulator and test bench")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--preset", choices=sorted(PRESETS), default="desk")
    parser.add_argument("--config", help="JSON file of config overrides")
    parser.add_argument("--out", default="runs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-code", help="check WOM/partition properties")
    p.add_argument("--code", choices=sorted(BUILTIN_CODES))
    p.add_argument("--code-file")
    p.add_argument("--require-equal-partition", action="store_true")
    p.set_defaults(func=cmd_verify_code)

    p = sub.add_parser("init", help="format and optionally pre-fill a device")
    p.add_argument("--code", choices=sorted(BUILTIN_CODES))
    p.add_argument("--public-password", default="public-pw")
    p.add_argument("--hidden-password", default=None)
    p.add_argument("--fill", type=float, default=0.5)
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("io", help="run a scripted request batch")
    p.add_argument("--device", required=True)
    p.add_argument("--script", required=True,
                   help="JSON-lines: volume, op, lpn, data_hex")
    p.add_argument("--public-password", default="public-pw")
    p.add_argument("--hidden-password", default=None)
    p.set_defaults(func=cmd_io)

    p = sub.add_parser("bench", help="replay a trace or synthetic workload")
    p.add_argument("--ftl", choices=["pearl", "dftl"], default="pearl")
    p.add_argument("--code", choices=sorted(BUILTIN_CODES))
    p.add_argument("--trace")
    p.add_argument("--volume", default="public")
    p.add_argument("--requests", type=int, default=1000)
    p.add_argument("--req-bytes", type=int, default=0,
                   help="default: one page payload")
    p.add_argument("--read-fraction", type=float, default=0.5)
    p.add_argument("--interarrival", type=float, default=0.0)
    p.add_argument("--hidden-fraction", type=float, default=0.0)
    p.add_argument("--fill", type=float, default=0.5)
    p.add_argument("--cpu-overhead", type=float, default=2.0)
    p.add_argument("--public-password", default="public-pw")
    p.add_argument("--hidden-password", default="hidden-pw")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("attack", help="run a multi-snapshot adversary")
    p.add_argument("--experiment",
                   choices=["frequency", "transitions", "ui1"],
                   default="ui1")
    p.add_argument("--ftl", choices=["pearl", "mutant"], default="pearl")
    p.add_argument("--code", choices=sorted(BUILTIN_CODES))
    p.add_argument("--trials", type=int, default=1)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("snapshot", help="classify a raw device image")
    p.add_argument("--device", required=True)
    p.set_defaults(func=cmd_snapshot)
    return parser


def main(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(argv)
    args.argv = _without_passwords(argv)
    try:
        return args.func(args)
    except (PearlError, FileNotFoundError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
