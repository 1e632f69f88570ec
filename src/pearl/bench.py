"""Workload benchmarking: trace parsing, synthetic generation, replay,
and the seeded mixed workload the tests and `pearl attack` share.

Every request reaches an FTL through the one method both FTLs share,
`submit(volume, lpn, op, data)`; `volumes()` gives each volume's page
count and page payload.  PearlFtl has "public" and, when the hidden
password is mounted, "hidden"; Dftl has "data".  init_device and replay
take either FTL, or a PearlAdapter around one.

Requests are queued FIFO and served serially by the device's busy clock,
so a request's response time is its queuing delay plus service time.
Logical requests larger than one page payload fan out into page-level
sub-requests; the fan-out is recorded in the metrics.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
import random
import statistics
from dataclasses import dataclass, field

from .errors import PearlError, TraceFormatError
from .flash import FlashDevice

SECTOR_BYTES = 512

_OPCODES = {"r": "read", "w": "write", "t": "trim"}


@dataclass(frozen=True)
class TraceRecord:
    volume: str          # "public" | "hidden" | "data" (DFTL)
    lba: int             # logical byte offset within the volume
    size: int            # bytes
    op: str              # read | write | trim
    arrival: float       # seconds since trace start


@dataclass
class RunMetrics:
    seed: int | None
    responses_us: list = field(default_factory=list)   # per-request
    arrivals_us: list = field(default_factory=list)
    sub_requests: int = 0
    requests: int = 0
    bytes_moved: int = 0
    busy_us: float = 0.0
    makespan_us: float = 0.0
    device_counts: dict = field(default_factory=dict)
    amplification: dict = field(default_factory=dict)

    @property
    def mean_us(self) -> float:
        return statistics.fmean(self.responses_us) if self.responses_us else 0.0

    def percentile(self, q: float) -> float:
        if not self.responses_us:
            return 0.0
        ordered = sorted(self.responses_us)
        idx = min(len(ordered) - 1, math.ceil(q / 100 * len(ordered)) - 1)
        return ordered[max(idx, 0)]

    @property
    def iops(self) -> float:
        if self.makespan_us <= 0:
            return 0.0
        return self.requests / (self.makespan_us / 1e6)

    @property
    def bytes_per_second(self) -> float:
        """Logical byte throughput; the unit to use when comparing FTLs
        whose page payloads differ."""
        if self.makespan_us <= 0:
            return 0.0
        return self.bytes_moved / (self.makespan_us / 1e6)

    def summary(self) -> dict:
        return {
            "seed": self.seed,
            "requests": self.requests,
            "sub_requests": self.sub_requests,
            "bytes_moved": self.bytes_moved,
            "mean_us": self.mean_us,
            "p50_us": self.percentile(50),
            "p95_us": self.percentile(95),
            "p99_us": self.percentile(99),
            "iops": self.iops,
            "bytes_per_second": self.bytes_per_second,
            "busy_us": self.busy_us,
            "makespan_us": self.makespan_us,
            "device_counts": self.device_counts,
            "amplification": self.amplification,
        }


# ---------------------------------------------------------------------
# harness seam
# ---------------------------------------------------------------------


class PearlAdapter:
    """A pass-through view of an FTL: every attribute is the FTL's own,
    `volumes` and `gc_runs` included.  It is the seam where a harness
    wraps `submit`: a subclass overriding it sees every request that
    init_device and replay make, and reaches the FTL's through super()."""

    def __init__(self, ftl):
        self.ftl = ftl
        self.device = ftl.device   # read on every request by harnesses

    def __getattr__(self, name):
        return getattr(self.ftl, name)

    def submit(self, volume, lpn, op, data=None):
        return self.ftl.submit(volume, lpn, op, data)


# ---------------------------------------------------------------------
# workload sources
# ---------------------------------------------------------------------


def parse_trace(lines, capacity_bytes, volume="public"):
    """Parse `asu,lba,size,opcode,timestamp` records (512-byte-sector LBAs).

    lines may be a path or any iterable of text lines.  Offsets wrap
    modulo the configured volume capacity; opcodes are case-insensitive.
    """
    if isinstance(lines, (str, bytes)):
        with open(lines) as f:
            return parse_trace(f.readlines(), capacity_bytes, volume)
    records = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) < 5:
            raise TraceFormatError(f"trace line {lineno}: expected 5 fields, "
                                   f"got {len(parts)}")
        try:
            lba = int(parts[1])
            size = int(parts[2])
            op = _OPCODES[parts[3].strip().lower()]
            arrival = float(parts[4])
        except (ValueError, KeyError) as exc:
            raise TraceFormatError(f"trace line {lineno}: {exc}") from None
        if size <= 0:
            raise TraceFormatError(f"trace line {lineno}: size must be positive")
        offset = (lba * SECTOR_BYTES) % capacity_bytes
        records.append(TraceRecord(volume, offset, size, op, arrival))
    records.sort(key=lambda r: r.arrival)
    return records


def gen_synthetic(n, req_bytes, read_fraction, interarrival_s, volume,
                  seed, volume_pages, payload_bytes):
    """Uniform random aligned requests; interarrival 0 is the saturation
    (open-loop, always-backlogged) configuration."""
    if n < 1:
        raise PearlError("need at least one request")
    if req_bytes % payload_bytes:
        raise PearlError(f"request size {req_bytes} is not a multiple of the "
                         f"{payload_bytes}-byte page payload")
    pages_per_req = req_bytes // payload_bytes
    if pages_per_req > volume_pages:
        raise PearlError("request larger than the volume")
    rng = random.Random(seed)
    records = []
    t = 0.0
    for _ in range(n):
        start = rng.randrange(volume_pages - pages_per_req + 1)
        op = "read" if rng.random() < read_fraction else "write"
        records.append(TraceRecord(volume, start * payload_bytes,
                                   req_bytes, op, t))
        t += interarrival_s
    return records


def mix_hidden(records, hidden_fraction, seed, hidden_pages,
               hidden_payload_bytes):
    """Redirect a random subset of write traffic to the hidden volume."""
    if not 0 <= hidden_fraction <= 1:
        raise PearlError("hidden fraction must be in [0, 1]")
    rng = random.Random(seed)
    out = []
    for rec in records:
        if rec.op == "write" and rng.random() < hidden_fraction:
            pages = max(1, -(-rec.size // hidden_payload_bytes))
            pages = min(pages, hidden_pages)
            start = rng.randrange(hidden_pages - pages + 1)
            out.append(TraceRecord("hidden", start * hidden_payload_bytes,
                                   pages * hidden_payload_bytes, rec.op,
                                   rec.arrival))
        else:
            out.append(rec)
    return out


# ---------------------------------------------------------------------
# initialization and replay
# ---------------------------------------------------------------------


def init_device(ftl, fill_fraction=0.5, seed=0):
    """Fill the first fill_fraction of every volume with random data,
    re-writing until at least one GC has run and most physical pages have
    been programmed.  Returns the FTL it was given.

    Each sweep runs in the FTL's batched() scope, so its page programs
    are sealed in cache-sized batches; the device ends in the same state
    as with one seal per request, and the steady-state check runs after
    the sweep's last seal."""
    if fill_fraction <= 0:
        return ftl
    rng = random.Random(seed)
    vols = ftl.volumes()
    dev = ftl.device
    for sweep in range(40):
        with ftl.batched():
            for volume, (pages, payload) in vols.items():
                for lpn in range(int(pages * fill_fraction)):
                    ftl.submit(volume, lpn, "write", rng.randbytes(payload))
        if (ftl.gc_runs >= 1 and dev.programmed_pages()
                >= 0.5 * dev.geometry.total_pages):
            return ftl
    raise PearlError("initialization did not reach steady state")


def _sub_lpns(record, payload_bytes, volume_pages):
    first = record.lba // payload_bytes
    last = (record.lba + record.size - 1) // payload_bytes
    return [lpn % volume_pages for lpn in range(first, last + 1)]


def replay(ftl, workload, cpu_overhead_us=2.0, seed=None):
    """Serial FIFO event loop over the device busy clock.  It times
    each request by its clock delta, so it never runs inside the FTL's
    batched() scope."""
    vols = ftl.volumes()
    dev = ftl.device
    rng = random.Random(seed)
    metrics = RunMetrics(seed=seed)
    free_at = 0.0
    start_counts = (dev.reads, dev.programs, dev.erases)
    first_arrival = None
    for rec in workload:
        if rec.volume not in vols:
            raise PearlError(f"no volume {rec.volume!r} on this FTL")
        pages, payload = vols[rec.volume]
        if rec.lba >= pages * payload:
            raise PearlError(f"request at {rec.lba} beyond volume capacity")
        arrival_us = rec.arrival * 1e6
        if first_arrival is None:
            first_arrival = arrival_us
        start = max(arrival_us, free_at)
        clock_before = dev.clock_us
        n_sub = 0
        for lpn in _sub_lpns(rec, payload, pages):
            data = rng.randbytes(payload) if rec.op == "write" else None
            try:
                ftl.submit(rec.volume, lpn, rec.op, data)
            except PearlError:
                if rec.op == "write":
                    raise
                # reads/trims of never-written pages serve as no-ops
            n_sub += 1
        service = (dev.clock_us - clock_before) + cpu_overhead_us * n_sub
        free_at = start + service
        metrics.responses_us.append(free_at - arrival_us)
        metrics.arrivals_us.append(arrival_us)
        metrics.sub_requests += n_sub
        metrics.requests += 1
        metrics.bytes_moved += rec.size
    metrics.busy_us = dev.clock_us
    if metrics.requests:
        metrics.makespan_us = free_at - first_arrival
    metrics.device_counts = {
        "reads": dev.reads - start_counts[0],
        "programs": dev.programs - start_counts[1],
        "erases": dev.erases - start_counts[2],
    }
    # Physical over logical bits of each user bucket that moved any.
    ledger = ftl.ledger
    metrics.amplification = {
        b: ledger[f"{b}_physical_bits"] / ledger[f"{b}_logical_bits"]
        for b in ("public_user", "hidden_user")
        if ledger[f"{b}_logical_bits"]}
    return metrics


# ---------------------------------------------------------------------
# the mixed workload
# ---------------------------------------------------------------------


def mixed_workload(ftl_cls, cfg, seed, nops, snap_every=500, hot_lpns=None,
                   write_frac=0.45, hidden_frac=0.25):
    """Seeded mix of public and hidden writes, trims, GC runs and public
    reads checked against the shadow (a mismatch raises PearlError) on a
    freshly formatted device, with an unmount snapshot every snap_every
    operations and one at the end.  Returns (ftl, snapshots, shadow);
    shadow maps ("public"|"hidden", lpn) to the last payload written."""
    ftl = ftl_cls.format(FlashDevice(cfg.geometry), cfg, "public-pw",
                         "hidden-pw")
    lay = cfg.layout
    rng = random.Random(seed + 1)
    shadow = {}
    pub = []    # live public lpns, kept sorted for the rng.choice draws
    snaps = []
    pub_range = hot_lpns or cfg.public_pages // 4
    hid_range = cfg.hidden_pages // 4
    for i in range(nops):
        r = rng.random()
        if r < write_frac or not pub:
            lpn = rng.randrange(pub_range)
            data = rng.randbytes(lay.public_payload_bytes)
            ftl.public_write(lpn, data)
            if ("public", lpn) not in shadow:
                bisect.insort(pub, lpn)
            shadow["public", lpn] = data
        elif r < write_frac + hidden_frac:
            lpn = rng.randrange(hid_range)
            data = rng.randbytes(lay.hidden_payload_bytes)
            ftl.hidden_write(lpn, data)
            shadow["hidden", lpn] = data
        elif r < write_frac + hidden_frac + 0.10 and pub:
            lpn = rng.choice(pub)
            ftl.trim(lpn)
            del shadow["public", lpn]
            pub.remove(lpn)
        elif r < write_frac + hidden_frac + 0.15:
            ftl.gc_run()
        elif pub:
            lpn = rng.choice(pub)
            if ftl.public_read(lpn) != shadow["public", lpn]:
                raise PearlError(f"public lpn {lpn} read back wrong data")
        if snap_every and (i + 1) % snap_every == 0:
            ftl.prepare_unmount()
            snaps.append(ftl.snapshot())
    ftl.prepare_unmount()
    snaps.append(ftl.snapshot())
    return ftl, snaps, shadow


# ---------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------


def export_report(metrics: RunMetrics, base_path):
    """Per-request CSV plus a JSON summary; both deterministic for fixed
    metrics.  Returns the two paths written."""
    csv_path = f"{base_path}.csv"
    summary_path = f"{base_path}.summary.json"
    with open(csv_path, "w", newline="") as f:
        f.write(f"# seed={metrics.seed}\n")
        writer = csv.writer(f)
        writer.writerow(["request", "arrival_us", "response_us"])
        for i, (a, r) in enumerate(zip(metrics.arrivals_us,
                                       metrics.responses_us)):
            writer.writerow([i, f"{a:.3f}", f"{r:.3f}"])
    with open(summary_path, "w") as f:
        json.dump(metrics.summary(), f, indent=2, sort_keys=True)
        f.write("\n")
    return csv_path, summary_path
