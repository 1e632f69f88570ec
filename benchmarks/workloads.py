"""The benchmark's workloads.

A workload object is built by its constructor (the set-up: format,
precondition, and generation of every input from the seed), then runs
numbered rounds (the timed phase), then ``check()`` verifies what the
program produced.  Every round of a workload attempts the same kind and
number of operations.

Each operation is timed with ``perf_counter_ns`` around one call into
pearl's public API; ``latencies_ns`` and ``kinds`` hold one entry per
operation, and ``timed_s()`` gives the time of the calls that make up
the rounds.  Workloads call pearl through module and class attributes at call
time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
from array import array
import random
import struct
import time

import pearl.adversary as adversary
import pearl.bench as pbench
from pearl.bench import PearlAdapter, TraceRecord
from pearl.config import PearlConfig, desk_config
from pearl.dftl import Dftl
from pearl.errors import PearlError
from pearl.flash import DESK_GEOMETRY, DeviceGeometry, FlashDevice, Snapshot
from pearl.ftl import PearlFtl
from pearl.mutants import BrokenAllocatorFtl
from pearl.wom import WOM_3_5

import checks

_ns = time.perf_counter_ns

PUBLIC_PW = "public-pw"
HIDDEN_PW = "hidden-pw"


class Workload:
    """Shared bookkeeping; subclasses define the set-up, rounds and checks."""

    name = ""
    tail_quantile = 0.99
    max_rounds = None          # None: inputs are reused, rounds are unbounded

    def __init__(self, paused=contextlib.nullcontext):
        self.paused = paused   # context in which checks run untraced
        self.latencies_ns = array("q")
        self.kinds = []
        self.failed = 0
        self.rounds_run = 0

    def timed(self, kind, fn, *args, **kwargs):
        """One operation: a call into pearl, timed from outside."""
        t0 = _ns()
        try:
            out = fn(*args, **kwargs)
        except PearlError:
            self.failed += 1
            out = None
        self.latencies_ns.append(_ns() - t0)
        self.kinds.append(kind)
        return out

    def run_round(self):
        self._round(self.rounds_run)
        self.rounds_run += 1

    def timed_s(self):
        """Host time of the timed phase: the sum of the operations."""
        return sum(self.latencies_ns) / 1e9


def _device_counts(dev):
    return {"reads": dev.reads, "programs": dev.programs, "erases": dev.erases}


def _fingerprint(ftl, image_bytes):
    """SHA-256 over device counters, clock, ledger and an image."""
    h = hashlib.sha256()
    dev = ftl.device
    h.update(struct.pack("<3Qd", dev.reads, dev.programs, dev.erases,
                         dev.clock_us))
    h.update(repr(sorted(ftl.ledger.items())).encode())
    h.update(image_bytes)
    return h.hexdigest()


def _simulated_ftl(ftl, image_bytes):
    dev = ftl.device
    return {"device_counts": _device_counts(dev), "clock_us": dev.clock_us,
            "gc_runs": ftl.gc_runs, "sha256": _fingerprint(ftl, image_bytes)}


# ---------------------------------------------------------------------
# mixed: the acceptance-test shape, write/GC/cloak path
# ---------------------------------------------------------------------


class Mixed(Workload):
    """tests/conftest.py::mixed_workload with its live-lpn bookkeeping
    done in set-up: 45% public writes over the hot quarter of the public
    volume, 25% hidden writes over the hot quarter of the hidden volume,
    10% trims and 15% reads of live public lpns, 5% gc_run; an unmount
    (prepare_unmount + snapshot, one operation) closes every round of
    500 operations.  Desk preset with a 64-entry mapping cache, so the
    384-lpn working set overflows it."""

    name = "mixed"
    tail_quantile = 0.99
    ROUND_OPS = 500
    POOL = 2048                # distinct payloads per volume
    # Inputs are generated for at most this many operations per second of
    # --seconds (about 3x the rate measured when the benchmark was made).
    RATE_CAP = 3000

    def __init__(self, seed, seconds, paused=contextlib.nullcontext):
        super().__init__(paused)
        cfg = desk_config(cmt_capacity=64, seed=seed)
        self.ftl = ftl = PearlFtl.format(FlashDevice(cfg.geometry), cfg,
                                         PUBLIC_PW, HIDDEN_PW)
        self.max_rounds = max(1, -(-int(seconds * self.RATE_CAP)
                                   // (self.ROUND_OPS + 1)))
        lay = cfg.layout
        rng = random.Random(seed)
        pub_pool = [rng.randbytes(lay.public_payload_bytes)
                    for _ in range(self.POOL)]
        hid_pool = [rng.randbytes(lay.hidden_payload_bytes)
                    for _ in range(self.POOL)]
        hot_pub, hot_hid = cfg.public_pages // 4, cfg.hidden_pages // 4
        live, where, shadow = [], {}, {}   # live public lpns and payloads

        def drop(lpn):
            i = where.pop(lpn)
            last = live.pop()
            if last != lpn:
                live[i] = last
                where[last] = i
            del shadow[lpn]

        self.rounds = []
        for _ in range(self.max_rounds):
            ops = []
            for _ in range(self.ROUND_OPS):
                r = rng.random()
                if r < 0.45 or not live:
                    lpn, data = rng.randrange(hot_pub), rng.choice(pub_pool)
                    ops.append(("public_write", ftl.public_write, (lpn, data), None))
                    if lpn not in where:
                        where[lpn] = len(live)
                        live.append(lpn)
                    shadow[lpn] = data
                elif r < 0.70:
                    lpn, data = rng.randrange(hot_hid), rng.choice(hid_pool)
                    ops.append(("hidden_write", ftl.hidden_write, (lpn, data), None))
                elif r < 0.80:
                    lpn = rng.choice(live)
                    ops.append(("trim", ftl.trim, (lpn,), None))
                    drop(lpn)
                elif r < 0.85:
                    ops.append(("gc_run", ftl.gc_run, (), None))
                else:
                    lpn = rng.choice(live)
                    ops.append(("public_read", ftl.public_read, (lpn,), shadow[lpn]))
            ops.append(("unmount", self._unmount, (), None))
            self.rounds.append(ops)
        self.prev_image = None

    def _unmount(self):
        self.ftl.prepare_unmount()
        return self.ftl.snapshot()

    def _round(self, k):
        image = None
        for kind, fn, args, expect in self.rounds[k]:
            out = self.timed(kind, fn, *args)
            if expect is not None:
                checks.read_matches(out, expect, f"public lpn {args[0]}")
            elif kind == "unmount":
                image = out
        with self.paused():
            checks.images_compliant(self.prev_image, image)
        self.prev_image = image

    def _shadow(self):
        """Last written payload of every live (volume, lpn) after the
        rounds that ran."""
        shadow = {}
        for ops in self.rounds[:self.rounds_run]:
            for kind, _, args, _ in ops:
                if kind == "public_write":
                    shadow["public", args[0]] = args[1]
                elif kind == "hidden_write":
                    shadow["hidden", args[0]] = args[1]
                elif kind == "trim":
                    del shadow["public", args[0]]
        return shadow

    def simulated(self):
        return _simulated_ftl(self.ftl, self.prev_image.to_bytes())

    def check(self):
        ftl = self.ftl
        checks.invariants_hold(ftl)
        checks.amplification_exact(ftl)
        shadow = self._shadow()

        def read_back(f, when):
            for (volume, lpn), data in shadow.items():
                read = f.public_read if volume == "public" else f.hidden_read
                checks.read_matches(read(lpn), data, f"{when}: {volume} lpn {lpn}")

        ftl.recover_metadata()
        read_back(ftl, "after recover_metadata")
        fresh = PearlFtl.mount(FlashDevice.restore(ftl.snapshot()), PUBLIC_PW,
                               HIDDEN_PW, cmt_capacity=64)
        read_back(fresh, "after a both-password mount")
        checks.clock_identity(ftl.device)


# ---------------------------------------------------------------------
# replay: the `pearl bench` path, read-dominant
# ---------------------------------------------------------------------


class CheckingAdapter(PearlAdapter):
    """PearlAdapter that shadows writes, checks every read against the
    shadow and records each submit's device service time."""

    def __init__(self, ftl):
        super().__init__(ftl)
        self.calls = {("public", "read"): ftl.public_read,
                      ("public", "write"): ftl.public_write,
                      ("hidden", "read"): ftl.hidden_read,
                      ("hidden", "write"): ftl.hidden_write}
        self.shadow = {}
        self.submits = 0
        self.services_us = []   # device service time of each submit

    def submit(self, volume, lpn, op, data=None):
        fn = self.calls[volume, op]
        clock = self.device.clock_us
        self.submits += 1
        if op == "write":
            fn(lpn, data)
            self.shadow[volume, lpn] = data
        else:
            try:
                got = fn(lpn)
            except PearlError as exc:
                # bench.replay would serve it as a no-op; every lpn read
                # here was written, so a failed read is a wrong output.
                raise checks.CheckFailed(
                    f"{volume} lpn {lpn}: read of written data failed: {exc}"
                ) from exc
            checks.read_matches(got, self.shadow[volume, lpn],
                                f"{volume} lpn {lpn}")
        self.services_us.append(self.device.clock_us - clock)


class Replay(Workload):
    """bench.init_device (fill 0.5), then bench.replay of one-payload
    requests: 90% reads, 75% of requests on the public volume and 25% on
    the hidden one, all within the pre-filled lpns (576 public + 192
    hidden = 768, inside the default 1024-entry mapping cache).

    One operation is one bench.replay call over a batch of 25 requests.
    Single submits (100-200 us) were timed first: on the host used to
    build this benchmark their latencies split into two modes about 1.6x
    apart, by host speed rather than by request kind, and the median
    jumped between the modes from run to run.  A round is the 80 batches
    of one chunk of 2,000 requests; chunks are reused in turn."""

    name = "replay"
    tail_quantile = 0.90
    CHUNK = 2000
    CHUNKS = 8
    BATCH = 25
    READ_FRACTION = 0.9
    HIDDEN_SHARE = 0.25
    CPU_OVERHEAD_US = 2.0

    def __init__(self, seed, seconds, paused=contextlib.nullcontext):
        super().__init__(paused)
        self.seed = seed
        cfg = desk_config(seed=seed)
        self.ftl = PearlFtl.format(FlashDevice(cfg.geometry), cfg,
                                   PUBLIC_PW, HIDDEN_PW)
        self.adapter = CheckingAdapter(self.ftl)
        pbench.init_device(self.adapter, fill_fraction=0.5, seed=seed)
        self.filled = {v: (int(pages * 0.5), payload)
                       for v, (pages, payload) in self.adapter.volumes().items()}
        rng = random.Random(seed)
        self.chunks = [self._chunk(rng) for _ in range(self.CHUNKS)]
        self.bytes_moved = 0
        self.makespan_us = 0.0

    def _chunk(self, rng):
        records = []
        for _ in range(self.CHUNK):
            volume = "hidden" if rng.random() < self.HIDDEN_SHARE else "public"
            op = "read" if rng.random() < self.READ_FRACTION else "write"
            lpns, payload = self.filled[volume]
            records.append(TraceRecord(volume, rng.randrange(lpns) * payload,
                                       payload, op, 0.0))
        return [records[i:i + self.BATCH]
                for i in range(0, self.CHUNK, self.BATCH)]

    def _replay_seed(self, k, i):
        return (self.seed << 20) + k * (self.CHUNK // self.BATCH) + i

    def _round(self, k):
        adapter, dev = self.adapter, self.ftl.device
        for i, batch in enumerate(self.chunks[k % self.CHUNKS]):
            before = _device_counts(dev)
            submits = adapter.submits
            adapter.services_us.clear()
            metrics = self.timed("bench.replay", pbench.replay, adapter, batch,
                                 cpu_overhead_us=self.CPU_OVERHEAD_US,
                                 seed=self._replay_seed(k, i))
            after = _device_counts(dev)
            checks.run_metrics_agree(metrics, batch, adapter.submits - submits,
                                     {c: after[c] - before[c] for c in after})
            checks.responses_cover_service(
                metrics.responses_us,
                [s + self.CPU_OVERHEAD_US for s in adapter.services_us])
            self.bytes_moved += metrics.bytes_moved
            self.makespan_us += metrics.makespan_us

    def simulated(self):
        out = _simulated_ftl(self.ftl, self.ftl.snapshot().to_bytes())
        out["bytes_per_s"] = self.bytes_moved / (self.makespan_us / 1e6)
        return out

    def check(self):
        checks.invariants_hold(self.ftl)
        checks.clock_identity(self.ftl.device)

    def dftl_bytes_per_s(self):
        """Simulated bytes/s of the DFTL baseline on the same request
        sequence (public lpns first, hidden lpns after them)."""
        dftl = Dftl(FlashDevice(DESK_GEOMETRY), cmt_capacity=1024)
        pbench.init_device(dftl, fill_fraction=0.5, seed=self.seed)
        payload = dftl.page_bytes
        offset = {"public": 0, "hidden": self.filled["public"][0]}
        moved, makespan = 0, 0.0
        for k in range(self.rounds_run):
            for i, batch in enumerate(self.chunks[k % self.CHUNKS]):
                records = [TraceRecord("data", (offset[r.volume] + r.lba // r.size)
                                       * payload, payload, r.op, 0.0)
                           for r in batch]
                m = pbench.replay(dftl, records,
                                  cpu_overhead_us=self.CPU_OVERHEAD_US,
                                  seed=self._replay_seed(k, i))
                moved += m.bytes_moved
                makespan += m.makespan_us
        return moved / (makespan / 1e6)


# ---------------------------------------------------------------------
# examine: the multi-snapshot examiner
# ---------------------------------------------------------------------


class Examine(Workload):
    """Unmount images of a device three times the desk preset (6,144
    pages, half of each volume filled), taken between bursts of public
    and hidden activity, examined with the public password only.  A
    round examines every image in turn
    (Snapshot.from_bytes, FlashDevice.restore, PearlFtl.mount,
    translation_map, classify_snapshot, diff_transitions against the
    previous image, ui1_inference), then runs frequency_distinguisher
    over all of them.  The images are reused by every round."""

    name = "examine"
    tail_quantile = 0.90
    GEOMETRY = DeviceGeometry(1, 1, 3 * DESK_GEOMETRY.blocks_per_plane,
                              DESK_GEOMETRY.pages_per_block,
                              DESK_GEOMETRY.page_bytes, DESK_GEOMETRY.oob_bytes)
    IMAGES = 4
    BURST = 400
    MUTANT_SERIES = 5

    def __init__(self, seed, seconds, paused=contextlib.nullcontext):
        super().__init__(paused)
        self.seed = seed
        cfg = PearlConfig(geometry=self.GEOMETRY, seed=seed)
        self.ftl = ftl = PearlFtl.format(FlashDevice(cfg.geometry), cfg,
                                         PUBLIC_PW, HIDDEN_PW)
        self.layout = lay = cfg.layout
        self.first_ppn = cfg.managed_blocks.start * cfg.geometry.pages_per_block
        rng = random.Random(seed)
        n_pub, n_hid = cfg.public_pages // 2, cfg.hidden_pages // 2
        shadow = {}
        for lpn in range(n_pub):
            shadow[lpn] = rng.randbytes(lay.public_payload_bytes)
            ftl.public_write(lpn, shadow[lpn])
        for lpn in range(n_hid):
            ftl.hidden_write(lpn, rng.randbytes(lay.hidden_payload_bytes))
        self.images = []       # (image bytes, public shadow at that image)
        for _ in range(self.IMAGES):
            for _ in range(self.BURST):
                r = rng.random()
                if r < 0.60 or not shadow:
                    lpn = rng.randrange(n_pub)
                    shadow[lpn] = rng.randbytes(lay.public_payload_bytes)
                    ftl.public_write(lpn, shadow[lpn])
                elif r < 0.90:
                    ftl.hidden_write(rng.randrange(n_hid),
                                     rng.randbytes(lay.hidden_payload_bytes))
                else:
                    lpn = rng.choice(sorted(shadow))
                    ftl.trim(lpn)
                    del shadow[lpn]
            ftl.prepare_unmount()
            self.images.append((ftl.snapshot().to_bytes(), dict(shadow)))

    def _round(self, k):
        t = self.timed
        prev, snaps, second_pages = None, [], 0
        for blob, shadow in self.images:
            snap = t("Snapshot.from_bytes", Snapshot.from_bytes, blob)
            dev = t("FlashDevice.restore", FlashDevice.restore, snap)
            ftl = t("PearlFtl.mount", PearlFtl.mount, dev, PUBLIC_PW)
            tmap = t("translation_map", ftl.translation_map, "public")
            obs = t("classify_snapshot", adversary.classify_snapshot, snap,
                    ftl.k_pub, decode_payloads=True)
            checks.classify_matches_shadow(obs, tmap, shadow, self.first_ppn)
            second_pages += sum(o.stage == "second" for o in obs)
            del obs, ftl, dev
            if prev is not None:
                checks.transitions_plausible(
                    t("diff_transitions", adversary.diff_transitions, prev, snap))
            checks.no_ui1_alarms(
                t("ui1_inference", adversary.ui1_inference, snap, snap))
            prev = snap
            snaps.append(snap)
        report = t("frequency_distinguisher", adversary.frequency_distinguisher,
                   snaps, WOM_3_5)
        checks.frequency_counts_groups(report, second_pages,
                                       self.layout.groups_per_page)

    def simulated(self):
        return _simulated_ftl(self.ftl, self.images[-1][0])

    def check(self):
        # The first image series of test_05's mutant trials (its seeds 0-4),
        # the same in every run: the check is about the detector, not the
        # images examined, and must not pass or fail with --seed.
        cfg = desk_config(cmt_capacity=64, seed=0)
        series = [mutant_series(cfg, seed) for seed in range(self.MUTANT_SERIES)]
        checks.mutant_flagged(series)


def mutant_series(cfg, seed, nops=800, hot_lpns=16, snap_every=250):
    """Unmount images of BrokenAllocatorFtl under test_05's mutant
    workload: 60% public writes over 16 hot lpns, 30% hidden writes, the
    rest trims, gc runs and reads."""
    ftl = BrokenAllocatorFtl.format(FlashDevice(cfg.geometry), cfg,
                                    PUBLIC_PW, HIDDEN_PW)
    lay = cfg.layout
    rng = random.Random(seed + 1)
    live, images = set(), []
    for i in range(nops):
        r = rng.random()
        if r < 0.60 or not live:
            lpn = rng.randrange(hot_lpns)
            ftl.public_write(lpn, rng.randbytes(lay.public_payload_bytes))
            live.add(lpn)
        elif r < 0.90:
            ftl.hidden_write(rng.randrange(cfg.hidden_pages // 4),
                             rng.randbytes(lay.hidden_payload_bytes))
        else:
            lpn = rng.choice(sorted(live))
            ftl.trim(lpn)
            live.discard(lpn)
        if (i + 1) % snap_every == 0:
            ftl.prepare_unmount()
            images.append(ftl.snapshot())
    ftl.prepare_unmount()
    images.append(ftl.snapshot())
    return images


WORKLOADS = {w.name: w for w in (Mixed, Replay, Examine)}
