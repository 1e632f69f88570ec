"""Trace handling and the replay clock, checked against closed forms."""

import json
import random

import pytest

from pearl.bench import (SECTOR_BYTES, PearlAdapter, TraceRecord,
                         export_report, gen_synthetic, init_device,
                         mix_hidden, mixed_workload, parse_trace, replay)
from pearl.config import desk_config
from pearl.dftl import Dftl
from pearl.errors import PearlError, TraceFormatError
from pearl.flash import DESK_GEOMETRY, FlashDevice
from pearl.ftl import PearlFtl


@pytest.fixture
def dftl():
    return Dftl(FlashDevice(DESK_GEOMETRY), cmt_capacity=64)


# -- trace parsing ----------------------------------------------------


def test_parse_trace_fields_and_sorting():
    lines = [
        "# a comment",
        "0,10,4096,W,0.002",
        "",
        "0,4,512,r,0.001",
        "1,2,1024,T,0.003",
    ]
    recs = parse_trace(lines, capacity_bytes=10**7, volume="public")
    assert [r.op for r in recs] == ["read", "write", "trim"]  # sorted by time
    assert recs[0].lba == 4 * SECTOR_BYTES
    assert recs[1].size == 4096
    assert all(r.volume == "public" for r in recs)


def test_parse_trace_wraps_offsets():
    (rec,) = parse_trace(["0,100,512,R,0"], capacity_bytes=1024)
    assert rec.lba == (100 * SECTOR_BYTES) % 1024


@pytest.mark.parametrize("line,fragment", [
    ("0,1,512,R", "expected 5 fields"),
    ("0,x,512,R,0", "line 1"),
    ("0,1,512,Q,0", "line 1"),
    ("0,1,0,R,0", "size must be positive"),
    ("0,1,512,R,abc", "line 1"),
])
def test_parse_trace_reports_bad_lines(line, fragment):
    with pytest.raises(TraceFormatError, match=fragment):
        parse_trace([line], capacity_bytes=1024)


def test_parse_trace_line_numbers_skip_comments():
    lines = ["# header", "0,1,512,R,0", "0,1,512,Q,0"]
    with pytest.raises(TraceFormatError, match="line 3"):
        parse_trace(lines, capacity_bytes=1024)


# -- synthetic generation ---------------------------------------------


def test_gen_synthetic_shape_and_alignment():
    recs = gen_synthetic(200, req_bytes=2 * 1227, read_fraction=0.5,
                         interarrival_s=0.001, volume="public", seed=9,
                         volume_pages=100, payload_bytes=1227)
    assert len(recs) == 200
    assert all(r.lba % 1227 == 0 and r.size == 2 * 1227 for r in recs)
    assert all(r.lba + r.size <= 100 * 1227 for r in recs)
    reads = sum(r.op == "read" for r in recs)
    assert 60 <= reads <= 140
    assert recs[-1].arrival == pytest.approx(0.001 * 199)


def test_gen_synthetic_saturation_mode():
    recs = gen_synthetic(5, 1227, 0.0, 0.0, "public", 0, 10, 1227)
    assert all(r.arrival == 0.0 for r in recs)
    assert all(r.op == "write" for r in recs)


def test_gen_synthetic_validation():
    with pytest.raises(PearlError):
        gen_synthetic(0, 1227, 0.5, 0, "public", 0, 10, 1227)
    with pytest.raises(PearlError):
        gen_synthetic(1, 1000, 0.5, 0, "public", 0, 10, 1227)
    with pytest.raises(PearlError):
        gen_synthetic(1, 20 * 1227, 0.5, 0, "public", 0, 10, 1227)


def test_mix_hidden_redirects_only_writes():
    recs = gen_synthetic(300, 1227, 0.5, 0, "public", 3, 100, 1227)
    mixed = mix_hidden(recs, 0.5, seed=4, hidden_pages=50,
                       hidden_payload_bytes=409)
    assert len(mixed) == len(recs)
    hid = [r for r in mixed if r.volume == "hidden"]
    assert hid and all(r.op == "write" for r in hid)
    assert all(r.size % 409 == 0 and r.lba % 409 == 0 for r in hid)
    assert [r for r in mixed if r.op == "read"] == \
        [r for r in recs if r.op == "read"]
    assert mix_hidden(recs, 0.0, 4, 50, 409) == recs
    with pytest.raises(PearlError):
        mix_hidden(recs, 1.5, 4, 50, 409)


# -- replay clock -----------------------------------------------------


def test_response_time_closed_form(dftl):
    """A cache-warm single-page read costs exactly one device read plus
    the per-page cpu overhead."""
    dftl.write(0, bytes(dftl.page_bytes))
    t = dftl.device.timings
    metrics = replay(dftl, [TraceRecord("data", 0, dftl.page_bytes,
                                        "read", 0.0)],
                     cpu_overhead_us=2.0)
    assert metrics.requests == 1
    assert metrics.sub_requests == 1
    assert metrics.responses_us[0] == pytest.approx(t.read_us + 2.0)


def test_fifo_queuing_adds_waiting_time(dftl):
    """Two simultaneous arrivals: the second waits for the first."""
    dftl.write(0, bytes(dftl.page_bytes))
    dftl.write(1, bytes(dftl.page_bytes))
    t = dftl.device.timings
    recs = [TraceRecord("data", 0, dftl.page_bytes, "read", 0.0),
            TraceRecord("data", dftl.page_bytes, dftl.page_bytes, "read", 0.0)]
    m = replay(dftl, recs, cpu_overhead_us=0.0)
    assert m.responses_us[0] == pytest.approx(t.read_us)
    assert m.responses_us[1] == pytest.approx(2 * t.read_us)
    assert m.makespan_us == pytest.approx(2 * t.read_us)


def test_multi_page_requests_fan_out(dftl):
    recs = [TraceRecord("data", 0, 4 * dftl.page_bytes, "write", 0.0)]
    m = replay(dftl, recs, seed=1)
    assert m.requests == 1
    assert m.sub_requests == 4
    assert m.bytes_moved == 4 * dftl.page_bytes


def test_reads_of_unwritten_pages_are_noops(dftl):
    m = replay(dftl, [TraceRecord("data", 0, dftl.page_bytes, "read", 0.0)])
    assert m.requests == 1
    assert m.device_counts["reads"] == 0


def test_replay_rejects_unknown_volume_and_overflow(dftl):
    with pytest.raises(PearlError):
        replay(dftl, [TraceRecord("public", 0, 512, "read", 0.0)])
    cap = dftl.logical_pages * dftl.page_bytes
    with pytest.raises(PearlError):
        replay(dftl, [TraceRecord("data", cap, 512, "read", 0.0)])


def test_replay_is_deterministic():
    def run():
        ftl = Dftl(FlashDevice(DESK_GEOMETRY), cmt_capacity=64)
        wl = gen_synthetic(150, 2048, 0.3, 0.0, "data", seed=5,
                           volume_pages=ftl.logical_pages, payload_bytes=2048)
        return replay(ftl, wl, seed=5).summary()
    assert run() == run()


def test_throughput_is_bytes_over_makespan(dftl):
    wl = gen_synthetic(50, 2048, 0.0, 0.0, "data", seed=2,
                       volume_pages=100, payload_bytes=2048)
    m = replay(dftl, wl, seed=2)
    assert m.bytes_per_second == pytest.approx(
        m.bytes_moved / (m.makespan_us / 1e6))
    assert m.bytes_moved == 50 * 2048


# -- initialization ---------------------------------------------------


def test_init_device_reaches_steady_state(dftl):
    assert init_device(dftl, fill_fraction=0.6, seed=0) is dftl
    assert dftl.gc_runs >= 1
    dev = dftl.device
    programmed = sum(1 for p in range(dev.geometry.total_pages)
                     if dev.program_count(p))
    assert programmed >= dev.geometry.total_pages * 0.5


def test_init_device_works_on_both_ftls(desk_cfg, device):
    ftl = PearlFtl.format(device, desk_cfg, "public-pw", "hidden-pw")
    assert init_device(ftl, fill_fraction=0.5, seed=1) is ftl
    assert ftl.gc_runs >= 1
    assert ftl.check_invariants() == []


def test_adapter_subclass_sees_every_request(desk_cfg, device):
    class Counting(PearlAdapter):
        def submit(self, volume, lpn, op, data=None):
            self.seen.append((volume, op))
            return super().submit(volume, lpn, op, data)

    ftl = PearlFtl.format(device, desk_cfg, "public-pw", "hidden-pw")
    adapter = Counting(ftl)
    adapter.seen = []
    assert init_device(adapter, fill_fraction=0.5, seed=1) is adapter
    assert adapter.volumes() == ftl.volumes()
    assert adapter.gc_runs == ftl.gc_runs >= 1
    writes = len(adapter.seen)
    assert set(adapter.seen) == {("public", "write"), ("hidden", "write")}
    pages, payload = adapter.volumes()["hidden"]
    wl = gen_synthetic(20, payload, 1.0, 0.0, "hidden", seed=4,
                       volume_pages=pages // 2, payload_bytes=payload)
    m = replay(adapter, wl, seed=4)
    assert adapter.seen[writes:] == [("hidden", "read")] * 20
    assert m.amplification == {"public_user": 5 / 3, "hidden_user": 5.0}


def _fill_per_request(ftl, fill_fraction=0.5, seed=0):
    """init_device as it ran before its batched() sweeps: every request
    seals its own programs."""
    rng = random.Random(seed)
    dev = ftl.device
    total = dev.geometry.total_pages
    for _ in range(40):
        for volume, (pages, payload) in ftl.volumes().items():
            for lpn in range(int(pages * fill_fraction)):
                ftl.submit(volume, lpn, "write", rng.randbytes(payload))
        if ftl.gc_runs >= 1 and sum(
                1 for p in range(total) if dev.program_count(p)) >= total / 2:
            return ftl
    raise AssertionError("the reference fill did not reach steady state")


def _logged(dev):
    """Log every program (ppn, data, OOB) and erase (block) of dev, in
    the order it happens."""
    log = []
    program, erase = dev.program_page, dev.erase_block

    def logged_program(ppn, data, oob):
        program(ppn, data, oob)
        log.append(("p", ppn, bytes(data), bytes(oob)))

    def logged_erase(blk):
        erase(blk)
        log.append(("e", blk))
    dev.program_page, dev.erase_block = logged_program, logged_erase
    return log


class _Requests(PearlAdapter):
    def __init__(self, ftl):
        super().__init__(ftl)
        self.seen = []

    def submit(self, volume, lpn, op, data=None):
        self.seen.append((volume, lpn, op, data))
        return super().submit(volume, lpn, op, data)


def _pearl():
    cfg = desk_config(cmt_capacity=64, seed=0)
    return PearlFtl.format(FlashDevice(cfg.geometry), cfg, "public-pw",
                           "hidden-pw")


@pytest.mark.parametrize("make, adapt", [
    (_pearl, False), (_pearl, True),
    (lambda: Dftl(FlashDevice(DESK_GEOMETRY), cmt_capacity=64), False)],
    ids=["pearl", "pearl-adapter", "dftl"])
def test_batched_fill_equals_the_per_request_fill(make, adapt):
    """The same device programs and erases in the same order, the same
    reads, clock, collections, ledger and image; an adapter subclass sees
    the same requests."""
    runs = []
    for fill in (_fill_per_request, init_device):
        ftl = make()
        log = _logged(ftl.device)
        target = _Requests(ftl) if adapt else ftl
        assert fill(target, 0.5, seed=3) is target
        if isinstance(ftl, PearlFtl):
            ftl.prepare_unmount()
        assert ftl.check_invariants() == []
        dev = ftl.device
        runs.append((log, (dev.reads, dev.programs, dev.erases, dev.clock_us),
                     ftl.gc_runs, sorted(ftl.ledger.items()),
                     dev.snapshot().to_bytes(),
                     target.seen if adapt else None))
    assert runs[0][2] >= 1
    assert runs[0] == runs[1]


# -- the mixed workload -----------------------------------------------


def test_mixed_workload_fails_on_a_wrong_read():
    class Garbled(PearlFtl):
        def public_read(self, lpn):
            return bytes(len(super().public_read(lpn)))

    cfg = desk_config(cmt_capacity=64, seed=0)
    mixed_workload(PearlFtl, cfg, seed=0, nops=60, snap_every=0)
    with pytest.raises(PearlError, match="read back wrong data"):
        mixed_workload(Garbled, cfg, seed=0, nops=60, snap_every=0)


# -- reporting --------------------------------------------------------


def test_export_report_roundtrip(tmp_path, dftl):
    wl = gen_synthetic(30, 2048, 0.5, 0.001, "data", seed=7,
                       volume_pages=100, payload_bytes=2048)
    m = replay(dftl, wl, seed=7)
    csv_path, summary_path = export_report(m, tmp_path / "run")
    lines = open(csv_path).read().splitlines()
    assert lines[0] == "# seed=7"
    assert lines[1] == "request,arrival_us,response_us"
    assert len(lines) == 2 + m.requests
    back = json.loads(open(summary_path).read())
    assert back == json.loads(json.dumps(m.summary()))
