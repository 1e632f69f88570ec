"""Self-tests of the benchmark's checks: each passes on the program's real
output and fails on a deliberately wrong one, so no check passes
everything.

    python3 -m pytest -q benchmarks/test_checks.py
"""

import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

run.import_pearl()

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from pearl import adversary, bench  # noqa: E402
from pearl.config import desk_config  # noqa: E402
from pearl.flash import FlashDevice  # noqa: E402
from pearl.ftl import PearlFtl  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def cfg():
    return desk_config(cmt_capacity=64, seed=0)


@pytest.fixture(scope="module")
def compliant(cfg):
    """A short run of the compliant FTL and its unmount images."""
    ftl = PearlFtl.format(FlashDevice(cfg.geometry), cfg,
                          workloads.PUBLIC_PW, workloads.HIDDEN_PW)
    lay = cfg.layout
    rng = random.Random(5)
    shadow, images = {}, []
    for i in range(600):
        if i % 3 != 2:
            lpn = rng.randrange(64)
            shadow[lpn] = rng.randbytes(lay.public_payload_bytes)
            ftl.public_write(lpn, shadow[lpn])
        else:
            ftl.hidden_write(rng.randrange(32),
                             rng.randbytes(lay.hidden_payload_bytes))
        if i % 200 == 199:
            ftl.prepare_unmount()
            images.append(ftl.snapshot())
    return ftl, shadow, images


@pytest.fixture(scope="module")
def mutant(cfg):
    return workloads.mutant_series(cfg, seed=0)


def flip(data, i=0):
    return data[:i] + bytes([data[i] ^ 1]) + data[i + 1:]


def test_read_with_a_flipped_byte_fails(compliant):
    ftl, shadow, _ = compliant
    lpn, data = next(iter(shadow.items()))
    got = ftl.public_read(lpn)
    checks.read_matches(got, data, "public")
    with pytest.raises(CheckFailed):
        checks.read_matches(flip(got, 100), data, "public")


def test_clock_off_by_one_program_fails(compliant):
    dev = compliant[0].device
    checks.clock_identity(dev)
    dev.clock_us += dev.timings.program_us
    try:
        with pytest.raises(CheckFailed):
            checks.clock_identity(dev)
    finally:
        dev.clock_us -= dev.timings.program_us


def test_amplification_off_by_one_bit_fails(compliant):
    ftl = compliant[0]
    checks.amplification_exact(ftl)
    ftl.ledger["hidden_user_physical_bits"] += 1
    try:
        with pytest.raises(CheckFailed):
            checks.amplification_exact(ftl)
    finally:
        ftl.ledger["hidden_user_physical_bits"] -= 1


def test_wrong_valid_count_fails_invariants(compliant):
    ftl = compliant[0]
    checks.invariants_hold(ftl)
    blk = ftl.config.managed_blocks.start
    ftl._valid[blk] += 1
    try:
        with pytest.raises(CheckFailed):
            checks.invariants_hold(ftl)
    finally:
        ftl._valid[blk] -= 1


def test_broken_allocator_images_fail_compliance(compliant, mutant):
    images = compliant[2]
    for before, after in zip([None] + images, images):
        checks.images_compliant(before, after)
    with pytest.raises(CheckFailed):
        for before, after in zip([None] + mutant, mutant):
            checks.images_compliant(before, after)


def test_compliant_images_fail_the_mutant_check(compliant, mutant):
    checks.mutant_flagged([mutant])
    with pytest.raises(CheckFailed):
        checks.mutant_flagged([compliant[2]])


def test_classify_checked_against_shadow(compliant):
    ftl, shadow, images = compliant
    snap = images[-1]
    solo = PearlFtl.mount(FlashDevice.restore(snap), workloads.PUBLIC_PW)
    tmap = solo.translation_map("public")
    obs = adversary.classify_snapshot(snap, solo.k_pub, decode_payloads=True)
    first = ftl.config.managed_blocks.start * ftl.config.geometry.pages_per_block
    checks.classify_matches_shadow(obs, tmap, shadow, first)
    lpn = next(iter(shadow))
    with pytest.raises(CheckFailed):
        checks.classify_matches_shadow(obs, tmap, {**shadow, lpn: flip(shadow[lpn])},
                                       first)
    with pytest.raises(CheckFailed):
        checks.classify_matches_shadow(obs, tmap, {**shadow, 10 ** 6: b""}, first)

    report = adversary.frequency_distinguisher([snap], ftl.config.code)
    second = sum(o.stage == "second" for o in obs)
    checks.frequency_counts_groups(report, second, ftl.layout.groups_per_page)
    with pytest.raises(CheckFailed):
        checks.frequency_counts_groups(report, second + 1,
                                       ftl.layout.groups_per_page)


def test_replay_metrics_checked_against_tallies(cfg):
    ftl = PearlFtl.format(FlashDevice(cfg.geometry), cfg, "p", "h")
    adapter = bench.init_device(ftl, fill_fraction=0.5, seed=1)
    pages, payload = adapter.volumes()["public"]
    records = bench.gen_synthetic(200, payload, 0.8, 0.0, "public", 2,
                                  pages // 2, payload)
    dev = ftl.device
    before = (dev.reads, dev.programs, dev.erases)
    clocks = []
    submit = adapter.submit

    def timed_submit(*args):
        clock = dev.clock_us
        submit(*args)
        clocks.append(dev.clock_us - clock + 2.0)

    adapter.submit = timed_submit
    m = bench.replay(adapter, records, cpu_overhead_us=2.0, seed=3)
    delta = dict(zip(("reads", "programs", "erases"),
                     (dev.reads - before[0], dev.programs - before[1],
                      dev.erases - before[2])))
    checks.run_metrics_agree(m, records, len(records), delta)
    checks.responses_cover_service(m.responses_us, clocks)
    with pytest.raises(CheckFailed):
        checks.run_metrics_agree(m, records[1:], len(records), delta)
    with pytest.raises(CheckFailed):
        checks.run_metrics_agree(m, records, len(records) + 1, delta)
    with pytest.raises(CheckFailed):
        checks.run_metrics_agree(m, records, len(records),
                                 {**delta, "programs": delta["programs"] + 1})
    m.bytes_moved += 1
    with pytest.raises(CheckFailed):
        checks.run_metrics_agree(m, records, len(records), delta)
    with pytest.raises(CheckFailed):
        checks.responses_cover_service(m.responses_us,
                                       [clocks[0] + m.responses_us[0]] + clocks[1:])


@pytest.mark.parametrize("name", ["mixed", "replay"])
def test_workload_round_passes_its_checks(name):
    wl = workloads.WORKLOADS[name](seed=1, seconds=0.001)
    wl.run_round()
    wl.check()
    assert wl.failed == 0 and len(wl.latencies_ns) > 0


def test_tracer_counts_agree_with_the_device_and_unwind(cfg):
    original = PearlFtl.public_write
    tracer = Tracer()
    with tracer.installed():
        ftl = PearlFtl.format(FlashDevice(cfg.geometry), cfg, "p", "h")
        for lpn in range(40):
            ftl.public_write(lpn, bytes(cfg.layout.public_payload_bytes))
        ftl.public_read(3)
    assert PearlFtl.public_write is original
    m = tracer.layer_metrics()
    dev = ftl.device
    assert (m["flash.reads"], m["flash.programs"], m["flash.erases"]) == \
        (dev.reads, dev.programs, dev.erases)
    assert m["flash.clock_s"] == dev.clock_us / 1e6
    assert m["ftl.calls"] == 1 + 40 + 1
    assert m["wom.encode_calls"] == 40
