"""Snapshot examiner: classification, transition diffs, write-order
inference, and the codeword-frequency distinguisher."""

import functools
import random
import tracemalloc
from copy import deepcopy
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from conftest import gc_burst, mixed_workload
from pearl.adversary import (PLAUSIBLE_SAME_LIFE, PageObservation,
                             TransitionRecord, TransitionReport, chi2_sf,
                             classify_snapshot, diff_transitions,
                             frequency_distinguisher, second_write_model,
                             ui1_inference)
from pearl.config import RESERVED_BLOCKS, desk_config
from pearl.crypto import (IV_BYTES, VolumeKey, decrypt_payload,
                          decrypt_payloads, derive_key)
from pearl.errors import WomError
from pearl.flash import DESK_GEOMETRY, DeviceGeometry, FlashDevice, Snapshot
from pearl.ftl import PearlFtl
from pearl.mutants import BrokenAllocatorFtl
from pearl.oob import (TAG_FIRST, TAG_SECOND, OobSlot, observable_stage,
                       pack_oob, parse_oob)
from pearl.wom import (WOM_2_3, WOM_3_5, BUILTIN_CODES, PageLayout,
                       decode_page_public, encode_page_first,
                       encode_page_full)


# -- public-only codeword model ---------------------------------------


@pytest.mark.parametrize("code", list(BUILTIN_CODES.values()),
                         ids=lambda c: c.name)
def test_second_write_model_is_a_distribution(code):
    model = second_write_model(code)
    assert sum(model.values()) == pytest.approx(1.0)
    assert all(p > 0 for p in model.values())


@pytest.mark.parametrize("code", list(BUILTIN_CODES.values()),
                         ids=lambda c: c.name)
def test_second_write_model_matches_exact_enumeration(code):
    """Oracle: enumerate every (m1, m2) pair with exact fractions."""
    exact = {}
    denom = 2 ** (2 * code.k)
    for m1 in range(2 ** code.k):
        c1 = code.encode_first(m1)
        for m2 in range(2 ** code.k):
            cw = code.encode_second(m2, c1)
            exact[cw] = exact.get(cw, Fraction(0)) + Fraction(1, denom)
    model = second_write_model(code)
    assert set(model) == set(exact)
    for cw, p in exact.items():
        assert model[cw] == pytest.approx(float(p))


# -- page classification ----------------------------------------------


def test_classify_recovers_public_payloads(desk_cfg, device, rng):
    ftl = PearlFtl.format(device, desk_cfg, "public-pw", "hidden-pw")
    lay = ftl.layout
    data = rng.randbytes(lay.public_payload_bytes)
    ftl.public_write(7, data)
    ppn = ftl._translate("public", 7)
    k_pub = derive_key("public-pw", "public", ftl.salt)
    obs = {o.ppn: o for o in classify_snapshot(
        ftl.snapshot(), k_pub, decode_payloads=True)}
    assert obs[ppn].stage in ("first", "second")
    assert obs[ppn].public_payload == data
    # untouched managed pages classify as empty
    empties = [o for o in obs.values() if o.stage == "empty"]
    assert empties and all(o.public_payload is None for o in empties)


# -- transition plausibility ------------------------------------------


def _prog(dev, ppn, oob, fill=0x00):
    dev.program_page(ppn, bytes([fill]) * dev.geometry.page_bytes, oob)


def _oob(dev, first=None, second=None):
    def slot(lpn, tag):
        return OobSlot(bytes(16), lpn, tag)
    return pack_oob(dev.geometry.oob_bytes,
                    slot(first, TAG_FIRST) if first is not None else None,
                    slot(second, TAG_SECOND) if second is not None else None)


def test_identical_snapshots_have_no_transitions(ftl):
    snap = ftl.snapshot()
    report = diff_transitions(snap, deepcopy(snap))
    assert report.ok
    assert report.records == []


def test_forward_transitions_are_plausible():
    dev = FlashDevice(DESK_GEOMETRY)
    ppb = dev.geometry.pages_per_block
    s1 = dev.snapshot()
    _prog(dev, ppb, _oob(dev, first=1))
    report = diff_transitions(s1, dev.snapshot())
    assert report.ok
    (rec,) = report.records
    assert (rec.before, rec.after) == ("empty", "first")


def test_erase_explains_any_transition():
    dev = FlashDevice(DESK_GEOMETRY)
    ppb = dev.geometry.pages_per_block
    _prog(dev, ppb, _oob(dev, first=1, second=1), fill=0xFF)
    s1 = dev.snapshot()
    dev.erase_block(1)
    report = diff_transitions(s1, dev.snapshot())
    assert report.ok
    (rec,) = report.records
    assert (rec.before, rec.after) == ("second", "empty")
    assert "erased" in rec.reason


def test_cleared_bits_are_implausible():
    dev = FlashDevice(DESK_GEOMETRY)
    ppb = dev.geometry.pages_per_block
    _prog(dev, ppb, _oob(dev, first=1), fill=0xFF)
    s1 = dev.snapshot()
    s2 = deepcopy(s1)
    page = bytearray(s2.data[ppb])
    page[0] &= 0xFE
    # a cleared bit alone keeps the stage, so the content-change check
    # would also fire; advance the stage to isolate the bit-clear reason
    s2.data[ppb] = bytes(page)
    s2.oob[ppb] = _oob(dev, first=1, second=1)
    report = diff_transitions(s1, s2)
    (rec,) = report.implausible
    assert rec.reason == "set bits were cleared"


def test_stage_regression_is_implausible():
    dev = FlashDevice(DESK_GEOMETRY)
    ppb = dev.geometry.pages_per_block
    _prog(dev, ppb, _oob(dev, first=1, second=1), fill=0xFF)
    s1 = dev.snapshot()
    s2 = deepcopy(s1)
    s2.data[ppb] = bytes(dev.geometry.page_bytes)
    s2.oob[ppb] = _oob(dev, first=1)  # second-write slot vanished
    report = diff_transitions(s1, s2)
    assert not report.ok
    rec = report.implausible[0]
    assert (rec.before, rec.after) == ("second", "first")
    assert "no such edge" in rec.reason


def test_silent_rewrite_is_implausible():
    dev = FlashDevice(DESK_GEOMETRY)
    ppb = dev.geometry.pages_per_block
    _prog(dev, ppb, _oob(dev, first=1))
    s1 = dev.snapshot()
    s2 = deepcopy(s1)
    page = bytearray(s2.data[ppb])
    page[0] |= 0x80
    s2.data[ppb] = bytes(page)
    report = diff_transitions(s1, s2)
    (rec,) = report.implausible
    assert rec.reason == "content changed without a stage change"


# -- in-block write-order inference -----------------------------------


def test_ui1_inference_flags_abandoned_update_casualty():
    """Page j claims lpn 5, page j+1 re-claims it (so j is update-
    invalidated), then a later page gets a second write while j still sits
    at first stage — exactly the pattern a compliant allocator cannot
    produce."""
    dev = FlashDevice(DESK_GEOMETRY)
    base = dev.geometry.pages_per_block  # block 1 (block 0 is reserved)
    _prog(dev, base + 0, _oob(dev, first=5))
    _prog(dev, base + 1, _oob(dev, first=5))
    _prog(dev, base + 2, _oob(dev, first=6, second=6))
    snap = dev.snapshot()
    (alarm,) = ui1_inference(snap, snap)
    assert alarm.block == 1
    assert alarm.stale_page == base + 0
    assert alarm.update_page == base + 1
    assert alarm.witness_page == base + 2
    assert alarm.lpn == 5
    assert "unconsumed" in alarm.line()


def test_ui1_inference_accepts_consumed_casualty():
    """Same layout, but the superseded page got its second write before
    the block advanced — no alarm."""
    dev = FlashDevice(DESK_GEOMETRY)
    base = dev.geometry.pages_per_block
    _prog(dev, base + 0, _oob(dev, first=5, second=9))
    _prog(dev, base + 1, _oob(dev, first=5))
    _prog(dev, base + 2, _oob(dev, first=6, second=6))
    snap = dev.snapshot()
    assert ui1_inference(snap, snap) == []


# -- end-to-end: compliant FTL vs the broken-allocator variant --------

_HOT = dict(hot_lpns=16, write_frac=0.60, hidden_frac=0.30, snap_every=250)


def test_compliant_device_raises_no_alarms(desk_cfg):
    ftl, snaps, _ = mixed_workload(PearlFtl, desk_cfg, seed=7, nops=800,
                                   **_HOT)
    for snap in snaps:
        assert ui1_inference(snap, snap) == []
    for s1, s2 in zip(snaps, snaps[1:]):
        assert diff_transitions(s1, s2).ok
    assert ftl.check_invariants() == []


def test_compliant_device_raises_no_alarms_on_gc_heavy_traffic():
    """Writes over both volumes' whole ranges, so collections run inside
    allocation, where they may refill the UI1 slot before a full write
    takes its empty page."""
    cfg = desk_config(cmt_capacity=64, seed=1)
    ftl = PearlFtl.format(FlashDevice(cfg.geometry), cfg, "public-pw",
                          "hidden-pw")
    _, snaps, _ = gc_burst(ftl, nops=3000, seed=1, snap_every=250)
    for snap in snaps:
        assert ui1_inference(snap, snap) == []
    for s1, s2 in zip(snaps, snaps[1:]):
        assert diff_transitions(s1, s2).implausible == []


def test_broken_allocator_is_detected(desk_cfg):
    _, snaps, _ = mixed_workload(BrokenAllocatorFtl, desk_cfg, seed=7,
                                 nops=800, **_HOT)
    assert any(ui1_inference(s, s) for s in snaps)


# -- codeword-frequency distinguisher ---------------------------------


def _full_write_snapshot(code, n_pages, seed):
    dev = FlashDevice(DESK_GEOMETRY)
    layout = PageLayout.for_page(dev.geometry.page_bytes, code)
    rng = random.Random(seed)
    base = dev.geometry.pages_per_block
    for i in range(n_pages):
        page = encode_page_full(
            layout, code, rng.randbytes(layout.public_payload_bytes),
            rng.randbytes(layout.hidden_payload_bytes))
        _oob_bytes = pack_oob(dev.geometry.oob_bytes, None,
                              OobSlot(bytes(16), i, TAG_SECOND))
        dev.program_page(base + i, page, _oob_bytes)
    return dev.snapshot(), layout


def test_frequency_flags_insufficient_samples():
    snap, _ = _full_write_snapshot(WOM_3_5, 4, seed=0)
    report = frequency_distinguisher([snap], WOM_3_5)
    assert report.insufficient
    assert not report.distinguishes()
    assert "insufficient samples" in report.lines()[-1]


def test_frequency_passes_equal_partition_code():
    snap, layout = _full_write_snapshot(WOM_3_5, 31, seed=1)
    assert 31 * layout.groups_per_page >= 10 ** 5
    report = frequency_distinguisher([snap], WOM_3_5)
    assert not report.insufficient
    assert not report.distinguishes(alpha=0.01)


def test_frequency_distinguishes_skewed_code():
    snap, layout = _full_write_snapshot(WOM_2_3, 19, seed=2)
    assert 19 * layout.groups_per_page >= 10 ** 5
    report = frequency_distinguisher([snap], WOM_2_3)
    assert not report.insufficient
    assert report.p_value < 1e-6
    assert report.distinguishes()


@pytest.mark.parametrize("df", range(1, 41))
def test_chi2_tail_matches_scipy(df):
    """The closed-form tail against SciPy's regularized incomplete gamma,
    wherever SciPy's value is a normal double.  The codes in use only
    reach odd df (15 for wom3x5, 7 for wom2x3), so this grid is the only
    test of the even-df sum."""
    xs = np.concatenate([[0.0], np.geomspace(1e-9, 2000, 400),
                         np.arange(0.25, 120, 0.25)])
    ref = stats.chi2.sf(xs, df)
    got = np.array([chi2_sf(float(x), df) for x in xs])
    keep = ref > 1e-300
    assert keep.sum() > 300
    assert np.allclose(got[keep], ref[keep], rtol=1e-12, atol=0)


@pytest.mark.parametrize("code, n_pages, seed, df", [(WOM_3_5, 31, 1, 15),
                                                     (WOM_2_3, 19, 2, 7)])
def test_frequency_report_matches_scipy_chisquare(code, n_pages, seed, df):
    """The statistic is SciPy's bit for bit, and the p-value within 1e-12
    relative."""
    snap, _ = _full_write_snapshot(code, n_pages, seed=seed)
    report = frequency_distinguisher([snap], code)
    support = sorted(report.model)
    ref = stats.chisquare([report.counts.get(cw, 0) for cw in support],
                          [report.model[cw] * report.total_groups
                           for cw in support])
    assert report.statistic == float(ref.statistic)
    assert report.df == len(support) - 1 == df
    assert report.p_value == pytest.approx(float(ref.pvalue), rel=1e-12,
                                           abs=0)


def test_frequency_rejects_a_model_that_is_not_a_distribution():
    snap, _ = _full_write_snapshot(WOM_3_5, 31, seed=1)
    model = {cw: 0.9 * p for cw, p in second_write_model(WOM_3_5).items()}
    with pytest.raises(ValueError):
        frequency_distinguisher([snap], WOM_3_5, model)


# -- batched scans against the page-by-page loops they replaced ------


def _classify_per_page(snap, k_pub, code=WOM_3_5, decode_payloads=False):
    layout = PageLayout.for_page(snap.geometry.page_bytes, code)
    g = snap.geometry
    out = []
    for ppn in range(RESERVED_BLOCKS * g.pages_per_block, g.total_pages):
        stage = observable_stage(snap.oob[ppn])
        payload = None
        if decode_payloads and stage != "empty":
            slot_a, slot_b = parse_oob(snap.oob[ppn])
            slot = slot_b if stage == "second" else slot_a
            raw = decode_page_public(layout, code, snap.data[ppn], stage)
            payload = decrypt_payload(k_pub, slot.iv, raw)
        out.append(PageObservation(ppn, stage, payload))
    return out


def _subset_bits(older, newer):
    a = int.from_bytes(older, "big")
    b = int.from_bytes(newer, "big")
    return a | b == b


def _diff_per_page(s1, s2):
    g = s1.geometry
    report = TransitionReport()
    for ppn in range(RESERVED_BLOCKS * g.pages_per_block, g.total_pages):
        blk = ppn // g.pages_per_block
        erased = s2.erase_counts[blk] - s1.erase_counts[blk]
        before = observable_stage(s1.oob[ppn])
        after = observable_stage(s2.oob[ppn])
        rec = functools.partial(TransitionRecord, ppn, before, after)
        if erased > 0:
            if before != after:
                report.records.append(rec(True, f"block erased x{erased}"))
            continue
        if (before, after) not in PLAUSIBLE_SAME_LIFE:
            report.records.append(rec(False, "no such edge without an erase"))
            continue
        if not (_subset_bits(s1.data[ppn], s2.data[ppn])
                and _subset_bits(s1.oob[ppn], s2.oob[ppn])):
            report.records.append(rec(False, "set bits were cleared"))
            continue
        if before == after and (s1.data[ppn] != s2.data[ppn]
                                or s1.oob[ppn] != s2.oob[ppn]):
            report.records.append(rec(
                False, "content changed without a stage change"))
            continue
        if before != after:
            report.records.append(rec(True, "within closure"))
    return report


def _workload_images(ftl_cls, code):
    """(public key, unmount images) of the hot-lpn mix under a code."""
    return _workload_images_by_name(ftl_cls, code.name)


@functools.lru_cache(maxsize=None)
def _workload_images_by_name(ftl_cls, code_name):
    cfg = desk_config(cmt_capacity=64, seed=0, code=BUILTIN_CODES[code_name])
    ftl, snaps, _ = mixed_workload(ftl_cls, cfg, seed=7, nops=800, **_HOT)
    return ftl.k_pub, tuple(snaps)


_CODES = pytest.mark.parametrize("code", [WOM_3_5, WOM_2_3],
                                 ids=lambda c: c.name)
_FTLS = pytest.mark.parametrize("ftl_cls", [PearlFtl, BrokenAllocatorFtl],
                                ids=lambda c: c.__name__)


@_CODES
@_FTLS
def test_classify_matches_the_per_page_scan(ftl_cls, code):
    k_pub, snaps = _workload_images(ftl_cls, code)
    seen = set()
    for snap in snaps:
        obs = classify_snapshot(snap, k_pub, code, decode_payloads=True)
        assert obs == _classify_per_page(snap, k_pub, code, True)
        # The CLI's call: stages only, without a key.
        assert classify_snapshot(snap, None) == _classify_per_page(snap, None)
        seen |= {o.stage for o in obs}
    assert seen == {"empty", "first", "second"}


@_FTLS
def test_diff_matches_the_per_page_scan_on_workload_images(ftl_cls):
    _, snaps = _workload_images(ftl_cls, WOM_3_5)
    for s1, s2 in zip(snaps, snaps[1:]):
        assert diff_transitions(s1, s2) == _diff_per_page(s1, s2)


def _with_group(layout, code, raw, group, codeword):
    """raw with its n-bit group number `group` set to codeword."""
    shift = layout.page_bytes * 8 - (group + 1) * code.n
    bits = int.from_bytes(raw, "big") & ~(((1 << code.n) - 1) << shift)
    return (bits | codeword << shift).to_bytes(layout.page_bytes, "big")


@pytest.mark.parametrize("stage", ["first", "second"])
def test_classify_raises_the_per_page_codeword_error(stage):
    k_pub, snaps = _workload_images(PearlFtl, WOM_3_5)
    snap = deepcopy(snaps[-1])
    layout = PageLayout.for_page(snap.geometry.page_bytes, WOM_3_5)
    table = WOM_3_5._d1_arr if stage == "first" else WOM_3_5._d2_arr
    bad = int(np.flatnonzero(table < 0)[0])
    pages = [o.ppn for o in _classify_per_page(snap, None) if o.stage == stage]
    ppn, group = pages[len(pages) // 2], layout.groups_per_page - 9
    snap.data[ppn] = _with_group(layout, WOM_3_5, snap.data[ppn], group, bad)
    with pytest.raises(WomError) as per_page:
        decode_page_public(layout, WOM_3_5, snap.data[ppn], stage)
    with pytest.raises(WomError) as batched:
        classify_snapshot(snap, k_pub, decode_payloads=True)
    assert str(batched.value) == str(per_page.value)
    assert str(per_page.value).startswith(f"group {group} ")


@pytest.mark.parametrize("length", [1227, 409, 64])
def test_batched_keystream_matches_decrypt_payload(length):
    rng = random.Random(length)
    key = VolumeKey(rng.randbytes(32), "public")
    ivs = [bytes(16), b"\xff" * 16, bytes(8) + b"\xff" * 8,
           bytes(7) + b"\xfe" + b"\xff" * 8]
    ivs += [rng.randbytes(IV_BYTES) for _ in range(8)]
    texts = [rng.randbytes(length) for _ in ivs]
    out = decrypt_payloads(
        key, np.frombuffer(b"".join(ivs), np.uint8).reshape(-1, IV_BYTES),
        np.frombuffer(b"".join(texts), np.uint8).reshape(-1, length))
    assert [row.tobytes() for row in out] == [
        decrypt_payload(key, iv, text) for iv, text in zip(ivs, texts)]


def _with_bits(page, byte, mask, clear):
    page = bytearray(page)
    page[byte] = page[byte] & ~mask if clear else page[byte] | mask
    return bytes(page)


def test_diff_matches_the_per_page_scan_on_crafted_pairs():
    dev = FlashDevice(DESK_GEOMETRY)
    g = dev.geometry
    ppb = g.pages_per_block
    b1, b2, last = ppb, 2 * ppb, g.total_pages - 1
    for ppn in (b1, b1 + 1, b1 + 2, b2, b2 + 1, 9 * ppb - 1, last):
        _prog(dev, ppn, _oob(dev, first=ppn), fill=0x5A)
    _prog(dev, b1 + 3, _oob(dev, first=1, second=1), fill=0xFF)
    s1 = dev.snapshot()
    # An erased block: one page back at its old stage with new content,
    # one left empty.
    dev.erase_block(2)
    _prog(dev, b2, _oob(dev, first=7), fill=0x0F)
    _prog(dev, 9 * ppb, _oob(dev, second=3), fill=0xFF)   # empty -> second
    s2 = dev.snapshot()
    s2.data[b1] = _with_bits(s2.data[b1], 100, 0x02, clear=True)
    # The low byte of slot A's lpn field, which holds b1 + 1 = 0x21.
    s2.oob[b1 + 1] = _with_bits(s2.oob[b1 + 1], IV_BYTES + 3, 0x01,
                                clear=True)
    s2.data[b1 + 2] = _with_bits(s2.data[b1 + 2], 0, 0x80, clear=False)
    s2.data[b1 + 3] = bytes(g.page_bytes)                  # second -> first
    s2.oob[b1 + 3] = _oob(dev, first=1)
    s2.oob[9 * ppb - 1] = _oob(dev, first=9 * ppb - 1, second=2)
    s2.data[last] = _with_bits(s2.data[last], 2047, 0x02, clear=True)
    report = diff_transitions(s1, s2)
    assert report == _diff_per_page(s1, s2)
    assert {r.reason for r in report.records} == {
        "set bits were cleared", "content changed without a stage change",
        "block erased x1", "no such edge without an erase",
        "within closure"}
    assert [r.ppn for r in report.records] == [
        b1, b1 + 1, b1 + 2, b1 + 3, b2 + 1, 9 * ppb - 1, 9 * ppb, last]


def _full_device_images():
    """Two images of a 6,144-page device (the examine workload's size):
    every managed page at first stage, then the second half of them at
    second stage, so both scans work on every page."""
    geometry = DeviceGeometry(1, 1, 3 * DESK_GEOMETRY.blocks_per_plane,
                              DESK_GEOMETRY.pages_per_block,
                              DESK_GEOMETRY.page_bytes,
                              DESK_GEOMETRY.oob_bytes)
    layout = PageLayout.for_page(geometry.page_bytes, WOM_3_5)
    rng = random.Random(3)
    n = geometry.total_pages
    first = RESERVED_BLOCKS * geometry.pages_per_block
    firsts = [encode_page_first(layout, WOM_3_5, rng.randbytes(
        layout.public_payload_bytes)) for _ in range(16)]
    fulls = [encode_page_full(layout, WOM_3_5, rng.randbytes(
        layout.public_payload_bytes), rng.randbytes(
        layout.hidden_payload_bytes)) for _ in range(16)]
    blank = (bytes(geometry.page_bytes), bytes(geometry.oob_bytes))
    pages = [blank] * first
    for ppn in range(first, n):
        slot = OobSlot(rng.randbytes(IV_BYTES), ppn, TAG_FIRST)
        pages.append((firsts[ppn % 16], pack_oob(geometry.oob_bytes, slot,
                                                 None)))
    before = list(pages)
    for ppn in range((first + n) // 2, n):
        slot = OobSlot(rng.randbytes(IV_BYTES), ppn, TAG_SECOND)
        pages[ppn] = (fulls[ppn % 16], pack_oob(geometry.oob_bytes, None,
                                                slot))

    def image(pages):
        return Snapshot(geometry, [d for d, _ in pages], [o for _, o in pages],
                        [1] * geometry.total_blocks,
                        [int(any(o)) for _, o in pages])
    return image(before), image(pages)


def _transient_peak(fn, *args, **kwargs):
    """Peak bytes fn allocates beyond what its result still holds."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)  # noqa: F841  (held while measured)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - current


def test_scans_work_in_steps_below_one_image():
    """classify_snapshot and diff_transitions allocate, beyond their
    result, less than one image's data: they step through the pages
    rather than holding whole-image arrays."""
    s1, s2 = _full_device_images()
    image_bytes = s2.geometry.total_pages * s2.geometry.page_bytes
    key = VolumeKey(bytes(32), "public")
    assert _transient_peak(classify_snapshot, s2, key,
                           decode_payloads=True) < image_bytes
    assert _transient_peak(diff_transitions, s1, s2) < image_bytes
