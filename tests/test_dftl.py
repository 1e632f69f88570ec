"""Baseline page-mapping FTL: translation, caching, GC."""

import random
import struct

import pytest

from conftest import (assert_cache_fresh, assert_reads_back, cold_walk,
                      count_relocated_translation_pages, gc_burst)
from pearl.cmt import UNMAPPED
from pearl.dftl import DATA, Dftl
from pearl.errors import PearlError, UnmappedLpn
from pearl.flash import DESK_GEOMETRY, FlashDevice


@pytest.fixture
def dftl():
    return Dftl(FlashDevice(DESK_GEOMETRY), cmt_capacity=32)


def _payload(dftl, rng):
    return rng.randbytes(dftl.page_bytes)


def test_write_read_trim_cycle(dftl, ):
    rng = random.Random(0)
    data = _payload(dftl, rng)
    dftl.write(10, data)
    assert dftl.read(10) == data
    dftl.trim(10)
    with pytest.raises(UnmappedLpn):
        dftl.read(10)


def test_read_unwritten_raises(dftl):
    with pytest.raises(UnmappedLpn):
        dftl.read(0)
    with pytest.raises(PearlError):
        dftl.read(dftl.logical_pages)  # beyond logical capacity


def test_translate_against_shadow_map(dftl):
    """Random ops vs a plain dict; translate() must always agree."""
    rng = random.Random(42)
    shadow = {}
    for _ in range(3000):
        r = rng.random()
        if r < 0.6 or not shadow:
            lpn = rng.randrange(dftl.logical_pages // 2)
            data = _payload(dftl, rng)
            dftl.write(lpn, data)
            shadow[lpn] = data
        elif r < 0.7:
            lpn = rng.choice(sorted(shadow))
            dftl.trim(lpn)
            del shadow[lpn]
        elif r < 0.75:
            dftl.gc_run()
        else:
            lpn = rng.choice(sorted(shadow))
            assert dftl.read(lpn) == shadow[lpn]
    for lpn, data in shadow.items():
        assert dftl.read(lpn) == data
    assert dftl.check_invariants() == []


def test_every_page_programmed_at_most_once_per_erase_cycle(dftl):
    """The baseline never exploits the two-program envelope."""
    rng = random.Random(1)
    for i in range(2500):
        dftl.write(rng.randrange(dftl.logical_pages // 3), _payload(dftl, rng))
    dev = dftl.device
    assert dftl.gc_runs >= 1
    assert all(dev.program_count(p) <= 1
               for p in range(dev.geometry.total_pages))


def test_gc_preserves_data_and_reclaims(dftl):
    rng = random.Random(2)
    shadow = {}
    # overwrite a small working set hard to build up garbage
    for i in range(1500):
        lpn = rng.randrange(64)
        data = _payload(dftl, rng)
        dftl.write(lpn, data)
        shadow[lpn] = data
    free_before = len(dftl._free)
    victim, ppb = dftl._select_victim(), dftl._ppb
    programmed = sum(1 for p in range(victim * ppb, (victim + 1) * ppb)
                     if dftl.device.program_count(p))
    assert programmed > 0
    assert dftl.gc_run() == programmed
    assert len(dftl._free) >= free_before
    for lpn, data in shadow.items():
        assert dftl.read(lpn) == data


def test_victim_is_least_valid(dftl):
    rng = random.Random(3)
    for i in range(800):
        dftl.write(rng.randrange(200), _payload(dftl, rng))
    victim = dftl._select_victim()
    g = dftl.device.geometry
    candidates = [b for b in range(g.total_blocks)
                  if b not in dftl._free and b not in dftl._block.values()]
    assert victim == min(candidates, key=lambda b: (dftl._valid[b], b))


def test_collection_inside_allocation_strands_no_block(dftl):
    """Relocations of a collection that runs inside allocation may open
    a block; allocation then writes to it rather than leaving it behind
    with unwritten pages, which check_invariants reports.  A collection
    may also move the page a write supersedes; every lpn still reads
    back its last write."""
    _, _, shadow = gc_burst(dftl, nops=4000, check_every=25)
    assert dftl.gc_runs > 100
    assert_reads_back(dftl, shadow)


@pytest.mark.parametrize("fault", ["programmed-free", "open-free", "stranded",
                                   "orphan"])
def test_check_invariants_reports_planted_fault(dftl, fault):
    rng = random.Random(5)
    for _ in range(100):
        dftl.write(rng.randrange(200), _payload(dftl, rng))
    blk = dftl._block[DATA]
    assert dftl._open_with_room(blk) and dftl.check_invariants() == []

    def list_free(b):
        dftl._free.add(b)
        return f"free block {b} holds a programmed page"

    if fault == "programmed-free":
        expect = [list_free(dftl._select_victim())]
    elif fault == "open-free":
        expect = ["an open block is on the free list", list_free(blk)]
    elif fault == "orphan":
        # An lpn maps elsewhere while its page stays valid.
        lpn, ppn = min(dftl.full_map().items())
        dftl.cmt.put(DATA, lpn, UNMAPPED, dirty=True)
        expect = [f"valid data page {ppn} is not where its lpn maps"]
    else:
        # The data stream moves on while its block still has room.
        new = min(dftl._free)
        dftl._free.remove(new)
        dftl._block[DATA], dftl._cursor[DATA] = new, new * dftl._ppb
        expect = [f"block {blk} holds an unwritten page but is neither "
                  "free nor open with room"]
    assert dftl.check_invariants() == expect


def test_full_map_matches_reads(dftl):
    rng = random.Random(4)
    shadow = {}
    for _ in range(600):
        lpn = rng.randrange(100)
        data = _payload(dftl, rng)
        dftl.write(lpn, data)
        shadow[lpn] = data
    fmap = dftl.full_map()
    assert set(fmap) == set(shadow)
    for lpn, ppn in fmap.items():
        data, _ = dftl.device.peek(ppn)
        assert data == shadow[lpn]


def test_cold_cache_equals_warm_cache(dftl):
    """Translation through flash gives the same answers as the cache."""
    rng = random.Random(5)
    writes = {}
    for _ in range(400):
        lpn = rng.randrange(300)
        data = _payload(dftl, rng)
        dftl.write(lpn, data)
        writes[lpn] = data
    warm = {lpn: dftl.translate(lpn) for lpn in writes}
    # flush to a fixpoint (flushing can GC, which re-dirties entries),
    # then wipe the cache so every translate goes through flash
    for _ in range(50):
        dirty_groups = dftl.cmt.dirty_groups()
        if not dirty_groups:
            break
        for vol, m in sorted(dirty_groups):
            dftl._flush_group(vol, m)
    else:
        pytest.fail("dirty entries never drained")
    dftl.cmt._entries.clear()
    cold = {lpn: dftl.translate(lpn) for lpn in writes}
    assert cold == warm


def test_submit_routes_and_reports_one_volume(dftl, rng):
    assert dftl.volumes() == {DATA: (dftl.logical_pages, dftl.page_bytes)}
    data = _payload(dftl, rng)
    assert dftl.submit(DATA, 7, "write", data) is None
    assert dftl.submit(DATA, 7, "read") == data
    dftl.submit(DATA, 7, "trim")
    with pytest.raises(UnmappedLpn):
        dftl.submit(DATA, 7, "read")


def test_submit_rejects_unknown_op(dftl, rng):
    data = _payload(dftl, rng)
    dftl.write(7, data)
    for op in ("erase", "Write", "TRIM"):
        with pytest.raises(PearlError, match="unknown op"):
            dftl.submit(DATA, 7, op, data)
    assert dftl.read(7) == data


def test_submit_rejects_unknown_volume(dftl, rng):
    data = _payload(dftl, rng)
    programs = dftl.device.programs
    for volume in ("public", "hidden", "Data"):
        with pytest.raises(PearlError, match="no volume"):
            dftl.submit(volume, 7, "write", data)
    assert dftl.device.programs == programs
    with pytest.raises(UnmappedLpn):
        dftl.read(7)


# -- page-payload cache ------------------------------------------------


def test_translation_miss_on_flushed_group_skips_decode(monkeypatch):
    dftl = Dftl(FlashDevice(DESK_GEOMETRY), cmt_capacity=4)
    rng = random.Random(3)
    for lpn in range(8):
        dftl.write(lpn, _payload(dftl, rng))
    assert (DATA, 0) not in dftl.cmt  # evicted, so its group was flushed
    expect, = struct.unpack_from(
        "<I", dftl._decode(DATA, dftl._gtd[DATA][0], quiet=True))

    decodes = []
    decode = Dftl._decode

    def counted(self, *args, **kwargs):
        decodes.append(args)
        return decode(self, *args, **kwargs)
    monkeypatch.setattr(Dftl, "_decode", counted)
    dev = dftl.device
    reads, clock, misses = dev.reads, dev.clock_us, dftl.cmt.misses
    assert dftl.translate(0) == expect
    assert dftl.cmt.misses == misses + 1
    assert decodes == []
    assert dev.reads == reads + 1
    assert dev.clock_us == clock + dev.timings.read_us


def test_decoded_cache_never_serves_a_stale_page():
    dftl = Dftl(FlashDevice(DESK_GEOMETRY), cmt_capacity=4)
    dev = dftl.device
    relocated = count_relocated_translation_pages(dftl)
    rng = random.Random(9)
    shadow = {}
    for i in range(1, 4001):
        r = rng.random()
        if r < 0.7 or not shadow:
            lpn = rng.randrange(dftl.logical_pages // 2)
            shadow[lpn] = _payload(dftl, rng)
            dftl.write(lpn, shadow[lpn])
        elif r < 0.8:
            dftl.trim(lpn := rng.choice(sorted(shadow)))
            del shadow[lpn]
        elif r < 0.85:
            dftl.gc_run()
        else:
            lpn = rng.choice(sorted(shadow))
            assert dftl.read(lpn) == shadow[lpn]
        if i % 50 == 0:
            reads, clock = dev.reads, dev.clock_us
            assert dftl._walk_volume(DATA) == cold_walk(dftl, DATA)
            assert (dev.reads, dev.clock_us) == (reads, clock)
            assert_cache_fresh(dftl)
    assert relocated
    assert max(dev.erase_count(b)
               for b in range(DESK_GEOMETRY.total_blocks)) >= 2
    assert dftl.check_invariants() == []

