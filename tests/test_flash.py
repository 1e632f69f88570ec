"""Simulated NAND: write-once semantics, timing ledger, snapshots."""

import random
import struct
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pearl.errors import (DoubleProgramLimit, SnapshotFormatError,
                          WomInvariantViolation)
from pearl.flash import (DESK_GEOMETRY, SNAPSHOT_MAGIC, DeviceGeometry,
                         DeviceTimings, FlashDevice, Snapshot)


@pytest.fixture
def dev():
    return FlashDevice(DESK_GEOMETRY)


def _page(dev, fill):
    return bytes([fill]) * dev.geometry.page_bytes, \
        bytes([fill]) * dev.geometry.oob_bytes


def test_geometry_totals():
    g = DESK_GEOMETRY
    assert g.total_blocks == 64
    assert g.total_pages == 2048
    assert g.total_bytes == 2048 * 2048


def test_geometry_validation():
    with pytest.raises(ValueError):
        DeviceGeometry(0, 1, 1, 1, 2048, 64)
    with pytest.raises(ValueError):
        DeviceGeometry(1, 1, 1, 1, 256, 64)
    with pytest.raises(ValueError):
        DeviceTimings(read_us=0)


def test_program_or_model_against_shadow(dev):
    """Two programs per page behave as bitwise OR with a shadow model."""
    rng = random.Random(7)
    g = dev.geometry
    for ppn in range(0, 50):
        first = rng.randbytes(g.page_bytes)
        dev.program_page(ppn, first, bytes(g.oob_bytes))
        # second program may only set more bits
        more = bytes(a | b for a, b in
                     zip(first, rng.randbytes(g.page_bytes)))
        dev.program_page(ppn, more, bytes(g.oob_bytes))
        got, _ = dev.read_page(ppn)
        assert got == more


def test_program_rejects_bit_clear(dev):
    dev.program_page(3, *_page(dev, 0xFF))
    with pytest.raises(WomInvariantViolation):
        dev.program_page(3, *_page(dev, 0x0F))


def test_oob_is_write_once_too(dev):
    g = dev.geometry
    dev.program_page(4, bytes(g.page_bytes), bytes([0xF0]) * g.oob_bytes)
    with pytest.raises(WomInvariantViolation):
        dev.program_page(4, bytes(g.page_bytes), bytes([0x0F]) * g.oob_bytes)


def test_third_program_rejected(dev):
    data, oob = _page(dev, 0)
    dev.program_page(5, data, oob)
    dev.program_page(5, data, oob)
    with pytest.raises(DoubleProgramLimit):
        dev.program_page(5, data, oob)


def test_erase_resets_pages_and_counter(dev):
    data, oob = _page(dev, 0xAA)
    ppb = dev.geometry.pages_per_block
    for ppn in range(ppb, 2 * ppb):
        dev.program_page(ppn, data, oob)
    dev.erase_block(1)
    assert dev.erase_count(1) == 1
    for ppn in range(ppb, 2 * ppb):
        assert dev.program_count(ppn) == 0
        got, goob = dev.peek(ppn)
        assert got == bytes(dev.geometry.page_bytes)
        assert goob == bytes(dev.geometry.oob_bytes)
    # page usable again after erase
    dev.program_page(ppb, data, oob)


def test_page_tag_changes_with_each_program_and_erase(dev):
    ppb = dev.geometry.pages_per_block
    seen = [dev.page_tag(ppb)]
    for fill in (0x0F, 0xFF):
        dev.program_page(ppb, *_page(dev, fill))
        seen.append(dev.page_tag(ppb))
    dev.read_page(ppb)
    dev.program_page(ppb + 1, *_page(dev, 0x0F))
    assert dev.page_tag(ppb) == seen[-1]
    dev.erase_block(1)
    seen.append(dev.page_tag(ppb))
    assert len(set(seen)) == 4
    assert dev.page_tag(ppb) == FlashDevice.restore(dev.snapshot()).page_tag(ppb)
    for ppn in (-1, dev.geometry.total_pages):
        with pytest.raises(IndexError):
            dev.page_tag(ppn)


def test_programmed_pages_equals_a_per_page_recount(dev):
    def recount(d):
        return sum(1 for p in range(d.geometry.total_pages)
                   if d.program_count(p))
    ppb = dev.geometry.pages_per_block
    assert dev.programmed_pages() == 0
    for ppn in (0, 1, ppb, ppb + 3, 5 * ppb):
        dev.program_page(ppn, *_page(dev, 0x0F))
    dev.program_page(1, *_page(dev, 0xFF))      # a second program
    assert dev.programmed_pages() == recount(dev) == 5
    dev.erase_block(1)
    assert dev.programmed_pages() == recount(dev) == 3
    again = FlashDevice.restore(dev.snapshot())
    assert again.programmed_pages() == recount(again) == 3


def test_busy_clock_identity(dev):
    """Accumulated clock equals the op counts times the per-op costs."""
    rng = random.Random(3)
    data, oob = _page(dev, 0)
    for _ in range(57):
        ppn = rng.randrange(dev.geometry.total_pages)
        if dev.program_count(ppn) < 2:
            dev.program_page(ppn, data, oob)
        dev.read_page(ppn)
    dev.erase_block(9)
    t = dev.timings
    expect = (dev.reads * t.read_us + dev.programs * t.program_us
              + dev.erases * t.erase_us)
    assert dev.clock_us == pytest.approx(expect)


def test_peek_does_not_tick_clock(dev):
    before = dev.clock_us
    dev.peek(0)
    assert dev.clock_us == before


def test_snapshot_roundtrip(tmp_path, dev):
    rng = random.Random(11)
    for ppn in range(0, 40, 3):
        dev.program_page(ppn, rng.randbytes(dev.geometry.page_bytes),
                         rng.randbytes(dev.geometry.oob_bytes))
    dev.erase_block(5)
    snap = dev.snapshot()
    path = tmp_path / "dev.img"
    snap.save(path)
    back = Snapshot.load(path)
    assert back.geometry == snap.geometry
    assert back.data == snap.data
    assert back.oob == snap.oob
    assert back.erase_counts == snap.erase_counts
    assert back.programmed == snap.programmed


def test_snapshot_restore_equivalence(dev):
    rng = random.Random(13)
    for ppn in range(32):
        dev.program_page(ppn, rng.randbytes(dev.geometry.page_bytes),
                         rng.randbytes(dev.geometry.oob_bytes))
    clone = FlashDevice.restore(dev.snapshot())
    for ppn in range(32):
        assert clone.peek(ppn) == dev.peek(ppn)
        assert clone.program_count(ppn) == dev.program_count(ppn)
    # restored device carries over the per-page program counts
    clone.program_page(0, *_page(dev, 0xFF))  # second program: allowed
    with pytest.raises(DoubleProgramLimit):
        clone.program_page(0, *_page(dev, 0xFF))


def test_snapshot_rejects_garbage():
    with pytest.raises(SnapshotFormatError):
        Snapshot.from_bytes(b"not a snapshot")
    dev = FlashDevice(DESK_GEOMETRY)
    blob = dev.snapshot().to_bytes()
    with pytest.raises(SnapshotFormatError):
        Snapshot.from_bytes(blob[:-1])


@pytest.mark.parametrize("header", [
    bytes(10),                                   # shorter than the header
    struct.pack("<6I", 0, 1, 64, 32, 2048, 64),  # a zero geometry count
    struct.pack("<6I", 1, 1, 64, 32, 256, 64),   # pages under 512 bytes
], ids=["short", "zero-count", "small-page"])
def test_snapshot_rejects_a_malformed_header(header):
    with pytest.raises(SnapshotFormatError, match="bad snapshot header"):
        Snapshot.from_bytes(SNAPSHOT_MAGIC + header)


# -- parsed images view the blob ------------------------------------------


def _image(geometry, seed, pages=64):
    """A snapshot blob with `pages` random pages programmed once, with
    random data and OOB."""
    dev = FlashDevice(geometry)
    rng = random.Random(seed)
    for ppn in rng.sample(range(geometry.total_pages), pages):
        dev.program_page(ppn, rng.randbytes(geometry.page_bytes),
                         rng.randbytes(geometry.oob_bytes))
    return dev.snapshot().to_bytes()


EXAMINED = DeviceGeometry(1, 1, 192, 32, 2048, 64)   # 6,144 pages


def _peak_bytes(make):
    """make() and the peak memory traced while it ran."""
    tracemalloc.start()
    try:
        made = make()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return made, peak


def test_parsing_an_image_does_not_copy_its_pages():
    g = EXAMINED
    blob = _image(g, seed=3)
    snap, peak = _peak_bytes(lambda: Snapshot.from_bytes(blob))
    assert peak < g.total_pages * g.page_bytes / 4
    assert snap.to_bytes() == blob


def test_device_restore_and_snapshot_copy_no_page():
    g = EXAMINED
    blob = _image(g, seed=7)
    snap = Snapshot.from_bytes(blob)
    budget = g.total_pages * g.page_bytes / 4
    dev, peak = _peak_bytes(lambda: FlashDevice.restore(snap))
    assert peak < budget
    again, peak = _peak_bytes(dev.snapshot)
    assert peak < budget
    assert again.to_bytes() == blob
    blank, peak = _peak_bytes(lambda: FlashDevice(g))
    assert peak < budget
    assert blank.peek(g.total_pages - 1) == (bytes(g.page_bytes),
                                             bytes(g.oob_bytes))


def test_parsed_pages_are_read_only():
    snap = Snapshot.from_bytes(_image(DESK_GEOMETRY, seed=4))
    with pytest.raises(TypeError):
        snap.data[0][0] = 0xFF


def test_restored_device_leaves_the_parsed_image_alone():
    g = DESK_GEOMETRY
    blob = _image(g, seed=5)
    snap = Snapshot.from_bytes(blob)
    dev = FlashDevice.restore(snap)
    taken = dev.snapshot()
    once = next(p for p in range(g.total_pages) if dev.program_count(p) == 1)
    empty = next(p for p in range(g.total_pages) if dev.program_count(p) == 0)
    dev.program_page(once, bytes([0xFF]) * g.page_bytes,
                     bytes([0xFF]) * g.oob_bytes)
    dev.program_page(empty, bytes([0x5A]) * g.page_bytes,
                     bytes([0x5A]) * g.oob_bytes)
    dev.erase_block(once // g.pages_per_block)
    assert snap.to_bytes() == blob
    assert taken.to_bytes() == blob


def test_restored_page_still_refuses_to_clear_a_bit():
    g = DESK_GEOMETRY
    dev = FlashDevice(g)
    dev.program_page(7, bytes([0xF0]) * g.page_bytes, bytes(g.oob_bytes))
    clone = FlashDevice.restore(Snapshot.from_bytes(dev.snapshot().to_bytes()))
    with pytest.raises(WomInvariantViolation, match="page 7 data"):
        clone.program_page(7, bytes([0x0F]) * g.page_bytes,
                           bytes(g.oob_bytes))
    assert clone.program_count(7) == 1
    clone.program_page(7, bytes([0xFF]) * g.page_bytes, bytes(g.oob_bytes))
    assert clone.peek(7)[0] == bytes([0xFF]) * g.page_bytes


@pytest.mark.parametrize("what", ["data", "oob"])
def test_restored_unprogrammed_slot_is_still_checked(what):
    """A program skips the bit-clearing check only on the device's own
    blank objects: a restored slot with set bits and a program count of
    0 (a crafted image) is still checked."""
    g = DESK_GEOMETRY
    snap = FlashDevice(g).snapshot()
    size = g.page_bytes if what == "data" else g.oob_bytes
    getattr(snap, what)[9] = bytes([0xF0]) * size
    clone = FlashDevice.restore(snap)
    assert clone.program_count(9) == 0
    page = {"data": bytes(g.page_bytes), "oob": bytes(g.oob_bytes)}
    page[what] = bytes([0x0F]) * size
    with pytest.raises(WomInvariantViolation, match=f"page 9 {what}"):
        clone.program_page(9, page["data"], page["oob"])
    assert clone.program_count(9) == 0


def test_parsed_image_outlives_changes_to_a_bytearray_blob():
    blob = _image(DESK_GEOMETRY, seed=6)
    buf = bytearray(blob)
    snap = Snapshot.from_bytes(buf)
    buf[:] = bytes(len(buf))
    assert snap.to_bytes() == blob
    assert Snapshot.from_bytes(snap.to_bytes()).to_bytes() == blob


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2047), st.binary(min_size=4, max_size=4))
def test_single_program_reads_back(ppn, prefix):
    dev = FlashDevice(DESK_GEOMETRY)
    data = prefix + bytes(dev.geometry.page_bytes - 4)
    dev.program_page(ppn, data, bytes(dev.geometry.oob_bytes))
    got, _ = dev.read_page(ppn)
    assert got == data
