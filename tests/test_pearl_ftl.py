"""Deniable FTL: mapping, allocation discipline, recovery, modes."""

import math
import random
import struct
from collections import Counter

import pytest

import pearl.ftl
from conftest import (assert_cache_fresh, assert_reads_back, cold_reader,
                      cold_walk, count_relocated_translation_pages, gc_burst,
                      mixed_workload, set_header_pages)
from pearl.bench import gen_synthetic, init_device
from pearl.cmt import UNMAPPED
from pearl.config import RESERVED_BLOCKS, PearlConfig, desk_config
from pearl.errors import (DeviceFull, HeaderError, ModeError, NoPublicCover,
                          PearlError, UnmappedLpn)
from pearl.flash import DESK_GEOMETRY, DeviceGeometry, FlashDevice
from pearl.ftl import PearlFtl
from pearl.mutants import BrokenAllocatorFtl
from pearl.oob import observable_stage, parse_oob, trans_field
from pearl.states import PageState, TransitionMonitor, TransitionViolation


# -- configuration bounds ---------------------------------------------


def test_capacity_fractions_enforced():
    with pytest.raises(ValueError):
        desk_config(public_fraction=0.61)
    with pytest.raises(ValueError):
        desk_config(hidden_fraction=0.21)
    cfg = desk_config()
    assert cfg.public_fraction == pytest.approx(36 / 64)
    assert cfg.hidden_fraction == pytest.approx(12 / 64)
    assert cfg.public_pages == 1152
    assert cfg.hidden_pages == 384


@pytest.mark.parametrize("fraction", [0, -0.1, -1, 1e-4, 1 / 4096],
                         ids=["zero", "negative", "minus-one", "tiny",
                              "half-a-page"])
@pytest.mark.parametrize("volume", ["public", "hidden"])
def test_a_fraction_that_gives_no_page_is_rejected(volume, fraction):
    """Such a volume would format, but its header would not mount; the
    error names the missing page, not the upper bound."""
    with pytest.raises(ValueError, match="at least one page") as err:
        desk_config(**{f"{volume}_fraction": fraction})
    assert str(err.value).startswith(f"{volume} capacity fraction")
    assert "bound" not in str(err.value)


@pytest.mark.parametrize("fraction", [math.inf, -math.inf, math.nan],
                         ids=["inf", "minus-inf", "nan"])
@pytest.mark.parametrize("volume", ["public", "hidden"])
def test_a_non_finite_fraction_is_rejected(volume, fraction):
    """Rejected before any page count is computed from it, by a
    ValueError that names the volume."""
    with pytest.raises(ValueError, match="not a finite number") as err:
        desk_config(**{f"{volume}_fraction": fraction})
    assert str(err.value).startswith(f"{volume} capacity fraction")


def _smallest_fraction(total_pages):
    """The smallest fraction a PearlConfig accepts: the least float whose
    share of total_pages truncates to one page."""
    f = 1 / total_pages
    while int(f * total_pages) < 1:
        f = math.nextafter(f, math.inf)
    while int(math.nextafter(f, 0) * total_pages) >= 1:
        f = math.nextafter(f, 0)
    return f


@pytest.mark.parametrize("geometry", [DESK_GEOMETRY,
                                      DeviceGeometry(1, 1, 7, 16, 2048, 64)],
                         ids=["desk", "112-pages"])
def test_one_page_volumes_round_trip_format_and_mount(geometry):
    """At the smallest accepted fractions each volume is one page, and
    the geometry and both pages survive format, unmount and mount."""
    total = geometry.total_pages
    f = _smallest_fraction(total)
    with pytest.raises(ValueError, match="at least one page"):
        PearlConfig(geometry=geometry, public_fraction=math.nextafter(f, 0))
    cfg = PearlConfig(geometry=geometry, public_fraction=f,
                      hidden_fraction=f)
    assert (cfg.public_pages, cfg.hidden_pages) == (1, 1)
    device = FlashDevice(geometry)
    ftl = PearlFtl.format(device, cfg, "public-pw", "hidden-pw")
    lay, rng = ftl.layout, random.Random(7)
    pub = rng.randbytes(lay.public_payload_bytes)
    hid = rng.randbytes(lay.hidden_payload_bytes)
    ftl.public_write(0, pub)
    ftl.hidden_write(0, hid)     # cloaked by the one public page
    ftl.prepare_unmount()
    again = PearlFtl.mount(device, "public-pw", "hidden-pw")
    assert (again.config.public_pages, again.config.hidden_pages) == (1, 1)
    assert again.volumes() == ftl.volumes()
    assert again.public_read(0) == pub
    assert again.hidden_read(0) == hid
    assert again.check_invariants() == []


# -- format / mount ---------------------------------------------------


def test_format_requires_blank_device(ftl, device, desk_cfg):
    with pytest.raises(HeaderError):
        PearlFtl.format(device, desk_cfg, "public-pw")


def test_mount_reads_header_back(ftl, device, rng):
    data = rng.randbytes(ftl.layout.public_payload_bytes)
    ftl.public_write(3, data)
    ftl.prepare_unmount()
    again = PearlFtl.mount(device, "public-pw", "hidden-pw", cmt_capacity=64)
    assert again.config.code.name == "wom3x5"
    assert again.public_read(3) == data


def test_mount_blank_device_fails(desk_cfg):
    with pytest.raises(HeaderError):
        PearlFtl.mount(FlashDevice(desk_cfg.geometry), "public-pw")


def test_mount_of_a_device_never_unmounted_starts_empty(ftl, device, rng):
    """A formatted device that was never unmounted has no persisted
    state: every lpn is unmapped, and the mounted FTL works."""
    again = PearlFtl.mount(device, "public-pw", "hidden-pw", cmt_capacity=64)
    for read in (again.public_read, again.hidden_read):
        with pytest.raises(UnmappedLpn):
            read(0)
    data = rng.randbytes(again.layout.public_payload_bytes)
    again.public_write(0, data)
    assert again.public_read(0) == data
    assert again.check_invariants() == []


def test_a_written_device_never_unmounted_mounts_writable(ftl, rng):
    """Written but never unmounted, a device has no state page, so every
    lpn is unmapped after mount.  Recovery still scans the device: no
    block that holds a programmed page is free, so the mounted FTL
    writes and reads back both volumes, and an unmount right after
    persists a state page."""
    lay = ftl.layout
    for lpn in range(20):
        ftl.public_write(lpn, rng.randbytes(lay.public_payload_bytes))
    again = PearlFtl.mount(FlashDevice.restore(ftl.snapshot()), "public-pw",
                           "hidden-pw", cmt_capacity=64)
    assert again.check_invariants() == []
    shadow = {}
    for volume, n in (("public", 40), ("hidden", 5)):
        for lpn in range(n):
            shadow[volume, lpn] = rng.randbytes(again.volumes()[volume][1])
            again.submit(volume, lpn, "write", shadow[volume, lpn])
    assert again.check_invariants() == []
    assert_reads_back(again, shadow)
    for volume, lpn in (("public", 40), ("public", 100), ("hidden", 5)):
        with pytest.raises(UnmappedLpn):
            again.submit(volume, lpn, "read")
    programs = again.device.programs
    again.prepare_unmount()
    assert again.device.programs > programs
    assert_reads_back(PearlFtl.mount(FlashDevice.restore(again.snapshot()),
                                     "public-pw", "hidden-pw"), shadow)


@pytest.mark.parametrize("geometry, sizes", [
    (DESK_GEOMETRY, {"public": 0}),
    (DESK_GEOMETRY, {"public": DESK_GEOMETRY.total_pages + 1}),
    (DESK_GEOMETRY, {"hidden": 10**6}),
    # 115 / 112 * 112 truncates to 114: the search for the share that
    # truncates back to 115 pages must not step down towards 1.
    (DeviceGeometry(1, 1, 7, 16, 2048, 64), {"public": 115}),
], ids=["public-zero", "public-beyond-device", "hidden-huge",
        "public-share-above-one"])
def test_mount_rejects_out_of_bounds_volume_sizes(geometry, sizes):
    """A header whose volume sizes break the capacity bounds is corrupt."""
    cfg = PearlConfig(geometry=geometry)
    device = FlashDevice(geometry)
    PearlFtl.format(device, cfg, "public-pw")
    set_header_pages(device, **sizes)
    with pytest.raises(HeaderError, match="volume sizes"):
        PearlFtl.mount(device, "public-pw", "hidden-pw")


def test_volume_sizes_survive_format_and_mount(rng):
    cfg = PearlConfig(geometry=DeviceGeometry(1, 1, 7, 16, 2048, 64),
                      public_fraction=0.55)
    device = FlashDevice(cfg.geometry)
    ftl = PearlFtl.format(device, cfg, "public-pw")
    last = cfg.public_pages - 1
    assert last == 60
    data = rng.randbytes(ftl.layout.public_payload_bytes)
    ftl.public_write(last, data)
    ftl.prepare_unmount()
    again = PearlFtl.mount(device, "public-pw")
    assert again.config.public_pages == cfg.public_pages
    assert again.public_read(last) == data


class _HeaderPage:
    """Just enough of a device for PearlFtl._read_header."""

    def __init__(self, geometry, page):
        self.geometry, self.page = geometry, page

    def peek(self, ppn):
        return self.page, b""


def test_volume_sizes_round_trip_over_geometries():
    for blocks in range(2, 80):
        for ppb in (8, 16, 32):
            geometry = DeviceGeometry(1, 1, blocks, ppb, 2048, 64)
            for pct in range(1, 61):
                try:
                    cfg = PearlConfig(geometry=geometry,
                                      public_fraction=pct / 100,
                                      hidden_fraction=min(pct, 20) / 100)
                except ValueError:
                    continue    # a volume of no page
                header = PearlFtl._pack_header(cfg, bytes(16))
                got, _ = PearlFtl._read_header(
                    _HeaderPage(geometry, header), cfg.cmt_capacity, 0)
                assert (got.public_pages, got.hidden_pages) == (
                    cfg.public_pages, cfg.hidden_pages), (blocks, ppb, pct)


@pytest.mark.parametrize("field, value, message", [
    (5, DESK_GEOMETRY.blocks_per_plane + 1, "geometry does not match"),
    (9, b"wom9x9", "unknown code 'wom9x9'"),
], ids=["geometry", "code"])
def test_mount_rejects_a_header_of_another_device(desk_cfg, field, value,
                                                  message):
    fmt = pearl.ftl._HEADER_FMT
    fields = list(struct.unpack_from(
        fmt, PearlFtl._pack_header(desk_cfg, bytes(16))))
    fields[field] = value
    with pytest.raises(HeaderError, match=message):
        PearlFtl._read_header(_HeaderPage(DESK_GEOMETRY, struct.pack(
            fmt, *fields)), desk_cfg.cmt_capacity, 0)


# -- basic volume operations ------------------------------------------


def test_public_roundtrip_and_trim(ftl, rng):
    lay = ftl.layout
    data = rng.randbytes(lay.public_payload_bytes)
    ftl.public_write(0, data)
    assert ftl.public_read(0) == data
    ftl.trim(0)
    with pytest.raises(UnmappedLpn):
        ftl.public_read(0)


def test_trim_rejects_a_trimmed_lpn_and_an_unknown_volume(ftl, rng):
    ftl.public_write(0, rng.randbytes(ftl.layout.public_payload_bytes))
    ftl.trim(0)
    with pytest.raises(UnmappedLpn, match="already trimmed"):
        ftl.trim(0)
    with pytest.raises(PearlError, match="unknown volume 'bogus'"):
        ftl.trim(1, volume="bogus")
    assert ftl.check_invariants() == []


def test_translation_map_leaves_out_a_trimmed_lpn(ftl, rng):
    """A trimmed lpn stays mapped to its TI1 page until the TIQ drains,
    but the volume's map no longer names it."""
    for lpn in range(4):
        ftl.public_write(lpn, rng.randbytes(ftl.layout.public_payload_bytes))
    ftl.trim(1)
    assert list(ftl.tiq.values()) == [1]
    assert sorted(ftl.translation_map("public")) == [0, 2, 3]


def test_hidden_roundtrip(ftl, rng):
    lay = ftl.layout
    # hidden writes need public data to cloak with
    for lpn in range(8):
        ftl.public_write(lpn, rng.randbytes(lay.public_payload_bytes))
    secret = rng.randbytes(lay.hidden_payload_bytes)
    ftl.hidden_write(5, secret)
    assert ftl.hidden_read(5) == secret
    ftl.trim(5, volume="hidden")
    with pytest.raises(UnmappedLpn):
        ftl.hidden_read(5)


def test_bounds_checked(ftl, rng):
    lay = ftl.layout
    with pytest.raises(PearlError):
        ftl.public_write(ftl.config.public_pages,
                         rng.randbytes(lay.public_payload_bytes))
    with pytest.raises(PearlError):
        ftl.public_write(0, b"short")


def test_public_only_mode_gates_hidden(device, desk_cfg, rng):
    ftl = PearlFtl.format(device, desk_cfg, "public-pw")  # no hidden password
    lay = ftl.layout
    ftl.public_write(0, rng.randbytes(lay.public_payload_bytes))
    with pytest.raises(ModeError):
        ftl.hidden_write(0, rng.randbytes(lay.hidden_payload_bytes))
    with pytest.raises(ModeError):
        ftl.hidden_read(0)
    assert list(ftl.volumes()) == ["public"]
    with pytest.raises(ModeError):
        ftl.submit("hidden", 0, "read")


# -- the no-password-oracle property ----------------------------------


def test_wrong_hidden_password_reads_garbage_never_errors(device, desk_cfg,
                                                          rng):
    ftl = PearlFtl.format(device, desk_cfg, "public-pw", "hidden-pw")
    lay = ftl.layout
    for lpn in range(12):
        ftl.public_write(lpn, rng.randbytes(lay.public_payload_bytes))
    secret = rng.randbytes(lay.hidden_payload_bytes)
    ftl.hidden_write(2, secret)
    ftl.prepare_unmount()

    wrong = PearlFtl.mount(device, "public-pw", "not-the-password",
                           cmt_capacity=64)
    for lpn in range(wrong.config.hidden_pages // 8):
        out = wrong.hidden_read(lpn)  # must not raise
        assert len(out) == lay.hidden_payload_bytes
        assert out != secret


# -- allocation discipline --------------------------------------------


def test_update_casualty_is_consumed_before_any_empty_page(ftl, rng):
    """The page invalidated by a public update takes the next write as its
    second write; no fresh page is programmed in between."""
    lay = ftl.layout
    ftl.public_write(0, rng.randbytes(lay.public_payload_bytes))
    old_ppn = ftl._translate("public", 0)
    ftl.public_write(0, rng.randbytes(lay.public_payload_bytes))
    assert ftl.current_ui1 == old_ppn
    assert ftl._state[old_ppn] == PageState.I1
    data = rng.randbytes(lay.public_payload_bytes)
    ftl.public_write(7, data)
    assert ftl._translate("public", 7) == old_ppn
    assert ftl._state[old_ppn] == PageState.V2
    assert ftl.public_read(7) == data


def test_trimmed_page_rewrite_lands_on_its_own_page(ftl, rng):
    lay = ftl.layout
    ftl.public_write(1, rng.randbytes(lay.public_payload_bytes))
    ppn = ftl._translate("public", 1)
    ftl.trim(1)
    assert ftl._state[ppn] == PageState.I1
    assert ppn in ftl.tiq
    data = rng.randbytes(lay.public_payload_bytes)
    ftl.public_write(1, data)
    assert ftl._translate("public", 1) == ppn
    assert ftl._state[ppn] == PageState.V2
    assert ftl.public_read(1) == data
    assert ppn not in ftl.tiq


def test_unmount_drains_trim_queue(ftl, rng):
    lay = ftl.layout
    for lpn in range(10):
        ftl.public_write(lpn, rng.randbytes(lay.public_payload_bytes))
    for lpn in range(4):
        ftl.trim(lpn)
    trimmed = list(ftl.tiq)
    assert len(trimmed) == 4
    ftl.prepare_unmount()
    assert not ftl.tiq
    # Each trimmed page took its second write (and may since be invalid).
    assert all(ftl.device.program_count(p) == 2 for p in trimmed)


def test_unmount_is_idempotent(ftl, rng):
    lay = ftl.layout
    for lpn in range(6):
        ftl.public_write(lpn, rng.randbytes(lay.public_payload_bytes))
    ftl.prepare_unmount()
    programs = ftl.device.programs
    ftl.prepare_unmount()
    assert ftl.device.programs == programs


def test_hidden_write_waits_for_update_casualty(ftl, rng):
    """Hidden writes may not leave an unconsumed update casualty behind."""
    lay = ftl.layout
    for lpn in range(6):
        ftl.public_write(lpn, rng.randbytes(lay.public_payload_bytes))
    ftl.public_write(0, rng.randbytes(lay.public_payload_bytes))
    assert ftl.current_ui1 is not None
    ftl.hidden_write(0, rng.randbytes(lay.hidden_payload_bytes))
    assert ftl.current_ui1 is None


def test_ui1_slot_refilled_by_gc_during_allocation(ftl, rng):
    """A write whose empty-page allocation starts a collection that refills
    the UI1 slot (write 1,238 of this sequence) takes that slot instead."""
    init_device(ftl, fill_fraction=0.5, seed=0)
    payload = ftl.layout.public_payload_bytes
    shadow = {}
    for rec in gen_synthetic(1300, payload, 0.0, 0.0, "public", 11,
                             ftl.config.public_pages, payload):
        lpn = rec.lba // payload
        shadow[lpn] = rng.randbytes(payload)
        ftl.public_write(lpn, shadow[lpn])
    assert ftl.check_invariants() == []
    ftl.prepare_unmount()
    fresh = PearlFtl.mount(FlashDevice.restore(ftl.snapshot()), "public-pw",
                           "hidden-pw", cmt_capacity=64)
    for f in (ftl, fresh):
        for lpn, data in shadow.items():
            assert f.public_read(lpn) == data


# -- interleaved workload invariants ----------------------------------


def test_mixed_workload_keeps_invariants(desk_cfg):
    ftl, _, shadow = mixed_workload(PearlFtl, desk_cfg, seed=21, nops=2000)
    assert ftl.check_invariants() == []
    assert ftl.gc_runs >= 1
    for (vol, lpn), data in shadow.items():
        got = ftl.public_read(lpn) if vol == "public" else ftl.hidden_read(lpn)
        assert got == data


def test_monitor_allows_exactly_the_graph_edges():
    """Of the 25 pairs of page states, the 8 edges of the transition
    graph and the 5 self-edges pass; every other pair raises a message
    that names both states."""
    edges = {("Empty", "V1"), ("Empty", "V2"), ("V1", "I1"), ("I1", "V2"),
             ("I1", "Empty"), ("V2", "I2"), ("I2", "Empty"), ("V1", "Empty")}
    monitor, refused = TransitionMonitor(), 0
    for old in PageState:
        for new in PageState:
            if old is new or (old.value, new.value) in edges:
                monitor.record(3, old, new, "probe")
                continue
            refused += 1
            with pytest.raises(TransitionViolation, match=(
                    rf"^page 3: {old.value} -> {new.value} \(probe\) is not "
                    "an allowed transition$")):
                monitor.record(3, old, new, "probe")
    assert refused == 25 - 8 - 5


def test_a_collection_records_each_programmed_victim_page_once(
        monkeypatch, desk_cfg):
    """The erase pass gives every programmed page of the victim exactly
    one state record, to Empty, and no other page one."""
    ftl, _, _ = mixed_workload(PearlFtl, desk_cfg, seed=5, nops=400)
    erased, record = Counter(), ftl.monitor.record

    def spy(ppn, old, new, reason):
        if new is PageState.EMPTY:
            erased[ppn, reason] += 1
        return record(ppn, old, new, reason)
    monkeypatch.setattr(ftl.monitor, "record", spy)
    ppb = ftl._ppb
    for _ in range(6):
        victim = ftl._select_victim()
        pages = range(victim * ppb, (victim + 1) * ppb)
        programmed = [p for p in pages if ftl._state[p] is not PageState.EMPTY]
        erased.clear()
        assert ftl.gc_run() == len(programmed)
        assert erased == Counter((p, "erase") for p in programmed)
        assert all(ftl._state[p] is PageState.EMPTY for p in pages)
    assert ftl.check_invariants() == []


def test_a_valid_page_left_in_a_victim_fails_at_erase(monkeypatch, desk_cfg):
    """A V2 page still valid when its block is erased (planted after each
    relocation of a survivor) breaks the transition graph."""
    ftl, _, _ = mixed_workload(PearlFtl, desk_cfg, seed=5, nops=400)
    victim = ftl._select_victim()
    planted = next(p for p in range(victim * ftl._ppb, (victim + 1) * ftl._ppb)
                   if ftl._state[p] is PageState.I2)

    def planting(relocate):
        def plant(*args, **kwargs):
            relocate(*args, **kwargs)
            ftl._state[planted] = PageState.V2
        return plant
    for name in ("_program_public", "_program_full"):
        monkeypatch.setattr(ftl, name, planting(getattr(ftl, name)))
    with pytest.raises(TransitionViolation,
                       match=rf"page {planted}: V2 -> Empty \(erase\)"):
        ftl.gc_run()


class _ReverseMapChecked(PearlFtl):
    """Asserts after every request that the reverse map holds an entry
    for exactly the valid (V1/V2) pages."""

    def _check_reverse_map(self):
        valid = {p for p, s in enumerate(self._state)
                 if s in (PageState.V1, PageState.V2)}
        assert set(self._owner) == valid


for _name in ("public_write", "public_read", "hidden_write", "trim",
              "gc_run", "prepare_unmount"):
    def _checked(self, *args, _request=getattr(PearlFtl, _name)):
        out = _request(self, *args)
        self._check_reverse_map()
        return out
    setattr(_ReverseMapChecked, _name, _checked)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reverse_map_names_exactly_the_valid_pages(seed):
    """Relocation casualties queued as TI1 pages included: each leaves
    the reverse map with its change of state."""
    cfg = desk_config(cmt_capacity=64, seed=0)
    ftl, _, _ = mixed_workload(_ReverseMapChecked, cfg, seed=seed,
                               nops=1500)
    assert ftl.gc_runs > 0


_ORPHAN = "valid {volume} page {ppn} is not where its lpn maps"
_ROLE = "a TIQ or UI1 page is not an I1 page, or the UI1 page is on the TIQ"


@pytest.mark.parametrize("fault, problems", [
    # The invalid page also counts, and reads, as a valid page its lpn
    # does not map to.
    ("reverse map", ["valid public count wrong for block {blk}", _ORPHAN,
                     "reverse map does not match the set of valid pages"]),
    ("trimmed", ["trimmed lpns do not match the TIQ"]),
    ("orphan", [_ORPHAN]),
    ("hidden count", ["valid hidden count wrong for block {blk}"]),
    ("hidden orphan", [_ORPHAN]),
    ("cloak source", ["cloak-source index does not match the page states"]),
    ("valid rank", ["blocks are ranked by the wrong valid count"]),
    ("valid on tiq", [_ROLE]),
    ("ui1 on tiq", [_ROLE]),
], ids=["reverse-map", "trimmed", "orphan", "hidden-count", "hidden-orphan",
        "cloak-source", "valid-rank", "valid-on-tiq", "ui1-on-tiq"])
def test_check_invariants_reports_planted_fault(ftl, rng, fault, problems):
    lay = ftl.layout
    for lpn in range(4):
        ftl.public_write(lpn, rng.randbytes(lay.public_payload_bytes))
    ftl.hidden_write(0, rng.randbytes(lay.hidden_payload_bytes))
    ftl.trim(0)
    ftl.public_write(1, rng.randbytes(lay.public_payload_bytes))
    assert ftl.current_ui1 is not None and ftl.check_invariants() == []
    ppn, volume = ftl.current_ui1, "public"
    if fault == "reverse map":
        ftl._owner[ppn] = 1                 # an invalid page keeps its lpn
    elif fault == "trimmed":
        ftl._trimmed.add(3)                 # a mapped lpn reads as trimmed
    elif fault == "orphan":
        # lpn 2 maps elsewhere while its page stays valid.
        ppn = ftl._translate("public", 2)
        ftl.cmt.put("public", 2, ftl._translate("public", 3), dirty=True)
    elif fault == "cloak source":
        # The UI1 page is indexed as a first-stage cloak source.
        ftl._sources[0][ppn // ftl._ppb] |= 1 << ppn % ftl._ppb
    elif fault == "valid rank":
        # The UI1 page's block leaves its valid-count bucket.
        blk = ppn // ftl._ppb
        ftl._by_valid[ftl._valid[blk]] ^= 1 << blk
    elif fault == "valid on tiq":
        ftl.tiq[ftl._translate("public", 2)] = None
    elif fault == "ui1 on tiq":
        ftl.tiq[ppn] = None
    else:
        ppn, volume = ftl._translate("hidden", 0), "hidden"
        if fault == "hidden count":
            ftl._live_count["hidden"][ppn // ftl._ppb] += 1
        else:
            # Hidden lpn 0 is unmapped while its page stays live.
            ftl.cmt.put("hidden", 0, UNMAPPED, dirty=True)
    assert ftl.check_invariants() == [
        p.format(volume=volume, ppn=ppn, blk=ppn // ftl._ppb)
        for p in problems]


def test_collection_inside_allocation_strands_no_block(ftl):
    """Relocations of a collection that runs inside allocation may open
    a block; allocation then writes to it rather than leaving it behind
    with unwritten pages, which check_invariants reports.  A collection
    may also move a page a write has already looked up; every lpn still
    reads back its last write."""
    _, _, shadow = gc_burst(ftl, nops=2000, check_every=25)
    assert ftl.gc_runs > 50
    assert_reads_back(ftl, shadow)


def test_amplification_ratios_exact(desk_cfg):
    from fractions import Fraction
    ftl, _, _ = mixed_workload(PearlFtl, desk_cfg, seed=22, nops=800)
    assert ftl.amplification("public_user") == Fraction(5, 3)
    assert ftl.amplification("hidden_user") == Fraction(5, 1)


# -- the cloak-source pick ----------------------------------------------


def _sort_and_scan_pick(ftl):
    """The cloak pick as it was before the cloak-source index: sort the
    blocks by valid count, then scan their page states.  The reference
    the indexed pick must equal."""
    blocks = sorted(
        (blk for blk in ftl.config.managed_blocks
         if ftl._valid[blk] > 0 and blk != ftl._gc_victim
         and blk not in ftl._free),
        key=lambda b: (ftl._valid[b], b))

    def candidates(blk, state):
        lo = blk * ftl._ppb
        return [p for p in range(lo, lo + ftl._ppb)
                if ftl._state[p] == state]

    hidden_v2 = None
    for blk in blocks:
        for p in candidates(blk, PageState.V2):
            if p not in ftl._live["hidden"]:
                return p
            if hidden_v2 is None:
                hidden_v2 = p
    for blk in blocks:
        if not ftl._open_with_room(blk):
            for p in candidates(blk, PageState.V1):
                return p
    if hidden_v2 is not None:
        return hidden_v2
    for blk in blocks:
        if ftl._open_with_room(blk):
            for p in candidates(blk, PageState.V1):
                return p
    raise NoPublicCover("no valid public page available as cloak")


def _pick_checked(ftl_cls, tiers):
    """ftl_cls whose every cloak pick must equal _sort_and_scan_pick's,
    counting picks in tiers by the preference that made them."""

    class PickChecked(ftl_cls):
        def _pick_public_source(self):
            try:
                want = _sort_and_scan_pick(self)
            except NoPublicCover:
                with pytest.raises(NoPublicCover):
                    super()._pick_public_source()
                tiers["none"] += 1
                raise
            got = super()._pick_public_source()
            assert got == want
            if self._state[got] == PageState.V1:
                open_block = self._open_with_room(self._block_of(got))
                tiers["open v1" if open_block else "full v1"] += 1
            else:
                tiers["hidden v2" if got in self._live["hidden"]
                      else "v2"] += 1
            return got

    return PickChecked


@pytest.mark.parametrize("blocks", [64, 192], ids=["desk", "3x-desk"])
@pytest.mark.parametrize("ftl_cls", [PearlFtl, BrokenAllocatorFtl])
def test_indexed_pick_equals_the_sort_and_scan(ftl_cls, blocks):
    """Over mixed workloads and collection bursts at seeds 0-3, then
    after recover_metadata and after a both-password mount, every cloak
    pick is the page the sort-and-scan pick returns; every preference
    is exercised."""
    g = DESK_GEOMETRY
    geometry = DeviceGeometry(1, 1, blocks, g.pages_per_block, g.page_bytes,
                              g.oob_bytes)
    tiers = Counter()
    checked = _pick_checked(ftl_cls, tiers)
    for seed in range(4):
        cfg = PearlConfig(geometry=geometry, cmt_capacity=64, seed=seed)
        ftl, _, shadow = mixed_workload(checked, cfg, seed=seed, nops=600,
                                        snap_every=300)
        rng = random.Random(seed)
        lay = cfg.layout
        ftl.recover_metadata()
        mounted = checked.mount(FlashDevice.restore(ftl.snapshot()),
                                "public-pw", "hidden-pw", cmt_capacity=64)
        for again in (ftl, mounted):
            for lpn in range(40):
                again.hidden_write(lpn, rng.randbytes(
                    lay.hidden_payload_bytes))
            assert again.check_invariants() == []
        burst = checked.format(FlashDevice(geometry), cfg, "public-pw",
                               "hidden-pw")
        gc_burst(burst, nops=300, seed=seed)
        assert burst.gc_runs > 0 and burst.check_invariants() == []
    blank = checked.format(FlashDevice(geometry), cfg, "public-pw",
                           "hidden-pw")
    with pytest.raises(NoPublicCover):
        blank.hidden_write(0, bytes(lay.hidden_payload_bytes))
    assert set(tiers) == {"v2", "full v1", "hidden v2", "open v1", "none"}, \
        tiers


# -- IV tracking --------------------------------------------------------


def test_iv_tracking_holds_over_mixed_workload(desk_cfg):
    ftl, snaps, _ = mixed_workload(PearlFtl, desk_cfg, seed=25, nops=400,
                                   snap_every=100, track_ivs=True)
    assert len(snaps) == 5
    assert ftl.check_invariants() == []


def test_iv_tracking_catches_repeat_under_public_key(device, desk_cfg, rng):
    """A full write's IV also encrypts its public cloak, so a public write
    drawing that IV again reuses it under the public key."""
    ftl = PearlFtl.format(device, desk_cfg, "public-pw", "hidden-pw",
                          track_ivs=True)
    lay = ftl.layout
    for lpn in range(6):
        ftl.public_write(lpn, rng.randbytes(lay.public_payload_bytes))
    state = ftl.rng.getstate()
    ftl.hidden_write(0, rng.randbytes(lay.hidden_payload_bytes))
    ftl.rng.setstate(state)  # the next draw repeats the full write's IV
    with pytest.raises(PearlError, match="IV reuse"):
        ftl.public_write(6, rng.randbytes(lay.public_payload_bytes))


def test_batches_survive_collections_inside_allocation(desk_cfg):
    """A batch is its requests submitted in order: on GC-heavy traffic,
    where collections run inside allocation, reads and writes in batches
    give the same results, image, clock, ledger and collections as the
    same requests submitted one by one."""
    batched, twin = (PearlFtl.format(FlashDevice(desk_cfg.geometry),
                                     desk_cfg, "public-pw", "hidden-pw")
                     for _ in range(2))
    for f in (batched, twin):
        init_device(f, fill_fraction=0.5, seed=0)
    rng = random.Random(0)
    vols = batched.volumes()
    shadow = {}
    for _ in range(1500):
        batch, expected = [], []
        for _ in range(3):
            volume = "hidden" if rng.random() < 0.3 else "public"
            pages, payload = vols[volume]
            lpn = rng.randrange(pages)
            if (volume, lpn) in shadow and rng.random() < 0.3:
                batch.append((volume, lpn, "read", None))
                expected.append(shadow[volume, lpn])
            else:
                shadow[volume, lpn] = data = rng.randbytes(payload)
                batch.append((volume, lpn, "write", data))
                expected.append(None)
        assert batched.submit_batch(batch) == expected
        assert [twin.submit(*r) for r in batch] == expected
    assert (batched.snapshot().to_bytes(), batched.device.clock_us,
            batched.ledger, batched.gc_runs) == (
        twin.snapshot().to_bytes(), twin.device.clock_us, twin.ledger,
        twin.gc_runs)
    assert batched.check_invariants() == []
    assert_reads_back(batched, shadow)


def test_every_request_rejects_an_lpn_beyond_capacity(ftl, rng):
    """Reads, writes and trims of either volume reject an lpn outside it
    before they touch anything: nothing is programmed and the unmount
    image stays as it was."""
    lay = ftl.layout
    for lpn in range(6):
        ftl.public_write(lpn, rng.randbytes(lay.public_payload_bytes))
    ftl.hidden_write(0, rng.randbytes(lay.hidden_payload_bytes))
    ftl.prepare_unmount()
    programs, image = ftl.device.programs, ftl.snapshot().to_bytes()
    for volume, (pages, payload) in ftl.volumes().items():
        data = rng.randbytes(payload)
        for lpn in (-700, -1, pages, 10**6):
            for op in ("read", "write", "trim"):
                with pytest.raises(PearlError,
                                   match="beyond volume capacity"):
                    ftl.submit(volume, lpn, op,
                               data if op == "write" else None)
    ftl.prepare_unmount()
    assert ftl.device.programs == programs
    assert ftl.snapshot().to_bytes() == image
    assert ftl.check_invariants() == []


def test_submit_routes_volume_and_lpn(ftl, rng):
    lay = ftl.layout
    cfg = ftl.config
    assert ftl.volumes() == {
        "public": (cfg.public_pages, lay.public_payload_bytes),
        "hidden": (cfg.hidden_pages, lay.hidden_payload_bytes)}
    data = rng.randbytes(lay.public_payload_bytes)
    assert ftl.submit("public", 8, "write", data) is None
    assert ftl.public_read(8) == data
    for lpn in range(6):
        ftl.public_write(lpn, rng.randbytes(lay.public_payload_bytes))
    secret = rng.randbytes(lay.hidden_payload_bytes)
    ftl.submit("hidden", 1, "write", secret)
    assert ftl.hidden_read(1) == secret
    assert ftl.submit("hidden", 1, "read") == secret
    assert ftl.submit("public", 8, "read") == data
    ftl.submit("public", 8, "trim")
    with pytest.raises(UnmappedLpn):
        ftl.submit("public", 8, "read")


def test_submit_rejects_unknown_volume_and_op(ftl, rng):
    data = rng.randbytes(ftl.layout.public_payload_bytes)
    ftl.submit("public", 3, "write", data)
    programs = ftl.device.programs
    for volume, op in (("Public", "write"), ("data", "read"),
                       ("public", "erase"), ("hidden", "Write")):
        with pytest.raises(PearlError):
            ftl.submit(volume, 3, op, data)
    assert ftl.device.programs == programs
    assert ftl.public_read(3) == data
    with pytest.raises(UnmappedLpn):
        ftl.hidden_read(3)


# -- persistence and recovery -----------------------------------------


def _remount(ftl, public="public-pw", hidden="hidden-pw"):
    ftl.prepare_unmount()
    snap = ftl.snapshot()
    return PearlFtl.mount(FlashDevice.restore(snap), public, hidden,
                          cmt_capacity=64)


def test_recovery_roundtrip_after_workload(desk_cfg):
    ftl, _, shadow = mixed_workload(PearlFtl, desk_cfg, seed=23, nops=1500)
    again = _remount(ftl)
    assert again.check_invariants() == []
    assert again.translation_map("public") == ftl.translation_map("public")
    assert again.translation_map("hidden") == ftl.translation_map("hidden")
    for (vol, lpn), data in shadow.items():
        got = (again.public_read(lpn) if vol == "public"
               else again.hidden_read(lpn))
        assert got == data


def test_trims_are_durable_across_unmount(ftl, rng):
    lay = ftl.layout
    for lpn in range(10):
        ftl.public_write(lpn, rng.randbytes(lay.public_payload_bytes))
    ftl.trim(1)
    ftl.trim(2)
    again = _remount(ftl)  # prepare_unmount drains the queue first
    assert not again.tiq
    assert again.check_invariants() == []
    for lpn in (1, 2):
        with pytest.raises(UnmappedLpn):
            again.public_read(lpn)
    assert len(again.public_read(3)) == lay.public_payload_bytes


def test_public_only_persist_loses_hidden(desk_cfg, rng):
    device = FlashDevice(desk_cfg.geometry)
    ftl = PearlFtl.format(device, desk_cfg, "public-pw", "hidden-pw")
    lay = ftl.layout
    pub_data = {}
    for lpn in range(10):
        pub_data[lpn] = rng.randbytes(lay.public_payload_bytes)
        ftl.public_write(lpn, pub_data[lpn])
    secret = rng.randbytes(lay.hidden_payload_bytes)
    ftl.hidden_write(1, secret)
    ftl.prepare_unmount()

    # open without the hidden password; persist overwrites the hidden roots
    coerced = PearlFtl.mount(device, "public-pw", cmt_capacity=64)
    coerced.public_write(0, pub_data[0])
    coerced.prepare_unmount()

    back = PearlFtl.mount(device, "public-pw", "hidden-pw", cmt_capacity=64)
    for lpn, data in pub_data.items():
        assert back.public_read(lpn) == data
    # hidden state is gone; reads must still not raise
    try:
        out = back.hidden_read(1)
        assert out != secret
    except UnmappedLpn:
        pass


def test_state_persists_across_header_block_wraps(ftl, rng):
    """More unmounts than the header block has state pages: it is erased,
    rewritten and filled again.  A mount with both passwords and a
    public-only mount each read every lpn back."""
    lay = ftl.layout
    shadow = {}
    for _ in range(45):
        for _ in range(3):
            lpn = rng.randrange(40)
            shadow["public", lpn] = rng.randbytes(lay.public_payload_bytes)
            ftl.public_write(lpn, shadow["public", lpn])
        lpn = rng.randrange(10)
        shadow["hidden", lpn] = rng.randbytes(lay.hidden_payload_bytes)
        ftl.hidden_write(lpn, shadow["hidden", lpn])
        ftl.prepare_unmount()
    assert ftl.device.erase_count(0) >= 1
    snap = ftl.snapshot()
    for hidden in ("hidden-pw", None):
        again = PearlFtl.mount(FlashDevice.restore(snap), "public-pw", hidden,
                               cmt_capacity=64)
        assert again.check_invariants() == []
        for (vol, lpn), data in shadow.items():
            if vol == "public":
                assert again.public_read(lpn) == data
            elif hidden is not None:
                assert again.hidden_read(lpn) == data


def test_recovered_ftl_continues_operating(desk_cfg, rng):
    ftl, _, shadow = mixed_workload(PearlFtl, desk_cfg, seed=24, nops=600)
    again = _remount(ftl)
    lay = again.layout
    data = rng.randbytes(lay.public_payload_bytes)
    again.public_write(0, data)
    assert again.public_read(0) == data
    sec = rng.randbytes(lay.hidden_payload_bytes)
    again.hidden_write(0, sec)
    assert again.hidden_read(0) == sec
    assert again.check_invariants() == []


# -- page-payload cache ------------------------------------------------


def _format_small_cmt():
    cfg = desk_config(cmt_capacity=4, seed=0)
    return PearlFtl.format(FlashDevice(cfg.geometry), cfg, "public-pw",
                           "hidden-pw")


def _count_decodes(monkeypatch):
    """The list of WOM page decode and AES-CTR decrypt calls the FTL
    makes from now on, by name."""
    calls = []
    for name in ("decode_page_public", "decode_page_hidden",
                 "decrypt_payload"):
        real = getattr(pearl.ftl, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(pearl.ftl, name, counted)
    return calls


@pytest.mark.parametrize("volume", ["public", "hidden"])
def test_translation_miss_on_flushed_group_skips_decode(monkeypatch, volume):
    ftl = _format_small_cmt()
    rng = random.Random(3)
    for vol in ("public", volume):
        for lpn in range(8):
            ftl.submit(vol, lpn, "write",
                       rng.randbytes(ftl.volumes()[vol][1]))
    assert (volume, 0) not in ftl.cmt  # evicted, so its group was flushed
    expect, = struct.unpack_from(
        "<I", cold_reader(ftl, volume)(ftl._gtd[volume][0], quiet=True))

    calls = _count_decodes(monkeypatch)
    dev = ftl.device
    reads, clock, misses = dev.reads, dev.clock_us, ftl.cmt.misses
    assert ftl._translate(volume, 0) == expect
    assert ftl.cmt.misses == misses + 1
    assert calls == []
    assert dev.reads == reads + 1
    assert dev.clock_us == clock + dev.timings.read_us


def _gc_heavy_step(ftl, rng, shadow):
    """One op of a mix for a 4-entry CMT: public and hidden writes,
    explicit collection (it reaches blocks that still hold current
    translation pages, which flushes alone keep in the frontier) and
    public reads checked against the shadow."""
    lay = ftl.layout
    r = rng.random()
    lpn = rng.randrange(288)
    if r < 0.40:
        shadow[lpn] = rng.randbytes(lay.public_payload_bytes)
        ftl.public_write(lpn, shadow[lpn])
    elif r < 0.55:
        ftl.hidden_write(lpn % 96, rng.randbytes(lay.hidden_payload_bytes))
    elif r < 0.85:
        ftl.gc_run()
    elif lpn in shadow:
        assert ftl.public_read(lpn) == shadow[lpn]


def test_decoded_cache_never_serves_a_stale_page():
    ftl = _format_small_cmt()
    dev = ftl.device
    relocated = [count_relocated_translation_pages(ftl)]
    rng = random.Random(7)
    shadow = {}
    for i in range(1, 1501):
        _gc_heavy_step(ftl, rng, shadow)
        if i % 250 == 0:
            ftl.prepare_unmount()
        if i == 750:
            ftl = PearlFtl.mount(dev, "public-pw", "hidden-pw", cmt_capacity=4)
            relocated.append(count_relocated_translation_pages(ftl))
        if i % 50 == 0:
            for vol in ("public", "hidden"):
                reads, clock = dev.reads, dev.clock_us
                assert ftl._walk_volume(vol) == cold_walk(ftl, vol)
                assert (dev.reads, dev.clock_us) == (reads, clock)
            assert_cache_fresh(ftl)
    assert all(relocated)  # before and after the remount
    assert max(dev.erase_count(b) for b in ftl.config.managed_blocks) >= 2
    assert ftl.check_invariants() == []


def _crash_image_with_stale_gtd():
    """A device whose last unmount persisted GTD entries that name pages
    erased since, with no unmount after: the crash image, that GTD's
    {(volume, m_vpn): ppn} entries naming erased pages, and the rng."""
    ftl = _format_small_cmt()
    rng = random.Random(7)
    for _ in range(200):
        _gc_heavy_step(ftl, rng, {})
    ftl.prepare_unmount()
    persisted = {(vol, m): p for vol, gtd in ftl._gtd.items()
                 for m, p in enumerate(gtd) if p != UNMAPPED}
    while not any(ftl.device.program_count(p) == 0
                  for p in persisted.values()):
        _gc_heavy_step(ftl, rng, {})
    stale = {k: p for k, p in persisted.items()
             if ftl.device.program_count(p) == 0}
    return ftl, stale, rng


def test_decoded_cache_follows_a_page_a_crash_image_gtd_names():
    """A GTD entry can name a page the FTL does not own, as a crash
    image's GTD did before recovery dropped entries naming erased pages.
    The mounted FTL may then program that page; the cache must stop
    serving what it decoded."""
    ftl, stale, rng = _crash_image_with_stale_gtd()
    crashed = PearlFtl.mount(FlashDevice.restore(ftl.snapshot()),
                             "public-pw", "hidden-pw", cmt_capacity=4)
    # Put back the entries recovery dropped.
    for (vol, m), p in stale.items():
        crashed._gtd[vol][m] = p
    # Writes to lpns of translation page 1 alone leave page 0's GTD
    # entries where the crash image put them.
    for lpn in range(306, 366):
        crashed.public_write(lpn, rng.randbytes(
            crashed.layout.public_payload_bytes))
        for vol in ("public", "hidden"):
            assert crashed._walk_volume(vol) == cold_walk(crashed, vol)
        assert_cache_fresh(crashed)
    assert any(crashed._gtd[vol][m] == p and crashed.device.program_count(p)
               for (vol, m), p in stale.items())


def test_recovery_drops_gtd_entries_naming_erased_pages():
    """Mounting a crash image whose persisted GTD names erased pages
    (translation page 0 of both volumes here): no GTD entry may keep
    naming a page the mounted FTL can allocate, and no read may return
    another lpn's data after writes reuse those pages."""
    writer = {}  # payload -> lpn it was written to, per volume

    def recording(ftl):
        for vol in ("public", "hidden"):
            write = getattr(ftl, f"{vol}_write")

            def record(lpn, data, vol=vol, write=write):
                writer[vol, data] = lpn
                return write(lpn, data)
            setattr(ftl, f"{vol}_write", record)
        return ftl

    ftl, stale, rng = _crash_image_with_stale_gtd()
    assert {vol for vol, _ in stale} == {"public", "hidden"}
    recording(ftl)
    crashed = PearlFtl.mount(FlashDevice.restore(ftl.snapshot()),
                             "public-pw", "hidden-pw", cmt_capacity=4)
    dev = crashed.device
    for vol, gtd in crashed._gtd.items():
        assert all(p == UNMAPPED or dev.program_count(p) for p in gtd), vol
    recording(crashed)
    for lpn in range(306, 336):
        crashed.public_write(lpn, rng.randbytes(
            crashed.layout.public_payload_bytes))
    for vol, gtd in crashed._gtd.items():
        assert all(p == UNMAPPED or dev.program_count(p) for p in gtd), vol
    cfg = crashed.config
    for vol, pages in (("public", cfg.public_pages),
                       ("hidden", cfg.hidden_pages)):
        read = getattr(crashed, f"{vol}_read")
        for lpn in range(pages):
            try:
                data = read(lpn)
            except PearlError:
                continue
            assert writer.get((vol, data), lpn) == lpn, (vol, lpn)
    assert crashed.check_invariants() == []


class _PerPageRecovery(PearlFtl):
    """recover_metadata with its device scan one page at a time (peek,
    observable_stage, parse_oob), kept as the reference of the batched
    scan."""

    def recover_metadata(self):
        self._reset_volatile()
        pub_state, gtd_hid = self._load_state_blobs()
        if pub_state is None:
            return
        ui1, gtd_pub = pub_state
        total = self.config.geometry.total_pages
        stage = {}
        for ppn in range(RESERVED_BLOCKS * self._ppb, total):
            _, oob = self.device.peek(ppn)
            stage[ppn] = observable_stage(oob)
            slot_a, _ = parse_oob(oob)
            if stage[ppn] != "empty" and slot_a is not None:
                self._slot_a.setdefault(
                    self._block_of(ppn), set()).add(slot_a.lpn_field)
        for volume, gtd in (("public", gtd_pub), ("hidden", gtd_hid)):
            if gtd is not None:
                self._gtd[volume] = [
                    UNMAPPED if stage.get(p) == "empty" else self._clamp_ppn(p)
                    for p in gtd]
        live = {"first": PageState.V1, "second": PageState.V2}
        for lpn_field, ppn in self._walk_volume("public").items():
            if stage.get(ppn, "empty") != "empty":
                self._live["public"][ppn] = lpn_field
                self._state[ppn] = live[stage[ppn]]
        for m, t_ppn in enumerate(self._gtd["public"]):
            if t_ppn != UNMAPPED and stage.get(t_ppn, "empty") != "empty":
                self._live["public"][t_ppn] = trans_field(m)
                self._state[t_ppn] = live[stage[t_ppn]]
        if self.k_hid is not None:
            for lpn_field, ppn in self._walk_volume("hidden").items():
                if stage.get(ppn) == "second":
                    self._live["hidden"][ppn] = lpn_field
            for m, t_ppn in enumerate(self._gtd["hidden"]):
                if t_ppn != UNMAPPED and stage.get(t_ppn) == "second":
                    self._live["hidden"][t_ppn] = trans_field(m)
        for ppn, st in stage.items():
            if st == "empty" or self._state[ppn] != PageState.EMPTY:
                continue
            if st == "second":
                self._state[ppn] = PageState.I2
            else:
                self._state[ppn] = PageState.I1
                if ppn == ui1:
                    self.current_ui1 = ppn
        self._free = set()
        for blk in self.config.managed_blocks:
            pages = range(blk * self._ppb, (blk + 1) * self._ppb)
            programmed = [p for p in pages if stage[p] != "empty"]
            if not programmed:
                self._free.add(blk)
            elif len(programmed) < self._ppb:
                self._block["frontier"] = blk
                self._cursor["frontier"] = programmed[-1] + 1
            for volume, held in self._live.items():
                self._live_count[volume][blk] = sum(p in held for p in pages)
        # The indexes the direct writes above bypass, rebuilt.
        self._by_valid = self._ranked_by_valid()
        self._sources, self._source_blocks = self._recount_sources()
        self._persist_clean = True


def _recovered_state(ftl):
    names = ("_state", "_live", "_live_count", "_by_valid", "_sources",
             "_source_blocks", "_trimmed", "_slot_a", "current_ui1", "_block",
             "_cursor", "_gtd", "_free", "_persist_cursor")
    state = {name: getattr(ftl, name) for name in names}
    state["tiq"] = list(ftl.tiq.items())   # in queue order
    return state


def _assert_recovers_as_per_page(snap, cmt_capacity):
    for hidden in (None, "hidden-pw", "wrong"):
        batched, per_page = (
            cls.mount(FlashDevice.restore(snap), "public-pw", hidden,
                      cmt_capacity=cmt_capacity)
            for cls in (PearlFtl, _PerPageRecovery))
        assert _recovered_state(batched) == _recovered_state(per_page)
        assert batched.check_invariants() == []


@pytest.mark.parametrize("ftl_cls", [PearlFtl, BrokenAllocatorFtl])
def test_recovery_equals_the_per_page_scan(ftl_cls):
    """Public-only, right-password and wrong-password mounts of every
    unmount image of a workload (with GC, trims and a UI1 page)."""
    cfg = desk_config(cmt_capacity=16, seed=0)
    _, snaps, _ = mixed_workload(ftl_cls, cfg, seed=5, nops=900,
                                 snap_every=300)
    for snap in snaps:
        _assert_recovers_as_per_page(snap, cmt_capacity=16)


def test_crash_recovery_equals_the_per_page_scan():
    ftl, _, _ = _crash_image_with_stale_gtd()
    _assert_recovers_as_per_page(ftl.snapshot(), cmt_capacity=4)


def test_wrong_hidden_password_installs_no_hidden_page_off_second_stage():
    """A wrong hidden password decrypts the hidden GTD to garbage.  Hidden
    content only ever lives on second-stage pages, so recovery installs
    no garbage entry that names any other page (first-stage public pages
    were taken as hidden translation pages before)."""
    cfg = desk_config(seed=0)
    ftl = PearlFtl.format(FlashDevice(cfg.geometry), cfg, "public-pw",
                          "hidden-pw")
    lay = ftl.layout
    rng = random.Random(0)
    for lpn in range(300):
        ftl.public_write(lpn, rng.randbytes(lay.public_payload_bytes))
    for lpn in range(20):
        ftl.hidden_write(lpn, rng.randbytes(lay.hidden_payload_bytes))
    ftl.prepare_unmount()
    snap = ftl.snapshot()
    right = PearlFtl.mount(FlashDevice.restore(snap), "public-pw", "hidden-pw")
    assert len(right._live["hidden"]) == 21   # 20 data pages, 1 translation
    wrong = PearlFtl.mount(FlashDevice.restore(snap), "public-pw", "wrong")
    hidden = wrong._live["hidden"]
    assert {observable_stage(snap.oob[p]) for p in hidden} <= {"second"}
    assert sum(wrong._live_count["hidden"]) == len(hidden)
    assert wrong.check_invariants() == []


def test_recovery_and_mount_start_with_an_empty_cache(desk_cfg):
    ftl, _, _ = mixed_workload(PearlFtl, desk_cfg, seed=25, nops=300)
    # An entry that would be served if it outlived the rebuild.
    t_ppn = ftl._gtd["public"][0]
    blank = bytes(ftl.layout.public_payload_bytes)
    ftl._payloads["public", t_ppn] = (ftl.device.page_tag(t_ppn), blank)
    ftl.recover_metadata()
    assert assert_cache_fresh(ftl)
    assert ftl._payloads["public", t_ppn][1] != blank

    solo = PearlFtl.mount(FlashDevice.restore(ftl.snapshot()), "public-pw",
                          cmt_capacity=64)
    assert {vol for vol, _ in solo._payloads} == {"public"}
    assert assert_cache_fresh(solo)


@pytest.mark.parametrize("volume", ["public", "hidden"])
def test_read_of_a_page_this_ftl_wrote_skips_decode(monkeypatch, ftl, rng,
                                                    volume):
    for lpn in range(4):
        ftl.public_write(lpn, rng.randbytes(ftl.layout.public_payload_bytes))
    data = rng.randbytes(ftl.volumes()[volume][1])
    ftl.submit(volume, 2, "write", data)
    assert (volume, 2) in ftl.cmt
    calls = _count_decodes(monkeypatch)
    dev = ftl.device
    reads, clock = dev.reads, dev.clock_us
    assert ftl.submit(volume, 2, "read") == data
    assert calls == []
    assert dev.reads == reads + 1
    assert dev.clock_us == clock + dev.timings.read_us


def test_collection_relocates_cached_pages_without_decode(monkeypatch,
                                                           desk_cfg):
    ftl, _, _ = mixed_workload(PearlFtl, desk_cfg, seed=5, nops=400)
    ppb, valid = ftl._ppb, (PageState.V1, PageState.V2)
    hidden = ftl._live["hidden"]

    def live(blk):
        """Charged payload reads a collection of blk makes: one per
        valid public page plus one per live hidden page."""
        pages = range(blk * ppb, (blk + 1) * ppb)
        return ([p for p in pages if ftl._state[p] in valid]
                + [p for p in pages if p in hidden])

    victim = max((b for b in ftl.config.managed_blocks
                  if b not in ftl._free and b not in ftl._block.values()),
                 key=lambda b: (len(set(live(b)) & set(hidden)), b))
    expect = Counter(live(victim))
    assert expect and set(expect) & set(hidden)
    translation = {p for gtd in ftl._gtd.values() for p in gtd}

    seen = Counter()
    read_page = ftl.device.read_page

    def spy(ppn):
        seen[ppn] += 1
        return read_page(ppn)
    monkeypatch.setattr(ftl.device, "read_page", spy)
    monkeypatch.setattr(ftl, "_select_victim", lambda: victim)
    calls = _count_decodes(monkeypatch)
    ftl.gc_run()
    assert calls == []
    for p in range(victim * ppb, (victim + 1) * ppb):
        # A translation page may also be read again by a CMT miss.
        if p in translation:
            assert seen[p] >= expect[p], p
        else:
            assert seen[p] == expect[p], p
    assert ftl.check_invariants() == []


class _CacheChecked(PearlFtl):
    """Checks the payload cache against cold reads after every 50th
    request, remounts once (recover_metadata, as mount does) at the
    first unmount after request 500, and records which kinds of page
    its collections relocate."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.requests = self.depth = self.checks = 0
        self.remounted = False
        self.relocated = set()

    def _gc_block(self, victim):
        for ppn in range(victim * self._ppb, (victim + 1) * self._ppb):
            pub = self._state[ppn] in (PageState.V1, PageState.V2)
            hid = ppn in self._live["hidden"]
            if pub or hid:
                self.relocated.add("paired" if pub and hid
                                   else "public-only" if pub
                                   else "hidden-only")
        return super()._gc_block(victim)

    def prepare_unmount(self):
        super().prepare_unmount()
        if self.requests >= 500 and not self.remounted:
            self.remounted = True
            self.recover_metadata()


for _name in ("public_write", "public_read", "hidden_write", "trim",
              "gc_run"):
    def _counted(self, *args, _request=getattr(PearlFtl, _name)):
        # Collections a request starts itself are part of that request.
        self.depth += 1
        out = _request(self, *args)
        self.depth -= 1
        if not self.depth:
            self.requests += 1
            if self.requests % 50 == 0:
                assert assert_cache_fresh(self)
                self.checks += 1
        return out
    setattr(_CacheChecked, _name, _counted)


def test_cached_data_pages_match_a_cold_decode():
    cfg = desk_config(cmt_capacity=4, seed=0)
    ftl, _, _ = mixed_workload(_CacheChecked, cfg, seed=3, nops=1200,
                               snap_every=250)
    assert ftl.remounted
    assert ftl.checks == ftl.requests // 50 >= 20
    assert ftl.relocated == {"public-only", "paired", "hidden-only"}
    assert {vol for vol, _ in ftl._payloads} == {"public", "hidden"}
    assert ftl.check_invariants() == []


def test_public_only_mount_caches_no_hidden_payload(ftl, rng):
    lay = ftl.layout
    for lpn in range(120):
        ftl.public_write(lpn % 60, rng.randbytes(lay.public_payload_bytes))
        if lpn % 3 == 0:
            ftl.hidden_write(lpn % 40, rng.randbytes(lay.hidden_payload_bytes))
    ftl.prepare_unmount()
    solo = PearlFtl.mount(ftl.device, "public-pw", cmt_capacity=4)
    for lpn in range(60):
        solo.public_read(lpn)
        solo.public_write(lpn, rng.randbytes(lay.public_payload_bytes))
        if lpn % 10 == 0:
            solo.gc_run()
    solo.prepare_unmount()
    assert solo._payloads
    assert {vol for vol, _ in solo._payloads} == {"public"}


def test_cache_holds_no_page_of_a_free_block(desk_cfg):
    ftl, _, _ = mixed_workload(PearlFtl, desk_cfg, seed=26, nops=1500)
    dev = ftl.device
    assert any(dev.erase_count(b) for b in ftl._free)
    assert not any(ppn // ftl._ppb in ftl._free for _, ppn in ftl._payloads)
    # At most one entry per volume and programmed page, each current.
    assert all(tag == ftl.device.page_tag(ppn) and dev.program_count(ppn)
               for (_, ppn), (tag, _) in ftl._payloads.items())


@pytest.mark.parametrize("fail_at", range(1, 61, 3))
def test_failed_program_caches_nothing_for_its_page(monkeypatch, fail_at):
    """A program that raises leaves the cache as a cold read sees the
    page: an empty page gets no entry."""
    ftl = _format_small_cmt()
    program = ftl.device.program_page
    attempts = []

    def failing(ppn, data, oob):
        attempts.append((ppn, ftl.device.program_count(ppn)))
        if len(attempts) == fail_at:
            raise PearlError("injected program failure")
        return program(ppn, data, oob)
    monkeypatch.setattr(ftl.device, "program_page", failing)
    rng = random.Random(fail_at)
    lay = ftl.layout
    with pytest.raises(PearlError, match="injected"):
        for lpn in range(100):
            ftl.public_write(lpn % 24, rng.randbytes(lay.public_payload_bytes))
            if lpn % 4 == 3:
                ftl.hidden_write(lpn % 8,
                                 rng.randbytes(lay.hidden_payload_bytes))
    ppn, before = attempts[-1]
    assert ftl.device.program_count(ppn) == before
    if before == 0:
        assert not any(p == ppn for _, p in ftl._payloads)
    assert_cache_fresh(ftl)


# -- queued programs ---------------------------------------------------


@pytest.mark.parametrize("error", [NoPublicCover, DeviceFull])
def test_a_failed_write_programs_what_it_queued(ftl, rng, monkeypatch,
                                                error):
    """A hidden write relocates public data into the UI1 slot, a queued
    second write, and then fails: finding no cloak, or no empty page.
    The queued program still reaches the device, so none stays queued,
    the device holds exactly the pages the FTL counts as programmed, and
    the relocated data reads back."""
    lay = ftl.layout
    shadow = {}
    for lpn in (0, 1, 2, 0):
        shadow["public", lpn] = rng.randbytes(lay.public_payload_bytes)
        ftl.public_write(lpn, shadow["public", lpn])
    ui1, programs = ftl.current_ui1, ftl.device.programs
    assert ui1 is not None
    if error is NoPublicCover:
        # The relocation into the UI1 slot picks its source; the cloak
        # pick after it fails.
        pick, picks = ftl._pick_public_source, []

        def pick_once():
            picks.append(pick())
            if len(picks) > 1:
                raise NoPublicCover("injected")
            return picks[0]
        monkeypatch.setattr(ftl, "_pick_public_source", pick_once)
    else:
        def full(**_):
            raise DeviceFull("injected")
        monkeypatch.setattr(ftl, "_take_empty", full)
    with pytest.raises(error, match="injected"):
        ftl.hidden_write(0, rng.randbytes(lay.hidden_payload_bytes))
    monkeypatch.undo()
    assert ftl._pending == {}
    assert ftl.device.programs == programs + 1
    assert ftl.device.program_count(ui1) == 2
    assert ftl._state[ui1] == PageState.V2
    first = RESERVED_BLOCKS * ftl._ppb
    pages = range(first, ftl.config.geometry.total_pages)
    assert [p for p in pages if ftl.device.program_count(p)] == [
        p for p in pages if ftl._state[p] != PageState.EMPTY]
    assert ftl.check_invariants() == []
    assert_cache_fresh(ftl)
    assert_reads_back(ftl, shadow)


def _twins(cfg):
    """Two FTLs formatted alike on blank devices."""
    return [PearlFtl.format(FlashDevice(cfg.geometry), cfg, "public-pw",
                            "hidden-pw") for _ in range(2)]


def _requests(cfg, rng, n):
    lay = cfg.layout
    return [("hidden", rng.randrange(8), "write",
             rng.randbytes(lay.hidden_payload_bytes)) if i % 4 == 3 else
            ("public", rng.randrange(24), "write",
             rng.randbytes(lay.public_payload_bytes)) for i in range(n)]


def _device_state(ftl):
    dev = ftl.device
    return (dev.reads, dev.programs, dev.erases, dev.clock_us,
            dev.snapshot().to_bytes())


def test_batched_queue_never_exceeds_its_bound(ftl, monkeypatch):
    """Inside batched() the queue is sealed once it holds the pages of
    one cache-sized kernel step, 20 at the desk page size."""
    sizes, seal = [], ftl._seal

    def spy():
        sizes.append(len(ftl._pending))
        seal()
    monkeypatch.setattr(ftl, "_seal", spy)
    init_device(ftl, fill_fraction=0.5, seed=0)
    assert ftl._batch_pages == 20
    assert max(sizes) == ftl._batch_pages
    assert ftl._pending == {}


def test_a_request_that_raises_in_the_scope_has_its_programs_made(desk_cfg,
                                                                   rng):
    ref, ftl = _twins(desk_cfg)
    requests = _requests(desk_cfg, rng, 12)
    for r in requests:
        ref.submit(*r)
    with pytest.raises(PearlError, match="beyond volume capacity"):
        with ftl.batched():
            for r in requests:
                ftl.submit(*r)
            assert ftl._pending
            ftl.submit("public", 10**6, "write", requests[0][3])
    assert ftl._pending == {}
    assert _device_state(ftl) == _device_state(ref)
    assert ftl.check_invariants() == []


def test_snapshot_and_unmount_in_the_scope_see_every_queued_program(
        desk_cfg, rng):
    ref, ftl = _twins(desk_cfg)
    requests = _requests(desk_cfg, rng, 24)
    with ftl.batched():
        for part in (requests[:12], requests[12:]):
            for r in part:
                ref.submit(*r)
                ftl.submit(*r)
            assert ftl._pending
            assert ftl.snapshot().to_bytes() == ref.snapshot().to_bytes()
            assert ftl._pending == {}
        ftl.submit(*requests[0])
        ref.submit(*requests[0])
        assert ftl._pending
        ftl.prepare_unmount()
        assert ftl._pending == {}
        ref.prepare_unmount()
        assert _device_state(ftl) == _device_state(ref)
        ftl.submit(*requests[1])
        ref.submit(*requests[1])
        assert ftl._pending
        assert ftl.check_invariants() == []
        assert ftl._pending == {}
    assert _device_state(ftl) == _device_state(ref)
