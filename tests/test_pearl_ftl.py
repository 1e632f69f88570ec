"""Deniable FTL: mapping, allocation discipline, recovery, modes."""

import random
import struct
from collections import Counter

import pytest

import pearl.ftl
from conftest import (assert_cache_fresh, cold_reader, cold_walk,
                      count_relocated_translation_pages, gc_burst,
                      mixed_workload)
from pearl.bench import gen_synthetic, init_device
from pearl.cmt import UNMAPPED
from pearl.config import RESERVED_BLOCKS, PearlConfig, desk_config
from pearl.errors import HeaderError, ModeError, PearlError, UnmappedLpn
from pearl.flash import (DEFAULT_TIMINGS, DESK_GEOMETRY, DeviceGeometry,
                         FlashDevice)
from pearl.ftl import PUBLIC_HIDDEN, PearlFtl
from pearl.mutants import BrokenAllocatorFtl
from pearl.oob import observable_stage, parse_oob, trans_field
from pearl.states import PageState


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
        self.timings = DEFAULT_TIMINGS

    def peek(self, ppn):
        return self.page, b""


def test_volume_sizes_round_trip_over_geometries():
    for blocks in range(2, 80):
        for ppb in (8, 16, 32):
            geometry = DeviceGeometry(1, 1, blocks, ppb, 2048, 64)
            for pct in range(1, 61):
                cfg = PearlConfig(geometry=geometry,
                                  public_fraction=pct / 100,
                                  hidden_fraction=min(pct, 20) / 100)
                if cfg.public_pages == 0 or cfg.hidden_pages == 0:
                    continue
                header = PearlFtl._pack_header(cfg, bytes(16))
                got, _ = PearlFtl._read_header(
                    _HeaderPage(geometry, header), cfg.cmt_capacity, 0)
                assert (got.public_pages, got.hidden_pages) == (
                    cfg.public_pages, cfg.hidden_pages), (blocks, ppb, pct)


# -- basic volume operations ------------------------------------------


def test_public_roundtrip_and_trim(ftl, rng):
    lay = ftl.layout
    data = rng.randbytes(lay.public_payload_bytes)
    ftl.public_write(0, data)
    assert ftl.public_read(0) == data
    ftl.trim(0)
    with pytest.raises(UnmappedLpn):
        ftl.public_read(0)


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
    assert ftl._state[old_ppn] == PageState.UI1
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
    assert ftl._state[ppn] == PageState.TI1
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
    assert len(ftl.tiq) == 4
    ftl.prepare_unmount()
    assert not ftl.tiq
    assert all(s != PageState.TI1 for s in ftl._state)


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
    assert ftl.monitor.violations == []
    assert ftl.gc_runs >= 1
    for (vol, lpn), data in shadow.items():
        got = ftl.public_read(lpn) if vol == "public" else ftl.hidden_read(lpn)
        assert got == data


class _ReverseMapChecked(PearlFtl):
    """Asserts after every request that the reverse map holds an entry
    for exactly the valid (V1/V2) pages."""

    def _check_reverse_map(self):
        valid = {p for p, s in enumerate(self._state)
                 if s in (PageState.V1, PageState.V2)}
        assert set(self._pub_lpn) == valid


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


@pytest.mark.parametrize("fault, problem", [
    ("reverse map", "reverse map does not match the set of valid pages"),
    ("trimmed", "trimmed lpns do not match the TIQ"),
], ids=["reverse-map", "trimmed"])
def test_check_invariants_reports_planted_fault(ftl, rng, fault, problem):
    lay = ftl.layout
    for lpn in range(4):
        ftl.public_write(lpn, rng.randbytes(lay.public_payload_bytes))
    ftl.trim(0)
    ftl.public_write(1, rng.randbytes(lay.public_payload_bytes))
    assert ftl.current_ui1 is not None and ftl.check_invariants() == []
    if fault == "reverse map":
        ftl._pub_lpn[ftl.current_ui1] = 1   # an invalid page keeps its lpn
    else:
        ftl._trimmed.add(3)                 # a mapped lpn reads as trimmed
    assert ftl.check_invariants() == [problem]


def test_collection_inside_allocation_strands_no_block(ftl):
    """Relocations of a collection that runs inside allocation may open
    a block; allocation then writes to it rather than leaving it behind
    with unwritten pages, which check_invariants reports."""
    gc_burst(ftl, nops=2000, check_every=25)
    assert ftl.gc_runs > 50


def test_amplification_ratios_exact(desk_cfg):
    from fractions import Fraction
    ftl, _, _ = mixed_workload(PearlFtl, desk_cfg, seed=22, nops=800)
    assert ftl.amplification("public_user") == Fraction(5, 3)
    assert ftl.amplification("hidden_user") == Fraction(5, 1)


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


def test_batch_hidden_write_uses_incoming_public_write(ftl, rng):
    lay = ftl.layout
    for lpn in range(6):
        ftl.public_write(lpn, rng.randbytes(lay.public_payload_bytes))
    pub = rng.randbytes(lay.public_payload_bytes)
    sec = rng.randbytes(lay.hidden_payload_bytes)
    ftl.submit_batch([
        ("hidden", 3, "write", sec),
        ("public", 9, "write", pub),
    ])
    assert ftl.public_read(9) == pub
    assert ftl.hidden_read(3) == sec
    # paired into a single page program (plus possible metadata traffic)
    assert ftl._translate("public", 9) == ftl._translate("hidden", 3)


def test_batch_rejects_lpns_beyond_capacity(ftl, rng):
    lay, cfg = ftl.layout, ftl.config
    for lpn in range(6):
        ftl.public_write(lpn, rng.randbytes(lay.public_payload_bytes))
    programs = ftl.device.programs
    sec = rng.randbytes(lay.hidden_payload_bytes)
    pub = rng.randbytes(lay.public_payload_bytes)
    for hidden_lpn, public_lpn in ((3, cfg.public_pages + 5),
                                   (cfg.hidden_pages, 9)):
        with pytest.raises(PearlError, match="beyond volume capacity"):
            ftl.submit_batch([("hidden", hidden_lpn, "write", sec),
                              ("public", public_lpn, "write", pub)])
    assert ftl.device.programs == programs
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
        stage, claim = {}, {}
        for ppn in range(RESERVED_BLOCKS * self._ppb, total):
            _, oob = self.device.peek(ppn)
            stage[ppn] = observable_stage(oob)
            slot_a, _ = parse_oob(oob)
            if stage[ppn] != "empty" and slot_a is not None:
                claim[ppn] = slot_a.lpn_field
                self._slot_a.setdefault(
                    self._block_of(ppn), set()).add(slot_a.lpn_field)
        for volume, gtd in (("public", gtd_pub), ("hidden", gtd_hid)):
            if gtd is not None:
                self._gtd[volume] = [
                    UNMAPPED if stage.get(p) == "empty" else self._clamp_ppn(p)
                    for p in gtd]
        live = {"first": PageState.V1, "second": PageState.V2}
        pub_map = self._walk_volume("public")
        for lpn_field, ppn in pub_map.items():
            if stage.get(ppn, "empty") != "empty":
                self._pub_lpn[ppn] = lpn_field
                self._state[ppn] = live[stage[ppn]]
        for m, t_ppn in enumerate(self._gtd["public"]):
            if t_ppn != UNMAPPED and stage.get(t_ppn, "empty") != "empty":
                self._pub_lpn[t_ppn] = trans_field(m)
                self._state[t_ppn] = live[stage[t_ppn]]
        if self.mode == PUBLIC_HIDDEN:
            for lpn_field, ppn in self._walk_volume("hidden").items():
                if stage.get(ppn) == "second":
                    self._hid_set(ppn, lpn_field)
            for m, t_ppn in enumerate(self._gtd["hidden"]):
                if t_ppn != UNMAPPED and stage.get(t_ppn) == "second":
                    self._hid_set(t_ppn, trans_field(m))
        for ppn, st in stage.items():
            if st == "empty" or self._state[ppn] != PageState.EMPTY:
                continue
            if st == "second":
                self._state[ppn] = PageState.I2
            elif ppn == ui1:
                self._state[ppn] = PageState.UI1
                self.current_ui1 = ppn
            elif ppn in claim and pub_map.get(claim[ppn]) == ppn:
                self._state[ppn] = PageState.TI1
                self.tiq[ppn] = claim[ppn]
                self._trimmed.add(claim[ppn])
            else:
                self._state[ppn] = PageState.RI1
        free = []
        for blk in self.config.managed_blocks:
            pages = range(blk * self._ppb, (blk + 1) * self._ppb)
            programmed = [p for p in pages if stage[p] != "empty"]
            if not programmed:
                free.append(blk)
            elif len(programmed) < self._ppb:
                self._block["frontier"] = blk
                self._cursor["frontier"] = programmed[-1] + 1
            self._valid[blk] = sum(self._state[p] in (PageState.V1,
                                                      PageState.V2)
                                   for p in pages)
        self._set_free_blocks(free)
        self._persist_clean = True


def _recovered_state(ftl):
    names = ("_state", "_pub_lpn", "_hidden_at", "_valid", "_hid_valid",
             "_trimmed", "_slot_a", "current_ui1", "_block", "_cursor",
             "_gtd", "_fbl", "_persist_cursor")
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
def test_recovery_equals_the_per_page_scan(ftl_cls, derive_key_once):
    """Public-only, right-password and wrong-password mounts of every
    unmount image of a workload (with GC, trims and a UI1 page)."""
    cfg = desk_config(cmt_capacity=16, seed=0)
    _, snaps, _ = mixed_workload(ftl_cls, cfg, seed=5, nops=900,
                                 snap_every=300)
    for snap in snaps:
        _assert_recovers_as_per_page(snap, cmt_capacity=16)


def test_crash_recovery_equals_the_per_page_scan(derive_key_once):
    ftl, _, _ = _crash_image_with_stale_gtd()
    _assert_recovers_as_per_page(ftl.snapshot(), cmt_capacity=4)


def test_wrong_hidden_password_installs_no_hidden_page_off_second_stage(
        derive_key_once):
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
    assert len(right._hidden_at) == 21   # 20 data pages, 1 translation page
    wrong = PearlFtl.mount(FlashDevice.restore(snap), "public-pw", "wrong")
    assert {observable_stage(snap.oob[p]) for p in wrong._hidden_at} <= {
        "second"}
    assert sum(wrong._hid_valid) == len(wrong._hidden_at)
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

    def live(blk):
        """Charged payload reads a collection of blk makes: one per
        valid public page plus one per live hidden page."""
        pages = range(blk * ppb, (blk + 1) * ppb)
        return ([p for p in pages if ftl._state[p] in valid]
                + [p for p in pages if p in ftl._hidden_at])

    victim = max((b for b in ftl.config.managed_blocks
                  if b not in ftl._free and b not in ftl._block.values()),
                 key=lambda b: (len(set(live(b)) & set(ftl._hidden_at)), b))
    expect = Counter(live(victim))
    assert expect and set(expect) & set(ftl._hidden_at)
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
            hid = ppn in self._hidden_at
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
def test_failed_program_caches_nothing_for_its_page(derive_key_once,
                                                    monkeypatch, fail_at):
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
