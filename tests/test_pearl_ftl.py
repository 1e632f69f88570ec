"""Deniable FTL: mapping, allocation discipline, recovery, modes."""

import random

import pytest

import pearl.ftl
from conftest import (assert_cache_fresh, cold_walk,
                      count_relocated_translation_pages, mixed_workload)
from pearl.bench import gen_synthetic, init_device
from pearl.cmt import UNMAPPED
from pearl.config import PearlConfig, desk_config
from pearl.errors import HeaderError, ModeError, PearlError, UnmappedLpn
from pearl.flash import (DEFAULT_TIMINGS, DESK_GEOMETRY, DeviceGeometry,
                         FlashDevice)
from pearl.ftl import PearlFtl
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


# -- decoded translation-page cache -----------------------------------


def _format_small_cmt():
    cfg = desk_config(cmt_capacity=4, seed=0)
    return PearlFtl.format(FlashDevice(cfg.geometry), cfg, "public-pw",
                           "hidden-pw")


@pytest.mark.parametrize("volume", ["public", "hidden"])
def test_translation_miss_on_flushed_group_skips_decode(monkeypatch, volume):
    ftl = _format_small_cmt()
    rng = random.Random(3)
    for vol in ("public", volume):
        for lpn in range(8):
            ftl.submit(vol, lpn, "write",
                       rng.randbytes(ftl.volumes()[vol][1]))
    assert (volume, 0) not in ftl.cmt  # evicted, so its group was flushed
    expect = ftl._read_entries(volume, ftl._gtd[volume][0], quiet=True)[0]

    calls = []
    for name in ("decode_page_public", "decode_page_hidden",
                 "decrypt_payload"):
        real = getattr(pearl.ftl, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(pearl.ftl, name, counted)
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


def test_recovery_and_mount_start_with_an_empty_cache(desk_cfg):
    ftl, _, _ = mixed_workload(PearlFtl, desk_cfg, seed=25, nops=300)
    # An entry that would be served if it outlived the rebuild.
    t_ppn = ftl._gtd["public"][0]
    ftl._decoded["public", 0] = (ftl._page_tag(t_ppn),
                                 [UNMAPPED] * ftl._epp["public"])
    ftl.recover_metadata()
    assert_cache_fresh(ftl)
    assert ftl._decoded["public", 0][1] != [UNMAPPED] * ftl._epp["public"]

    solo = PearlFtl.mount(FlashDevice.restore(ftl.snapshot()), "public-pw",
                          cmt_capacity=64)
    assert {vol for vol, _ in solo._decoded} == {"public"}
    assert_cache_fresh(solo)
