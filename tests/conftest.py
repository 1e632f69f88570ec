import functools
import random
import struct

import pytest

import pearl.ftl
from pearl.bench import init_device, mixed_workload  # noqa: F401  (re-exported)
from pearl.config import desk_config
from pearl.crypto import derive_key
from pearl.flash import FlashDevice
from pearl.ftl import PearlFtl


@pytest.fixture
def desk_cfg():
    return desk_config(cmt_capacity=64, seed=0)


@pytest.fixture
def device(desk_cfg):
    return FlashDevice(desk_cfg.geometry)


@pytest.fixture
def ftl(device, desk_cfg):
    return PearlFtl.format(device, desk_cfg, "public-pw", "hidden-pw")


@pytest.fixture
def rng():
    return random.Random(1234)


@pytest.fixture(scope="session", autouse=True)
def derive_each_key_once():
    """Derive each (password, volume, salt) key once per test session,
    wherever an FTL formats or mounts.  Every format of a seeded config
    reuses one salt, so the suite would otherwise repeat the same scrypt
    calls hundreds of times.  A call that raises is not remembered.
    tests/test_crypto.py calls pearl.crypto.derive_key itself, so scrypt
    still runs there."""
    keys = {}

    def derive(password, volume, salt):
        if (password, volume, salt) not in keys:
            keys[password, volume, salt] = derive_key(password, volume, salt)
        return keys[password, volume, salt]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pearl.ftl, "derive_key", derive)
        yield


# -- page-payload cache ------------------------------------------------


def cold_reader(ftl, volume):
    """The FTL's uncached reader of volume's page payloads:
    (ppn, quiet) -> payload, never served from the cache."""
    return functools.partial(ftl._decode, volume)


def cold_walk(ftl, volume):
    """The walked {lpn: ppn} map of a volume with the page-payload cache
    emptied for the walk, then put back."""
    kept, ftl._payloads = ftl._payloads, {}
    try:
        return ftl._walk_volume(volume)
    finally:
        ftl._payloads = kept


def count_relocated_translation_pages(ftl):
    """Spy on the FTL's collector: the returned list grows by the
    (volume, m_vpn) of every translation page found in a GC victim."""
    relocated = []
    collect = ftl._gc_block

    def spy(victim):
        for vol, gtd in ftl._gtd.items():
            relocated.extend((vol, m) for m, p in enumerate(gtd)
                             if p // ftl._ppb == victim)
        return collect(victim)

    ftl._gc_block = spy
    return relocated


def assert_cache_fresh(ftl):
    """Every cached payload whose page has been neither programmed nor
    erased since it was stored equals a quiet cold read of the page, and
    checking charges no device read.  Returns how many entries were
    checked."""
    dev = ftl.device
    reads, clock = dev.reads, dev.clock_us
    checked = 0
    for (vol, ppn), (tag, payload) in ftl._payloads.items():
        if tag == ftl.device.page_tag(ppn):
            assert payload == cold_reader(ftl, vol)(ppn, quiet=True), (vol, ppn)
            checked += 1
    assert (dev.reads, dev.clock_us) == (reads, clock)
    return checked


# -- allocation ----------------------------------------------------------


def gc_burst(ftl, nops, seed=0, check_every=0, snap_every=0):
    """init_device(ftl, 0.5, seed), then nops seeded writes spread over
    every volume's whole logical range (a quarter of them hidden when a
    hidden volume is mounted) and no explicit gc_run, so every collection
    runs inside allocation.  With check_every, check_invariants() must
    be empty after every check_every-th write; with snap_every, the FTL
    is unmounted and its image kept after every snap_every-th write.
    Returns (ftl, snapshots, shadow); shadow maps (volume, lpn) to the
    last payload written, init_device's writes included."""
    shadow = {}
    submit = ftl.submit

    def write(volume, lpn, op, data):
        submit(volume, lpn, op, data)
        shadow[volume, lpn] = data
    ftl.submit = write
    try:
        init_device(ftl, fill_fraction=0.5, seed=seed)
    finally:
        del ftl.submit
    rng = random.Random(seed)
    vols = ftl.volumes()
    main = next(iter(vols))   # "public", or the baseline's "data"
    snaps = []
    for i in range(1, nops + 1):
        volume = ("hidden" if "hidden" in vols and rng.random() < 0.25
                  else main)
        pages, payload = vols[volume]
        lpn, data = rng.randrange(pages), rng.randbytes(payload)
        ftl.submit(volume, lpn, "write", data)
        shadow[volume, lpn] = data
        if check_every and i % check_every == 0:
            assert ftl.check_invariants() == [], i
        if snap_every and i % snap_every == 0:
            ftl.prepare_unmount()
            snaps.append(ftl.snapshot())
    return ftl, snaps, shadow


def assert_reads_back(ftl, shadow):
    """Every (volume, lpn) of shadow reads back its payload."""
    for (volume, lpn), data in shadow.items():
        assert ftl.submit(volume, lpn, "read") == data, (volume, lpn)


def set_header_pages(device, public=None, hidden=None):
    """Re-program a formatted device's header page with other volume page
    counts (erasing the header block, so no persisted state is left)."""
    fmt, g = pearl.ftl._HEADER_FMT, device.geometry
    fields = list(struct.unpack_from(fmt, device.peek(0)[0]))
    for i, pages in ((10, public), (11, hidden)):
        if pages is not None:
            fields[i] = pages
    page = struct.pack(fmt, *fields)
    device.erase_block(0)
    device.program_page(0, page + bytes(g.page_bytes - len(page)),
                        bytes(g.oob_bytes))
