"""Behaviour fingerprint: fixed-seed runs hashed over every simulated output.

Each case hashes the device's read/program/erase counts, its simulated
clock, the FTL's sorted amplification ledger and the final image bytes
(plus, where the case reads data back, what was read).  A refactor must
leave every digest unchanged; a deliberate behaviour change re-baselines
the digest it moves and says why in CHANGES.md.
"""

import hashlib
import random
import struct

import pytest

from pearl.config import PearlConfig, desk_config
from pearl.dftl import Dftl
from pearl.flash import DESK_GEOMETRY, DeviceGeometry, FlashDevice
from pearl.ftl import PearlFtl
from pearl.mutants import BrokenAllocatorFtl

from conftest import gc_burst, init_device, mixed_workload

MIXED = "80381d06505681e48d808937b9d499dbd9de2d2e5440c130785ec5cb55ea5e9a"
MOUNT_RECOVER = (
    "65b39960e876eaefb02730c5ee9b63cf3787602e1641b56fdb8498dbc6d1e529")
DFTL = "ccdc456371c5128063d4d51314ea121688439d291f6d39d9495ddb0105463e83"
BROKEN_ALLOCATOR = (
    "cd4afbe16bbc9c2bc9eac471971ec3107d98291b22a6c031425153709229ae67")
# Collections that run inside allocation (no explicit gc_run).
PEARL_GC_BURST = (
    "3a4bf7401e22523738f331354ce2d2cfda689d2336f42b0bf1e1031bd04241f4")
DFTL_GC_BURST = (
    "a172ae90404b4bc2b6b61f7203024e15c36101763e75e667198df31adb589a11")
# init_device(fill 0.5) and an unmount, on the desk preset and on a device
# of three times its blocks.
FILL = {
    1: "c2efab6785f4cebfcbca1c23e75ca450d07eacbc06a414c13a8a96f0dacc026d",
    3: "b1ff67230845c7ceb0e4e2c01169c7280bb1ad652956f1f0ab847ad31f76351f",
}
# Unmounts of a public-only mount, which fill the state page's hidden half
# with random bytes.
PUBLIC_ONLY_UNMOUNT = (
    "05eac3138c3dea87ecf25c9e9675e3ac92d3e9e8339bcf11dcd2b42b75362ca6")
# The mixed case's device mutations, in the order the device saw them.
MIXED_MUTATION_ORDER = (
    "728cbf40c697779b7715380703667513d9f7d507b6baf69850193aa487081610")


def _digest(ftl, *extra):
    h = hashlib.sha256()
    dev = ftl.device
    h.update(struct.pack("<3Qd", dev.reads, dev.programs, dev.erases,
                         dev.clock_us))
    h.update(repr(sorted(ftl.ledger.items())).encode())
    h.update(dev.snapshot().to_bytes())
    for part in extra:
        h.update(repr(part).encode())
    return h.hexdigest()


def _mixed_run(ftl_cls=PearlFtl):
    cfg = desk_config(cmt_capacity=64, seed=0)
    return mixed_workload(ftl_cls, cfg, seed=0, nops=1500, snap_every=500)


def test_mixed_workload_fingerprint():
    ftl, snaps, _ = _mixed_run()
    assert ftl.gc_runs > 0 and len(snaps) == 4
    assert _digest(ftl) == MIXED


def test_mixed_workload_mutation_order(monkeypatch):
    """The ordered log of the mixed case's device mutations: each
    program's ppn with a hash of its data and OOB, and each erased block.
    The other digests see only the end state and the counts, so this one
    also pins when each program and erase reaches the device."""
    log = hashlib.sha256()
    program, erase = FlashDevice.program_page, FlashDevice.erase_block

    def logged_program(dev, ppn, data, oob):
        program(dev, ppn, data, oob)
        log.update(struct.pack("<cI", b"p", ppn))
        log.update(hashlib.sha256(bytes(data) + bytes(oob)).digest())

    def logged_erase(dev, blk):
        erase(dev, blk)
        log.update(struct.pack("<cI", b"e", blk))

    monkeypatch.setattr(FlashDevice, "program_page", logged_program)
    monkeypatch.setattr(FlashDevice, "erase_block", logged_erase)
    _mixed_run()
    assert log.hexdigest() == MIXED_MUTATION_ORDER


def test_broken_allocator_fingerprint():
    ftl, snaps, _ = _mixed_run(BrokenAllocatorFtl)
    assert ftl.gc_runs > 0 and len(snaps) == 4
    assert _digest(ftl) == BROKEN_ALLOCATOR


def test_mount_and_recovery_fingerprint():
    ftl, snaps, shadow = _mixed_run()
    solo = PearlFtl.mount(FlashDevice.restore(snaps[-1]), "public-pw",
                          cmt_capacity=64)
    tmap = sorted(solo.translation_map("public").items())
    assert {lpn for lpn, _ in tmap} == {l for v, l in shadow if v == "public"}

    ftl.recover_metadata()
    reads = []
    for volume, lpn in sorted(shadow):
        read = ftl.public_read if volume == "public" else ftl.hidden_read
        data = read(lpn)
        assert data == shadow[volume, lpn]
        reads.append(data)
    assert _digest(ftl, tmap, _digest(solo), reads) == MOUNT_RECOVER


def test_public_only_unmount_fingerprint():
    cfg = desk_config(cmt_capacity=64, seed=0)
    lay, rng = cfg.layout, random.Random(0)
    ftl = PearlFtl.format(FlashDevice(cfg.geometry), cfg, "public-pw",
                          "hidden-pw")
    for lpn in range(30):
        ftl.public_write(lpn, rng.randbytes(lay.public_payload_bytes))
    for lpn in range(10):
        ftl.hidden_write(lpn, rng.randbytes(lay.hidden_payload_bytes))
    ftl.prepare_unmount()
    solo = PearlFtl.mount(FlashDevice.restore(ftl.snapshot()), "public-pw",
                          cmt_capacity=64)
    for lpn in range(20):
        solo.public_write(lpn, rng.randbytes(lay.public_payload_bytes))
    solo.prepare_unmount()
    assert _digest(solo, _digest(ftl)) == PUBLIC_ONLY_UNMOUNT


def test_dftl_fingerprint():
    dftl = Dftl(FlashDevice(DESK_GEOMETRY), cmt_capacity=32)
    rng = random.Random(7)
    shadow, reads = {}, []
    for _ in range(3000):
        r = rng.random()
        if r < 0.6 or not shadow:
            lpn = rng.randrange(dftl.logical_pages // 2)
            shadow[lpn] = rng.randbytes(dftl.page_bytes)
            dftl.write(lpn, shadow[lpn])
        elif r < 0.7:
            lpn = rng.choice(sorted(shadow))
            dftl.trim(lpn)
            del shadow[lpn]
        elif r < 0.75:
            dftl.gc_run()
        else:
            lpn = rng.choice(sorted(shadow))
            reads.append(dftl.read(lpn))
            assert reads[-1] == shadow[lpn]
    assert dftl.gc_runs > 0 and dftl.ledger["translation_programs"] > 0
    assert _digest(dftl, reads, sorted(dftl.full_map().items())) == DFTL


def test_gc_inside_allocation_fingerprint():
    cfg = desk_config(cmt_capacity=64, seed=0)
    ftl, _, _ = gc_burst(PearlFtl.format(FlashDevice(cfg.geometry), cfg,
                                         "public-pw", "hidden-pw"), nops=2000)
    assert _digest(ftl, ftl.gc_runs) == PEARL_GC_BURST


def test_dftl_gc_inside_allocation_fingerprint():
    dftl, _, _ = gc_burst(Dftl(FlashDevice(DESK_GEOMETRY), cmt_capacity=32),
                          nops=2000)
    assert _digest(dftl, dftl.gc_runs) == DFTL_GC_BURST


@pytest.mark.parametrize("scale", sorted(FILL))
def test_fill_fingerprint(scale):
    g = DESK_GEOMETRY
    cfg = PearlConfig(DeviceGeometry(1, 1, scale * g.blocks_per_plane,
                                     g.pages_per_block, g.page_bytes,
                                     g.oob_bytes), cmt_capacity=64, seed=0)
    ftl = init_device(PearlFtl.format(FlashDevice(cfg.geometry), cfg,
                                      "public-pw", "hidden-pw"),
                      fill_fraction=0.5, seed=0)
    ftl.prepare_unmount()
    assert ftl.gc_runs > 0
    assert _digest(ftl, ftl.gc_runs) == FILL[scale]
