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

from pearl.config import desk_config
from pearl.dftl import Dftl
from pearl.flash import DESK_GEOMETRY, FlashDevice
from pearl.ftl import PearlFtl
from pearl.mutants import BrokenAllocatorFtl

from conftest import gc_burst, mixed_workload

MIXED = "80381d06505681e48d808937b9d499dbd9de2d2e5440c130785ec5cb55ea5e9a"
MOUNT_RECOVER = (
    "65b39960e876eaefb02730c5ee9b63cf3787602e1641b56fdb8498dbc6d1e529")
DFTL = "ccdc456371c5128063d4d51314ea121688439d291f6d39d9495ddb0105463e83"
BROKEN_ALLOCATOR = (
    "cd4afbe16bbc9c2bc9eac471971ec3107d98291b22a6c031425153709229ae67")
# Collections that run inside allocation (no explicit gc_run).
PEARL_GC_BURST = (
    "324c8b00891112373dab1cd85c5ed3bce6882f0230644e6be20128f226d0b48c")
DFTL_GC_BURST = (
    "3dbcb08651ae2563a8169f13eb497215a8e586df04bd375917bc97c86f7bb3ab")


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


def test_gc_inside_allocation_fingerprint(derive_key_once):
    cfg = desk_config(cmt_capacity=64, seed=0)
    ftl = gc_burst(PearlFtl.format(FlashDevice(cfg.geometry), cfg,
                                   "public-pw", "hidden-pw"), nops=2000)
    assert _digest(ftl, ftl.gc_runs) == PEARL_GC_BURST


def test_dftl_gc_inside_allocation_fingerprint():
    dftl = gc_burst(Dftl(FlashDevice(DESK_GEOMETRY), cmt_capacity=32),
                    nops=2000)
    assert _digest(dftl, dftl.gc_runs) == DFTL_GC_BURST
