import random

import pytest

from pearl.config import desk_config
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


def mixed_workload(ftl_cls, cfg, seed, nops, snap_every=500, hidden=True,
                   hot_lpns=None, write_frac=0.45, hidden_frac=0.25,
                   device=None, track_ivs=False):
    """Shared randomized workload driver; returns (ftl, snapshots, shadow).

    shadow maps ("public"|"hidden", lpn) -> last written payload.
    """
    cfg_dev = device or FlashDevice(cfg.geometry)
    ftl = ftl_cls.format(cfg_dev, cfg, "public-pw", "hidden-pw",
                         track_ivs=track_ivs)
    lay = cfg.layout
    rng = random.Random(seed + 1)
    shadow = {}
    snaps = []
    pub_range = hot_lpns or cfg.public_pages // 4
    hid_range = cfg.hidden_pages // 4
    for i in range(nops):
        r = rng.random()
        pub = sorted(l for v, l in shadow if v == "public")
        if r < write_frac or not pub:
            lpn = rng.randrange(pub_range)
            data = rng.randbytes(lay.public_payload_bytes)
            ftl.public_write(lpn, data)
            shadow["public", lpn] = data
        elif r < write_frac + hidden_frac and hidden:
            lpn = rng.randrange(hid_range)
            data = rng.randbytes(lay.hidden_payload_bytes)
            ftl.hidden_write(lpn, data)
            shadow["hidden", lpn] = data
        elif r < write_frac + hidden_frac + 0.10 and pub:
            lpn = rng.choice(pub)
            ftl.trim(lpn)
            del shadow["public", lpn]
        elif r < write_frac + hidden_frac + 0.15:
            ftl.gc_run()
        elif pub:
            lpn = rng.choice(pub)
            assert ftl.public_read(lpn) == shadow["public", lpn]
        if snap_every and (i + 1) % snap_every == 0:
            ftl.prepare_unmount()
            snaps.append(ftl.snapshot())
    ftl.prepare_unmount()
    snaps.append(ftl.snapshot())
    return ftl, snaps, shadow
