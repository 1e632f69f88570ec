import random

import pytest

from pearl.bench import mixed_workload  # noqa: F401  (re-exported)
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
