"""The benchmark's layer tracer finds every program name it wraps.

``benchmarks/tracer.py`` wraps methods by looking them up in the class
that defines them (``PearlFtl.__dict__``), so moving one into a base
class breaks traced benchmark runs; this test catches that first.
"""

import importlib.util
from pathlib import Path

from pearl.config import desk_config
from pearl.flash import FlashDevice
from pearl.ftl import PearlFtl

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_the_program(derive_key_once):
    tracer = _load_tracer()
    before = dict(vars(PearlFtl))
    cfg = desk_config(cmt_capacity=64, seed=0)
    with tracer.Tracer().installed() as t:
        ftl = PearlFtl.format(FlashDevice(cfg.geometry), cfg, "public-pw")
        ftl.public_write(0, bytes(ftl.layout.public_payload_bytes))
        ftl.prepare_unmount()
        PearlFtl.mount(FlashDevice.restore(ftl.snapshot()), "public-pw",
                       cmt_capacity=64)
    assert dict(vars(PearlFtl)) == before
    metrics = t.layer_metrics()
    assert metrics["flash.programs"] == ftl.device.programs
    assert t.spans["ftl.mount"][0] == 1
