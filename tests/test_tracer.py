"""The benchmark's layer tracer finds every program name it wraps.

``benchmarks/tracer.py`` wraps methods by looking them up in the class
that defines them (``PearlFtl.__dict__``) and functions by their module
names (``pearl.adversary.decode_page_public``), so moving a method into
a base class or dropping a module name breaks traced benchmark runs;
these tests catch that first.
"""

import importlib.util
from pathlib import Path

import pearl.adversary
from conftest import mixed_workload
from pearl.config import desk_config
from pearl.flash import FlashDevice
from pearl.ftl import PearlFtl
from pearl.wom import WOM_3_5

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_the_program():
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


def test_tracer_records_the_examiner_scans():
    tracer = _load_tracer()
    names = {(module, name): getattr(module, name)
             for module, name, _ in tracer._FUNCTIONS}
    cfg = desk_config(cmt_capacity=64, seed=0)
    ftl, snaps, _ = mixed_workload(PearlFtl, cfg, seed=7, nops=300,
                                   snap_every=150)
    adv = pearl.adversary
    with tracer.Tracer().installed() as t:
        adv.classify_snapshot(snaps[-1], ftl.k_pub, decode_payloads=True)
        adv.diff_transitions(snaps[0], snaps[-1])
        adv.ui1_inference(snaps[-1], snaps[-1])
        adv.frequency_distinguisher(snaps, WOM_3_5)
    for key in ("adversary.classify", "adversary.diff", "adversary.ui1",
                "adversary.frequency"):
        assert t.spans[key][0] == 1, key
    assert t.spans["wom.histogram"][0] == len(snaps)
    assert all(getattr(module, name) is fn
               for (module, name), fn in names.items())


def test_tracer_attributes_a_collection_to_every_write_layer(monkeypatch):
    """A collection seals its relocations as batches: the WOM encoders,
    AES-CTR and OOB packing still show calls, and the tracer's program
    count matches the device's."""
    tracer = _load_tracer()
    cfg = desk_config(cmt_capacity=64, seed=0)
    ftl, _, _ = mixed_workload(PearlFtl, cfg, seed=3, nops=400,
                               snap_every=0)
    victim = max((blk for blk in cfg.managed_blocks
                  if blk not in ftl._free and blk not in ftl._block.values()),
                 key=lambda blk: ftl._valid[blk])
    assert ftl._valid[victim] > 1
    monkeypatch.setattr(ftl, "_select_victim", lambda: victim)
    programs = ftl.device.programs
    with tracer.Tracer().installed() as t:
        assert ftl.gc_run() is not None
    metrics = t.layer_metrics()
    assert metrics["flash.programs"] == ftl.device.programs - programs > 1
    for name in ("wom.encode_calls", "crypto.calls", "oob.calls"):
        assert metrics[name] > 0, name
    assert metrics["wom.encode_calls"] < metrics["flash.programs"]
