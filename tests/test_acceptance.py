"""Top-level acceptance checks, one test per shipped guarantee.

Each test prints a single summary line with its measured numbers, so a
verbose run reads as a pass/fail scorecard for the whole package.
"""

import random
from fractions import Fraction

import pytest

from conftest import mixed_workload
from pearl.adversary import (diff_transitions, frequency_distinguisher,
                             second_write_model, ui1_inference)
from pearl.bench import gen_synthetic, init_device, replay
from pearl.config import desk_config
from pearl.dftl import Dftl
from pearl.flash import DESK_GEOMETRY, FlashDevice
from pearl.ftl import PearlFtl
from pearl.mutants import BrokenAllocatorFtl
from pearl.oob import TAG_SECOND, OobSlot, pack_oob
from pearl.wom import (WOM_2_3, WOM_3_5, PageLayout, decode_bits_hidden,
                       decode_bits_public, encode_page_first,
                       encode_page_full, encode_page_second,
                       verify_equal_partition, verify_wom2)


def _line(n, text):
    print(f"acceptance {n}: PASS - {text}")


# -- 1: code validity and partition shape ------------------------------


def test_01_code_validity_and_partition_sizes():
    assert verify_wom2(WOM_3_5).ok
    equal = verify_equal_partition(WOM_3_5)
    assert equal.sizes == {m: (4, 4) for m in range(8)}
    assert equal.equal

    assert verify_wom2(WOM_2_3).ok
    skew = verify_equal_partition(WOM_2_3)
    assert skew.sizes == {m: (1, 3) for m in range(4)}
    assert not skew.equal
    _line(1, "wom3x5 valid with |A|=|B|=4; wom2x3 valid with |A|=1,|B|=3")


# -- 2: worked decode example ------------------------------------------


def test_02_decode_fidelity():
    raw = "1100010101"
    public = decode_bits_public(WOM_3_5, raw, "second")
    hidden = decode_bits_hidden(WOM_3_5, raw)
    assert public == "110010"
    assert hidden == "01"
    _line(2, f"{raw} -> public {public}, hidden {hidden}")


# -- 3: codeword skew of the unbalanced code ---------------------------


def test_03_skew_reproduction():
    rng = random.Random(33)
    n = 10 ** 5

    def counts(full):
        c = {0b000: 0, 0b111: 0}
        for _ in range(n):
            m = rng.randrange(4)
            if full:
                cw = WOM_2_3.encode_full(m, rng.randrange(2))
            else:
                first = WOM_2_3.encode_first(rng.randrange(4))
                cw = WOM_2_3.encode_second(m, first)
            if cw in c:
                c[cw] += 1
        return c[0b000], c[0b111]

    lo, hi = counts(full=False)
    assert lo and hi
    two_stage = lo / hi
    assert two_stage == pytest.approx(1 / 3, rel=0.05)

    lo, hi = counts(full=True)
    full = lo / hi
    assert full == pytest.approx(1.0, rel=0.05)
    _line(3, f"two-stage 000:111 ratio {two_stage:.4f} (target 1/3), "
             f"full-write {full:.4f} (target 1)")


# -- 4: hidden data is statistically invisible -------------------------


def _enumerate_full_write(code):
    dist = {}
    denom = 2 ** (code.k + 1)
    for m in range(2 ** code.k):
        wa, wb = code.second_write[m]
        for cw in (wa, wb):
            dist[cw] = dist.get(cw, Fraction(0)) + Fraction(1, denom)
    return dist


def _synthetic_snapshot(code, n_pages, seed, hidden):
    """A device whose second-stage pages were produced either by full
    writes (hidden bits present) or by ordinary two-stage writes."""
    dev = FlashDevice(DESK_GEOMETRY)
    layout = PageLayout.for_page(dev.geometry.page_bytes, code)
    rng = random.Random(seed)
    base = dev.geometry.pages_per_block
    for i in range(n_pages):
        if hidden:
            page = encode_page_full(
                layout, code, rng.randbytes(layout.public_payload_bytes),
                rng.randbytes(layout.hidden_payload_bytes))
        else:
            first = encode_page_first(
                layout, code, rng.randbytes(layout.public_payload_bytes))
            page = encode_page_second(
                layout, code, rng.randbytes(layout.public_payload_bytes),
                first)
        oob = pack_oob(dev.geometry.oob_bytes, None,
                       OobSlot(bytes(16), i, TAG_SECOND))
        dev.program_page(base + i, page, oob)
    return dev.snapshot(), layout


def test_04_indistinguishability():
    # Exact equality of the two generation processes, per group and for
    # independent group pairs — for the balanced code.  The skewed code
    # fails the same enumeration, which is what makes it detectable.
    def _enumerate_two_stage(code):
        dist = {}
        denom = 2 ** (2 * code.k)
        for m1 in range(2 ** code.k):
            c1 = code.encode_first(m1)
            for m2 in range(2 ** code.k):
                cw = code.encode_second(m2, c1)
                dist[cw] = dist.get(cw, Fraction(0)) + Fraction(1, denom)
        return dist

    full = _enumerate_full_write(WOM_3_5)
    exact = _enumerate_two_stage(WOM_3_5)
    assert set(second_write_model(WOM_3_5)) == set(exact)
    assert full == exact
    pair_full = {(a, b): pa * pb for a, pa in full.items()
                 for b, pb in full.items()}
    pair_two = {(a, b): pa * pb for a, pa in exact.items()
                for b, pb in exact.items()}
    assert pair_full == pair_two
    assert _enumerate_full_write(WOM_2_3) != _enumerate_two_stage(WOM_2_3)

    # Page scale: the chi-square examiner cannot tell hidden-bearing
    # devices from plain ones under the balanced code...
    passes = 0
    for trial in range(20):
        snap, layout = _synthetic_snapshot(WOM_3_5, 31, seed=100 + trial,
                                           hidden=bool(trial % 2))
        assert 31 * layout.groups_per_page >= 10 ** 5
        report = frequency_distinguisher([snap], WOM_3_5)
        assert not report.insufficient
        if report.p_value > 0.01:
            passes += 1
    assert passes >= 19

    # ...but nails the skewed code immediately.
    snap, layout = _synthetic_snapshot(WOM_2_3, 19, seed=7, hidden=True)
    assert 19 * layout.groups_per_page >= 10 ** 5
    skew = frequency_distinguisher([snap], WOM_2_3)
    assert skew.p_value < 1e-6
    _line(4, f"exact distributions equal; balanced code undetected in "
             f"{passes}/20 trials; skewed code p={skew.p_value:.2e}")


# -- 5: snapshot plausibility under real workloads ---------------------


def test_05_transition_plausibility():
    cfg = desk_config(cmt_capacity=64, seed=0)
    _, snaps, _ = mixed_workload(PearlFtl, cfg, seed=42, nops=10_000)
    alarms = sum(len(ui1_inference(s, s)) for s in snaps)
    implausible = sum(len(diff_transitions(a, b).implausible)
                      for a, b in zip(snaps, snaps[1:]))
    assert alarms == 0
    assert implausible == 0

    detected = 0
    for seed in range(100):
        _, msnaps, _ = mixed_workload(
            BrokenAllocatorFtl, cfg, seed=seed, nops=800, hot_lpns=16,
            write_frac=0.60, hidden_frac=0.30, snap_every=250)
        detected += any(ui1_inference(s, s) for s in msnaps)
    assert detected >= 99
    _line(5, f"{len(snaps)} snapshots over 10k ops: 0 alarms, "
             f"0 implausible transitions; mutant caught {detected}/100")


# -- 6: write amplification ledger -------------------------------------


def test_06_amplification_ratios(desk_cfg, device, rng):
    ftl = PearlFtl.format(device, desk_cfg, "public-pw", "hidden-pw")
    lay = ftl.layout
    for lpn in range(50):
        ftl.public_write(lpn, rng.randbytes(lay.public_payload_bytes))
    for lpn in range(20):
        ftl.hidden_write(lpn, rng.randbytes(lay.hidden_payload_bytes))
    assert ftl.amplification("public_user") == Fraction(5, 3)
    assert ftl.amplification("hidden_user") == Fraction(5, 1)
    _line(6, "physical/logical bits exactly 5/3 public, 5 hidden")


# -- 7: capacity bounds ------------------------------------------------


def test_07_capacity_bounds():
    with pytest.raises(ValueError):
        desk_config(public_fraction=0.61)
    with pytest.raises(ValueError):
        desk_config(hidden_fraction=0.21)

    cfg = desk_config(cmt_capacity=64, seed=0)
    assert cfg.public_pages == cfg.geometry.total_pages * 36 // 64 == 1152
    assert cfg.hidden_pages == cfg.geometry.total_pages * 12 // 64 == 384

    def fill_public(ftl, rng):
        data = {}
        for lpn in range(cfg.public_pages):
            data[lpn] = rng.randbytes(cfg.layout.public_payload_bytes)
            ftl.public_write(lpn, data[lpn])
        return data

    # Hidden volume empty: the public volume fills completely.
    rng = random.Random(77)
    empty = PearlFtl.format(FlashDevice(cfg.geometry), cfg, "p", "h")
    pub = fill_public(empty, rng)
    assert all(empty.public_read(l) == d for l, d in pub.items())

    # Hidden volume full: the same fill still completes in full, and
    # every hidden page survives it.
    full = PearlFtl.format(FlashDevice(cfg.geometry), cfg, "p", "h")
    fill_public(full, rng)
    hid = {}
    for lpn in range(cfg.hidden_pages):
        hid[lpn] = rng.randbytes(cfg.layout.hidden_payload_bytes)
        full.hidden_write(lpn, hid[lpn])
    pub = fill_public(full, rng)
    assert all(full.public_read(l) == d for l, d in pub.items())
    assert all(full.hidden_read(l) == d for l, d in hid.items())
    assert full.check_invariants() == []
    _line(7, f"fractions >60%/>20% rejected; desk 1152+384 pages; all "
             f"{cfg.public_pages} public pages writable with hidden full")


# -- 8: throughput relative to the plain baseline ----------------------


def test_08_relative_throughput_bands():
    n = 600

    def throughput(make_ftl, volume, read_fraction):
        ftl = init_device(make_ftl(), fill_fraction=0.5, seed=3)
        pages, payload = ftl.volumes()[volume]
        # reads stay inside the pre-filled half of the volume
        lim = int(pages * 0.5) if read_fraction else pages
        wl = gen_synthetic(n, payload, read_fraction, 0.0, volume,
                           seed=11, volume_pages=lim, payload_bytes=payload)
        return replay(ftl, wl, seed=12).bytes_per_second

    def baseline():
        return Dftl(FlashDevice(DESK_GEOMETRY), cmt_capacity=64)

    def deniable():
        cfg = desk_config(cmt_capacity=64, seed=3)
        return PearlFtl.format(FlashDevice(cfg.geometry), cfg, "p", "h")

    base = {"read": throughput(baseline, "data", 1.0),
            "write": throughput(baseline, "data", 0.0)}
    bands = {("public", "read"): (0.45, 0.75),
             ("public", "write"): (0.45, 0.75),
             ("hidden", "read"): (0.10, 0.30),
             ("hidden", "write"): (0.05, 0.20)}
    measured = {}
    for (volume, op), (lo, hi) in bands.items():
        ratio = throughput(deniable, volume, 1.0 if op == "read"
                           else 0.0) / base[op]
        measured[volume, op] = ratio
        assert lo <= ratio <= hi, (volume, op, ratio)
    _line(8, "byte throughput vs baseline: " + ", ".join(
        f"{v} {o} {100 * r:.1f}%" for (v, o), r in measured.items()))


# -- 9: durability across recovery and public-only mounts --------------


def test_09_durability():
    cfg = desk_config(cmt_capacity=64, seed=0)
    ftl, _, shadow = mixed_workload(PearlFtl, cfg, seed=5, nops=3000)
    assert ftl.gc_runs >= 5

    # Drop every volatile structure and rebuild from flash.
    ftl.recover_metadata()
    for (volume, lpn), data in shadow.items():
        read = ftl.public_read if volume == "public" else ftl.hidden_read
        assert read(lpn) == data

    # Full image round trip through a fresh mount.
    image = ftl.snapshot()
    both = PearlFtl.mount(FlashDevice.restore(image), "public-pw",
                          "hidden-pw", cmt_capacity=64)
    for (volume, lpn), data in shadow.items():
        read = both.public_read if volume == "public" else both.hidden_read
        assert read(lpn) == data

    # Public-password-only mount: public data intact, and continued
    # public use keeps it intact (hidden survival is not promised here).
    solo = PearlFtl.mount(FlashDevice.restore(image), "public-pw",
                          cmt_capacity=64)
    publics = {l: d for (v, l), d in shadow.items() if v == "public"}
    assert all(solo.public_read(l) == d for l, d in publics.items())
    rng = random.Random(9)
    for lpn in list(publics)[:20]:
        publics[lpn] = rng.randbytes(cfg.layout.public_payload_bytes)
        solo.public_write(lpn, publics[lpn])
    solo.prepare_unmount()
    assert all(solo.public_read(l) == d for l, d in publics.items())
    _line(9, f"100% readback of {len(shadow)} logical pages after "
             f"{ftl.gc_runs} GC runs, recovery, and remounts")
