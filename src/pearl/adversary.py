"""Multi-snapshot adversary: what an examiner with the public key can do.

Three detectors operate on raw device snapshots taken at unmount time:
page classification by write stage, transition-plausibility diffing
between snapshots, and in-block write-order reasoning that catches
allocators violating the fill-the-UI1-page-first discipline.  A fourth
runs the codeword-frequency analysis that separates equal-partition codes
from skewed ones.

None of the detectors ever consume the hidden key.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from scipy import stats

from .config import RESERVED_BLOCKS
from .crypto import decrypt_payload
from .errors import PearlError
from .flash import Snapshot
from .oob import observable_stage, parse_oob
from .wom import WOM_3_5, PageLayout, WomCode, decode_page_public

# Observable-stage transitions explainable by public-only operation within
# one erase lifetime (reflexive-transitive closure of the page state graph
# projected onto {empty, first, second}).
PLAUSIBLE_SAME_LIFE = {
    ("empty", "empty"), ("empty", "first"), ("empty", "second"),
    ("first", "first"), ("first", "second"), ("second", "second"),
}


def _managed_pages(snap: Snapshot):
    g = snap.geometry
    return range(RESERVED_BLOCKS * g.pages_per_block, g.total_pages)


def _stage(snap: Snapshot, ppn: int) -> str:
    return observable_stage(snap.oob[ppn])


# ---------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------


@dataclass
class PageObservation:
    ppn: int
    stage: str          # empty | first | second
    public_payload: bytes | None = None


def classify_snapshot(snap: Snapshot, k_pub, code: WomCode = WOM_3_5,
                      decode_payloads: bool = False):
    """Per-page observable stage (and, optionally, the decrypted public
    payload) of every page outside the metadata region."""
    layout = PageLayout.for_page(snap.geometry.page_bytes, code)
    out = []
    for ppn in _managed_pages(snap):
        stage = _stage(snap, ppn)
        payload = None
        if decode_payloads and stage != "empty":
            slot_a, slot_b = parse_oob(snap.oob[ppn])
            slot = slot_b if stage == "second" else slot_a
            raw = decode_page_public(layout, code, snap.data[ppn], stage)
            payload = decrypt_payload(k_pub, slot.iv, raw)
        out.append(PageObservation(ppn, stage, payload))
    return out


# ---------------------------------------------------------------------
# transition plausibility
# ---------------------------------------------------------------------


@dataclass
class TransitionRecord:
    ppn: int
    before: str
    after: str
    plausible: bool
    reason: str

    def line(self) -> str:
        flag = "ok" if self.plausible else "IMPLAUSIBLE"
        return f"page {self.ppn}: {self.before} -> {self.after} [{flag}] {self.reason}"


@dataclass
class TransitionReport:
    records: list = field(default_factory=list)

    @property
    def implausible(self):
        return [r for r in self.records if not r.plausible]

    @property
    def ok(self) -> bool:
        return not self.implausible

    def lines(self):
        return [r.line() for r in self.records]


def _subset_bits(older: bytes, newer: bytes) -> bool:
    a = int.from_bytes(older, "big")
    b = int.from_bytes(newer, "big")
    return a | b == b


def diff_transitions(s1: Snapshot, s2: Snapshot) -> TransitionReport:
    """Flag per-page changes between two snapshots of the same device that
    no public-only workload could have produced."""
    if s1.geometry != s2.geometry:
        raise PearlError("snapshots have different geometries")
    g = s1.geometry
    report = TransitionReport()
    for ppn in _managed_pages(s1):
        blk = ppn // g.pages_per_block
        erased = s2.erase_counts[blk] - s1.erase_counts[blk]
        before, after = _stage(s1, ppn), _stage(s2, ppn)
        if erased > 0:
            if before != after:
                report.records.append(TransitionRecord(
                    ppn, before, after, True, f"block erased x{erased}"))
            continue
        if (before, after) not in PLAUSIBLE_SAME_LIFE:
            report.records.append(TransitionRecord(
                ppn, before, after, False, "no such edge without an erase"))
            continue
        if not (_subset_bits(s1.data[ppn], s2.data[ppn])
                and _subset_bits(s1.oob[ppn], s2.oob[ppn])):
            report.records.append(TransitionRecord(
                ppn, before, after, False, "set bits were cleared"))
            continue
        if before == after and (s1.data[ppn] != s2.data[ppn]
                                or s1.oob[ppn] != s2.oob[ppn]):
            report.records.append(TransitionRecord(
                ppn, before, after, False, "content changed without a stage change"))
            continue
        if before != after:
            report.records.append(TransitionRecord(
                ppn, before, after, True, "within closure"))
    return report


# ---------------------------------------------------------------------
# in-block write-order (UI1) inference
# ---------------------------------------------------------------------


@dataclass
class Ui1Alarm:
    block: int
    stale_page: int      # j: first-write page whose data was superseded
    update_page: int     # j': later in-block first-write claim of the same lpn
    witness_page: int    # i: page programmed while j was demonstrably UI1
    lpn: int

    def line(self) -> str:
        return (f"block {self.block}: page {self.witness_page} written while "
                f"page {self.stale_page} (lpn {self.lpn}, updated by page "
                f"{self.update_page}) was an unconsumed UI1 page")


def ui1_inference(s1: Snapshot, s2: Snapshot):
    """Alarms for pages that the public-only allocator could not have
    written.

    Within a block, pages program in order.  A first-write claim of lpn L
    at position j' proves the earlier first-write page j holding L became
    update-invalidated no later than j'.  The public allocator must give
    that page a second write before touching another empty page, so if j
    is still at first-write stage, any later second-write page in the
    block is unexplainable.
    """
    if s1.geometry != s2.geometry:
        raise PearlError("snapshots have different geometries")
    g = s2.geometry
    ppb = g.pages_per_block
    alarms = []
    for blk in range(RESERVED_BLOCKS, g.total_blocks):
        base = blk * ppb
        stages = [_stage(s2, base + i) for i in range(ppb)]
        claims = {}
        for i in range(ppb):
            if stages[i] == "empty":
                continue
            slot_a, _ = parse_oob(s2.oob[base + i])
            if slot_a is not None:
                claims.setdefault(slot_a.lpn_field, []).append(i)
        second = [i for i in range(ppb) if stages[i] == "second"]
        for lpn, positions in claims.items():
            if len(positions) < 2:
                continue
            for idx, j in enumerate(positions[:-1]):
                if stages[j] != "first":
                    continue
                jp = positions[idx + 1]
                witness = next((i for i in second if i > jp), None)
                if witness is not None:
                    alarms.append(Ui1Alarm(blk, base + j, base + jp,
                                           base + witness, lpn))
    return alarms


# ---------------------------------------------------------------------
# codeword-frequency distinguisher
# ---------------------------------------------------------------------


@dataclass
class FrequencyReport:
    counts: dict
    model: dict
    total_groups: int
    statistic: float | None
    df: int | None
    p_value: float | None
    insufficient: bool

    def distinguishes(self, alpha: float = 0.01) -> bool:
        return (not self.insufficient and self.p_value is not None
                and self.p_value < alpha)

    def lines(self):
        out = [f"groups {self.total_groups}"]
        for cw in sorted(self.model):
            out.append(f"codeword {cw}: observed {self.counts.get(cw, 0)}"
                       f" expected {self.model[cw] * self.total_groups:.1f}")
        if self.insufficient:
            out.append("insufficient samples")
        else:
            out.append(f"chi2 {self.statistic:.3f} df {self.df} p {self.p_value:.3g}")
        return out


def second_write_model(code: WomCode) -> dict:
    """Second-write codeword distribution of a public-only device: uniform
    first and second messages, so P(w_a(m)) is |A_m| / 2^(2k)."""
    probs = Counter()
    denom = 2 ** (2 * code.k)
    for m in range(2 ** code.k):
        a_set, b_set = code.partition[m]
        wa, wb = code.second_write[m]
        probs[wa] += len(a_set) / denom
        probs[wb] += len(b_set) / denom
    return dict(probs)


def frequency_distinguisher(snapshots, code: WomCode, model: dict = None,
                            min_groups: int = 10 ** 5) -> FrequencyReport:
    """Chi-square of observed second-write codeword counts against the
    public-only model, over all second-write pages of all snapshots."""
    if model is None:
        model = second_write_model(code)
    counts = Counter()
    layout = None
    from .wom import codeword_histogram

    for snap in snapshots:
        if layout is None:
            layout = PageLayout.for_page(snap.geometry.page_bytes, code)
        pages = [snap.data[p] for p in _managed_pages(snap)
                 if _stage(snap, p) == "second"]
        counts.update(codeword_histogram(pages, code, layout))
    total = sum(counts.values())
    if total < min_groups:
        return FrequencyReport(dict(counts), model, total, None, None, None,
                               insufficient=True)
    support = sorted(model)
    observed = [counts.get(cw, 0) for cw in support]
    expected = [model[cw] * total for cw in support]
    statistic, p = stats.chisquare(observed, expected)
    return FrequencyReport(dict(counts), model, total, float(statistic),
                           len(support) - 1, float(p), insufficient=False)
