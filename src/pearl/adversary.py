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

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .config import RESERVED_BLOCKS
from .errors import PearlError
from .flash import Snapshot
from .wom import (_HISTOGRAM_GROUPS, WOM_3_5, PageLayout, WomCode,
                  cache_pages)

# The scans call the batched kernels.  decrypt_payload, observable_stage,
# parse_oob and decode_page_public, their per-page equivalents, stay
# importable from this module because the benchmark tracer wraps them here.
from .crypto import decrypt_payload, decrypt_payloads  # noqa: F401
from .oob import (STAGES, observable_stage, observable_stages,  # noqa: F401
                  parse_oob, slot_a_claims, stage_ivs)
from .wom import decode_page_public, decode_pages_public  # noqa: F401

# Observable-stage transitions explainable by public-only operation within
# one erase lifetime (reflexive-transitive closure of the page state graph
# projected onto {empty, first, second}).
PLAUSIBLE_SAME_LIFE = {
    ("empty", "empty"), ("empty", "first"), ("empty", "second"),
    ("first", "first"), ("first", "second"), ("second", "second"),
}


_FIRST = STAGES.index("first")
_SECOND = STAGES.index("second")


def _managed_pages(snap: Snapshot):
    g = snap.geometry
    return range(RESERVED_BLOCKS * g.pages_per_block, g.total_pages)


def _stages(snap: Snapshot) -> np.ndarray:
    """Stage codes (indices into STAGES) of the managed pages, in order."""
    return observable_stages(snap.oob[_managed_pages(snap).start:])


def _steps(ppns, pages: int):
    """ppns (a range or an index array) in slices of at most `pages`."""
    for start in range(0, len(ppns), pages):
        yield ppns[start:start + pages]


def _page_grid(pages) -> np.ndarray:
    return np.frombuffer(b"".join(pages), dtype=np.uint8).reshape(
        len(pages), -1)


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
    payload) of every page outside the metadata region.

    Payloads are decoded and decrypted in batches of programmed pages,
    each holding at most _HISTOGRAM_GROUPS codeword groups."""
    layout = PageLayout.for_page(snap.geometry.page_bytes, code)
    pages = _managed_pages(snap)
    stages = _stages(snap)
    payloads = {}
    if decode_payloads:
        step = cache_pages(layout)
        for idx in _steps(np.flatnonzero(stages), step):
            chunk = (idx + pages.start).tolist()
            second = stages[idx] == _SECOND
            raw = decode_pages_public(layout, code, _page_grid(
                [snap.data[p] for p in chunk]), second)
            ivs = stage_ivs([snap.oob[p] for p in chunk], second)
            plain = decrypt_payloads(k_pub, ivs, raw)
            payloads.update(zip(chunk, map(bytes, plain)))
    return [PageObservation(ppn, STAGES[s], payloads.get(ppn))
            for ppn, s in zip(pages, stages.tolist())]


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


def diff_transitions(s1: Snapshot, s2: Snapshot) -> TransitionReport:
    """Flag per-page changes between two snapshots of the same device that
    no public-only workload could have produced.

    Stages, the 0->1 subset rule and content equality are compared over
    steps of pages whose data is at most 8 * _HISTOGRAM_GROUPS bytes (the
    size of one histogram step's int64 groups); only pages whose stage or
    content differ, or whose block was erased, are looked at one by one."""
    if s1.geometry != s2.geometry:
        raise PearlError("snapshots have different geometries")
    g = s1.geometry
    ppb = g.pages_per_block
    erases = np.subtract(s2.erase_counts, s1.erase_counts)
    report = TransitionReport()
    step = max(1, 8 * _HISTOGRAM_GROUPS // g.page_bytes)
    for chunk in _steps(_managed_pages(s1), step):
        before = observable_stages(s1.oob[chunk.start:chunk.stop])
        after = observable_stages(s2.oob[chunk.start:chunk.stop])
        erased = erases[np.arange(chunk.start, chunk.stop) // ppb]
        cleared = np.zeros(len(chunk), dtype=bool)
        changed = np.zeros(len(chunk), dtype=bool)
        for area in ("data", "oob"):
            old = _page_grid(getattr(s1, area)[chunk.start:chunk.stop])
            new = _page_grid(getattr(s2, area)[chunk.start:chunk.stop])
            flipped = old ^ new
            changed |= flipped.any(axis=1)
            cleared |= (flipped & old).any(axis=1)
        look = (before != after) | (changed & (erased == 0))
        for i in np.flatnonzero(look).tolist():
            report.records.append(_transition(
                chunk.start + i, STAGES[before[i]], STAGES[after[i]],
                int(erased[i]), cleared[i], changed[i]))
    return report


def _transition(ppn, before, after, erased, cleared, changed):
    """The record of a page whose stage differs, or whose content differs
    within one erase lifetime."""
    if erased > 0:
        return TransitionRecord(ppn, before, after, True,
                                f"block erased x{erased}")
    if (before, after) not in PLAUSIBLE_SAME_LIFE:
        return TransitionRecord(ppn, before, after, False,
                                "no such edge without an erase")
    if cleared:
        return TransitionRecord(ppn, before, after, False,
                                "set bits were cleared")
    if before == after:
        return TransitionRecord(ppn, before, after, False,
                                "content changed without a stage change")
    return TransitionRecord(ppn, before, after, True, "within closure")


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
    oobs = s2.oob[_managed_pages(s2).start:]
    codes = observable_stages(oobs).tolist()
    fields = slot_a_claims(oobs).tolist()
    for blk in range(RESERVED_BLOCKS, g.total_blocks):
        base = blk * ppb
        off = base - RESERVED_BLOCKS * ppb
        stages = codes[off:off + ppb]
        claims = {}
        for i, lpn in enumerate(fields[off:off + ppb]):
            if lpn >= 0:
                claims.setdefault(lpn, []).append(i)
        second = [i for i, st in enumerate(stages) if st == _SECOND]
        for lpn, positions in claims.items():
            if len(positions) < 2:
                continue
            for idx, j in enumerate(positions[:-1]):
                if stages[j] != _FIRST:
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
    public-only model, over all second-write pages of all snapshots; the
    p-value is chi2_sf of the statistic."""
    if model is None:
        model = second_write_model(code)
    counts = Counter()
    layout = None
    from .wom import codeword_histogram

    for snap in snapshots:
        if layout is None:
            layout = PageLayout.for_page(snap.geometry.page_bytes, code)
        second = np.flatnonzero(_stages(snap) == _SECOND)
        pages = [snap.data[p] for p in
                 (second + _managed_pages(snap).start).tolist()]
        counts.update(codeword_histogram(pages, code, layout))
    total = sum(counts.values())
    if total < min_groups:
        return FrequencyReport(dict(counts), model, total, None, None, None,
                               insufficient=True)
    support = sorted(model)
    observed = np.array([counts.get(cw, 0) for cw in support], dtype=float)
    expected = np.array([model[cw] * total for cw in support])
    # scipy.stats.chisquare's sum check and statistic, without SciPy.
    if abs(total - expected.sum()) > 1e-8 * min(total, expected.sum()):
        raise ValueError(f"model expects {expected.sum()} groups, "
                         f"observed {total}: not a distribution")
    statistic = float(((observed - expected) ** 2 / expected).sum())
    df = len(support) - 1
    return FrequencyReport(dict(counts), model, total, statistic, df,
                           chi2_sf(statistic, df), insufficient=False)


def chi2_sf(x: float, df: int) -> float:
    """P(X > x) for X chi-square with integer df >= 1, in closed form.

    With y = x / 2 this is e^-y * sum of y^a / a! over a = 0, 1, ...,
    df/2 - 1 for even df, and erfc(sqrt(y)) plus the same sum over
    a = 1/2, 3/2, ..., df/2 - 1 for odd df (a! = Gamma(a + 1)).  Each
    term is taken from its logarithm, so e^-y cannot underflow alone."""
    if x <= 0:
        return 1.0
    y = x / 2
    log_y = math.log(y)
    terms = [math.exp(a * log_y - y - math.lgamma(a + 1))
             for a in (df % 2 / 2 + i for i in range(df // 2))]
    if df % 2:
        terms.append(math.erfc(math.sqrt(y)))
    return math.fsum(terms)
