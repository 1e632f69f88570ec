"""Two-write WOM codes with hidden-bit encoding, plus page-level packing.

A (k, n) 2-write WOM code writes a k-bit message into n flash cells twice
between erases, only ever setting bits 0 -> 1.  Codes that support a
per-message partition of the first-write codewords expose two second-write
codewords per message, and the choice between them carries one hidden bit.

Messages and codewords are plain ints (bit width k and n respectively,
most significant bit first).  Page-level helpers pack runs of codeword
groups into raw page bytes with numpy, for codes with n <= 8.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import WomError


def bits_to_int(bits: str) -> int:
    return int(bits, 2)


def int_to_bits(value: int, width: int) -> str:
    return format(value, f"0{width}b")


def covers(x: int, y: int) -> bool:
    """Bitwise x >= y in every position: x can be reached from y by 0->1 sets."""
    return x | y == x


def derive_partition(e1, wa, wb, k, n):
    """Derive per-message (A_m, B_m) partitions of C1 from the code tables.

    Elements of C1 reachable only under w_a(m) go to A_m, only under w_b(m)
    to B_m.  Elements reachable under both are assigned to equalize |A| and
    |B| when possible (lowest codewords to A first), otherwise they all go
    to B.  Returns None if some first-write codeword is unreachable for
    some message (no valid partition exists).
    """
    c1 = sorted(set(e1))
    parts = {}
    for m in range(2**k):
        cover_a = [c for c in c1 if covers(wa[m], c)]
        cover_b = [c for c in c1 if covers(wb[m], c)]
        if set(cover_a) | set(cover_b) != set(c1):
            return None
        overlap = sorted(set(cover_a) & set(cover_b))
        a = [c for c in cover_a if c not in overlap]
        b = [c for c in cover_b if c not in overlap]
        target = len(c1) // 2
        need = target - len(a)
        if len(c1) % 2 == 0 and 0 <= need <= len(overlap):
            a += overlap[:need]
            b += overlap[need:]
        else:
            b += overlap
        parts[m] = (frozenset(a), frozenset(b))
    return parts


@dataclass(frozen=True)
class WomCode:
    """A (k, n) 2-write WOM code given by explicit tables.

    first_write[m] is E1(m); second_write[m] is the pair (w_a(m), w_b(m))
    written for hidden bit 0 / 1.  partition[m] = (A_m, B_m) over C1.
    """

    name: str
    k: int
    n: int
    first_write: tuple
    second_write: tuple  # tuple of (wa, wb) pairs
    partition: dict = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "c1", frozenset(self.first_write))
        d1 = {c: m for m, c in enumerate(self.first_write)}
        d2 = {}
        hid = {}
        for m, (wa, wb) in enumerate(self.second_write):
            d2[wa] = m
            hid[wa] = 0
            d2[wb] = m
            hid[wb] = 1
        object.__setattr__(self, "_d1", d1)
        object.__setattr__(self, "_d2", d2)
        object.__setattr__(self, "_hid", hid)
        # numpy lookup tables for the page codecs
        size = 2**self.n
        e1_arr = np.array(self.first_write, dtype=np.int64)
        w2_arr = np.array(self.second_write, dtype=np.int64)
        d1_arr = np.full(size, -1, dtype=np.int64)
        d2_arr = np.full(size, -1, dtype=np.int64)
        hid_arr = np.full(size, -1, dtype=np.int64)
        for c, m in d1.items():
            d1_arr[c] = m
        for c, m in d2.items():
            d2_arr[c] = m
        for c, h in hid.items():
            hid_arr[c] = h
        e2_arr = np.full((2**self.k, size), -1, dtype=np.int64)
        for m in range(2**self.k):
            a_set, b_set = self.partition[m]
            for c in a_set:
                e2_arr[m, c] = self.second_write[m][0]
            for c in b_set:
                e2_arr[m, c] = self.second_write[m][1]
        object.__setattr__(self, "_e1_arr", e1_arr)
        object.__setattr__(self, "_w2_arr", w2_arr)
        object.__setattr__(self, "_d1_arr", d1_arr)
        object.__setattr__(self, "_d2_arr", d2_arr)
        object.__setattr__(self, "_hid_arr", hid_arr)
        object.__setattr__(self, "_e2_arr", e2_arr)

    @cached_property
    def _chunks(self) -> "_ChunkTables":
        """Multi-group tables of the page-batch kernels (n <= 8)."""
        return _ChunkTables(self)

    # -- scalar codec ------------------------------------------------

    def _check_message(self, m: int):
        if not 0 <= m < 2**self.k:
            raise WomError(f"message {m} out of range for k={self.k}")

    def encode_first(self, m: int) -> int:
        self._check_message(m)
        return self.first_write[m]

    def encode_second(self, m: int, existing: int) -> int:
        self._check_message(m)
        if existing not in self.c1:
            raise WomError(
                f"existing codeword {int_to_bits(existing, self.n)} is not a "
                "first-write codeword"
            )
        a_set, _ = self.partition[m]
        wa, wb = self.second_write[m]
        return wa if existing in a_set else wb

    def encode_full(self, p: int, h: int) -> int:
        self._check_message(p)
        if h not in (0, 1):
            raise WomError(f"hidden bit must be 0 or 1, got {h}")
        wa, wb = self.second_write[p]
        return wa if h == 0 else wb

    def decode_first(self, c: int) -> int:
        try:
            return self._d1[c]
        except KeyError:
            raise WomError(
                f"{int_to_bits(c, self.n)} is not a first-write codeword"
            ) from None

    def decode_second(self, c: int) -> int:
        try:
            return self._d2[c]
        except KeyError:
            raise WomError(
                f"{int_to_bits(c, self.n)} is not a second-write codeword"
            ) from None

    def decode_hidden(self, c: int) -> int:
        try:
            return self._hid[c]
        except KeyError:
            raise WomError(
                f"{int_to_bits(c, self.n)} is not a second-write codeword"
            ) from None


@dataclass
class ValidityReport:
    code_name: str
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class PartitionReport:
    code_name: str
    sizes: dict  # message -> (|A_m|, |B_m|)
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def equal(self) -> bool:
        return self.ok and all(a == b for a, b in self.sizes.values())


def verify_wom2(code: WomCode) -> ValidityReport:
    """Exhaustively check the four defining properties of a 2-write code."""
    v = []
    seen = {}
    for m in range(2**code.k):
        c = code.first_write[m]
        if c in seen:
            v.append(
                f"E1 not injective: messages {int_to_bits(seen[c], code.k)} and "
                f"{int_to_bits(m, code.k)} both map to {int_to_bits(c, code.n)}"
            )
        seen[c] = m
        if code.decode_first(c) != m:
            v.append(f"D1(E1({int_to_bits(m, code.k)})) != m")
    for m in range(2**code.k):
        for c in sorted(code.c1):
            try:
                out = code.encode_second(m, c)
            except WomError as e:
                v.append(str(e))
                continue
            if not covers(out, c):
                v.append(
                    f"E2({int_to_bits(m, code.k)}, {int_to_bits(c, code.n)}) = "
                    f"{int_to_bits(out, code.n)} not ≥ {int_to_bits(c, code.n)}"
                )
            dm = code._d2.get(out)
            if dm != m:
                v.append(
                    f"D2(E2({int_to_bits(m, code.k)}, {int_to_bits(c, code.n)})) "
                    f"decodes to {dm}, expected {int_to_bits(m, code.k)}"
                )
    return ValidityReport(code.name, v)


def verify_equal_partition(code: WomCode) -> PartitionReport:
    """Check disjointness, cover of C1 and |A_m| = |B_m| for every message."""
    v = []
    sizes = {}
    for m in range(2**code.k):
        a_set, b_set = code.partition[m]
        sizes[m] = (len(a_set), len(b_set))
        if not a_set:
            v.append(f"A_{int_to_bits(m, code.k)} is empty")
        if not b_set:
            v.append(f"B_{int_to_bits(m, code.k)} is empty")
        if a_set & b_set:
            v.append(f"A and B overlap for message {int_to_bits(m, code.k)}")
        if a_set | b_set != code.c1:
            v.append(f"A ∪ B != C1 for message {int_to_bits(m, code.k)}")
        if len(a_set) != len(b_set):
            v.append(
                f"|A|={len(a_set)} != |B|={len(b_set)} for message "
                f"{int_to_bits(m, code.k)}"
            )
    return PartitionReport(code.name, sizes, v)


def _make_code(name, k, n, rows, partition=None):
    e1 = tuple(bits_to_int(r[0]) for r in rows)
    second = tuple((bits_to_int(r[1]), bits_to_int(r[2])) for r in rows)
    if partition is None:
        partition = derive_partition(
            e1, [s[0] for s in second], [s[1] for s in second], k, n
        )
        if partition is None:
            raise WomError(f"code {name}: no valid first partition exists")
    return WomCode(name, k, n, e1, second, partition)


# (2,3) code: 2 bits written twice into 3 cells.  Supports a 1st partition
# with A_m = {E1(m)} but not an equal partition.
WOM_2_3 = _make_code(
    "wom2x3",
    2,
    3,
    [
        ("000", "000", "111"),
        ("001", "001", "110"),
        ("010", "010", "101"),
        ("100", "100", "011"),
    ],
    partition={
        m: (
            frozenset({c}),
            frozenset({0b000, 0b001, 0b010, 0b100} - {c}),
        )
        for m, c in enumerate((0b000, 0b001, 0b010, 0b100))
    },
)

# (3,5) code supporting an equal partition (|A_m| = |B_m| = 4): two public
# writes of 3 bits, or one write of 3 public bits plus 1 hidden bit.
WOM_3_5 = _make_code(
    "wom3x5",
    3,
    5,
    [
        ("00000", "11110", "10011"),
        ("00001", "11001", "10110"),
        ("00010", "11010", "10101"),
        ("00100", "11100", "01111"),
        ("01000", "11111", "01101"),
        ("10000", "11101", "01110"),
        ("11000", "11000", "10111"),
        ("10100", "11011", "10100"),
    ],
)

BUILTIN_CODES = {WOM_2_3.name: WOM_2_3, WOM_3_5.name: WOM_3_5}


def load_code_file(path) -> WomCode:
    """Load a code from a text table: `message first_write hidden0 hidden1`."""
    rows = []
    k = n = None
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            cols = line.split()
            if len(cols) != 4:
                raise WomError(f"{path}:{lineno}: expected 4 columns")
            msg, first, h0, h1 = cols
            if k is None:
                k, n = len(msg), len(first)
            if len(msg) != k or any(len(c) != n for c in (first, h0, h1)):
                raise WomError(f"{path}:{lineno}: inconsistent widths")
            rows.append((bits_to_int(msg), first, h0, h1))
    if len(rows) != 2**k or sorted(r[0] for r in rows) != list(range(2**k)):
        raise WomError(f"{path}: need one row per {k}-bit message")
    rows.sort(key=lambda r: r[0])
    return _make_code(path, k, n, [(r[1], r[2], r[3]) for r in rows])


# -- page-level packing ----------------------------------------------


@dataclass(frozen=True)
class PageLayout:
    """How n-bit codeword groups fill a physical page.

    groups_per_page is the largest multiple of 8 fitting the page so that
    both the public payload (k bits/group) and the hidden payload
    (1 bit/group) are whole bytes.  Remaining bits are slack, always zero.
    The page codec handles codes with n <= 8 only.
    """

    page_bytes: int
    k: int
    n: int
    groups_per_page: int
    public_payload_bytes: int
    hidden_payload_bytes: int
    slack_bits: int

    @classmethod
    def for_page(cls, page_bytes: int, code: WomCode) -> "PageLayout":
        if code.n > 8:
            raise WomError(f"page codec supports n <= 8, code has n={code.n}")
        bits = page_bytes * 8
        groups = (bits // code.n) // 8 * 8
        if groups == 0:
            raise WomError(f"page of {page_bytes} bytes too small for n={code.n}")
        return cls(
            page_bytes=page_bytes,
            k=code.k,
            n=code.n,
            groups_per_page=groups,
            public_payload_bytes=groups * code.k // 8,
            hidden_payload_bytes=groups // 8,
            slack_bits=bits - groups * code.n,
        )


# Every run of 8 groups of a width-bit field (width <= 8) fills exactly
# `width` bytes, so the codec moves 8 groups per 64-bit word.  Groups
# travel as an (8, runs) int64 array whose [j, r] is group 8 * r + j: each
# numpy loop then runs along the runs rather than over 8 lanes at a time.
_LANE_SHIFTS = {w: w * np.arange(7, -1, -1, dtype=np.int64) for w in range(1, 9)}
_LANE_WEIGHTS = {w: np.left_shift(1, s) for w, s in _LANE_SHIFTS.items()}
_BYTE_WEIGHTS = {
    w: np.left_shift(1, 8 * np.arange(w - 1, -1, -1, dtype=np.int64))
    for w in range(1, 9)
}


def _unpack_runs(runs: np.ndarray, width: int) -> np.ndarray:
    """Groups of whole width-byte runs (uint8, any shape) as (8, runs)."""
    # Big-endian words; at width 8 the top byte wraps past the sign bit,
    # which the shift and mask below do not care about.
    words = runs.reshape(-1, width) @ _BYTE_WEIGHTS[width]
    groups = words >> _LANE_SHIFTS[width][:, None]
    groups &= (1 << width) - 1
    return groups


def _unpack_groups(raw: bytes, width: int, count: int) -> np.ndarray:
    """The first `count` (a multiple of 8) width-bit groups of raw."""
    runs = np.frombuffer(raw, dtype=np.uint8, count=count // 8 * width)
    return _unpack_runs(runs, width)


def _pack_groups(groups: np.ndarray, width: int, total_bits: int) -> bytes:
    """(8, runs) groups as width-bit fields, zero-filled to total_bits."""
    # The fields are disjoint, so the sum equals their OR; at width 8 it
    # wraps past the sign bit, which keeps the bit pattern.
    words = _LANE_WEIGHTS[width] @ groups
    runs = words.astype(">i8").view(np.uint8).reshape(-1, 8)[:, 8 - width:]
    return runs.tobytes() + bytes(total_bits // 8 - runs.size)


def _first_group(mask: np.ndarray) -> int:
    """Group index of the first True of an (8, runs) mask."""
    return int(np.argmax(mask.T))


class _ChunkTables:
    """Lookup tables over chunks of c successive codeword groups, for the
    page-batch kernels.

    c is the largest of 1, 2, 4 and 8 whose decode index (a stage bit
    above c codewords, the first group highest) fits in 16 bits, so a
    run of 8 groups is 8 // c chunks.  decode[index] holds the c messages
    of the chunk, packed the same way, or -1 when any of its groups is no
    codeword of that stage.  counts[chunk, cw] is how many groups of the
    chunk are cw; bad[chunk] is set when one is no second-write codeword.
    """

    def __init__(self, code: WomCode):
        n, k = code.n, code.k
        self.c = c = max(c for c in (1, 2, 4, 8) if 1 + c * n <= 16)
        self.bits = bits = c * n
        per = 8 // c
        # Word bit offsets of the chunks (a run fills a word's top bytes).
        self.shifts = (8 * (8 - n)
                       + bits * np.arange(per - 1, -1, -1, dtype=np.int64))
        self.out_weights = np.left_shift(
            1, c * k * np.arange(per - 1, -1, -1, dtype=np.int64))
        index = np.arange(2 << bits, dtype=np.int64)
        lanes = np.arange(c - 1, -1, -1, dtype=np.int64)[:, None]
        groups = (index >> n * lanes) & ((1 << n) - 1)       # (c, index)
        stacked = np.concatenate((code._d1_arr, code._d2_arr))
        msgs = stacked[groups | (index >> bits << n)]
        packed = (msgs << k * lanes).sum(axis=0)
        self.decode = np.where((msgs < 0).any(axis=0), -1,
                               packed).astype(np.int32)
        chunk = groups[:, :1 << bits]
        self.counts = (chunk[:, :, None] == np.arange(1 << n)).sum(
            axis=0, dtype=np.uint8)
        self.bad = (code._d2_arr[chunk] < 0).any(axis=0)


def _run_words(raw: np.ndarray, width: int, runs: int) -> np.ndarray:
    """The first `runs` width-byte runs of each row of raw, a (pages,
    page_bytes) uint8 array, as int64 words holding their bytes at the
    top, big-endian: (pages, runs)."""
    # Each word is the 8 bytes read from its run's start, through a
    # big-endian view of a padded copy, so the last run has 8 bytes too.
    pages, page_bytes = raw.shape
    buf = np.zeros(raw.size + 8, dtype=np.uint8)
    buf[:raw.size] = raw.ravel()
    return np.ndarray((pages, runs), dtype=">u8", buffer=buf,
                      strides=(page_bytes, width)).astype(np.int64)


def _chunk_index(t: _ChunkTables, words: np.ndarray) -> np.ndarray:
    """(8 // c, words) int64 indices of each word's chunks: [j, r] is
    chunk j of word r, like the (8, runs) group lanes."""
    index = words.reshape(1, -1) >> t.shifts[:, None]
    index &= (1 << t.bits) - 1
    return index


def _check_payload(layout, data, expected, what):
    if len(data) != expected:
        raise WomError(f"{what} length {len(data)}, layout wants {expected}")


def _public_messages(layout, code, public: bytes) -> np.ndarray:
    _check_payload(layout, public, layout.public_payload_bytes, "public payload")
    return _unpack_groups(public, code.k, layout.groups_per_page)


def encode_page_first(layout: PageLayout, code: WomCode, public: bytes) -> bytes:
    msgs = _public_messages(layout, code, public)
    return _pack_groups(code._e1_arr[msgs], code.n, layout.page_bytes * 8)


def encode_page_second(
    layout: PageLayout, code: WomCode, public: bytes, existing: bytes
) -> bytes:
    msgs = _public_messages(layout, code, public)
    _check_payload(layout, existing, layout.page_bytes, "existing page")
    old = _unpack_groups(existing, code.n, layout.groups_per_page)
    # Row-major index of (msgs, old) in the (2**k, 2**n) table.
    cw = code._e2_arr.ravel()[(msgs << code.n) | old]
    if cw.min() < 0:
        g = _first_group(cw < 0)
        raise WomError(f"group {g} of existing page is not a first-write codeword")
    return _pack_groups(cw, code.n, layout.page_bytes * 8)


def encode_page_full(
    layout: PageLayout, code: WomCode, public: bytes, hidden: bytes
) -> bytes:
    msgs = _public_messages(layout, code, public)
    _check_payload(layout, hidden, layout.hidden_payload_bytes, "hidden payload")
    # One hidden bit per group, as (8, runs) like msgs.
    hbits = np.unpackbits(np.frombuffer(hidden, dtype=np.uint8)[None, :], axis=0)
    # Row-major index of (msgs, hbits) in the (2**k, 2) table.
    cw = code._w2_arr.ravel()[(msgs << 1) | hbits]
    return _pack_groups(cw, code.n, layout.page_bytes * 8)


def _codeword_error(layout, code, cw, bad, what):
    """WomError naming the first group flagged in bad, numbered within its
    page (the runs of successive pages follow each other in cw)."""
    i = _first_group(bad)
    value = int_to_bits(int(cw[i % 8, i // 8]), code.n)
    return WomError(
        f"group {i % layout.groups_per_page} ({value}) is not a {what} codeword"
    )


def _decode_groups(layout, code, raw, table, what):
    _check_payload(layout, raw, layout.page_bytes, "raw page")
    cw = _unpack_groups(raw, code.n, layout.groups_per_page)
    out = table[cw]
    if out.min() < 0:
        raise _codeword_error(layout, code, cw, out < 0, what)
    return out


def decode_page_public(
    layout: PageLayout, code: WomCode, raw: bytes, stage: str
) -> bytes:
    if stage == "first":
        table = code._d1_arr
    elif stage == "second":
        table = code._d2_arr
    else:
        raise WomError(f"unknown stage {stage!r}")
    msgs = _decode_groups(layout, code, raw, table, f"{stage}-write")
    return _pack_groups(msgs, code.k, layout.public_payload_bytes * 8)


def _pages_codeword_error(layout, code, raw, second):
    """WomError naming the first group of raw, pages as decode_pages_public
    takes them, that is no codeword of its page's stage (one must be)."""
    runs = layout.groups_per_page // 8
    cw = _unpack_runs(raw[:, :runs * code.n], code.n)
    stage = np.repeat(np.asarray(second, dtype=np.int64) << code.n, runs)
    bad = np.concatenate((code._d1_arr, code._d2_arr))[cw | stage] < 0
    page = _first_group(bad) // layout.groups_per_page
    what = "second-write" if second[page] else "first-write"
    return _codeword_error(layout, code, cw, bad, what)


def decode_pages_public(layout: PageLayout, code: WomCode, raw: np.ndarray,
                        second: np.ndarray) -> np.ndarray:
    """decode_page_public of each row of raw, an (n, page_bytes) uint8
    array whose row i is at second stage where second[i] is set, else at
    first stage: (n, public_payload_bytes) uint8 rows.

    One table lookup decodes c groups of either stage (_ChunkTables); a
    chunk holding a bad codeword raises the error of the first bad row.
    """
    if raw.shape[1:] != (layout.page_bytes,):
        raise WomError(f"raw pages must be {layout.page_bytes} bytes each")
    t = code._chunks
    runs = layout.groups_per_page // 8
    index = _chunk_index(t, _run_words(raw, code.n, runs))
    index |= np.repeat(np.asarray(second, dtype=np.int64) << t.bits, runs)
    msgs = t.decode[index]
    if msgs.min(initial=0) < 0:
        raise _pages_codeword_error(layout, code, raw, second)
    # Each word's k-byte run of messages, copied out as one k-byte item.
    words = (t.out_weights @ msgs).astype(">u8")
    out = np.ndarray(words.shape, dtype=f"V{code.k}", buffer=words,
                     offset=8 - code.k, strides=(8,))
    return np.ascontiguousarray(out).view(np.uint8).reshape(
        len(raw), layout.public_payload_bytes)


def decode_page_hidden(
    layout: PageLayout, code: WomCode, raw: bytes, strict: bool = True
) -> bytes:
    """Hidden bits of a full/second-write page.

    With strict=False, groups that are not second-write codewords decode
    to 0 instead of raising — the mapping layer uses this so reads under a
    wrong key return garbage rather than an error (no password oracle).
    """
    if strict:
        h = _decode_groups(layout, code, raw, code._hid_arr, "second-write")
    else:
        _check_payload(layout, raw, layout.page_bytes, "raw page")
        cw = _unpack_groups(raw, code.n, layout.groups_per_page)
        h = np.maximum(code._hid_arr[cw], 0)
    return _pack_groups(h, 1, layout.hidden_payload_bytes * 8)


# Groups per vectorised step of codeword_histogram: keeps its transient
# arrays near 1 MB (cache-sized) however many pages it is given.
_HISTOGRAM_GROUPS = 1 << 16


def codeword_histogram(pages, code: WomCode, layout: PageLayout) -> Counter:
    """Counts of each second-write codeword across all groups of all pages.

    Chunks of c groups are counted, then folded to codewords through
    _ChunkTables.counts."""
    pages = list(pages)
    t = code._chunks
    step = max(1, _HISTOGRAM_GROUPS // layout.groups_per_page)
    runs = layout.groups_per_page // 8
    chunks = np.zeros(1 << t.bits, dtype=np.int64)
    for start in range(0, len(pages), step):
        batch = pages[start:start + step]
        buf = b"".join(batch)
        if len(buf) != len(batch) * layout.page_bytes:
            raise WomError(f"raw pages must be {layout.page_bytes} bytes each")
        grid = np.frombuffer(buf, dtype=np.uint8).reshape(
            len(batch), layout.page_bytes)
        part = np.bincount(
            _chunk_index(t, _run_words(grid, code.n, runs)).ravel(),
            minlength=1 << t.bits)
        if part[t.bad].any():
            raise _pages_codeword_error(layout, code, grid,
                                        np.ones(len(batch), dtype=bool))
        chunks += part
    counts = chunks @ t.counts
    return Counter({int(c): int(v) for c, v in enumerate(counts) if v})


# -- bit-string group helpers (worked examples, CLI) -----------------


def encode_bits_full(code: WomCode, public_bits: str, hidden_bits: str) -> str:
    """Full-encode whole groups given as bit strings; returns raw page bits."""
    if len(public_bits) % code.k or len(public_bits) // code.k != len(hidden_bits):
        raise WomError("public/hidden bit lengths do not match whole groups")
    out = []
    for g, h in enumerate(hidden_bits):
        p = bits_to_int(public_bits[g * code.k : (g + 1) * code.k])
        out.append(int_to_bits(code.encode_full(p, int(h)), code.n))
    return "".join(out)


def decode_bits_public(code: WomCode, raw_bits: str, stage: str) -> str:
    if len(raw_bits) % code.n:
        raise WomError("raw bits are not whole groups")
    dec = code.decode_first if stage == "first" else code.decode_second
    return "".join(
        int_to_bits(dec(bits_to_int(raw_bits[g * code.n : (g + 1) * code.n])), code.k)
        for g in range(len(raw_bits) // code.n)
    )


def decode_bits_hidden(code: WomCode, raw_bits: str) -> str:
    if len(raw_bits) % code.n:
        raise WomError("raw bits are not whole groups")
    return "".join(
        str(code.decode_hidden(bits_to_int(raw_bits[g * code.n : (g + 1) * code.n])))
        for g in range(len(raw_bits) // code.n)
    )
