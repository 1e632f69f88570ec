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
        d2 = {w: m for m, pair in enumerate(self.second_write) for w in pair}
        hid = {w: h for pair in self.second_write for h, w in enumerate(pair)}
        # numpy lookup tables for the page codecs: -1 marks no codeword.
        size, msgs = 2**self.n, 2**self.k
        arrays = {"_e1_arr": np.array(self.first_write, dtype=np.int64),
                  "_w2_arr": np.array(self.second_write, dtype=np.int64),
                  "_e2_arr": np.full((msgs, size), -1, dtype=np.int64)}
        for name, table in (("_d1_arr", d1), ("_d2_arr", d2),
                            ("_hid_arr", hid)):
            arrays[name] = np.full(size, -1, dtype=np.int64)
            arrays[name][list(table)] = list(table.values())
        for m in range(msgs):
            a_set, b_set = self.partition[m]
            arrays["_e2_arr"][m, list(a_set)] = self.second_write[m][0]
            arrays["_e2_arr"][m, list(b_set)] = self.second_write[m][1]
        for name, value in {"_d1": d1, "_d2": d2, "_hid": hid,
                            "_kernels": {}, **arrays}.items():
            object.__setattr__(self, name, value)

    def _kernel(self, name: str) -> "_Kernel":
        """The page kernel `name` of _KERNELS (n <= 8), built on first
        use."""
        try:
            return self._kernels[name]
        except KeyError:
            kernel = self._kernels[name] = _Kernel(*_KERNELS[name](self))
            return kernel

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
# `width` bytes of a page or payload.  The page codec reads each run as
# one int64 word that holds its bytes at the top (_run_words), looks up
# c successive groups of it at a time (_Kernel) and writes each run's
# output word back as bytes (_run_bytes).


class _Kernel:
    """One page-codec step as one table lookup per chunk of c successive
    groups.  A group has one or two input fields of wa and wb bits (wb
    may be 0), and a chunk may carry `prefix` bits that all its groups
    share (a page's stage).  per_group, indexed (prefix << wa + wb) |
    (a << wb) | b, gives a group's width-bit output, or -1.  A chunk's
    index holds its prefix, its c a-fields, then its c b-fields, the
    first group highest; table[index] holds the c outputs packed the
    same way, or -1 when any of them is.  c is the largest of 1, 2, 4 and
    8 whose index fits in 16 bits."""

    def __init__(self, per_group, wa, wb, width, prefix=0):
        self.per_group, self.wa, self.wb = per_group, wa, wb
        self.c = c = max(c for c in (1, 2, 4, 8)
                         if prefix + c * (wa + wb) <= 16)
        self.bits = c * (wa + wb)
        steps = np.arange(8 // c - 1, -1, -1, dtype=np.int64)
        # Each field's chunk bits and, as a column, the bit offsets of its
        # chunks in a run word.
        self.bits_a, self.bits_b = c * wa, c * wb
        self.shifts_a, self.shifts_b = [(8 * (8 - w) + c * w * steps)[:, None]
                                        for w in (wa, wb)]
        self.out_weights = np.left_shift(1, c * width * steps)
        # The smallest signed type that holds c outputs; built 4,096
        # entries at a time, so no temporary outgrows a slice.
        size = 1 << prefix + self.bits
        self.table = np.empty(size, dtype=next(
            (t for t in (np.int8, np.int16, np.int32)
             if c * width < np.iinfo(t).bits - 1), np.int64))
        for start in range(0, size, 4096):
            index = np.arange(start, min(size, start + 4096), dtype=np.int64)
            packed, bad = np.zeros_like(index), np.zeros(len(index), bool)
            for lane in range(c):
                out = per_group[self._group(index, lane)]
                bad |= out < 0
                packed |= out << width * lane
            self.table[start:start + len(index)] = np.where(bad, -1, packed)

    def _group(self, index, lane):
        """per_group's index of group `lane` (0: the last) of chunks."""
        c, wa, wb = self.c, self.wa, self.wb
        a = (index >> c * wb + wa * lane) & ((1 << wa) - 1)
        b = (index >> wb * lane) & ((1 << wb) - 1)
        return (index >> self.bits << wa + wb) | (a << wb) | b

    def index(self, a, b=None, prefix=None):
        """The chunk indices of runs, given the run words of their a and
        b fields (flat int64 arrays) and their prefixes, as (8 // c,
        runs): [j, r] is chunk j of run r."""
        index = a >> self.shifts_a
        index &= (1 << self.bits_a) - 1
        if b is not None:
            index <<= self.bits_b
            chunk = b >> self.shifts_b
            chunk &= (1 << self.bits_b) - 1
            index |= chunk
        if prefix is not None:
            index |= prefix << self.bits
        return index

    def pack(self, out):
        """(8 // c, runs) outputs as one word per run, its bytes at the
        bottom."""
        return self.out_weights @ out

    def first_bad(self, index, out):
        """The first group, counted from the first run, whose own output
        is -1 in the first chunk that out marks -1, and its per_group
        index."""
        r, j = divmod(int(np.argmax((out < 0).T)), 8 // self.c)
        for lane in range(self.c - 1, -1, -1):
            group = int(self._group(index[j, r], lane))
            if self.per_group[group] < 0:
                return 8 * r + self.c * (j + 1) - 1 - lane, group


# The kernels of a code, by name: the encoders, the public decoder of
# either stage (prefix 1 for second-stage pages) and the hidden-bit
# decoders, which fail on, or read as 0, a group that is no second-write
# codeword.  Arguments to _Kernel, from the code's group tables.
_KERNELS = {
    "first": lambda c: (c._e1_arr, c.k, 0, c.n),
    "second": lambda c: (c._e2_arr.ravel(), c.k, c.n, c.n),
    "full": lambda c: (c._w2_arr.ravel(), c.k, 1, c.n),
    "public": lambda c: (np.r_[c._d1_arr, c._d2_arr], c.n, 0, c.k, 1),
    "hidden": lambda c: (c._hid_arr, c.n, 0, 1),
    "lenient": lambda c: (np.maximum(c._hid_arr, 0), c.n, 0, 1),
}


def _run_words(raw, size: int, width: int, runs: int, what=None):
    """The first `runs` width-byte runs of each size-byte page of raw
    (bytes, or a C-contiguous uint8 array of whole pages), as int64
    words holding their bytes at the top, big-endian, in page order.
    Given `what`, raw must be whole pages, else WomError names it."""
    if what is not None and (len(raw) % size or not raw):
        raise WomError(f"{what} length {len(raw)}, layout wants a "
                       f"multiple of {size}")
    # Each word is the 8 bytes read from its run's start, through a
    # big-endian view of a padded copy, so the last run has 8 bytes too.
    if isinstance(raw, np.ndarray):
        buf = np.zeros(raw.size + 8, dtype=np.uint8)
        buf[:raw.size] = raw.ravel()
    else:
        buf = bytes(raw) + bytes(8)
    return np.ndarray(((len(buf) - 8) // size, runs), ">u8", buf, 0,
                      (size, width)).astype(np.int64).reshape(-1)


def _run_bytes(words, width: int, runs: int, size: int) -> np.ndarray:
    """Words of whole pages' runs, their bytes at the bottom, as (pages,
    size) uint8 rows: each run's `width` bytes in order, then zeros."""
    words = words.astype(">u8")
    shape, item = (len(words) // runs, runs), f"V{width}"
    out = np.zeros((shape[0], size), dtype=np.uint8)
    np.copyto(np.ndarray(shape, item, out, 0, (size, width)),
              np.ndarray(shape, item, words, 8 - width, (8 * runs, 8)))
    return out


def _codeword_error(layout, code, kernel, index, out, what=None):
    """WomError naming the first group that is no codeword of its
    stage, numbered within its page: second-stage if `what` says so or
    the public decoder's prefix is set, else first-stage."""
    g, group = kernel.first_bad(index, out)
    what = what or ("second-write" if group >> code.n else "first-write")
    value = int_to_bits(group & ((1 << code.n) - 1), code.n)
    return WomError(f"group {g % layout.groups_per_page} ({value}) is not "
                    f"a {what} codeword")


def _encode(layout, code, name, public, other=None, size=0, width=0,
            what=""):
    """The raw pages that kernel `name` writes for whole public payloads
    and, for second and full writes, the pages of `other` (size bytes,
    width bits a group), all concatenated in page order."""
    kernel, runs = code._kernel(name), layout.groups_per_page // 8
    msgs = _run_words(public, layout.public_payload_bytes, code.k, runs,
                      "public payload")
    if other is not None:
        other = _run_words(other, size, width, runs, what)
        if len(other) != len(msgs):
            raise WomError(f"{what} is not one page per public payload")
    index = kernel.index(msgs, other)
    cw = kernel.table[index]
    if name == "second" and cw.min() < 0:
        g, _ = kernel.first_bad(index, cw)
        raise WomError(f"group {g % layout.groups_per_page} of existing "
                       "page is not a first-write codeword")
    return _run_bytes(kernel.pack(cw), code.n, runs,
                      layout.page_bytes).tobytes()


# The encoders take one or more pages: public payloads, and existing
# pages or hidden payloads, concatenated; they return the raw pages
# concatenated.


def encode_page_first(layout: PageLayout, code: WomCode, public: bytes) -> bytes:
    return _encode(layout, code, "first", public)


def encode_page_second(
    layout: PageLayout, code: WomCode, public: bytes, existing: bytes
) -> bytes:
    return _encode(layout, code, "second", public, existing,
                   layout.page_bytes, code.n, "existing page")


def encode_page_full(
    layout: PageLayout, code: WomCode, public: bytes, hidden: bytes
) -> bytes:
    return _encode(layout, code, "full", public, hidden,
                   layout.hidden_payload_bytes, 1, "hidden payload")


def decode_page_public(
    layout: PageLayout, code: WomCode, raw: bytes, stage: str
) -> bytes:
    """decode_pages_public of one page."""
    if stage not in ("first", "second"):
        raise WomError(f"unknown stage {stage!r}")
    grid = np.frombuffer(raw, dtype=np.uint8).reshape(1, -1)
    return decode_pages_public(layout, code, grid,
                               [stage == "second"]).tobytes()


def decode_pages_public(layout: PageLayout, code: WomCode, raw: np.ndarray,
                        second: np.ndarray) -> np.ndarray:
    """The public payload of each row of raw, an (n, page_bytes) uint8
    array whose row i is at second stage where second[i] is set, else at
    first stage: (n, public_payload_bytes) uint8 rows.

    One table lookup decodes c groups of either stage; a chunk holding a
    bad codeword raises the error of the first bad row.
    """
    if raw.shape[1:] != (layout.page_bytes,):
        raise WomError(f"raw pages must be {layout.page_bytes} bytes each")
    kernel = code._kernel("public")
    runs = layout.groups_per_page // 8
    index = kernel.index(
        _run_words(raw, layout.page_bytes, code.n, runs),
        prefix=np.repeat(np.asarray(second, dtype=np.int64), runs))
    msgs = kernel.table[index]
    if msgs.min(initial=0) < 0:
        raise _codeword_error(layout, code, kernel, index, msgs)
    return _run_bytes(kernel.pack(msgs), code.k, runs,
                      layout.public_payload_bytes)


def decode_page_hidden(
    layout: PageLayout, code: WomCode, raw: bytes, strict: bool = True
) -> bytes:
    """Hidden bits of a full/second-write page.

    With strict=False, groups that are not second-write codewords decode
    to 0 instead of raising — the mapping layer uses this so reads under a
    wrong key return garbage rather than an error (no password oracle).
    """
    kernel = code._kernel("hidden" if strict else "lenient")
    runs = layout.groups_per_page // 8
    index = kernel.index(_run_words(raw, layout.page_bytes, code.n, runs,
                                    "raw page"))
    h = kernel.table[index]
    if h.min() < 0:
        raise _codeword_error(layout, code, kernel, index, h, "second-write")
    return _run_bytes(kernel.pack(h), 1, runs, runs).tobytes()


# Groups per vectorised step of codeword_histogram: keeps its transient
# arrays near 1 MB (cache-sized) however many pages it is given.
_HISTOGRAM_GROUPS = 1 << 16


def cache_pages(layout: PageLayout) -> int:
    """Pages per cache-sized step of the page kernels: the pages of
    about _HISTOGRAM_GROUPS codeword groups, at least one."""
    return max(1, _HISTOGRAM_GROUPS // layout.groups_per_page)


def codeword_histogram(pages, code: WomCode, layout: PageLayout) -> Counter:
    """Counts of each second-write codeword across all groups of all pages.

    Chunks of c groups (those of the strict hidden-bit decoder) are
    counted, then folded to codewords one group of the chunk at a time."""
    pages = list(pages)
    kernel = code._kernel("hidden")
    step = cache_pages(layout)
    runs = layout.groups_per_page // 8
    bad = kernel.table < 0
    chunks = np.zeros(len(kernel.table), dtype=np.int64)
    for start in range(0, len(pages), step):
        batch = pages[start:start + step]
        buf = b"".join(batch)
        if len(buf) != len(batch) * layout.page_bytes:
            raise WomError(f"raw pages must be {layout.page_bytes} bytes each")
        index = kernel.index(_run_words(buf, layout.page_bytes, code.n, runs))
        part = np.bincount(index.ravel(), minlength=len(chunks))
        if part[bad].any():
            raise _codeword_error(layout, code, kernel, index,
                                  kernel.table[index], "second-write")
        chunks += part
    ids, mask = np.arange(len(chunks)), (1 << code.n) - 1
    counts = sum(np.bincount((ids >> code.n * lane) & mask, weights=chunks,
                             minlength=1 << code.n)
                 for lane in range(kernel.c))
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
