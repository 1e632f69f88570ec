"""Bit-accurate simulated NAND flash.

Programs may only set bits 0 -> 1 and a page accepts at most two programs
between erases (the 2-write WOM operating envelope).  Erases work on whole
blocks.  A serial busy-clock accumulates per-op service time; queuing is
modeled one layer up, in the benchmark engine.  Pages are immutable values
(bytes, or read-only views of a bytes image), shared between devices and
snapshots and replaced, never mutated, by a program or an erase.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

from .errors import DoubleProgramLimit, SnapshotFormatError, WomInvariantViolation

SNAPSHOT_MAGIC = b"PRLSNAP1"


@dataclass(frozen=True)
class DeviceGeometry:
    dies: int
    planes_per_die: int
    blocks_per_plane: int
    pages_per_block: int
    page_bytes: int
    oob_bytes: int

    def __post_init__(self):
        counts = (
            self.dies,
            self.planes_per_die,
            self.blocks_per_plane,
            self.pages_per_block,
            self.oob_bytes,
        )
        if any(c < 1 for c in counts):
            raise ValueError("geometry counts must be >= 1")
        if self.page_bytes < 512:
            raise ValueError("page_bytes must be >= 512")

    # Computed once: every page access range-checks against total_pages.
    @cached_property
    def total_blocks(self) -> int:
        return self.dies * self.planes_per_die * self.blocks_per_plane

    @cached_property
    def total_pages(self) -> int:
        return self.total_blocks * self.pages_per_block

    @property
    def total_bytes(self) -> int:
        return self.total_pages * self.page_bytes


@dataclass(frozen=True)
class DeviceTimings:
    read_us: float = 130.0
    program_us: float = 900.0
    erase_us: float = 10000.0

    def __post_init__(self):
        if min(self.read_us, self.program_us, self.erase_us) <= 0:
            raise ValueError("timings must be positive")


# Table-parameter preset: (1, 2, 1437, 768) blocks of 768 x 16 KiB pages.
# The tuple does not multiply out to the marketed 64 GB; it is kept verbatim.
PAPER_GEOMETRY = DeviceGeometry(1, 2, 1437, 768, 16384, 64)
# Small geometry for tests and desk-scale experiments.
DESK_GEOMETRY = DeviceGeometry(1, 1, 64, 32, 2048, 64)

PRESETS = {"paper": PAPER_GEOMETRY, "desk": DESK_GEOMETRY}
DEFAULT_TIMINGS = DeviceTimings()


@dataclass
class Snapshot:
    """Byte-exact raw device image: data, OOB, erase and program counters.

    Every page's data and OOB is an immutable value: bytes, or a read-only
    memoryview of a bytes object.  FlashDevice.snapshot and restore share
    page objects with the device and do not check this, so a page changes
    only by assigning a new value into data or oob.  from_bytes keeps each
    page's data as a view of the image and each OOB as bytes, copying no
    page."""

    geometry: DeviceGeometry
    data: list
    oob: list
    erase_counts: list
    programmed: list

    def to_bytes(self) -> bytes:
        g = self.geometry
        head = SNAPSHOT_MAGIC + struct.pack(
            "<6I",
            g.dies,
            g.planes_per_die,
            g.blocks_per_plane,
            g.pages_per_block,
            g.page_bytes,
            g.oob_bytes,
        )
        return b"".join([
            head, *self.data, *self.oob,
            struct.pack(f"<{g.total_blocks}I", *self.erase_counts),
            bytes(self.programmed),
        ])

    @classmethod
    def from_bytes(cls, blob) -> "Snapshot":
        if not isinstance(blob, bytes):
            blob = bytes(blob)
        if blob[:8] != SNAPSHOT_MAGIC:
            raise SnapshotFormatError("bad snapshot magic")
        fields = struct.unpack_from("<6I", blob, 8)
        g = DeviceGeometry(*fields)
        n, pb, ob = g.total_pages, g.page_bytes, g.oob_bytes
        off = 8 + 24
        expect = off + n * (pb + ob) + 4 * g.total_blocks + n
        if len(blob) != expect:
            raise SnapshotFormatError(
                f"snapshot length {len(blob)}, expected {expect}"
            )
        view = memoryview(blob)
        data = [view[o : o + pb] for o in range(off, off + n * pb, pb)]
        off += n * pb
        oob = [blob[o : o + ob] for o in range(off, off + n * ob, ob)]
        off += n * ob
        erase = list(struct.unpack_from(f"<{g.total_blocks}I", blob, off))
        off += 4 * g.total_blocks
        programmed = list(blob[off : off + n])
        return cls(g, data, oob, erase, programmed)

    def save(self, path):
        with open(path, "wb") as f:
            f.write(self.to_bytes())

    @classmethod
    def load(cls, path) -> "Snapshot":
        with open(path, "rb") as f:
            return cls.from_bytes(f.read())


class FlashDevice:
    """Array of blocks of write-once pages with a timing ledger.

    Pages are immutable values (see Snapshot): a program stores new bytes
    in the page's slot and an erase points the block's slots at the
    device's one shared blank page and blank OOB, so the device never
    mutates a page object.  snapshot and restore therefore share pages
    instead of copying them.  A program onto a slot that holds the
    device's own blank object cannot clear a bit, so it skips that
    check; any other slot, a restored blank page included, is checked."""

    def __init__(self, geometry: DeviceGeometry, timings: DeviceTimings = DEFAULT_TIMINGS):
        n = geometry.total_pages
        self._attach(geometry, timings, [0] * n, [0] * geometry.total_blocks)

    def _attach(self, geometry, timings, programmed, erase_counts, data=None,
                oob=None):
        """Take the given counters and page lists (every page blank if
        none are given), with a zero ledger and new blank objects."""
        self.geometry = geometry
        self.timings = timings
        self._blank_data = bytes(geometry.page_bytes)
        self._blank_oob = bytes(geometry.oob_bytes)
        n = geometry.total_pages
        self._data = [self._blank_data] * n if data is None else data
        self._oob = [self._blank_oob] * n if oob is None else oob
        self._programmed = programmed
        self._erase_counts = erase_counts
        self.clock_us = 0.0
        self.reads = 0
        self.programs = 0
        self.erases = 0

    # -- addressing ---------------------------------------------------

    def _check_ppn(self, ppn: int):
        if not 0 <= ppn < self.geometry.total_pages:
            raise IndexError(f"ppn {ppn} out of range")

    # -- operations ---------------------------------------------------

    def read_page(self, ppn: int):
        self._check_ppn(ppn)
        self.reads += 1
        self.clock_us += self.timings.read_us
        return bytes(self._data[ppn]), bytes(self._oob[ppn])

    def program_page(self, ppn: int, data: bytes, oob: bytes):
        self._check_ppn(ppn)
        g = self.geometry
        if len(data) != g.page_bytes or len(oob) != g.oob_bytes:
            raise ValueError("program size mismatch")
        if self._programmed[ppn] >= 2:
            raise DoubleProgramLimit(f"page {ppn} already programmed twice")
        for cur, new, blank, what in (
                (self._data[ppn], data, self._blank_data, "data"),
                (self._oob[ppn], oob, self._blank_oob, "oob")):
            if cur is blank:
                continue
            old_i = int.from_bytes(cur, "big")
            new_i = int.from_bytes(new, "big")
            if old_i | new_i != new_i:
                raise WomInvariantViolation(
                    f"program of page {ppn} {what} would clear set bits"
                )
        self._data[ppn] = bytes(data)
        self._oob[ppn] = bytes(oob)
        self._programmed[ppn] += 1
        self.programs += 1
        self.clock_us += self.timings.program_us

    def erase_block(self, block_id: int):
        if not 0 <= block_id < self.geometry.total_blocks:
            raise IndexError(f"block {block_id} out of range")
        ppb = self.geometry.pages_per_block
        pages = slice(block_id * ppb, (block_id + 1) * ppb)
        self._data[pages] = [self._blank_data] * ppb
        self._oob[pages] = [self._blank_oob] * ppb
        self._programmed[pages] = [0] * ppb
        self._erase_counts[block_id] += 1
        self.erases += 1
        self.clock_us += self.timings.erase_us

    # -- inspection (no clock) ----------------------------------------

    def peek(self, ppn: int):
        """Read without timing: used by snapshot/recovery tooling."""
        self._check_ppn(ppn)
        return bytes(self._data[ppn]), bytes(self._oob[ppn])

    def peek_oobs(self, start: int = 0) -> list:
        """The OOBs of pages start onwards, without timing: for
        whole-device recovery scans."""
        return self._oob[start:]

    def program_count(self, ppn: int) -> int:
        self._check_ppn(ppn)
        return self._programmed[ppn]

    def programmed_pages(self) -> int:
        """How many pages have been programmed since their last erase."""
        return len(self._programmed) - self._programmed.count(0)

    def erase_count(self, block_id: int) -> int:
        return self._erase_counts[block_id]

    def page_tag(self, ppn: int):
        """(ppn, its block's erase count, its program count): changes with
        every program or erase of the page."""
        if ppn < 0:
            raise IndexError(f"ppn {ppn} out of range")
        return (ppn, self._erase_counts[ppn // self.geometry.pages_per_block],
                self._programmed[ppn])

    def snapshot(self) -> Snapshot:
        return Snapshot(self.geometry, list(self._data), list(self._oob),
                        list(self._erase_counts), list(self._programmed))

    @classmethod
    def restore(cls, snap: Snapshot, timings: DeviceTimings = DEFAULT_TIMINGS):
        dev = cls.__new__(cls)
        dev._attach(snap.geometry, timings, list(snap.programmed),
                    list(snap.erase_counts), list(snap.data), list(snap.oob))
        return dev
