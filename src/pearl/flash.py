"""Bit-accurate simulated NAND flash.

Programs may only set bits 0 -> 1 and a page accepts at most two programs
between erases (the 2-write WOM operating envelope).  Erases work on whole
blocks.  A serial busy-clock accumulates per-op service time; queuing is
modeled one layer up, in the benchmark engine.
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
    """Byte-exact raw device image: data, OOB, erase and program counters."""

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
        parts = [head]
        parts += [bytes(d) for d in self.data]
        parts += [bytes(o) for o in self.oob]
        parts.append(struct.pack(f"<{g.total_blocks}I", *self.erase_counts))
        parts.append(bytes(self.programmed))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Snapshot":
        if blob[:8] != SNAPSHOT_MAGIC:
            raise SnapshotFormatError("bad snapshot magic")
        fields = struct.unpack_from("<6I", blob, 8)
        g = DeviceGeometry(*fields)
        off = 8 + 24
        expect = off + g.total_pages * (g.page_bytes + g.oob_bytes)
        expect += 4 * g.total_blocks + g.total_pages
        if len(blob) != expect:
            raise SnapshotFormatError(
                f"snapshot length {len(blob)}, expected {expect}"
            )
        data, oob = [], []
        for _ in range(g.total_pages):
            data.append(blob[off : off + g.page_bytes])
            off += g.page_bytes
        for _ in range(g.total_pages):
            oob.append(blob[off : off + g.oob_bytes])
            off += g.oob_bytes
        erase = list(struct.unpack_from(f"<{g.total_blocks}I", blob, off))
        off += 4 * g.total_blocks
        programmed = list(blob[off : off + g.total_pages])
        return cls(g, data, oob, erase, programmed)

    def save(self, path):
        with open(path, "wb") as f:
            f.write(self.to_bytes())

    @classmethod
    def load(cls, path) -> "Snapshot":
        with open(path, "rb") as f:
            return cls.from_bytes(f.read())


class FlashDevice:
    """Array of blocks of write-once pages with a timing ledger."""

    def __init__(self, geometry: DeviceGeometry, timings: DeviceTimings = DEFAULT_TIMINGS):
        n = geometry.total_pages
        self._attach(geometry, timings,
                     [bytearray(geometry.page_bytes) for _ in range(n)],
                     [bytearray(geometry.oob_bytes) for _ in range(n)],
                     [0] * n, [0] * geometry.total_blocks)

    def _attach(self, geometry, timings, data, oob, programmed, erase_counts):
        """Take the given page buffers and counters, with a zero ledger."""
        self.geometry = geometry
        self.timings = timings
        self._data = data
        self._oob = oob
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
        cur_d = self._data[ppn]
        cur_o = self._oob[ppn]
        for cur, new, what in ((cur_d, data, "data"), (cur_o, oob, "oob")):
            old_i = int.from_bytes(cur, "big")
            new_i = int.from_bytes(new, "big")
            if old_i | new_i != new_i:
                raise WomInvariantViolation(
                    f"program of page {ppn} {what} would clear set bits"
                )
        cur_d[:] = data
        cur_o[:] = oob
        self._programmed[ppn] += 1
        self.programs += 1
        self.clock_us += self.timings.program_us

    def erase_block(self, block_id: int):
        if not 0 <= block_id < self.geometry.total_blocks:
            raise IndexError(f"block {block_id} out of range")
        ppb = self.geometry.pages_per_block
        for ppn in range(block_id * ppb, (block_id + 1) * ppb):
            self._data[ppn][:] = bytes(self.geometry.page_bytes)
            self._oob[ppn][:] = bytes(self.geometry.oob_bytes)
            self._programmed[ppn] = 0
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
        return [bytes(o) for o in self._oob[start:]]

    def program_count(self, ppn: int) -> int:
        self._check_ppn(ppn)
        return self._programmed[ppn]

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
        return Snapshot(
            self.geometry,
            [bytes(d) for d in self._data],
            [bytes(o) for o in self._oob],
            list(self._erase_counts),
            list(self._programmed),
        )

    @classmethod
    def restore(cls, snap: Snapshot, timings: DeviceTimings = DEFAULT_TIMINGS):
        dev = cls.__new__(cls)
        dev._attach(snap.geometry, timings,
                    [bytearray(d) for d in snap.data],
                    [bytearray(o) for o in snap.oob],
                    list(snap.programmed), list(snap.erase_counts))
        return dev
