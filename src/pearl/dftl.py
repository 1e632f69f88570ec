"""Demand-based page-mapping FTL baseline (no deniability, no coding).

Mappings live on flash in translation pages; a small in-memory cache (the
CMT) holds the hot entries and the GTD indexes the translation pages.
Data and translation pages are appended to separate current blocks; the
garbage collector evicts the block with the fewest valid pages.  Every
physical page is programmed at most once between erases.
"""

from __future__ import annotations

from collections import Counter

from .cmt import UNMAPPED, MappingCore
from .errors import PearlError
from .flash import FlashDevice

DATA, TRANS = "data", "trans"


class Dftl(MappingCore):
    def __init__(self, device: FlashDevice, cmt_capacity: int = 1024,
                 utilization: float = 0.84):
        if not 0 < utilization < 1:
            raise ValueError("utilization must be in (0, 1)")
        self.device = device
        g = device.geometry
        self._ppb = g.pages_per_block
        self.page_bytes = g.page_bytes
        self.logical_pages = int(utilization * g.total_pages)
        self.entries_per_page = g.page_bytes // 4
        self._epp = {DATA: self.entries_per_page}
        self.gc_runs = 0
        self.ledger = Counter()

        total = g.total_pages
        self._owner = [None] * total     # lpn or m_vpn of a valid page
        self._kind = [None] * total      # DATA | TRANS | None
        self._valid = [0] * g.total_blocks
        self._reset_mapping({DATA: self.logical_pages}, cmt_capacity,
                            range(g.total_blocks))

    # -- allocation ----------------------------------------------------

    def _program(self, kind, owner, data):
        """Program data on the next page of kind's open block and record
        it as a valid page of that kind owned by owner (an lpn or an
        m_vpn).  Returns the ppn."""
        ppn = self._next_page(kind)
        self.device.program_page(ppn, data,
                                 bytes(self.device.geometry.oob_bytes))
        self._kind[ppn] = kind
        self._owner[ppn] = owner
        self._valid[ppn // self._ppb] += 1
        return ppn

    # -- mapping layer -------------------------------------------------

    def _read_translation(self, volume, t_ppn, quiet=False):
        return self._payload(volume, t_ppn, quiet, self._read_data)

    def _read_data(self, ppn, quiet=False):
        read = self.device.peek if quiet else self.device.read_page
        return read(ppn)[0]

    def _write_translation(self, volume, m_vpn, payload):
        payload += bytes(self.page_bytes - len(payload))
        ppn = self._program(TRANS, m_vpn, payload)
        self._store_payload(volume, ppn, payload)
        old = self._gtd[volume][m_vpn]
        if old != UNMAPPED:
            self._invalidate(old)
        self._gtd[volume][m_vpn] = ppn
        self.ledger["translation_programs"] += 1

    def translate(self, lpn, missing_ok=False):
        if not 0 <= lpn < self.logical_pages:
            raise PearlError(f"lpn {lpn} beyond logical capacity")
        return self._translate(DATA, lpn, missing_ok)

    def _invalidate(self, ppn):
        if self._kind[ppn] is not None:
            self._kind[ppn] = None
            self._owner[ppn] = None
            self._valid[ppn // self._ppb] -= 1

    # -- logical block API ---------------------------------------------

    def write(self, lpn, data):
        if len(data) != self.page_bytes:
            raise PearlError("write must be one page payload")
        old = self.translate(lpn, missing_ok=True)
        ppn = self._program(DATA, lpn, data)
        if old is not None:
            self._invalidate(old)
        self.cmt.put(DATA, lpn, ppn, dirty=True)
        self.ledger["data_programs"] += 1
        self._drain_cmt()

    def read(self, lpn):
        ppn = self.translate(lpn)
        data, _ = self.device.read_page(ppn)
        self._drain_cmt()
        return data

    def trim(self, lpn):
        ppn = self.translate(lpn)
        self._invalidate(ppn)
        self.cmt.put(DATA, lpn, UNMAPPED, dirty=True)
        self._drain_cmt()

    def volumes(self):
        """{volume: (pages, payload_bytes)}: the one "data" volume."""
        return {DATA: (self.logical_pages, self.page_bytes)}

    def submit(self, volume, lpn, op, data=None):
        """One block request: read (returns the payload), write or trim."""
        if volume != DATA:
            raise PearlError(f"baseline FTL has no volume {volume!r}")
        if op == "read":
            return self.read(lpn)
        if op == "write":
            return self.write(lpn, data)
        if op == "trim":
            return self.trim(lpn)
        raise PearlError(f"unknown op {op!r}")

    # -- garbage collection --------------------------------------------

    def _gc_block(self, victim):
        self.gc_runs += 1
        pages = range(victim * self._ppb, (victim + 1) * self._ppb)
        reclaimed = 0
        for ppn in pages:
            kind, owner = self._kind[ppn], self._owner[ppn]
            if kind == DATA:
                data, _ = self.device.read_page(ppn)
                new = self._program(DATA, owner, data)
                self._invalidate(ppn)
                self.cmt.put(DATA, owner, new, dirty=True)
                self.ledger["gc_programs"] += 1
            elif kind == TRANS:
                # A valid translation page is the one its GTD entry names.
                self._write_translation(DATA, owner, self._read_translation(
                    DATA, self._gtd[DATA][owner]))
                self.ledger["gc_programs"] += 1
        for ppn in pages:
            if self.device.program_count(ppn):
                reclaimed += 1
            self._kind[ppn] = None
            self._owner[ppn] = None
        self._release_block(victim)
        self._drain_cmt()
        return reclaimed

    # -- introspection -------------------------------------------------

    def check_invariants(self):
        problems = self._allocation_problems()
        for blk in self._managed:
            n = sum(1 for p in range(blk * self._ppb, (blk + 1) * self._ppb)
                    if self._kind[p] is not None)
            if n != self._valid[blk]:
                problems.append(f"valid count wrong for block {blk}")
        return problems

    def full_map(self):
        """Quiet {lpn: ppn} view combining flash and dirty CMT entries."""
        return self._mapped(DATA)
