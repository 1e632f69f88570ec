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
from .oob import LPN_MASK, is_trans_field, trans_field

DATA, TRANS = "data", "trans"


class Dftl(MappingCore):
    def __init__(self, device: FlashDevice, cmt_capacity: int = 1024):
        self.device = device
        g = device.geometry
        self._ppb = g.pages_per_block
        self.page_bytes = g.page_bytes
        # 84% of the device is logical space; the rest is spare for GC.
        self.logical_pages = int(0.84 * g.total_pages)
        self.entries_per_page = g.page_bytes // 4
        self._epp = {DATA: self.entries_per_page}
        self.gc_runs = 0
        self.ledger = Counter()
        self._reset_mapping({DATA: self.logical_pages}, cmt_capacity,
                            range(g.total_blocks))

    # -- allocation ----------------------------------------------------

    def _program(self, lpn_field, data):
        """Program data on the next page of the open block of its stream
        (translation pages apart from data pages) and hold it as the
        valid page of lpn_field.  Returns the ppn."""
        ppn = self._next_page(TRANS if is_trans_field(lpn_field) else DATA)
        self.device.program_page(ppn, data,
                                 bytes(self.device.geometry.oob_bytes))
        self._hold(DATA, ppn, lpn_field)
        return ppn

    # -- mapping layer -------------------------------------------------

    def _decode(self, volume, ppn, quiet):
        """Raw bytes of the page at ppn (a charged read unless quiet),
        never from the cache."""
        return (self.device.peek if quiet else self.device.read_page)(ppn)[0]

    def _write_translation(self, volume, m_vpn, payload):
        payload += bytes(self.page_bytes - len(payload))
        ppn = self._program(trans_field(m_vpn), payload)
        self._store_payload(volume, ppn, payload)
        old = self._gtd[volume][m_vpn]
        if old != UNMAPPED:
            self._drop(DATA, old)
        self._gtd[volume][m_vpn] = ppn
        self.ledger["translation_programs"] += 1

    def translate(self, lpn, missing_ok=False):
        return self._translate(DATA, self._check_lpn(lpn), missing_ok)

    def _check_lpn(self, lpn):
        if not 0 <= lpn < self.logical_pages:
            raise PearlError(f"lpn {lpn} beyond logical capacity")
        return lpn

    # -- logical block API ---------------------------------------------

    def write(self, lpn, data):
        if len(data) != self.page_bytes:
            raise PearlError("write must be one page payload")
        ppn = self._program(self._check_lpn(lpn), data)
        # Resolved only now: a collection inside the allocation may have
        # moved the page lpn mapped to.
        old = self._translate(DATA, lpn, missing_ok=True)
        if old is not None:
            self._drop(DATA, old)
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
        self._drop(DATA, ppn)
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
        pages = range(victim * self._ppb, (victim + 1) * self._ppb)
        for ppn in pages:
            field = self._owner.get(ppn)
            if field is None:
                continue
            if is_trans_field(field):
                # A valid translation page is the one its GTD entry names.
                m_vpn = field & LPN_MASK
                self._write_translation(DATA, m_vpn, self._payload(
                    DATA, self._gtd[DATA][m_vpn]))
            else:
                data, _ = self.device.read_page(ppn)
                new = self._program(field, data)
                self._drop(DATA, ppn)
                self.cmt.put(DATA, field, new, dirty=True)
            self.ledger["gc_programs"] += 1
        reclaimed = sum(1 for ppn in pages if self.device.program_count(ppn))
        self._release_block(victim)
        self._drain_cmt()
        return reclaimed

    # -- introspection -------------------------------------------------

    def full_map(self):
        """Quiet {lpn: ppn} view combining flash and dirty CMT entries."""
        return self._mapped(DATA)
