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
from .oob import is_trans_field, trans_field

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
        self._volumes = {DATA: (self.logical_pages, self.page_bytes)}
        self.gc_runs = 0
        self.ledger = Counter()
        self._reset_mapping({DATA: self.logical_pages}, cmt_capacity,
                            range(g.total_blocks))

    # -- the write step ------------------------------------------------

    def _write(self, lpn_field, data, old=None):
        """Program data on the next page of its stream (translation pages
        apart from data pages), supersede old and map lpn_field there.
        old defaults to where lpn_field maps once the page is allocated,
        which may collect.  A translation page's payload is cached."""
        trans = is_trans_field(lpn_field)
        ppn = self._next_page(TRANS if trans else DATA)
        self.device.program_page(ppn, data,
                                 bytes(self.device.geometry.oob_bytes))
        self._hold(DATA, ppn, lpn_field)
        if trans:
            self._store_payload(DATA, ppn, data)
            self.ledger["translation_programs"] += 1
        if old is None:
            old = self._get_loc(DATA, lpn_field)
        if old is not None:
            self._drop(DATA, old)
        self._set_loc(DATA, lpn_field, ppn)

    # -- mapping layer -------------------------------------------------

    def _decode(self, volume, ppn, quiet):
        """Raw bytes of the page at ppn (a charged read unless quiet),
        never from the cache."""
        return (self.device.peek if quiet else self.device.read_page)(ppn)[0]

    def _write_translation(self, volume, m_vpn, payload):
        self._write(trans_field(m_vpn), payload.ljust(self.page_bytes, b"\0"))

    def translate(self, lpn):
        self._check_request(DATA, lpn)
        return self._translate(DATA, lpn)

    # -- logical block API ---------------------------------------------

    def write(self, lpn, data):
        self._check_request(DATA, lpn, data)
        self._write(lpn, data)
        self.ledger["data_programs"] += 1
        self._drain_cmt()

    def read(self, lpn):
        data, _ = self.device.read_page(self.translate(lpn))
        self._drain_cmt()
        return data

    def trim(self, lpn):
        ppn = self.translate(lpn)
        self._drop(DATA, ppn)
        self.cmt.put(DATA, lpn, UNMAPPED, dirty=True)
        self._drain_cmt()

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
        for ppn in range(victim * self._ppb, (victim + 1) * self._ppb):
            field = self._owner.get(ppn)
            if field is not None:
                self._write(field, self._payload(DATA, ppn), old=ppn)
                self.ledger["gc_programs"] += 1

    # -- introspection -------------------------------------------------

    def full_map(self):
        """Quiet {lpn: ppn} view combining flash and dirty CMT entries."""
        return self._mapped(DATA)
