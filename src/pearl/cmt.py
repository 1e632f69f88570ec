"""Demand-paged page mapping: the cached mapping table and the mapping
core both FTLs are built on.

The CMT is an LRU cache of (volume, lpn) -> ppn entries.  The cache
itself never touches flash; the mapping core flushes evicted dirty
entries (batched per translation page) through the owning FTL's write
paths.
"""

from __future__ import annotations

import heapq
import math
import struct
from collections import OrderedDict

from .errors import DeviceFull, UnmappedLpn

UNMAPPED = 0xFFFF_FFFF


class CachedMappingTable:
    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("CMT capacity must be >= 1")
        self.capacity = capacity
        self._entries = OrderedDict()  # (volume, lpn) -> [ppn, dirty]
        self.hits = 0
        self.misses = 0

    def __len__(self):
        return len(self._entries)

    def __contains__(self, key):
        return key in self._entries

    def lookup(self, volume, lpn):
        """Returns ppn (may be UNMAPPED) or None on miss; touches recency."""
        key = (volume, lpn)
        ent = self._entries.get(key)
        if ent is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return ent[0]

    def put(self, volume, lpn, ppn, dirty):
        """Insert or update; an update never evicts.  No capacity eviction
        happens here — callers drain overflow via pop_excess()."""
        key = (volume, lpn)
        ent = self._entries.get(key)
        if ent is not None:
            ent[0] = ppn
            ent[1] = ent[1] or dirty
            self._entries.move_to_end(key)
        else:
            self._entries[key] = [ppn, dirty]

    def pop_excess(self):
        """Pop and return the LRU entry if over capacity, else None."""
        if len(self._entries) <= self.capacity:
            return None
        key, (ppn, dirty) = next(iter(self._entries.items()))
        del self._entries[key]
        return key, ppn, dirty

    def dirty_in_page(self, volume, m_vpn, entries_per_page):
        """All dirty cached entries living in the given translation page."""
        out = []
        for (vol, lpn), (ppn, dirty) in self._entries.items():
            if vol == volume and dirty and lpn // entries_per_page == m_vpn:
                out.append((lpn, ppn))
        return out

    def mark_clean(self, volume, lpn, expected_ppn=None):
        """Clear the dirty bit; with expected_ppn, only if the cached value
        still matches (the entry may have been re-dirtied with a newer ppn
        while its old value was being flushed)."""
        ent = self._entries.get((volume, lpn))
        if ent is not None and (expected_ppn is None or ent[0] == expected_ppn):
            ent[1] = False

    def dirty_groups(self, entries_per_page_by_volume):
        """Set of (volume, m_vpn) groups containing dirty entries."""
        groups = set()
        for (vol, lpn), (_, dirty) in self._entries.items():
            if dirty:
                groups.add((vol, lpn // entries_per_page_by_volume[vol]))
        return groups


class MappingCore:
    """Page-level demand-paged mapping (DFTL, Gupta et al., ASPLOS 2009)
    shared by the baseline and the deniable FTL.

    Each volume's mappings live on flash in translation pages; the GTD
    (``_gtd[volume][m_vpn]``) locates them and the CMT caches hot
    entries.  A subclass sets ``device``, ``_epp`` (entries per
    translation page, by volume), ``_ppb`` (pages per block) and
    ``_valid`` (valid pages per block), calls ``_reset_mapping``, and
    supplies how a translation page's payload is read
    (``_read_translation``) and written (``_write_translation``, given
    its first ``4 * epp`` bytes) and how a victim block is emptied
    (``_gc_block``); it may override ``_gc_cost`` to price victims by
    more than their valid pages.  Pages are taken from one open block
    per append stream (``_next_page``).

    Page payloads, as a cold read would return them (WOM-decoded and
    decrypted on ``PearlFtl``), are kept in ``_payloads``:
    ``(volume, ppn) -> (tag, payload)``.  A read that misses stores what
    it decoded, and every successful program stores the padded plaintext
    it has just written, so pages this FTL wrote are never decoded.  An
    entry counts only while its page has been neither programmed nor
    erased since (its ``FlashDevice.page_tag``); that also covers a GTD
    recovered from a crashed device, which may name a page the FTL does
    not own.  A hit still charges the device read unless it is quiet:
    the cache saves host work, never simulated time.  Collection drops the entries of
    the block it erases, so there is at most one entry per volume and
    programmed page, and mount starts empty.  The cache lives in this
    instance only, so hidden payloads are held only where the hidden
    key is.
    """

    def _reset_mapping(self, volume_pages, cmt_capacity, blocks):
        """Empty cache, all-unmapped GTD for {volume: logical pages}, no
        open block, and the managed blocks given all free.  Collection
        keeps at least 2% of the device's blocks (and never fewer than 2)
        free."""
        self.gc_watermark = max(
            2, math.ceil(0.02 * self.device.geometry.total_blocks))
        self.cmt = CachedMappingTable(cmt_capacity)
        self._payloads = {}
        self._gtd = {vol: [UNMAPPED] * -(-pages // self._epp[vol])
                     for vol, pages in volume_pages.items()}
        self._managed = blocks
        self._set_free_blocks(blocks)
        self._block = {}      # stream -> its open block
        self._cursor = {}     # stream -> next ppn of its open block
        self._in_gc = False
        self._gc_victim = None
        self._draining = False

    def _clamp_ppn(self, ppn):
        """Keep arbitrary (possibly garbage-decrypted) values addressable."""
        if ppn == UNMAPPED:
            return UNMAPPED
        return ppn % self.device.geometry.total_pages

    # -- translation ---------------------------------------------------

    def _payload(self, volume, ppn, quiet, read):
        """volume's payload of the page at ppn, from the cache while its
        tag is current, else read(ppn, quiet) and stored.  A non-quiet
        call charges one device read, hit or miss."""
        tag = self.device.page_tag(ppn)
        hit = self._payloads.get((volume, ppn))
        if hit is not None and hit[0] == tag:
            if not quiet:
                self.device.read_page(ppn)
            return hit[1]
        payload = read(ppn, quiet)
        self._payloads[volume, ppn] = (tag, payload)
        return payload

    def _store_payload(self, volume, ppn, payload):
        """Cache what a cold read of the page just programmed returns."""
        self._payloads[volume, ppn] = (self.device.page_tag(ppn), payload)

    def _translate(self, volume, lpn, missing_ok=False):
        ppn = self.cmt.lookup(volume, lpn)
        if ppn is None:
            epp = self._epp[volume]
            m_vpn = lpn // epp
            t_ppn = self._gtd[volume][m_vpn]
            if t_ppn == UNMAPPED:
                ppn = UNMAPPED
            else:
                ppn = self._clamp_ppn(struct.unpack_from(
                    "<I", self._read_translation(volume, t_ppn),
                    4 * (lpn % epp))[0])
            self.cmt.put(volume, lpn, ppn, dirty=False)
        if ppn == UNMAPPED:
            if missing_ok:
                return None
            raise UnmappedLpn(f"{volume} lpn {lpn} is not mapped")
        return ppn

    def _flush_group(self, volume, m_vpn, extra=()):
        """Write one translation page carrying every dirty cached entry
        (and any extras) for its lpn range.  A translation page is epp
        little-endian 32-bit ppns, patched here in place."""
        epp = self._epp[volume]
        t_ppn = self._gtd[volume][m_vpn]
        if t_ppn != UNMAPPED:
            page = bytearray(self._read_translation(volume, t_ppn)[:4 * epp])
        else:
            page = bytearray(struct.pack("<I", UNMAPPED) * epp)
        dirty = self.cmt.dirty_in_page(volume, m_vpn, epp)
        for lpn, ppn in dirty + list(extra):
            struct.pack_into("<I", page, 4 * (lpn % epp), ppn)
        self._write_translation(volume, m_vpn, bytes(page))
        # Programming the translation page may have garbage-collected and
        # re-dirtied some of these entries with newer ppns; leave those dirty.
        for lpn, ppn in dirty:
            self.cmt.mark_clean(volume, lpn, expected_ppn=ppn)

    def _drain_cmt(self):
        if self._draining:
            return
        self._draining = True
        try:
            while True:
                item = self.cmt.pop_excess()
                if item is None:
                    break
                (vol, lpn), ppn, dirty = item
                if dirty:
                    self._flush_group(vol, lpn // self._epp[vol],
                                      extra=[(lpn, ppn)])
        finally:
            self._draining = False

    def _walk_volume(self, volume):
        """Quiet {lpn: ppn} map from the on-flash translation pages (no
        clock, no CMT)."""
        out = {}
        epp = self._epp[volume]
        for m, t_ppn in enumerate(self._gtd[volume]):
            if t_ppn == UNMAPPED:
                continue
            page = self._read_translation(volume, t_ppn, quiet=True)
            for i, e in enumerate(struct.unpack_from(f"<{epp}I", page)):
                if e != UNMAPPED:
                    out[m * epp + i] = self._clamp_ppn(e)
        return out

    def _mapped(self, volume):
        """Quiet {lpn: ppn} view of a volume: the walked map with the
        cached entries laid over it."""
        out = self._walk_volume(volume)
        for (vol, lpn), (ppn, _) in self.cmt._entries.items():
            if vol == volume:
                if ppn == UNMAPPED:
                    out.pop(lpn, None)
                else:
                    out[lpn] = ppn
        return out

    # -- blocks: allocation and collection -----------------------------

    def _set_free_blocks(self, blocks):
        self._fbl = list(blocks)
        heapq.heapify(self._fbl)
        self._free = set(self._fbl)

    def _open_with_room(self, blk):
        """Whether blk is a stream's open block with an unwritten page."""
        return any(b == blk and self._cursor[stream] < (b + 1) * self._ppb
                   for stream, b in self._block.items())

    def _next_page(self, stream):
        """Take the next page of stream's open block.  A full block is
        replaced by the lowest free block only if it is still full after
        collection, whose relocations may have opened a block with room.
        So a managed block holds an unwritten page only if it is free or
        an open block with room."""
        if not self._open_with_room(self._block.get(stream)):
            self._maybe_gc()
            if not self._open_with_room(self._block.get(stream)):
                if not self._fbl:
                    raise DeviceFull("no free blocks remain")
                blk = heapq.heappop(self._fbl)
                self._free.discard(blk)
                self._block[stream] = blk
                self._cursor[stream] = blk * self._ppb
        ppn = self._cursor[stream]
        self._cursor[stream] += 1
        return ppn

    def _release_block(self, blk):
        """Erase a collected block, drop its pages' cached payloads and
        return it to the free heap."""
        self.device.erase_block(blk)
        for ppn in range(blk * self._ppb, (blk + 1) * self._ppb):
            for volume in self._gtd:
                self._payloads.pop((volume, ppn), None)
        self._valid[blk] = 0
        heapq.heappush(self._fbl, blk)
        self._free.add(blk)

    def _gc_cost(self, blk):
        """Pages a collection of blk must relocate."""
        return self._valid[blk]

    def _select_victim(self):
        """The cheapest managed block that is neither free nor open (the
        lowest-numbered on ties), or None."""
        return min((blk for blk in self._managed if blk not in self._free
                    and blk not in self._block.values()),
                   key=lambda blk: (self._gc_cost(blk), blk), default=None)

    def gc_run(self):
        """Collect the victim block; returns the reclaimed page count, or
        None when no victim exists."""
        victim = self._select_victim()
        if victim is None:
            return None
        was = self._in_gc, self._gc_victim
        self._in_gc, self._gc_victim = True, victim
        try:
            return self._gc_block(victim)
        finally:
            self._in_gc, self._gc_victim = was

    def _maybe_gc(self):
        if self._in_gc:
            return
        attempts = 0
        while len(self._fbl) <= self.gc_watermark:
            attempts += 1
            if attempts > self.device.geometry.total_blocks:
                break
            if self.gc_run() is None:
                break

    def _allocation_problems(self):
        """Free-list and allocation-rule bookkeeping that disagrees with
        the device's program counts; returns problems."""
        problems = []
        if sorted(self._fbl) != sorted(self._free):
            problems.append("free heap and free set disagree")
        if self._free & set(self._block.values()):
            problems.append("an open block is on the free list")
        for blk in self._managed:
            written = [self.device.program_count(p) > 0 for p in
                       range(blk * self._ppb, (blk + 1) * self._ppb)]
            if blk in self._free:
                if any(written):
                    problems.append(f"free block {blk} holds a programmed page")
            elif not all(written) and not self._open_with_room(blk):
                problems.append(f"block {blk} holds an unwritten page but is "
                                "neither free nor open with room")
        return problems
