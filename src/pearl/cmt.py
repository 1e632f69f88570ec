"""Demand-paged page mapping: the cached mapping table and the mapping
core both FTLs are built on.

The CMT is an LRU cache of (volume, lpn) -> ppn entries.  The cache
itself never touches flash; the mapping core flushes evicted dirty
entries (batched per translation page) through the owning FTL's write
paths.
"""

from __future__ import annotations

import contextlib
import functools
import math
import operator
import struct
from collections import Counter, OrderedDict
from itertools import filterfalse

from .errors import DeviceFull, UnmappedLpn
from .oob import LPN_MASK, is_trans_field

UNMAPPED = 0xFFFF_FFFF


class CachedMappingTable:
    """The cache, with its dirty entries indexed by translation page:
    entries_per_page[volume] lpns map to one page of a volume.  An entry
    is (volume, lpn) -> ppn; it is dirty exactly while its lpn is in the
    dirty set of its translation page (by volume, then m_vpn)."""

    def __init__(self, capacity: int, entries_per_page):
        if capacity < 1:
            raise ValueError("CMT capacity must be >= 1")
        self.capacity = capacity
        self._epp = entries_per_page
        self._entries = OrderedDict()  # (volume, lpn) -> ppn
        self._dirty = {vol: {} for vol in entries_per_page}  # dirty lpns
        self.misses = 0

    def __contains__(self, key):
        return key in self._entries

    def _clean(self, volume, lpn):
        """Drop lpn from its translation page's dirty set; whether it
        was there."""
        pages, m_vpn = self._dirty[volume], lpn // self._epp[volume]
        lpns = pages.get(m_vpn, ())
        if lpn not in lpns:
            return False
        lpns.remove(lpn)
        if not lpns:
            del pages[m_vpn]
        return True

    def lookup(self, volume, lpn):
        """Returns ppn (may be UNMAPPED) or None on miss; touches recency."""
        key = (volume, lpn)
        ppn = self._entries.get(key)
        if ppn is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        return ppn

    def put(self, volume, lpn, ppn, dirty):
        """Insert or update; an update never evicts, and a clean put leaves
        a dirty entry dirty.  No capacity eviction happens here — callers
        drain overflow via pop_excess()."""
        key = (volume, lpn)
        self._entries[key] = ppn
        self._entries.move_to_end(key)
        if dirty:
            self._dirty[volume].setdefault(
                lpn // self._epp[volume], set()).add(lpn)

    def pop_excess(self):
        """Pop and return the LRU entry, as ((volume, lpn), ppn, dirty), if
        over capacity, else None."""
        if len(self._entries) <= self.capacity:
            return None
        key, ppn = self._entries.popitem(last=False)
        return key, ppn, self._clean(*key)

    def dirty_in_page(self, volume, m_vpn):
        """All dirty cached entries living in the given translation page,
        as (lpn, ppn)."""
        return [(lpn, self._entries[volume, lpn])
                for lpn in self._dirty[volume].get(m_vpn, ())]

    def mark_clean(self, volume, lpn, ppn):
        """Clean the entry if it still maps to ppn (it may have been
        re-dirtied with a newer ppn while ppn was being flushed)."""
        if self._entries.get((volume, lpn)) == ppn:
            self._clean(volume, lpn)

    def dirty_groups(self):
        """Set of (volume, m_vpn) translation pages with dirty entries."""
        return {(volume, m_vpn) for volume, pages in self._dirty.items()
                for m_vpn in pages}


def sealing(request):
    """Make request seal what it queued when it ends, also when it
    raises; a request inside another one (a collection inside an
    allocation) or inside a batched() scope leaves the seal to it."""
    @functools.wraps(request)
    def sealed(self, *args, **kwargs):
        if self._held:
            return request(self, *args, **kwargs)
        self._held = True
        try:
            return request(self, *args, **kwargs)
        finally:
            self._held = False
            if self._pending:
                self._seal()
    return sealed


class MappingCore:
    """Page-level demand-paged mapping (DFTL, Gupta et al., ASPLOS 2009)
    shared by the baseline and the deniable FTL.

    Each volume's mappings live on flash in translation pages; the GTD
    (``_gtd[volume][m_vpn]``) locates them and the CMT caches hot
    entries.  A subclass sets ``device``, ``_epp`` (entries per
    translation page, by volume) and ``_ppb`` (pages per block), calls
    ``_reset_mapping``, and supplies how a page's payload is decoded
    from the device (``_decode(volume, ppn, quiet)``, which every read
    reaches through the cache, ``_payload``), how a translation page is
    written (``_write_translation``, given its first ``4 * epp`` bytes)
    and how a victim block is emptied (``_gc_block``).  Pages
    are taken from one open block per append stream (``_next_page``),
    which may collect first.  So a write resolves the page it supersedes,
    and a ``PearlFtl`` full write its cloak source, after its page is
    allocated, and a UI1 slot the collection refilled is served first.

    Every volume keeps a live-page ledger here: ``_live[volume]`` maps
    each page holding its live data to the lpn_field it holds
    (``oob.trans_field`` of the m_vpn for a translation page) and
    ``_live_count[volume]`` counts them per block.  Only
    ``_hold(volume, ppn, field)`` and ``_drop(volume, ppn)`` change them,
    a collection prices a victim by every volume's live pages, releasing
    a block drops them all, and ``check_invariants`` recounts each
    volume.  The main volume (the first one given to ``_reset_mapping``)
    also names its ledger ``_owner`` and ``_valid``, and ``_hold`` and
    ``_drop`` keep its blocks in a bucket queue by live count:
    ``_by_valid[n]`` is the bitmask of blocks with ``_valid == n``, so
    ``_fewest_valid`` finds the block of a set with the fewest valid
    pages in at most ``_ppb + 1`` mask operations.

    Page payloads, as a cold read would return them (WOM-decoded and
    decrypted on ``PearlFtl``), are kept in ``_payloads``:
    ``(volume, ppn) -> (tag, payload)``.  A read that misses stores what
    it decoded, and every program stores the padded plaintext it wrote
    once the device has taken it, so pages this FTL wrote are never
    decoded.  An entry counts only while its page has been neither
    programmed nor erased since (its ``FlashDevice.page_tag``); that
    also covers a GTD recovered from a crashed device, which may name a
    page the FTL does not own.  A hit still charges the device read
    unless it is quiet: the cache saves host work, never simulated
    time.  Collection drops
    the entries of the block it erases, so there is at most one entry
    per volume and programmed page, and mount starts empty.  The cache lives in this
    instance only, so hidden payloads are held only where the hidden
    key is.

    A subclass may queue its programs instead of making them:
    ``_pending`` maps each page with a queued program to it, in queue
    order, and ``_seal`` makes them all.  The core seals before it
    touches a queued page (``_payload``) and before it erases a block,
    so the device sees every program and erase in the order they were
    decided.  Every request that can queue a program is wrapped in
    ``sealing``, so it seals what it queued when it ends, unless it runs
    inside another request or a ``batched()`` scope.  ``Dftl`` programs
    at once and never queues, so the scope changes nothing for it.
    """

    _batching = False   # whether a batched() scope is open
    _held = False       # whether a request or batched() holds the queue

    @contextlib.contextmanager
    def batched(self):
        """A scope whose requests leave their programs queued: they are
        sealed together when the queue is full (the subclass's bound),
        at a forced seal point (see above) or when the scope exits,
        also when a request inside it raises.  Device results are the
        same as without the scope, but a queued program is charged to
        the device clock at its seal, not in the request that queued
        it.  So a caller that reads per-request clock deltas
        (``bench.replay``, ``bench.mixed_workload``) stays outside it;
        ``bench.init_device`` fills through it."""
        self._batching = self._held = True
        try:
            yield
        finally:
            self._batching = self._held = False
            self._seal()

    def _seal(self):
        """Make every queued program; a subclass that queues supplies it."""

    def _reset_mapping(self, volume_pages, cmt_capacity, blocks):
        """Empty cache, all-unmapped GTD for {volume: logical pages}, no
        valid page, no open block, and the managed blocks given all free.
        Collection keeps at least 2% of the device's blocks (and never
        fewer than 2) free."""
        self.gc_watermark = max(
            2, math.ceil(0.02 * self.device.geometry.total_blocks))
        self.cmt = CachedMappingTable(cmt_capacity, self._epp)
        self._payloads = {}
        self._pending = {}    # ppn -> its queued program (see _seal)
        self._gtd = {vol: [UNMAPPED] * -(-pages // self._epp[vol])
                     for vol, pages in volume_pages.items()}
        blocks_total = self.device.geometry.total_blocks
        self._live = {vol: {} for vol in volume_pages}  # ppn -> lpn_field
        self._live_count = {vol: [0] * blocks_total for vol in volume_pages}
        main = next(iter(volume_pages))
        self._owner, self._valid = self._live[main], self._live_count[main]
        self._by_valid = [(1 << blocks_total) - 1] + [0] * self._ppb
        self._managed = blocks
        self._free = set(blocks)
        self._block = {}      # stream -> its open block
        self._cursor = {}     # stream -> next ppn of its open block
        self._gc_victim = None
        self._flushing = False

    def _clamp_ppn(self, ppn):
        """Keep arbitrary (possibly garbage-decrypted) values addressable."""
        if ppn == UNMAPPED:
            return UNMAPPED
        return ppn % self.device.geometry.total_pages

    # -- translation ---------------------------------------------------

    def _payload(self, volume, ppn, quiet=False):
        """volume's payload of the page at ppn, from the cache while its
        tag is current, else decoded (``_decode``) and stored.  A
        non-quiet call charges one device read, hit or miss."""
        if ppn in self._pending:
            self._seal()
        tag = self.device.page_tag(ppn)
        hit = self._payloads.get((volume, ppn))
        if hit is not None and hit[0] == tag:
            if not quiet:
                self.device.read_page(ppn)
            return hit[1]
        payload = self._decode(volume, ppn, quiet)
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
                    "<I", self._payload(volume, t_ppn),
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
            page = bytearray(self._payload(volume, t_ppn)[:4 * epp])
        else:
            page = bytearray(struct.pack("<I", UNMAPPED) * epp)
        dirty = self.cmt.dirty_in_page(volume, m_vpn)
        for lpn, ppn in dirty + list(extra):
            struct.pack_into("<I", page, 4 * (lpn % epp), ppn)
        # A collection inside the write does not drain the CMT: a flush
        # nested in this one could write this page too, mark its entries
        # clean and then be superseded by this older payload.
        self._flushing = True
        try:
            self._write_translation(volume, m_vpn, bytes(page))
        finally:
            self._flushing = False
        # Programming the translation page may have garbage-collected and
        # re-dirtied some of these entries with newer ppns; leave those dirty.
        for lpn, ppn in dirty:
            self.cmt.mark_clean(volume, lpn, ppn)

    def _drain_cmt(self):
        """Flush the evicted dirty entries of an over-full cache: the
        last step of every request."""
        if self._flushing:
            return
        while (item := self.cmt.pop_excess()) is not None:
            (vol, lpn), ppn, dirty = item
            if dirty:
                self._flush_group(vol, lpn // self._epp[vol],
                                  extra=[(lpn, ppn)])

    def _walk_volume(self, volume):
        """Quiet {lpn: ppn} map from the on-flash translation pages (no
        clock, no CMT)."""
        out = {}
        epp = self._epp[volume]
        for m, t_ppn in enumerate(self._gtd[volume]):
            if t_ppn == UNMAPPED:
                continue
            page = self._payload(volume, t_ppn, quiet=True)
            for i, e in enumerate(struct.unpack_from(f"<{epp}I", page)):
                if e != UNMAPPED:
                    out[m * epp + i] = self._clamp_ppn(e)
        return out

    def _mapped(self, volume):
        """Quiet {lpn: ppn} view of a volume: the walked map with the
        cached entries laid over it."""
        out = self._walk_volume(volume)
        for (vol, lpn), ppn in self.cmt._entries.items():
            if vol == volume:
                if ppn == UNMAPPED:
                    out.pop(lpn, None)
                else:
                    out[lpn] = ppn
        return out

    # -- the live-page ledger -----------------------------------------

    def _hold(self, volume, ppn, lpn_field):
        """Record ppn as holding volume's live data of lpn_field."""
        live = self._live[volume]
        if ppn not in live:
            self._count(volume, ppn // self._ppb, 1)
        live[ppn] = lpn_field

    def _drop(self, volume, ppn):
        """Record that ppn holds no live data of volume (a no-op if it
        held none)."""
        if self._live[volume].pop(ppn, None) is not None:
            self._count(volume, ppn // self._ppb, -1)

    def _count(self, volume, blk, step):
        """Add step to blk's live count of volume, moving the block to
        its new bucket of ``_by_valid`` if volume is the main one."""
        counts = self._live_count[volume]
        n = counts[blk]
        counts[blk] = n + step
        if counts is self._valid:
            bit, levels = 1 << blk, self._by_valid
            levels[n] ^= bit
            levels[n + step] ^= bit

    def _fewest_valid(self, blocks):
        """The block of the bitmask blocks with the fewest valid pages,
        the lowest-numbered of equals, or None if blocks is empty."""
        if blocks:
            for level in self._by_valid:
                found = level & blocks
                if found:
                    return (found & -found).bit_length() - 1
        return None

    def _ranked_by_valid(self):
        """``_by_valid`` recounted from ``_valid`` (a count outside
        0.._ppb ranks its block nowhere)."""
        levels = [0] * (self._ppb + 1)
        for blk, n in enumerate(self._valid):
            if 0 <= n <= self._ppb:
                levels[n] |= 1 << blk
        return levels

    # -- blocks: allocation and collection -----------------------------

    def _open_with_room(self, blk):
        """Whether blk is a stream's open block with an unwritten page."""
        for stream, b in self._block.items():
            if b == blk and self._cursor[stream] < (b + 1) * self._ppb:
                return True
        return False

    def _next_page(self, stream):
        """Take the next page of stream's open block.  A full block is
        replaced by the lowest free block only if it is still full after
        collection, whose relocations may have opened a block with room.
        So a managed block holds an unwritten page only if it is free or
        an open block with room."""
        if not self._open_with_room(self._block.get(stream)):
            self._maybe_gc()
            if not self._open_with_room(self._block.get(stream)):
                if not self._free:
                    raise DeviceFull("no free blocks remain")
                blk = min(self._free)
                self._free.remove(blk)
                self._block[stream] = blk
                self._cursor[stream] = blk * self._ppb
        ppn = self._cursor[stream]
        self._cursor[stream] += 1
        return ppn

    def _release_block(self, blk):
        """Erase a collected block, drop its live pages and their cached
        payloads and return it to the free set."""
        self._seal()
        self.device.erase_block(blk)
        pages = range(blk * self._ppb, (blk + 1) * self._ppb)
        for volume, live in self._live.items():
            for ppn in pages:
                if ppn in live:
                    self._drop(volume, ppn)
                self._payloads.pop((volume, ppn), None)
        self._free.add(blk)

    def _select_victim(self):
        """The managed block that is neither free nor open with the fewest
        live pages of every volume, or None; ``min`` keeps the first, so
        the lowest-numbered, of equals.  Every volume counts: priced by
        its live public pages alone, a ``PearlFtl`` block of dead public
        pages that still carry hidden data looks free but costs one empty
        page per hidden relocation, which starves the collector."""
        cost, *others = self._live_count.values()
        for other in others:
            cost = list(map(operator.add, cost, other))
        taken = self._free.union(self._block.values())
        return min(filterfalse(taken.__contains__, self._managed),
                   key=cost.__getitem__, default=None)

    def gc_run(self):
        """Collect the victim block; returns the reclaimed page count, or
        None when no victim exists."""
        victim = self._select_victim()
        if victim is None:
            return None
        self.gc_runs += 1
        was, self._gc_victim = self._gc_victim, victim
        try:
            return self._gc_block(victim)
        finally:
            self._gc_victim = was

    def _maybe_gc(self):
        if self._gc_victim is not None:
            return
        attempts = 0
        while len(self._free) <= self.gc_watermark:
            attempts += 1
            if attempts > self.device.geometry.total_blocks:
                break
            if self.gc_run() is None:
                break

    # -- introspection -------------------------------------------------

    def _misplaced(self, volume):
        """Quietly (no clock, no counts) check that every live page of
        volume sits where its lpn_field maps; returns problems."""
        mapped, gtd = self._mapped(volume), self._gtd[volume]
        return [f"valid {volume} page {ppn} is not where its lpn maps"
                for ppn, field in self._live[volume].items()
                if (gtd[field & LPN_MASK] if is_trans_field(field)
                    else mapped.get(field)) != ppn]

    def check_invariants(self):
        """Cross-check the free set, the allocation rule and the live-page
        ledger with its valid-count order against the device and the
        mappings, once every queued program is made; returns problems."""
        self._seal()
        problems = []
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
        for volume, live in self._live.items():
            per_block = Counter(ppn // self._ppb for ppn in live)
            problems += [f"valid {volume} count wrong for block {blk}"
                         for blk in self._managed
                         if per_block[blk] != self._live_count[volume][blk]]
            problems += self._misplaced(volume)
        if self._ranked_by_valid() != self._by_valid:
            problems.append("blocks are ranked by the wrong valid count")
        return problems
