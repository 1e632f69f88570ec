"""Deniable FTL: two encrypted logical volumes over one WOM-coded device.

Public data is written with the (k, n) code's first/second writes; hidden
data rides in the wa/wb choice of full writes, always cloaked by a public
payload so every programmed page is explainable as ordinary public
activity.  Allocation follows a strict priority — fill the Current UI1
page, then the TI1 queue, then an empty page — so an adversary comparing
unmount-time snapshots never sees a page programmed while an
update-invalidated page was demonstrably pending.
"""

from __future__ import annotations

import math
import struct
from collections import Counter

from random import Random

from .cmt import UNMAPPED, MappingCore
from .config import PearlConfig, RESERVED_BLOCKS
from .crypto import (
    HIDDEN,
    PUBLIC,
    IvRegistry,
    VolumeKey,
    decrypt_payload,
    derive_key,
    encrypt_payload,
    fresh_iv,
)
from .errors import (
    HeaderError,
    ModeError,
    NoPublicCover,
    PearlError,
    UnmappedLpn,
)
from .flash import FlashDevice
from .oob import (
    LPN_MASK,
    STAGES,
    TAG_FIRST,
    TAG_SECOND,
    OobSlot,
    is_trans_field,
    observable_stage,  # noqa: F401  (the benchmark tracer wraps it here)
    observable_stages,
    pack_oob,
    parse_oob,
    slot_a_claims,
    trans_field,
)
from .states import PageState, TransitionMonitor
from .wom import (
    decode_page_hidden,
    decode_page_public,
    encode_page_first,
    encode_page_full,
    encode_page_second,
)

HEADER_MAGIC = b"PRLHDR01"
HEADER_VERSION = 1
_HEADER_FMT = "<8sH16s6I16sII"

PUBLIC_ONLY = "public-only"
PUBLIC_HIDDEN = "public-hidden"

_VALID = (PageState.V1, PageState.V2)
# Stage codes of oob.observable_stages, and the state of a live page at each.
_EMPTY, _FIRST, _SECOND = map(STAGES.index, ("empty", "first", "second"))
_LIVE = {_FIRST: PageState.V1, _SECOND: PageState.V2}
# The one append stream: its open block receives every empty-page write.
_FRONTIER = "frontier"


def _or_bytes(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "big") | int.from_bytes(b, "big")).to_bytes(
        len(a), "big"
    )


class PearlFtl(MappingCore):
    """The deniable FTL engine.  Use format() or mount() to construct."""

    def __init__(self, device: FlashDevice, config: PearlConfig, mode,
                 k_pub: VolumeKey, k_hid, salt: bytes, track_ivs=False):
        self.device = device
        self.config = config
        self.mode = mode
        self.k_pub = k_pub
        self.k_hid = k_hid
        self.salt = salt
        self.layout = config.layout
        self.rng = Random(config.seed)
        self.monitor = TransitionMonitor()
        self.iv_registry = IvRegistry() if track_ivs else None
        self.ledger = Counter()
        self.gc_runs = 0

        self._ppb = config.geometry.pages_per_block
        self._epp = config.entries_per_translation_page
        self._reset_volatile()
        self._persist_cursor = 1  # next free page in the header block
        self._persist_clean = False

    def _reset_volatile(self):
        cfg = self.config
        total = cfg.geometry.total_pages
        self._reset_mapping(
            {PUBLIC: cfg.public_pages, HIDDEN: cfg.hidden_pages},
            cfg.cmt_capacity, cfg.managed_blocks)
        self._state = [PageState.EMPTY] * total
        self._pub_lpn = {}       # ppn -> public lpn_field (data or translation)
        self._hidden_at = {}     # ppn -> hidden lpn_field with up-to-date data
        self._trimmed = set()    # trimmed-but-still-mapped public lpns
        self._valid = [0] * cfg.geometry.total_blocks
        self._hid_valid = [0] * cfg.geometry.total_blocks
        self.current_ui1 = None
        # The TIQ, oldest first: TI1 ppn -> the trimmed lpn still mapped to
        # it, or None for a relocation casualty (its lpn has moved on).
        self.tiq = {}
        self._slot_a = {}        # block -> set of slot-A lpn_fields in it

    # ------------------------------------------------------------------
    # construction: format / mount / recovery
    # ------------------------------------------------------------------

    @classmethod
    def format(cls, device, config, public_password, hidden_password=None,
               salt=None, track_ivs=False):
        """Initialize a blank device: write the header and return a handle."""
        if any(device.program_count(p) for p in range(device.geometry.total_pages)):
            raise HeaderError("device is not blank; mount it instead")
        rng = Random(config.seed)
        if salt is None:
            salt = rng.randbytes(16)
        header = cls._pack_header(config, salt)
        device.program_page(0, header, bytes(config.geometry.oob_bytes))
        return cls._open(device, config, public_password, hidden_password,
                         salt, track_ivs)

    @classmethod
    def mount(cls, device, public_password, hidden_password=None,
              cmt_capacity=1024, seed=0, track_ivs=False):
        """Open a formatted device, deriving keys and rebuilding state."""
        config, salt = cls._read_header(device, cmt_capacity, seed)
        ftl = cls._open(device, config, public_password, hidden_password,
                        salt, track_ivs)
        ftl.recover_metadata()
        return ftl

    @classmethod
    def _open(cls, device, config, public_password, hidden_password, salt,
              track_ivs):
        k_pub = derive_key(public_password, PUBLIC, salt)
        k_hid = None
        mode = PUBLIC_ONLY
        if hidden_password is not None:
            k_hid = derive_key(hidden_password, HIDDEN, salt)
            mode = PUBLIC_HIDDEN
        return cls(device, config, mode, k_pub, k_hid, salt, track_ivs)

    @staticmethod
    def _pack_header(config, salt):
        g = config.geometry
        head = struct.pack(
            _HEADER_FMT, HEADER_MAGIC, HEADER_VERSION, salt,
            g.dies, g.planes_per_die, g.blocks_per_plane, g.pages_per_block,
            g.page_bytes, g.oob_bytes,
            config.code.name.encode().ljust(16, b"\0"),
            config.public_pages, config.hidden_pages,
        )
        return head + bytes(g.page_bytes - len(head))

    @staticmethod
    def _read_header(device, cmt_capacity, seed):
        from .wom import BUILTIN_CODES

        data, _ = device.peek(0)
        fields = struct.unpack_from(_HEADER_FMT, data)
        if fields[0] != HEADER_MAGIC or fields[1] != HEADER_VERSION:
            raise HeaderError("missing or corrupt device header")
        salt = fields[2]
        geom = device.geometry
        if fields[3:9] != (geom.dies, geom.planes_per_die, geom.blocks_per_plane,
                           geom.pages_per_block, geom.page_bytes, geom.oob_bytes):
            raise HeaderError("header geometry does not match the device")
        code_name = fields[9].rstrip(b"\0").decode()
        if code_name not in BUILTIN_CODES:
            raise HeaderError(f"unknown code {code_name!r} in header")

        def fraction(pages):
            # The float nearest pages/total whose share of the device
            # truncates back to exactly `pages`: the quotient alone can
            # land one ulp low and lose a page.
            f = pages / geom.total_pages
            while int(f * geom.total_pages) < pages:
                f = math.nextafter(f, 1)
            return f

        config = PearlConfig(
            geometry=geom,
            timings=device.timings,
            code=BUILTIN_CODES[code_name],
            cmt_capacity=cmt_capacity,
            public_fraction=fraction(fields[10]),
            hidden_fraction=fraction(fields[11]),
            seed=seed,
        )
        return config, salt

    # -- state persistence (header block) ------------------------------

    def _pack_state_blob(self, volume):
        if volume == PUBLIC:
            front = self._cursor.get(_FRONTIER, 0xFFFFFFFF)
            ui1 = self.current_ui1 if self.current_ui1 is not None else 0xFFFFFFFF
            head = struct.pack("<II", front, ui1)
        else:
            head = b""
        gtd = self._gtd[volume]
        return head + struct.pack(f"<{len(gtd)}I", *gtd)

    def _persist_state(self):
        g = self.config.geometry
        if self._persist_cursor >= g.pages_per_block:
            self.device.erase_block(0)
            self.device.program_page(0, self._pack_header(self.config, self.salt),
                                     bytes(g.oob_bytes))
            self._persist_cursor = 1
        page = bytearray(g.page_bytes)
        half = g.page_bytes // 2

        iv = self._fresh_iv(self.k_pub)
        blob = self._pack_state_blob(PUBLIC)
        page[0:16] = iv
        page[16:16 + len(blob)] = encrypt_payload(self.k_pub, iv, blob)

        if self.mode == PUBLIC_HIDDEN:
            iv_h = self._fresh_iv(self.k_hid)
            blob_h = encrypt_payload(self.k_hid, iv_h,
                                     self._pack_state_blob(HIDDEN))
        else:
            # No hidden key: the region is still refreshed with random bytes
            # so its presence or staleness carries no signal.
            iv_h = self.rng.randbytes(16)
            blob_h = self.rng.randbytes(4 * len(self._gtd[HIDDEN]))
        page[half:half + 16] = iv_h
        page[half + 16:half + 16 + len(blob_h)] = blob_h

        ppn = self._persist_cursor
        self.device.program_page(ppn, bytes(page), bytes(g.oob_bytes))
        self._persist_cursor += 1

    def _load_state_blobs(self):
        """Locate and decrypt the newest persisted state page, if any."""
        g = self.config.geometry
        newest = None
        for idx in range(1, g.pages_per_block):
            data, _ = self.device.peek(idx)
            if any(data):
                newest = idx
        self._persist_cursor = (newest + 1) if newest is not None else 1
        if newest is None:
            return None, None
        data, _ = self.device.peek(newest)
        half = g.page_bytes // 2

        n_pub = len(self._gtd[PUBLIC])
        pub_len = 8 + 4 * n_pub
        pub = decrypt_payload(self.k_pub, data[0:16], data[16:16 + pub_len])
        # The first word (the allocation cursor) is written but not needed.
        ui1, = struct.unpack_from("<I", pub, 4)
        gtd_pub = list(struct.unpack_from(f"<{n_pub}I", pub, 8))

        gtd_hid = None
        if self.mode == PUBLIC_HIDDEN:
            n_hid = len(self._gtd[HIDDEN])
            raw = decrypt_payload(self.k_hid, data[half:half + 16],
                                  data[half + 16:half + 16 + 4 * n_hid])
            gtd_hid = list(struct.unpack_from(f"<{n_hid}I", raw))
        return (ui1, gtd_pub), gtd_hid

    def recover_metadata(self):
        """Drop all volatile state and rebuild maps, page states, queues
        and cursors by scanning the device."""
        self._reset_volatile()
        pub_state, gtd_hid = self._load_state_blobs()
        if pub_state is None:
            return  # freshly formatted device: nothing to recover
        ui1, gtd_pub = pub_state

        cfg = self.config
        g = cfg.geometry
        first = RESERVED_BLOCKS * self._ppb
        oobs = self.device.peek_oobs(first)
        # Stage code of every page (reserved pages read as empty), and the
        # slot-A claim of every managed page (-1: slot A unset).
        stage = [_EMPTY] * first + observable_stages(oobs).tolist()
        claims = slot_a_claims(oobs).tolist()

        # A crash image keeps the GTD of the last unmount, which can name a
        # page erased since: it holds no translation page and this FTL may
        # program it, so the entry is dropped.  A value that is no ppn at
        # all (what a wrong hidden password decrypts) stays addressable, so
        # a wrong password still reads garbage rather than an error.
        for volume, gtd in ((PUBLIC, gtd_pub), (HIDDEN, gtd_hid)):
            if gtd is not None:
                self._gtd[volume] = [
                    UNMAPPED
                    if first <= p < g.total_pages and stage[p] == _EMPTY
                    else self._clamp_ppn(p)
                    for p in gtd]

        # Current mappings, walked quietly through the translation pages.
        pub_map = self._walk_volume(PUBLIC)
        for lpn_field, ppn in pub_map.items():
            if stage[ppn] == _EMPTY:
                continue  # garbage entry (or pre-persist loss); ignore
            self._pub_lpn[ppn] = lpn_field
            self._state[ppn] = _LIVE[stage[ppn]]
        for m, t_ppn in enumerate(self._gtd[PUBLIC]):
            if t_ppn != UNMAPPED and stage[t_ppn] != _EMPTY:
                self._pub_lpn[t_ppn] = trans_field(m)
                self._state[t_ppn] = _LIVE[stage[t_ppn]]
        if self.mode == PUBLIC_HIDDEN:
            # Hidden content lives on second-stage pages only, so an entry
            # naming any other page (a wrong password's garbage) is not
            # installed; reads through it still return garbage.
            for lpn_field, ppn in self._walk_volume(HIDDEN).items():
                if stage[ppn] == _SECOND:
                    self._hid_set(ppn, lpn_field)
            for m, t_ppn in enumerate(self._gtd[HIDDEN]):
                if t_ppn != UNMAPPED and stage[t_ppn] == _SECOND:
                    self._hid_set(t_ppn, trans_field(m))

        # Remaining programmed pages are invalid; first-write invalids are
        # either the persisted UI1 page, a kept-mapped TI1 page, or
        # relocation leftovers awaiting GC.
        for ppn in range(first, g.total_pages):
            st = stage[ppn]
            if st == _EMPTY or self._state[ppn] != PageState.EMPTY:
                continue
            if st == _FIRST:
                lpn = claims[ppn - first]
                if ppn == ui1:
                    self._state[ppn] = PageState.UI1
                    self.current_ui1 = ppn
                elif lpn >= 0 and pub_map.get(lpn) == ppn:
                    self._state[ppn] = PageState.TI1
                    self.tiq[ppn] = lpn
                    self._trimmed.add(lpn)
                else:
                    self._state[ppn] = PageState.RI1
            else:
                self._state[ppn] = PageState.I2

        # Allocator: the frontier is the partially programmed managed block.
        free = []
        for blk in cfg.managed_blocks:
            pages = range(blk * self._ppb, (blk + 1) * self._ppb)
            fields = set(claims[pages.start - first:pages.stop - first])
            fields.discard(-1)
            if fields:
                self._slot_a[blk] = fields
            programmed = [p for p in pages if stage[p] != _EMPTY]
            if not programmed:
                free.append(blk)
            elif len(programmed) < self._ppb:
                self._block[_FRONTIER] = blk
                self._cursor[_FRONTIER] = programmed[-1] + 1
            self._valid[blk] = sum(1 for p in pages
                                   if self._state[p] in _VALID)
        self._set_free_blocks(free)
        self._persist_clean = True

    def translation_map(self, volume):
        """Quiet {lpn: ppn} view of a volume's current mappings (tests)."""
        if volume == HIDDEN and self.mode != PUBLIC_HIDDEN:
            raise ModeError("hidden volume not mounted")
        out = self._mapped(volume)
        for lpn in list(out):
            if volume == PUBLIC and lpn in self._trimmed:
                del out[lpn]
        return out

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _fresh_iv(self, *keys):
        """One fresh IV, registered under every key it will encrypt with."""
        iv = fresh_iv(self.rng)
        if self.iv_registry is not None:
            for key in keys:
                self.iv_registry.record(key, iv)
        return iv

    def _touch(self):
        self._persist_clean = False

    def _set_state(self, ppn, new, reason, lpn_field=None):
        """Move a page to a new state, keeping its block's valid count and
        the reverse map (lpn_field of each valid page) in step."""
        old = self._state[ppn]
        self.monitor.record(ppn, old, new, reason)
        self._state[ppn] = new
        self._valid[self._block_of(ppn)] += (new in _VALID) - (old in _VALID)
        if new in _VALID:
            self._pub_lpn[ppn] = lpn_field
        else:
            self._pub_lpn.pop(ppn, None)

    def _block_of(self, ppn):
        return ppn // self._ppb

    def _hid_set(self, ppn, hidden_field):
        """Record live hidden content at ppn (keeps per-block counts)."""
        if ppn not in self._hidden_at:
            self._hid_valid[self._block_of(ppn)] += 1
        self._hidden_at[ppn] = hidden_field

    def _hid_clear(self, ppn):
        """Mark the hidden content at ppn out of date."""
        if self._hidden_at.pop(ppn, None) is not None:
            self._hid_valid[self._block_of(ppn)] -= 1

    def _require_hidden(self):
        if self.mode != PUBLIC_HIDDEN:
            raise ModeError("hidden volume not mounted")

    def _pad(self, data, size):
        if len(data) > size:
            raise PearlError(f"payload of {len(data)} bytes exceeds {size}")
        return bytes(data) + bytes(size - len(data))

    # -- mapping layer -------------------------------------------------

    def _read_translation(self, volume, t_ppn, quiet=False):
        """Payload of the translation page at t_ppn."""
        read = (self._read_public_page if volume == PUBLIC
                else self._read_hidden_page)
        return read(t_ppn, quiet)

    def _set_loc(self, volume, lpn_field, ppn):
        """Update a mapping: translation pages go straight to the GTD,
        data pages through the CMT (dirty)."""
        if is_trans_field(lpn_field):
            self._gtd[volume][lpn_field & LPN_MASK] = ppn
        else:
            self.cmt.put(volume, lpn_field, ppn, dirty=True)

    def _get_public_loc(self, lpn_field):
        if is_trans_field(lpn_field):
            ppn = self._gtd[PUBLIC][lpn_field & LPN_MASK]
            return None if ppn == UNMAPPED else ppn
        return self._translate(PUBLIC, lpn_field, missing_ok=True)

    def _write_translation(self, volume, m_vpn, payload):
        if volume == PUBLIC:
            self._program_public(trans_field(m_vpn), payload,
                                 bucket="translation")
            return
        old = self._gtd[HIDDEN][m_vpn]
        self._program_full(trans_field(m_vpn), payload, bucket="translation")
        if old != UNMAPPED:
            # The superseded hidden translation page keeps its public
            # face; only its hidden content goes out of date.
            self._hid_clear(old)

    # -- physical programs ---------------------------------------------

    def _account(self, bucket, logical_bits, physical_bits):
        self.ledger[f"{bucket}_logical_bits"] += logical_bits
        self.ledger[f"{bucket}_physical_bits"] += physical_bits

    def _program_public(self, lpn_field, plaintext, bucket, relocation=False):
        """Public write following the allocation priority (Fig. 7 order:
        Current UI1 page, then TIQ head, then an empty page)."""
        old = self._get_public_loc(lpn_field)
        trimmed_rewrite = (old is not None
                           and self._state[old] == PageState.TI1)
        if trimmed_rewrite:
            del self.tiq[old]
            self._trimmed.discard(lpn_field)

        second = True
        if self.current_ui1 is not None:
            target = self._take_ui1()
        elif trimmed_rewrite:
            # The page re-enters via the UI1 slot and is consumed at once.
            target = old
        elif self.tiq:
            target = self._take_tiq_head()
        else:
            target = self._next_page(_FRONTIER)
            second = self.current_ui1 is not None
            if second:
                # Collection inside _next_page refilled the UI1 slot,
                # which comes first.  It ran before the empty page was
                # taken, so the page is untouched and goes back.
                self._cursor[_FRONTIER] -= 1
                target = self._take_ui1()

        if second:
            self._second_write_to(target, lpn_field, plaintext, bucket)
        else:
            lay = self.layout
            iv = self._fresh_iv(self.k_pub)
            padded = self._pad(plaintext, lay.public_payload_bytes)
            ct = encrypt_payload(self.k_pub, iv, padded)
            raw = encode_page_first(lay, self.config.code, ct)
            oob = pack_oob(self.config.geometry.oob_bytes,
                           OobSlot(iv, lpn_field, TAG_FIRST), None)
            self.device.program_page(target, raw, oob)
            self._store_payload(PUBLIC, target, padded)
            self._set_state(target, PageState.V1, bucket, lpn_field)
            self._slot_a.setdefault(self._block_of(target), set()).add(lpn_field)
            self._account(bucket, lay.groups_per_page * self.config.code.k,
                          lay.groups_per_page * self.config.code.n)

        if old is not None and old != target:
            self._invalidate_public(old, reason=bucket, relocation=relocation)
        self._set_loc(PUBLIC, lpn_field, target)
        return target

    def _take_ui1(self):
        """Consume the Current UI1 slot (None when it is empty)."""
        target, self.current_ui1 = self.current_ui1, None
        return target

    def _take_tiq_head(self):
        """Pop the TIQ head (None when the queue is empty); the trimmed
        lpn still mapped to it is finally unmapped."""
        if not self.tiq:
            return None
        target = next(iter(self.tiq))
        self._unmap_trimmed(target)
        return target

    def _unmap_trimmed(self, ti1_ppn):
        """Take a TI1 page off the TIQ and unmap its trimmed lpn, if any."""
        stale = self.tiq.pop(ti1_ppn)
        if stale is not None:
            self._trimmed.discard(stale)
            self.cmt.put(PUBLIC, stale, UNMAPPED, dirty=True)

    def _invalidate_public(self, ppn, reason, relocation=False):
        st = self._state[ppn]
        if st == PageState.V1 and relocation:
            if self._open_with_room(self._block_of(ppn)):
                # A superseded first-stage page in a block that can still
                # take first writes would look like an abandoned update
                # casualty once its lpn is claimed again above it; queue
                # it for a second write like a trim casualty so it never
                # outlives the next unmount.
                self._set_state(ppn, PageState.TI1, reason)
                self.tiq[ppn] = None
            else:
                self._set_state(ppn, PageState.RI1, reason)
        elif st in (PageState.V1, PageState.TI1):
            # An update casualty, or a rewritten trimmed copy (its caller
            # took it off the TIQ), takes the (now free) UI1 slot.
            assert self.current_ui1 is None
            self._set_state(ppn, PageState.UI1, reason)
            self.current_ui1 = ppn
        elif st == PageState.V2:
            self._set_state(ppn, PageState.I2, reason)

    def _program_full(self, hidden_field, hidden_plain, bucket,
                      cloak=None):
        """One full write: public cloak + hidden payload, to an empty page.

        cloak may be (lpn_field, plaintext, src_ppn_or_None); when absent a
        public page is relocated from the least active block.
        """
        self._fill_ui1()
        if cloak is None:
            cloak = self._take_cloak()
        cloak_lpn, cloak_plain, src = cloak
        assert self.current_ui1 is None  # Requirement 3: slot filled first
        lay = self.layout
        target = self._next_page(_FRONTIER)
        iv = self._fresh_iv(self.k_pub, self.k_hid)
        pub = self._pad(cloak_plain, lay.public_payload_bytes)
        hid = self._pad(hidden_plain, lay.hidden_payload_bytes)
        raw = encode_page_full(lay, self.config.code,
                               encrypt_payload(self.k_pub, iv, pub),
                               encrypt_payload(self.k_hid, iv, hid))
        # A plausible first-write slot: full-write pages must be
        # indistinguishable from genuinely twice-written ones.  The fake
        # lpn avoids repeating an in-block first-write claim; a repeat
        # would assert "this page updates that one", which in-order write
        # reasoning could then falsify.
        used = self._slot_a.setdefault(self._block_of(target), set())
        while True:
            fake_lpn = self.rng.randrange(self.config.public_pages)
            if fake_lpn not in used:
                break
        used.add(fake_lpn)
        fake = OobSlot(self.rng.randbytes(16), fake_lpn, TAG_FIRST)
        oob = pack_oob(self.config.geometry.oob_bytes, fake,
                       OobSlot(iv, cloak_lpn, TAG_SECOND))
        self.device.program_page(target, raw, oob)
        self._store_payload(PUBLIC, target, pub)
        self._store_payload(HIDDEN, target, hid)
        self._set_state(target, PageState.V2, bucket, cloak_lpn)

        if src is not None and src != target:
            self._invalidate_public(src, reason=bucket, relocation=True)
        self._set_loc(PUBLIC, cloak_lpn, target)
        self._hid_set(target, hidden_field)
        self._set_loc(HIDDEN, hidden_field, target)
        self._account(bucket, lay.groups_per_page,
                      lay.groups_per_page * self.config.code.n)
        self.ledger["cloak_logical_bits"] += (
            lay.groups_per_page * self.config.code.k)
        return target

    def _pick_public_source(self):
        """Public data to relocate as cover, chosen so the superseded
        source page never reads as an abandoned update casualty.

        Preference order: a second-stage page (invalidating it changes no
        observable stage), then a first-stage page in a block with no
        empty pages left (no later first-write claim can appear above
        it), then a second-stage page whose hidden payload is still live
        (only its public side moves; the hidden data stays in place for a
        later collection pass), then — early in a device's life — a
        first-stage page in a partially filled block, which
        _invalidate_public queues for a second write like a trim
        casualty."""
        blocks = sorted(
            (blk for blk in self.config.managed_blocks
             if self._valid[blk] > 0 and blk != self._gc_victim
             and blk not in self._free),
            key=lambda b: (self._valid[b], b))

        def candidates(blk, state):
            lo = blk * self._ppb
            return [p for p in range(lo, lo + self._ppb)
                    if self._state[p] == state]

        hidden_v2 = None
        for blk in blocks:
            for p in candidates(blk, PageState.V2):
                if p not in self._hidden_at:
                    return p
                if hidden_v2 is None:
                    hidden_v2 = p
        for blk in blocks:
            if not self._open_with_room(blk):
                for p in candidates(blk, PageState.V1):
                    return p
        if hidden_v2 is not None:
            return hidden_v2
        for blk in blocks:
            if self._open_with_room(blk):
                for p in candidates(blk, PageState.V1):
                    return p
        raise NoPublicCover("no valid public page available as cloak")

    def _read_page(self, ppn, quiet):
        """Raw data, write stage and envelope IV of a page: the IV of its
        latest write (slot B, else slot A, else zero bytes)."""
        read = self.device.peek if quiet else self.device.read_page
        data, oob = read(ppn)
        slot_a, slot_b = parse_oob(oob)
        stage = "second" if slot_b is not None else "first"
        slot = slot_b or slot_a
        return data, stage, slot.iv if slot else bytes(16)

    def _read_public_page(self, ppn, quiet=False):
        """Decrypted public payload of a page (a charged read unless
        quiet)."""
        return self._payload(PUBLIC, ppn, quiet, self._decode_public)

    def _read_hidden_page(self, ppn, quiet=False):
        """Decrypted hidden payload of a page (a charged read unless
        quiet)."""
        return self._payload(HIDDEN, ppn, quiet, self._decode_hidden)

    def _decode_public(self, ppn, quiet=False):
        """_read_public_page decoded from the device, never the cache."""
        data, stage, iv = self._read_page(ppn, quiet)
        payload = decode_page_public(self.layout, self.config.code, data, stage)
        return decrypt_payload(self.k_pub, iv, payload)

    def _decode_hidden(self, ppn, quiet=False):
        """_read_hidden_page decoded from the device, never the cache."""
        data, _, iv = self._read_page(ppn, quiet)
        payload = decode_page_hidden(self.layout, self.config.code, data,
                                     strict=False)
        return decrypt_payload(self.k_hid, iv, payload)

    def _take_cloak(self):
        src = self._pick_public_source()
        return self._pub_lpn[src], self._read_public_page(src), src

    def _fill_ui1(self):
        """Give the Current UI1 page a second write of relocated public
        data, so a following full write is allocator-clean."""
        self._relocate_into_i1(self._take_ui1, "cloak_fill", "ui1-fill")

    def _relocate_into_i1(self, take_target, bucket, reason):
        """Second-write relocated public data onto each I1 page that
        take_target() hands out, until it returns None."""
        while (target := take_target()) is not None:
            src = self._pick_public_source()
            lpn_field = self._pub_lpn[src]
            self._second_write_to(target, lpn_field,
                                  self._read_public_page(src), bucket)
            self._invalidate_public(src, reason=reason, relocation=True)
            self._set_loc(PUBLIC, lpn_field, target)

    def _second_write_to(self, target, lpn_field, plaintext, bucket):
        """Second write of public data onto the I1 page target."""
        lay = self.layout
        iv = self._fresh_iv(self.k_pub)
        padded = self._pad(plaintext, lay.public_payload_bytes)
        ct = encrypt_payload(self.k_pub, iv, padded)
        existing, cur_oob = self.device.read_page(target)
        raw = encode_page_second(lay, self.config.code, ct, existing)
        slot = OobSlot(iv, lpn_field, TAG_SECOND)
        oob = _or_bytes(cur_oob, pack_oob(len(cur_oob), None, slot))
        self.device.program_page(target, raw, oob)
        self._store_payload(PUBLIC, target, padded)
        self._set_state(target, PageState.V2, bucket, lpn_field)
        self._account(bucket, lay.groups_per_page * self.config.code.k,
                      lay.groups_per_page * self.config.code.n)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def public_write(self, lpn, data):
        if not 0 <= lpn < self.config.public_pages:
            raise PearlError(f"public lpn {lpn} beyond volume capacity")
        if len(data) != self.layout.public_payload_bytes:
            raise PearlError("public write must be one page payload")
        self._touch()
        self._program_public(lpn, data, bucket="public_user")
        self._drain_cmt()

    def public_read(self, lpn):
        if not 0 <= lpn < self.config.public_pages:
            raise PearlError(f"public lpn {lpn} beyond volume capacity")
        if lpn in self._trimmed:
            raise UnmappedLpn(f"public lpn {lpn} was trimmed")
        ppn = self._translate(PUBLIC, lpn)
        out = self._read_public_page(ppn)
        lay = self.layout
        self.ledger["public_read_logical_bits"] += lay.groups_per_page * lay.k
        self.ledger["public_read_physical_bits"] += lay.groups_per_page * lay.n
        self._drain_cmt()
        return out

    def hidden_write(self, lpn, data):
        self._require_hidden()
        if not 0 <= lpn < self.config.hidden_pages:
            raise PearlError(f"hidden lpn {lpn} beyond volume capacity")
        if len(data) != self.layout.hidden_payload_bytes:
            raise PearlError("hidden write must be one hidden page payload")
        self._touch()
        old = self._translate(HIDDEN, lpn, missing_ok=True)
        self._program_full(lpn, data, bucket="hidden_user")
        if old is not None:
            # The stale hidden copy becomes out-of-date; no public-visible
            # state changes.
            if self._hidden_at.get(old) == lpn:
                self._hid_clear(old)
        self._drain_cmt()

    def hidden_read(self, lpn):
        self._require_hidden()
        if not 0 <= lpn < self.config.hidden_pages:
            raise PearlError(f"hidden lpn {lpn} beyond volume capacity")
        out = self._read_hidden_page(self._translate(HIDDEN, lpn))
        lay = self.layout
        self.ledger["hidden_read_logical_bits"] += lay.groups_per_page
        self.ledger["hidden_read_physical_bits"] += lay.groups_per_page * lay.n
        self._drain_cmt()
        return out

    def trim(self, lpn, volume=PUBLIC):
        self._touch()
        if volume == PUBLIC:
            if lpn in self._trimmed:
                raise UnmappedLpn(f"public lpn {lpn} already trimmed")
            ppn = self._translate(PUBLIC, lpn)
            if self._state[ppn] == PageState.V1:
                self._set_state(ppn, PageState.TI1, "trim")
                self.tiq[ppn] = lpn
                self._trimmed.add(lpn)
            else:
                self._set_state(ppn, PageState.I2, "trim")
                self.cmt.put(PUBLIC, lpn, UNMAPPED, dirty=True)
        elif volume == HIDDEN:
            self._require_hidden()
            ppn = self._translate(HIDDEN, lpn)
            if self._hidden_at.get(ppn) == lpn:
                self._hid_clear(ppn)
            self.cmt.put(HIDDEN, lpn, UNMAPPED, dirty=True)
        else:
            raise PearlError(f"unknown volume {volume!r}")
        self._drain_cmt()

    def volumes(self):
        """{volume: (pages, payload_bytes)} of every mounted volume."""
        cfg, lay = self.config, self.layout
        out = {PUBLIC: (cfg.public_pages, lay.public_payload_bytes)}
        if self.mode == PUBLIC_HIDDEN:
            out[HIDDEN] = (cfg.hidden_pages, lay.hidden_payload_bytes)
        return out

    def submit(self, volume, lpn, op, data=None):
        """Read (returning the payload), write or trim one lpn of a volume."""
        if volume not in (PUBLIC, HIDDEN):
            raise PearlError(f"unknown volume {volume!r}")
        if op == "read":
            return self.public_read(lpn) if volume == PUBLIC \
                else self.hidden_read(lpn)
        if op == "write":
            return self.public_write(lpn, data) if volume == PUBLIC \
                else self.hidden_write(lpn, data)
        if op == "trim":
            return self.trim(lpn, volume)
        raise PearlError(f"unknown op {op!r}")

    def submit_batch(self, requests):
        """Process a batch of (volume, lpn, op, data) requests in order.

        A hidden write looks ahead for the next unconsumed public write in
        the batch and uses it as its cloak, saving one relocation; the
        public write is then complete and skipped when its turn comes.
        """
        results = []
        consumed = set()
        reqs = list(requests)
        for i, (volume, lpn, op, data) in enumerate(reqs):
            if i in consumed:
                results.append(None)
                continue
            if op == "write" and volume == HIDDEN:
                # the next unconsumed public write, if any
                j = next((j for j in range(i + 1, len(reqs))
                          if j not in consumed and reqs[j][0] == PUBLIC
                          and reqs[j][2] == "write"), None)
                if j is None:
                    self.hidden_write(lpn, data)
                else:
                    _, pub_lpn, _, pub_data = reqs[j]
                    self._hidden_write_with_incoming(lpn, data, pub_lpn,
                                                     pub_data)
                    consumed.add(j)
                results.append(None)
            else:
                results.append(self.submit(volume, lpn, op, data))
        return results

    def _hidden_write_with_incoming(self, lpn, data, pub_lpn, pub_data):
        """Full write carrying a hidden page plus an incoming public user
        write as its cloak."""
        self._require_hidden()
        if not (0 <= lpn < self.config.hidden_pages
                and 0 <= pub_lpn < self.config.public_pages):
            raise PearlError(f"lpn {lpn} or {pub_lpn} beyond volume capacity")
        if len(pub_data) != self.layout.public_payload_bytes:
            raise PearlError("public write must be one page payload")
        if len(data) != self.layout.hidden_payload_bytes:
            raise PearlError("hidden write must be one hidden page payload")
        self._touch()
        old_h = self._translate(HIDDEN, lpn, missing_ok=True)
        old_p = self._get_public_loc(pub_lpn)
        if old_p is not None and self._state[old_p] == PageState.TI1:
            # Trimmed-then-rewritten public data: normal TIQ bookkeeping.
            del self.tiq[old_p]
        self._trimmed.discard(pub_lpn)
        self._program_full(lpn, data, bucket="hidden_user",
                           cloak=(pub_lpn, pub_data, None))
        self.ledger["public_user_logical_bits"] += (
            self.layout.groups_per_page * self.config.code.k)
        self.ledger["public_user_physical_bits"] += (
            self.layout.groups_per_page * self.config.code.n)
        if old_p is not None:
            # The superseded public copy is a genuine update casualty.
            self._invalidate_public(old_p, reason="update")
        if old_h is not None and self._hidden_at.get(old_h) == lpn:
            self._hid_clear(old_h)
        self._drain_cmt()

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------

    gc_run = MappingCore.gc_run  # the benchmark tracer wraps it here

    def _gc_cost(self, blk):
        # Live public pages plus live hidden content.  Counting the public
        # side alone starves the collector — a block of dead-public pages
        # that still carry hidden data looks free but costs one empty page
        # per hidden relocation.
        return self._valid[blk] + self._hid_valid[blk]

    def _gc_block(self, victim):
        self._touch()
        self.gc_runs += 1
        pages = range(victim * self._ppb, (victim + 1) * self._ppb)

        if self.current_ui1 is not None and self._block_of(self.current_ui1) == victim:
            self.current_ui1 = None
        for ppn in pages:
            if self._state[ppn] == PageState.TI1:
                self._unmap_trimmed(ppn)

        pub_only, hid_only, paired = [], [], []
        for ppn in pages:
            has_pub = self._state[ppn] in _VALID
            hid = self._hidden_at.get(ppn) if self.mode == PUBLIC_HIDDEN else None
            if has_pub:
                item = (self._pub_lpn[ppn], self._read_public_page(ppn), ppn)
                if hid is not None:
                    paired.append((item, (hid, self._read_hidden_page(ppn))))
                else:
                    pub_only.append(item)
            elif hid is not None:
                hid_only.append((hid, self._read_hidden_page(ppn)))

        # Public-only survivors first: they drain the UI1 slot and TIQ, so
        # the following full writes find a clean allocator.
        spare_cloaks = []
        for lpn_field, plain, src in pub_only:
            if hid_only:
                spare_cloaks.append((lpn_field, plain, src))
            else:
                self._program_public(lpn_field, plain, bucket="gc_public",
                                     relocation=True)
        for (lpn_field, plain, src), (hid, hplain) in paired:
            self._invalidate_public(src, reason="gc", relocation=True)
            self._hid_clear(src)
            self._program_full(hid, hplain, bucket="gc_hidden",
                               cloak=(lpn_field, plain, None))
        for hid, hplain in hid_only:
            if spare_cloaks:
                lpn_field, plain, src = spare_cloaks.pop()
                self._invalidate_public(src, reason="gc", relocation=True)
                self._program_full(hid, hplain, bucket="gc_hidden",
                                   cloak=(lpn_field, plain, None))
            else:
                self._program_full(hid, hplain, bucket="gc_hidden")
        for lpn_field, plain, src in spare_cloaks:
            self._program_public(lpn_field, plain, bucket="gc_public",
                                 relocation=True)

        reclaimed = 0
        for ppn in pages:
            self._hid_clear(ppn)
            if self._state[ppn] != PageState.EMPTY:
                reclaimed += 1
                self._set_state(ppn, PageState.EMPTY, "erase")
        self._release_block(victim)
        self._slot_a.pop(victim, None)
        self._drain_cmt()
        return reclaimed

    # ------------------------------------------------------------------
    # unmount / snapshot
    # ------------------------------------------------------------------

    def prepare_unmount(self):
        """Drain the TIQ, flush dirty mappings, and persist state so an
        unmount-time snapshot is deniability-safe.  Idempotent: a second
        call performs zero device programs."""
        if self._persist_clean:
            return
        self._relocate_into_i1(self._take_tiq_head, "tiq_drain", "tiq-drain")

        for _ in range(1000):
            groups = self.cmt.dirty_groups(self._epp)
            if not groups:
                break
            for vol, m in sorted(groups):
                if self.cmt.dirty_in_page(vol, m, self._epp[vol]):
                    self._flush_group(vol, m)
        else:
            raise PearlError("translation flush did not converge")

        self._persist_state()
        self._persist_clean = True

    def snapshot(self):
        return self.device.snapshot()

    # ------------------------------------------------------------------
    # introspection for tests
    # ------------------------------------------------------------------

    def check_invariants(self):
        """Cross-check bookkeeping against ground truth; returns problems."""
        problems = self._allocation_problems()
        ti1 = {p for p, s in enumerate(self._state) if s == PageState.TI1}
        if ti1 != set(self.tiq):
            problems.append("TIQ does not match the set of TI1 pages")
        if self._trimmed != set(self.tiq.values()) - {None}:
            problems.append("trimmed lpns do not match the TIQ")
        valid = {p for p, s in enumerate(self._state) if s in _VALID}
        if set(self._pub_lpn) != valid:
            problems.append("reverse map does not match the set of valid pages")
        ui1 = [p for p, s in enumerate(self._state) if s == PageState.UI1]
        if len(ui1) > 1 or (ui1 and ui1[0] != self.current_ui1):
            problems.append("UI1 bookkeeping inconsistent")
        for blk in self.config.managed_blocks:
            n = sum(1 for p in range(blk * self._ppb, (blk + 1) * self._ppb)
                    if p in valid)
            if n != self._valid[blk]:
                problems.append(f"valid count wrong for block {blk}")
            h = sum(1 for p in range(blk * self._ppb, (blk + 1) * self._ppb)
                    if p in self._hidden_at)
            if h != self._hid_valid[blk]:
                problems.append(f"hidden-live count wrong for block {blk}")
        return problems

    def amplification(self, bucket):
        """physical/logical bit ratio for one ledger bucket."""
        logical = self.ledger[f"{bucket}_logical_bits"]
        physical = self.ledger[f"{bucket}_physical_bits"]
        if logical == 0:
            return None
        from fractions import Fraction
        return Fraction(physical, logical)
