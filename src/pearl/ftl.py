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

from .cmt import UNMAPPED, MappingCore, sealing
from .config import (
    MAX_HIDDEN_FRACTION,
    MAX_PUBLIC_FRACTION,
    RESERVED_BLOCKS,
    PearlConfig,
)
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
    cache_pages,
    decode_page_hidden,
    decode_page_public,
    encode_page_first,
    encode_page_full,
    encode_page_second,
)

HEADER_MAGIC = b"PRLHDR01"
HEADER_VERSION = 1
_HEADER_FMT = "<8sH16s6I16sII"

_VALID = (PageState.V1, PageState.V2)
# Stage codes of oob.observable_stages, and the state of a live page at each.
_EMPTY, _FIRST, _SECOND = map(STAGES.index, ("empty", "first", "second"))
_LIVE = {_FIRST: PageState.V1, _SECOND: PageState.V2}
# The one append stream: its open block receives every empty-page write.
_FRONTIER = "frontier"
# Kinds of cloak source (see _pick_public_source): a first-stage page, a
# second-stage page without live hidden data, and one with it.
_SRC_V1, _SRC_V2, _SRC_HIDDEN = range(3)


def _or_bytes(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "big") | int.from_bytes(b, "big")).to_bytes(
        len(a), "big"
    )


class PearlFtl(MappingCore):
    """The deniable FTL engine.  Use format() or mount() to construct."""

    def __init__(self, device: FlashDevice, config: PearlConfig,
                 k_pub: VolumeKey, k_hid, salt: bytes, track_ivs=False):
        self.device = device
        self.config = config
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
        # Inside batched(), the queue is sealed once it holds this many
        # pages: the cache-sized step of the page kernels.
        self._batch_pages = cache_pages(self.layout)
        self._volumes = self.volumes()  # checked on every request
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
        # The cloak-source index, by kind: each block's bitmask of its
        # pages of that kind, and the bitmask of blocks with any (_file).
        self._sources = [[0] * cfg.geometry.total_blocks for _ in range(3)]
        self._source_blocks = [0, 0, 0]
        self._trimmed = set()    # trimmed-but-still-mapped public lpns
        self.current_ui1 = None
        # The TIQ, oldest first: TI1 ppn -> the trimmed lpn still mapped to
        # it, or None for a relocation casualty (its lpn has moved on).
        # current_ui1 and the TIQ are the only record of an I1 page's role.
        self.tiq = {}
        self._slot_a = {}        # block -> set of slot-A lpn_fields in it

    # ------------------------------------------------------------------
    # construction: format / mount / recovery
    # ------------------------------------------------------------------

    @classmethod
    def format(cls, device, config, public_password, hidden_password=None,
               track_ivs=False):
        """Initialize a blank device: write the header and return a handle."""
        if device.programmed_pages():
            raise HeaderError("device is not blank; mount it instead")
        salt = Random(config.seed).randbytes(16)
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
        k_hid = (None if hidden_password is None
                 else derive_key(hidden_password, HIDDEN, salt))
        return cls(device, config, k_pub, k_hid, salt, track_ivs)

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
                f = math.nextafter(f, math.inf)
            return f

        public, hidden = fraction(fields[10]), fraction(fields[11])
        if not (0 < public <= MAX_PUBLIC_FRACTION
                and 0 < hidden <= MAX_HIDDEN_FRACTION):
            raise HeaderError("header volume sizes are out of bounds")
        config = PearlConfig(
            geometry=geom,
            code=BUILTIN_CODES[code_name],
            cmt_capacity=cmt_capacity,
            public_fraction=public,
            hidden_fraction=hidden,
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
        self._seal()
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

        if self.k_hid is not None:
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
        if self.k_hid is not None:
            n_hid = len(self._gtd[HIDDEN])
            raw = decrypt_payload(self.k_hid, data[half:half + 16],
                                  data[half + 16:half + 16 + 4 * n_hid])
            gtd_hid = list(struct.unpack_from(f"<{n_hid}I", raw))
        return (ui1, gtd_pub), gtd_hid

    def recover_metadata(self):
        """Drop all volatile state and rebuild maps, page states, queues
        and cursors by scanning the device."""
        self._seal()
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
        for lpn_field, ppn in self._walk_volume(PUBLIC).items():
            if stage[ppn] == _EMPTY:
                continue  # garbage entry (or pre-persist loss); ignore
            self._enter(ppn, _LIVE[stage[ppn]], lpn_field)
        for m, t_ppn in enumerate(self._gtd[PUBLIC]):
            if t_ppn != UNMAPPED and stage[t_ppn] != _EMPTY:
                self._enter(t_ppn, _LIVE[stage[t_ppn]], trans_field(m))
        if self.k_hid is not None:
            # Hidden content lives on second-stage pages only, so an entry
            # naming any other page (a wrong password's garbage) is not
            # installed; reads through it still return garbage.
            for lpn_field, ppn in self._walk_volume(HIDDEN).items():
                if stage[ppn] == _SECOND:
                    self._hold(HIDDEN, ppn, lpn_field)
            for m, t_ppn in enumerate(self._gtd[HIDDEN]):
                if t_ppn != UNMAPPED and stage[t_ppn] == _SECOND:
                    self._hold(HIDDEN, t_ppn, trans_field(m))

        # Remaining programmed pages are invalid (no cloak source, so set
        # directly).  A first-write invalid is the persisted UI1 page or a
        # relocation leftover awaiting GC.  None is a TI1 page: every page
        # the walked map names was entered as valid above, so the TIQ
        # starts empty, and a trim that was never unmounted comes back as
        # last-durable data.
        for ppn in range(first, g.total_pages):
            st = stage[ppn]
            if st == _EMPTY or self._state[ppn] != PageState.EMPTY:
                continue
            self._state[ppn] = PageState.I1 if st == _FIRST else PageState.I2
            if st == _FIRST and ppn == ui1:
                self.current_ui1 = ppn

        # Allocator: the frontier is the partially programmed managed block.
        self._free = set()
        for blk in cfg.managed_blocks:
            pages = range(blk * self._ppb, (blk + 1) * self._ppb)
            fields = set(claims[pages.start - first:pages.stop - first])
            fields.discard(-1)
            if fields:
                self._slot_a[blk] = fields
            programmed = [p for p in pages if stage[p] != _EMPTY]
            if not programmed:
                self._free.add(blk)
            elif len(programmed) < self._ppb:
                self._block[_FRONTIER] = blk
                self._cursor[_FRONTIER] = programmed[-1] + 1
        self._persist_clean = True

    def translation_map(self, volume):
        """Quiet {lpn: ppn} view of a volume's current mappings (tests)."""
        if volume == HIDDEN:
            self._require_hidden()
        out = self._mapped(volume)
        if volume == PUBLIC:
            for lpn in self._trimmed:
                out.pop(lpn, None)
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
        """Move a page to a new state through an allowed transition."""
        self.monitor.record(ppn, self._state[ppn], new, reason)
        self._enter(ppn, new, lpn_field)

    def _enter(self, ppn, new, lpn_field=None):
        """Put a page in state new: hold it as lpn_field's page in the
        live-page ledger while it is valid, and file it under its new
        cloak-source kind."""
        old = self._source_kind(ppn, self._state[ppn])
        self._state[ppn] = new
        if new in _VALID:
            self._hold(PUBLIC, ppn, lpn_field)
        else:
            self._drop(PUBLIC, ppn)
        self._file(ppn, old, self._source_kind(ppn, new))

    def _hold(self, volume, ppn, lpn_field):
        """MappingCore._hold; a V2 page whose hidden data goes live
        changes cloak-source kind."""
        super()._hold(volume, ppn, lpn_field)
        if volume == HIDDEN and self._state[ppn] is PageState.V2:
            self._file(ppn, _SRC_V2, _SRC_HIDDEN)

    def _drop(self, volume, ppn):
        """MappingCore._drop; a V2 page whose hidden data dies changes
        cloak-source kind."""
        super()._drop(volume, ppn)
        if volume == HIDDEN and self._state[ppn] is PageState.V2:
            self._file(ppn, _SRC_HIDDEN, _SRC_V2)

    # -- the cloak-source index ----------------------------------------

    def _source_kind(self, ppn, state):
        """The cloak-source kind of ppn in state, or None."""
        if state is PageState.V1:
            return _SRC_V1
        if state is PageState.V2:
            return _SRC_HIDDEN if ppn in self._live[HIDDEN] else _SRC_V2
        return None

    def _file(self, ppn, old, new):
        """Move ppn from cloak-source kind old to kind new (None: no
        kind); a page already filed as new, or not as old, is fine."""
        if old == new:
            return
        blk = ppn // self._ppb
        bit = 1 << (ppn - blk * self._ppb)
        if old is not None:
            self._mark(old, blk, self._sources[old][blk] & ~bit)
        if new is not None:
            self._mark(new, blk, self._sources[new][blk] | bit)

    def _mark(self, kind, blk, pages):
        """Set blk's page bitmask of kind, and blk's bit in the block
        bitmask of kind to whether it has any."""
        row = self._sources[kind]
        if bool(row[blk]) != bool(pages):
            self._source_blocks[kind] ^= 1 << blk
        row[blk] = pages

    def _recount_sources(self):
        """(_sources, _source_blocks) recounted from _state and the
        hidden ledger."""
        sources = [[0] * len(self._valid) for _ in range(3)]
        for ppn, state in enumerate(self._state):
            kind = self._source_kind(ppn, state)
            if kind is not None:
                sources[kind][ppn // self._ppb] |= 1 << ppn % self._ppb
        return sources, [sum(1 << blk for blk, pages in enumerate(row) if pages)
                         for row in sources]

    def _block_of(self, ppn):
        return ppn // self._ppb

    def _require_hidden(self):
        if self.k_hid is None:
            raise ModeError("hidden volume not mounted")

    def _pad(self, data, size):
        if len(data) > size:
            raise PearlError(f"payload of {len(data)} bytes exceeds {size}")
        return bytes(data) + bytes(size - len(data))

    # -- mapping layer -------------------------------------------------

    def _set_loc(self, volume, lpn_field, ppn):
        """Update a mapping: translation pages go straight to the GTD,
        data pages through the CMT (dirty)."""
        if is_trans_field(lpn_field):
            self._gtd[volume][lpn_field & LPN_MASK] = ppn
        else:
            self.cmt.put(volume, lpn_field, ppn, dirty=True)

    def _get_loc(self, volume, lpn_field):
        """Where lpn_field of volume maps, or None: translation pages
        through the GTD, data pages through the CMT."""
        if is_trans_field(lpn_field):
            ppn = self._gtd[volume][lpn_field & LPN_MASK]
            return None if ppn == UNMAPPED else ppn
        return self._translate(volume, lpn_field, missing_ok=True)

    def _write_translation(self, volume, m_vpn, payload):
        field = trans_field(m_vpn)
        if volume == PUBLIC:
            self._program_public(field, payload, bucket="translation")
        else:
            self._program_full(field, payload, bucket="translation",
                               old=self._get_loc(HIDDEN, field))

    def _decode(self, volume, ppn, quiet):
        """volume's payload of the page at ppn, decoded and decrypted from
        the device (a charged read unless quiet), never from the cache,
        with the IV of its latest write (slot B, else A, else zeros)."""
        data, oob = (self.device.peek if quiet else self.device.read_page)(ppn)
        slot_a, slot_b = parse_oob(oob)
        slot = slot_b or slot_a
        iv = slot.iv if slot else bytes(16)
        if volume == PUBLIC:
            stage = "second" if slot_b is not None else "first"
            payload = decode_page_public(self.layout, self.config.code, data,
                                         stage)
            return decrypt_payload(self.k_pub, iv, payload)
        payload = decode_page_hidden(self.layout, self.config.code, data,
                                     strict=False)
        return decrypt_payload(self.k_hid, iv, payload)

    # -- physical programs ---------------------------------------------

    def _account(self, bucket, logical_bits, physical_bits):
        self.ledger[f"{bucket}_logical_bits"] += logical_bits
        self.ledger[f"{bucket}_physical_bits"] += physical_bits

    def _program(self, target, lpn_field, plaintext, bucket, hidden=None):
        """Queue a program of lpn_field's public plaintext onto target and
        record the page: a first write onto an empty page, a second write
        onto an I1 page, or, given hidden = (hidden_field, hidden
        plaintext), a full write that cloaks the hidden data in the public
        data on an empty page.  The page reaches the device at the next
        _seal, at once if that fills a batched() queue.  Mappings and
        superseded pages are the caller's."""
        lay, code = self.layout, self.config.code
        oob_bytes = self.config.geometry.oob_bytes
        empty = self._state[target] == PageState.EMPTY
        # Requirement 3: the UI1 slot is filled before any empty page.
        assert not empty or self.current_ui1 is None
        first = empty and hidden is None
        iv = self._fresh_iv(self.k_pub, *([self.k_hid] if hidden else []))
        pub = self._pad(plaintext, lay.public_payload_bytes)
        hid = existing = None
        if hidden is not None:
            hidden_field, hid = hidden
            hid = self._pad(hid, lay.hidden_payload_bytes)
            stage = "full"
            # A plausible first-write slot: full-write pages must be
            # indistinguishable from genuinely twice-written ones.  The
            # fake lpn avoids repeating an in-block first-write claim; a
            # repeat would assert "this page updates that one", which
            # in-order write reasoning could then falsify.  A public
            # volume smaller than a block may have no lpn left to claim;
            # then a repeat it is.
            used = self._slot_a.setdefault(self._block_of(target), set())
            lpns = self.config.public_pages
            while True:
                fake_lpn = self.rng.randrange(lpns)
                if fake_lpn not in used or (
                        len(used) >= lpns and used.issuperset(range(lpns))):
                    break
            used.add(fake_lpn)
            fake = OobSlot(self.rng.randbytes(16), fake_lpn, TAG_FIRST)
            oob = pack_oob(oob_bytes, fake, OobSlot(iv, lpn_field, TAG_SECOND))
        elif first:
            stage = "first"
            oob = pack_oob(oob_bytes, OobSlot(iv, lpn_field, TAG_FIRST), None)
        else:
            stage = "second"
            if target in self._pending:
                self._seal()
            existing, cur_oob = self.device.read_page(target)
            oob = _or_bytes(cur_oob, pack_oob(
                oob_bytes, None, OobSlot(iv, lpn_field, TAG_SECOND)))
        # The job: stage, IV, padded plaintexts (hidden: full writes only),
        # the page it overwrites (second writes only) and the OOB.
        self._pending[target] = (stage, iv, pub, hid, existing, oob)
        self._set_state(target, PageState.V1 if first else PageState.V2,
                        bucket, lpn_field)
        if first:
            self._slot_a.setdefault(self._block_of(target), set()).add(
                lpn_field)
        groups = lay.groups_per_page
        if hidden is None:
            self._account(bucket, groups * code.k, groups * code.n)
        else:
            self._hold(HIDDEN, target, hidden_field)
            self._account(bucket, groups, groups * code.n)
            self.ledger["cloak_logical_bits"] += groups * code.k
        if self._batching and len(self._pending) >= self._batch_pages:
            self._seal()

    def _seal(self):
        """Make every queued program: one encrypt_payload call per key and
        one encoder call per stage over all the queued pages, then each
        program in queue order, caching what a cold read of its page
        returns."""
        if not self._pending:
            return
        queued, self._pending = self._pending, {}
        stages, ivs, pubs, hids, existing, oobs = zip(*queued.values())
        lay, code = self.layout, self.config.code
        ct = encrypt_payload(self.k_pub, b"".join(ivs), b"".join(pubs))
        raw = [None] * len(stages)
        for stage in dict.fromkeys(stages):
            at = [i for i, s in enumerate(stages) if s == stage]
            if len(at) == len(stages):
                public = ct
            else:
                size = lay.public_payload_bytes
                public = b"".join([ct[i * size:(i + 1) * size] for i in at])
            if stage == "first":
                out = encode_page_first(lay, code, public)
            elif stage == "second":
                out = encode_page_second(lay, code, public, b"".join(
                    [existing[i] for i in at]))
            else:
                out = encode_page_full(lay, code, public, encrypt_payload(
                    self.k_hid, b"".join([ivs[i] for i in at]),
                    b"".join([hids[i] for i in at])))
            page = lay.page_bytes
            for n, i in enumerate(at):
                raw[i] = out[n * page:(n + 1) * page]
        for target, data, oob, pub, hid in zip(queued, raw, oobs, pubs, hids):
            self.device.program_page(target, data, oob)
            self._store_payload(PUBLIC, target, pub)
            if hid is not None:
                self._store_payload(HIDDEN, target, hid)

    def _program_public(self, lpn_field, plaintext, bucket, relocation=False):
        """Public write following the allocation priority (Fig. 7 order:
        Current UI1 page, then TIQ head, then an empty page)."""
        old = self._get_loc(PUBLIC, lpn_field)
        trimmed_rewrite = old in self.tiq
        if trimmed_rewrite:
            del self.tiq[old]
            self._trimmed.discard(lpn_field)

        if self.current_ui1 is not None:
            target = self._take_ui1()
        elif trimmed_rewrite:
            # The page re-enters via the UI1 slot and is consumed at once.
            target = old
        elif self.tiq:
            target = self._take_tiq_head()
        else:
            target = self._take_empty()
            old = self._resolved(PUBLIC, old, lpn_field)
        self._program(target, lpn_field, plaintext, bucket)
        if old is not None and old != target:
            self._invalidate_public(old, reason=bucket, relocation=relocation)
        self._set_loc(PUBLIC, lpn_field, target)

    def _take_empty(self, full=False):
        """The allocation step of every write that takes an empty page: the
        next frontier page.  A collection inside the allocation may
        refill the UI1 slot, which comes first.  The collection ran before
        the empty page was taken, so that page is untouched and goes back;
        a public write then takes the slot, and a full write fills it by
        relocation and allocates again."""
        while True:
            target = self._next_page(_FRONTIER)
            if self.current_ui1 is None:
                return target
            self._cursor[_FRONTIER] -= 1
            if not full:
                return self._take_ui1()
            self._fill_ui1()

    def _resolved(self, volume, ppn, lpn_field):
        """ppn, where lpn_field of volume mapped before an allocation, or
        where it maps now if a collection inside the allocation moved it:
        ppn no longer holds volume's live data of lpn_field."""
        if ppn is None or self._live[volume].get(ppn) == lpn_field:
            return ppn
        return self._get_loc(volume, lpn_field)

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
            self._set_state(ppn, PageState.I1, reason)
            if self._open_with_room(self._block_of(ppn)):
                # A superseded first-stage page in a block that can still
                # take first writes would look like an abandoned update
                # casualty once its lpn is claimed again above it; queue
                # it for a second write like a trim casualty so it never
                # outlives the next unmount.
                self.tiq[ppn] = None
        elif st in (PageState.V1, PageState.I1):
            # An update casualty takes the (now free) UI1 slot, and so does
            # a trimmed page being rewritten: the only I1 page that arrives
            # here, which its caller has already taken off the TIQ.
            assert self.current_ui1 is None
            self._set_state(ppn, PageState.I1, reason)
            self.current_ui1 = ppn
        elif st == PageState.V2:
            self._set_state(ppn, PageState.I2, reason)

    def _program_full(self, hidden_field, hidden_plain, bucket, cloak=None,
                      old=None):
        """One full write: public cloak + hidden payload, to an empty page,
        superseding old, the hidden page hidden_field maps to (if any).

        cloak may be (lpn_field, plaintext, src_ppn), src being the public
        page it relocates.  When absent, a public page is chosen from the
        least active block, and its payload is read once the target is
        allocated.  Both superseded pages are resolved after the
        allocation, which may collect.
        """
        self._fill_ui1()
        if cloak is None:
            src = self._pick_public_source()
            cloak = self._owner[src], None, src
        cloak_lpn, cloak_plain, src = cloak
        target = self._take_empty(full=True)
        src = self._resolved(PUBLIC, src, cloak_lpn)
        old = self._resolved(HIDDEN, old, hidden_field)
        if cloak_plain is None:
            cloak_plain = self._payload(PUBLIC, src)
        self._program(target, cloak_lpn, cloak_plain, bucket,
                      hidden=(hidden_field, hidden_plain))
        self._invalidate_public(src, reason=bucket, relocation=True)
        self._set_loc(PUBLIC, cloak_lpn, target)
        self._set_loc(HIDDEN, hidden_field, target)
        if old is not None and self._live[HIDDEN].get(old) == hidden_field:
            # The superseded hidden copy keeps its public face; only its
            # hidden content goes out of date.
            self._drop(HIDDEN, old)

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
        casualty.

        Within a preference, the page is the lowest of its kind in the
        block with the fewest valid pages (the lowest of equals), never
        the collection's victim: one lookup in the cloak-source index
        and the valid-count buckets per preference."""
        room = 0
        for blk in self._block.values():
            if self._open_with_room(blk):
                room |= 1 << blk
        victim = 0 if self._gc_victim is None else 1 << self._gc_victim
        v1, v2, hidden = self._source_blocks
        for kind, blocks in ((_SRC_V2, v2), (_SRC_V1, v1 & ~room),
                             (_SRC_HIDDEN, hidden), (_SRC_V1, v1 & room)):
            blk = self._fewest_valid(blocks & ~victim)
            if blk is not None:
                pages = self._sources[kind][blk]
                return blk * self._ppb + (pages & -pages).bit_length() - 1
        raise NoPublicCover("no valid public page available as cloak")

    def _fill_ui1(self):
        """Give the Current UI1 page a second write of relocated public
        data, so a following full write is allocator-clean."""
        self._relocate_into_i1(self._take_ui1, "cloak_fill", "ui1-fill")

    def _relocate_into_i1(self, take_target, bucket, reason):
        """Second-write relocated public data onto each I1 page that
        take_target() hands out, until it returns None."""
        while (target := take_target()) is not None:
            src = self._pick_public_source()
            lpn_field = self._owner[src]
            self._program(target, lpn_field, self._payload(PUBLIC, src),
                          bucket)
            self._invalidate_public(src, reason=reason, relocation=True)
            self._set_loc(PUBLIC, lpn_field, target)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def _check_request(self, volume, lpn, data=None):
        """Reject a request to an unmounted volume, an lpn beyond its
        capacity and write data that is not one page payload of it."""
        if volume == HIDDEN:
            self._require_hidden()
        pages, payload = self._volumes[volume]
        if not 0 <= lpn < pages:
            raise PearlError(f"{volume} lpn {lpn} beyond volume capacity")
        if data is not None and len(data) != payload:
            raise PearlError(f"{volume} write must be one page payload")

    @sealing
    def public_write(self, lpn, data):
        self._check_request(PUBLIC, lpn, data)
        self._touch()
        self._program_public(lpn, data, bucket="public_user")
        self._drain_cmt()

    @sealing
    def public_read(self, lpn):
        self._check_request(PUBLIC, lpn)
        if lpn in self._trimmed:
            raise UnmappedLpn(f"public lpn {lpn} was trimmed")
        ppn = self._translate(PUBLIC, lpn)
        out = self._payload(PUBLIC, ppn)
        lay = self.layout
        self.ledger["public_read_logical_bits"] += lay.groups_per_page * lay.k
        self.ledger["public_read_physical_bits"] += lay.groups_per_page * lay.n
        self._drain_cmt()
        return out

    @sealing
    def hidden_write(self, lpn, data):
        self._check_request(HIDDEN, lpn, data)
        self._touch()
        self._program_full(lpn, data, bucket="hidden_user",
                           old=self._get_loc(HIDDEN, lpn))
        self._drain_cmt()

    @sealing
    def hidden_read(self, lpn):
        self._check_request(HIDDEN, lpn)
        out = self._payload(HIDDEN, self._translate(HIDDEN, lpn))
        lay = self.layout
        self.ledger["hidden_read_logical_bits"] += lay.groups_per_page
        self.ledger["hidden_read_physical_bits"] += lay.groups_per_page * lay.n
        self._drain_cmt()
        return out

    @sealing
    def trim(self, lpn, volume=PUBLIC):
        if volume not in (PUBLIC, HIDDEN):
            raise PearlError(f"unknown volume {volume!r}")
        self._check_request(volume, lpn)
        self._touch()
        if volume == PUBLIC:
            if lpn in self._trimmed:
                raise UnmappedLpn(f"public lpn {lpn} already trimmed")
            ppn = self._translate(PUBLIC, lpn)
            if self._state[ppn] == PageState.V1:
                self._set_state(ppn, PageState.I1, "trim")
                self.tiq[ppn] = lpn
                self._trimmed.add(lpn)
            else:
                self._set_state(ppn, PageState.I2, "trim")
                self.cmt.put(PUBLIC, lpn, UNMAPPED, dirty=True)
        else:
            ppn = self._translate(HIDDEN, lpn)
            if self._live[HIDDEN].get(ppn) == lpn:
                self._drop(HIDDEN, ppn)
            self.cmt.put(HIDDEN, lpn, UNMAPPED, dirty=True)
        self._drain_cmt()

    def volumes(self):
        """{volume: (pages, payload_bytes)} of every mounted volume."""
        cfg, lay = self.config, self.layout
        out = {PUBLIC: (cfg.public_pages, lay.public_payload_bytes)}
        if self.k_hid is not None:
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
        """Submit each (volume, lpn, op, data) request in order; returns
        their results."""
        return [self.submit(*r) for r in requests]

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------

    gc_run = sealing(MappingCore.gc_run)  # the benchmark tracer wraps it here

    def _gc_block(self, victim):
        self._touch()
        pages = range(victim * self._ppb, (victim + 1) * self._ppb)

        if self.current_ui1 is not None and self._block_of(self.current_ui1) == victim:
            self.current_ui1 = None
        for ppn in pages:
            if ppn in self.tiq:
                self._unmap_trimmed(ppn)

        pub_only, hid_only, paired = [], [], []
        for ppn in pages:
            has_pub = self._state[ppn] in _VALID
            hid = self._live[HIDDEN].get(ppn)
            if has_pub:
                item = (self._owner[ppn], self._payload(PUBLIC, ppn), ppn)
                if hid is not None:
                    paired.append((item, (hid, self._payload(HIDDEN, ppn))))
                else:
                    pub_only.append(item)
            elif hid is not None:
                hid_only.append((hid, self._payload(HIDDEN, ppn)))

        # Public-only survivors first: they drain the UI1 slot and TIQ, so
        # the following full writes find a clean allocator.  Hidden-only
        # survivors take them as cloaks instead, while they last.
        pub_first, spare_cloaks = ([], pub_only) if hid_only else (pub_only, [])
        for lpn_field, plain, _ in pub_first:
            self._program_public(lpn_field, plain, bucket="gc_public",
                                 relocation=True)
        # Each relocated hidden copy is dropped when the victim is released.
        for cloak, (hid, hplain) in paired:
            self._program_full(hid, hplain, bucket="gc_hidden", cloak=cloak)
        for hid, hplain in hid_only:
            self._program_full(hid, hplain, bucket="gc_hidden",
                               cloak=spare_cloaks.pop() if spare_cloaks
                               else None)
        for lpn_field, plain, _ in spare_cloaks:
            self._program_public(lpn_field, plain, bucket="gc_public",
                                 relocation=True)

        reclaimed = 0
        for ppn in pages:
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

    @sealing
    def prepare_unmount(self):
        """Drain the TIQ, flush dirty mappings, and persist state so an
        unmount-time snapshot is deniability-safe.  Idempotent: a second
        call performs zero device programs.  It leaves nothing queued,
        also inside batched(): _persist_state seals first."""
        if self._persist_clean:
            return
        self._relocate_into_i1(self._take_tiq_head, "tiq_drain", "tiq-drain")

        for _ in range(1000):
            groups = self.cmt.dirty_groups()
            if not groups:
                break
            for vol, m in sorted(groups):
                if self.cmt.dirty_in_page(vol, m):
                    self._flush_group(vol, m)
        else:
            raise PearlError("translation flush did not converge")

        self._persist_state()
        self._persist_clean = True

    def snapshot(self):
        """The device image, once every queued program is made."""
        self._seal()
        return self.device.snapshot()

    # ------------------------------------------------------------------
    # introspection for tests
    # ------------------------------------------------------------------

    def check_invariants(self):
        """Cross-check bookkeeping against ground truth; returns problems."""
        problems = super().check_invariants()
        roles = {*self.tiq, self.current_ui1} - {None}
        if (self.current_ui1 in self.tiq
                or any(self._state[p] != PageState.I1 for p in roles)):
            problems.append("a TIQ or UI1 page is not an I1 page, or the "
                            "UI1 page is on the TIQ")
        if self._trimmed != set(self.tiq.values()) - {None}:
            problems.append("trimmed lpns do not match the TIQ")
        if set(self._owner) != {p for p, s in enumerate(self._state)
                                if s in _VALID}:
            problems.append("reverse map does not match the set of valid pages")
        if (self._sources, self._source_blocks) != self._recount_sources():
            problems.append("cloak-source index does not match the page states")
        return problems

    def amplification(self, bucket):
        """physical/logical bit ratio for one ledger bucket."""
        logical = self.ledger[f"{bucket}_logical_bits"]
        physical = self.ledger[f"{bucket}_physical_bits"]
        if logical == 0:
            return None
        from fractions import Fraction
        return Fraction(physical, logical)
