"""Per-page OOB (spare area) layout.

The OOB is split into two write-once slots so each write stage carries its
own metadata: slot A for the 1st write, slot B for the 2nd (or full) write.
Each slot holds IV (16 bytes), logical page number (4 bytes, big-endian)
and a stage tag byte; the rest is reserved zeros.

Translation pages are flagged in the lpn field so a device scan can tell
them from data pages.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .crypto import IV_BYTES

SLOT_BYTES = IV_BYTES + 4 + 1
_TAG_AT = IV_BYTES + 4  # stage tag offset within a slot
TAG_FIRST = 1
TAG_SECOND = 2

# Observable stages by the codes observable_stages returns.
STAGES = ("empty", "first", "second")

TRANS_FLAG = 0x8000_0000
LPN_MASK = 0x7FFF_FFFF


def trans_field(m_vpn: int) -> int:
    return TRANS_FLAG | m_vpn


def is_trans_field(field: int) -> bool:
    return bool(field & TRANS_FLAG)


class OobSlot(NamedTuple):
    iv: bytes
    lpn_field: int
    tag: int


def _slot_offsets(oob_bytes: int):
    if oob_bytes < 2 * SLOT_BYTES:
        raise ValueError(f"oob of {oob_bytes} bytes cannot hold two slots")
    return 0, oob_bytes // 2


@lru_cache
def _oob_struct(oob_bytes: int) -> struct.Struct:
    """Both slots of an OOB of oob_bytes, each zero-padded to its end."""
    _, off_b = _slot_offsets(oob_bytes)
    return struct.Struct(f">{IV_BYTES}sIB{off_b - SLOT_BYTES}x"
                         f"{IV_BYTES}sIB{oob_bytes - off_b - SLOT_BYTES}x")


_UNSET = OobSlot(bytes(IV_BYTES), 0, 0)  # packs as an unset slot: zeros


def pack_oob(oob_bytes: int, first: OobSlot | None, second: OobSlot | None) -> bytes:
    return _oob_struct(oob_bytes).pack(*(first or _UNSET), *(second or _UNSET))


def _parse_slot(oob: bytes, off: int) -> OobSlot | None:
    tag = oob[off + _TAG_AT]
    if tag == 0:
        return None
    iv = oob[off : off + IV_BYTES]
    (lpn_field,) = struct.unpack_from(">I", oob, off + IV_BYTES)
    return OobSlot(iv, lpn_field, tag)


def parse_oob(oob: bytes):
    """Returns (slot_a, slot_b); a slot is None when its stage tag is unset."""
    off_a, off_b = _slot_offsets(len(oob))
    return _parse_slot(oob, off_a), _parse_slot(oob, off_b)


def observable_stage(oob: bytes) -> str:
    """'empty' | 'first' | 'second', from the stage tags alone."""
    off_a, off_b = _slot_offsets(len(oob))
    if oob[off_b + _TAG_AT]:
        return "second"
    if oob[off_a + _TAG_AT]:
        return "first"
    return "empty"


def _oob_grid(oobs):
    """Equal-length OOBs as an (n, oob_bytes) uint8 array, and the slot
    offsets of that length."""
    oob_bytes = len(oobs[0]) if len(oobs) else 2 * SLOT_BYTES
    offsets = _slot_offsets(oob_bytes)
    buf = b"".join(oobs)
    if len(buf) != len(oobs) * oob_bytes:
        raise ValueError(f"oobs must be {oob_bytes} bytes each")
    grid = np.frombuffer(buf, dtype=np.uint8).reshape(len(oobs), oob_bytes)
    return grid, offsets


def observable_stages(oobs) -> np.ndarray:
    """observable_stage of every OOB in a sequence of equal-length OOBs,
    as uint8 indices into STAGES, in one pass."""
    grid, (off_a, off_b) = _oob_grid(oobs)
    stages = (grid[:, off_a + _TAG_AT] != 0).astype(np.uint8)
    stages[grid[:, off_b + _TAG_AT] != 0] = STAGES.index("second")
    return stages


def slot_a_claims(oobs) -> np.ndarray:
    """The slot-A lpn_field of every OOB in a sequence of equal-length
    OOBs, or -1 where slot A's stage tag is unset, as int64, in one pass."""
    grid, (off_a, _) = _oob_grid(oobs)
    at = off_a + IV_BYTES
    fields = np.ascontiguousarray(grid[:, at:at + 4]).view(">u4")[:, 0]
    return np.where(grid[:, off_a + _TAG_AT] != 0, fields.astype(np.int64), -1)


def stage_ivs(oobs, second) -> np.ndarray:
    """The IV of the slot each OOB's stage reads (slot B where second[i]
    is set, else slot A), as an (n, IV_BYTES) uint8 array."""
    grid, (off_a, off_b) = _oob_grid(oobs)
    return np.where(np.asarray(second, dtype=bool)[:, None],
                    grid[:, off_b:off_b + IV_BYTES],
                    grid[:, off_a:off_a + IV_BYTES])
