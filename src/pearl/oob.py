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
from dataclasses import dataclass

from .crypto import IV_BYTES

SLOT_BYTES = IV_BYTES + 4 + 1
_TAG_AT = IV_BYTES + 4  # stage tag offset within a slot
TAG_FIRST = 1
TAG_SECOND = 2

TRANS_FLAG = 0x8000_0000
LPN_MASK = 0x7FFF_FFFF


def trans_field(m_vpn: int) -> int:
    return TRANS_FLAG | m_vpn


def is_trans_field(field: int) -> bool:
    return bool(field & TRANS_FLAG)


@dataclass(frozen=True)
class OobSlot:
    iv: bytes
    lpn_field: int
    tag: int


def _slot_offsets(oob_bytes: int):
    if oob_bytes < 2 * SLOT_BYTES:
        raise ValueError(f"oob of {oob_bytes} bytes cannot hold two slots")
    return 0, oob_bytes // 2


def pack_oob(oob_bytes: int, first: OobSlot | None, second: OobSlot | None) -> bytes:
    off_a, off_b = _slot_offsets(oob_bytes)
    buf = bytearray(oob_bytes)
    for off, slot in ((off_a, first), (off_b, second)):
        if slot is None:
            continue
        buf[off : off + IV_BYTES] = slot.iv
        struct.pack_into(">IB", buf, off + IV_BYTES, slot.lpn_field, slot.tag)
    return bytes(buf)


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
