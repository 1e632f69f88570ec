"""Randomized page encryption and password-based key derivation.

Payloads are encrypted with AES-256-CTR under per-volume keys; the 16-byte
IV is regenerated on every page program and stored in the page OOB, shared
by the public and hidden payloads of the same page.  Keys come from scrypt
with per-volume domain separation.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from hashlib import scrypt

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .errors import PearlError

IV_BYTES = 16
KEY_BYTES = 32

SCRYPT_N = 16384
SCRYPT_R = 8
SCRYPT_P = 1

PUBLIC = "public"
HIDDEN = "hidden"


@dataclass(frozen=True)
class VolumeKey:
    key: bytes
    volume: str  # "public" | "hidden"

    def __post_init__(self):
        if len(self.key) != KEY_BYTES:
            raise PearlError("volume key must be 32 bytes")
        if self.volume not in (PUBLIC, HIDDEN):
            raise PearlError(f"unknown volume tag {self.volume!r}")

    @cached_property
    def _ecb(self):
        """The key's AES-ECB encryptor, which computes every CTR keystream
        under it.  Built on first use, not at key derivation."""
        return Cipher(algorithms.AES(self.key), modes.ECB()).encryptor()


def derive_key(password, volume: str, salt: bytes) -> VolumeKey:
    if not password:
        raise PearlError("password must be nonempty")
    if isinstance(password, str):
        password = password.encode()
    if volume not in (PUBLIC, HIDDEN):
        raise PearlError(f"unknown volume tag {volume!r}")
    key = scrypt(
        password,
        salt=salt + b"/" + volume.encode(),
        n=SCRYPT_N,
        r=SCRYPT_R,
        p=SCRYPT_P,
        dklen=KEY_BYTES,
    )
    return VolumeKey(key, volume)


def _keystream(key: VolumeKey, high, low, blocks: int) -> bytes:
    """The first `blocks` AES-CTR keystream blocks under each IV, row after
    row.  high and low are the IV's big-endian 64-bit halves: ints for
    one IV, or (n, 1) uint64 arrays for n IVs.

    A row's counter blocks are its IV, then IV + 1, ... as a 128-bit
    big-endian integer, wrapping at 2**128 as OpenSSL's CTR mode does;
    those of every row go through one AES-ECB pass.
    """
    one = isinstance(low, int)
    counters = np.empty((1 if one else len(low), blocks, 2), dtype=">u8")
    counters[:, :, 0] = high
    np.add(low, np.arange(blocks, dtype=np.uint64), out=counters[:, :, 1])
    # The low word wraps past 2**64 and carries into the high word; a
    # single IV is checked in Python, as numpy's scalar checks cost more
    # than the rest of an envelope.
    if not one or low + blocks > 1 << 64:
        counters[:, :, 0] += counters[:, :, 1] < low
    return key._ecb.update(counters.view(np.uint8))


def encrypt_payload(key: VolumeKey, iv: bytes, plaintext: bytes) -> bytes:
    if len(iv) != IV_BYTES:
        raise PearlError("IV must be 16 bytes")
    length = len(plaintext)
    stream = _keystream(key, *struct.unpack(">QQ", iv), -(-length // IV_BYTES))
    return (np.frombuffer(plaintext, dtype=np.uint8)
            ^ np.frombuffer(stream, dtype=np.uint8, count=length)).tobytes()


def decrypt_payload(key: VolumeKey, iv: bytes, ciphertext: bytes) -> bytes:
    # CTR decryption is the same keystream XOR.
    return encrypt_payload(key, iv, ciphertext)


def decrypt_payloads(key: VolumeKey, ivs: np.ndarray,
                     ciphertexts: np.ndarray) -> np.ndarray:
    """decrypt_payload of each row of ciphertexts, an (n, L) uint8 array,
    under the IV in the same row of ivs, an (n, IV_BYTES) uint8 array."""
    n, length = ciphertexts.shape
    if ivs.shape != (n, IV_BYTES):
        raise PearlError("IVs must be 16 bytes, one per payload")
    blocks = -(-length // IV_BYTES)
    halves = np.ascontiguousarray(ivs).view(">u8").astype(np.uint64)
    stream = _keystream(key, halves[:, :1], halves[:, 1:], blocks)
    return ciphertexts ^ np.frombuffer(stream, dtype=np.uint8).reshape(
        n, blocks * IV_BYTES)[:, :length]


def fresh_iv(rng) -> bytes:
    """Draw a fresh random IV from the run's seeded generator."""
    return rng.randbytes(IV_BYTES)


class IvRegistry:
    """Test-mode registry asserting (key, iv) pairs never repeat."""

    def __init__(self):
        self._seen = set()

    def record(self, key: VolumeKey, iv: bytes):
        pair = (key.key, iv)
        if pair in self._seen:
            raise PearlError("IV reuse under the same key")
        self._seen.add(pair)
