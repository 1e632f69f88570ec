"""Randomized page encryption and password-based key derivation.

Payloads are encrypted with AES-256-CTR under per-volume keys; the 16-byte
IV is regenerated on every page program and stored in the page OOB, shared
by the public and hidden payloads of the same page.  Keys come from scrypt
with per-volume domain separation.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        # Built once per key; each envelope adds only its CTR mode.
        object.__setattr__(self, "_aes", algorithms.AES(self.key))


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


def _ctr(key: VolumeKey, iv: bytes):
    if len(iv) != IV_BYTES:
        raise PearlError("IV must be 16 bytes")
    return Cipher(key._aes, modes.CTR(iv))


def encrypt_payload(key: VolumeKey, iv: bytes, plaintext: bytes) -> bytes:
    enc = _ctr(key, iv).encryptor()
    return enc.update(plaintext) + enc.finalize()


def decrypt_payload(key: VolumeKey, iv: bytes, ciphertext: bytes) -> bytes:
    dec = _ctr(key, iv).decryptor()
    return dec.update(ciphertext) + dec.finalize()


def decrypt_payloads(key: VolumeKey, ivs: np.ndarray,
                     ciphertexts: np.ndarray) -> np.ndarray:
    """decrypt_payload of each row of ciphertexts, an (n, L) uint8 array,
    under the IV in the same row of ivs, an (n, IV_BYTES) uint8 array.

    The CTR counter blocks of every row (its IV, then IV + 1, ... as a
    128-bit big-endian integer, wrapping like the CTR mode above) go
    through one AES-ECB pass; the keystream is XORed in numpy.
    """
    n, length = ciphertexts.shape
    if ivs.shape != (n, IV_BYTES):
        raise PearlError("IVs must be 16 bytes, one per payload")
    blocks = -(-length // IV_BYTES)
    # (n, 2) words: the high and low halves of each IV.
    halves = np.ascontiguousarray(ivs).view(">u8").astype(np.uint64)
    low = halves[:, 1:] + np.arange(blocks, dtype=np.uint64)
    high = halves[:, :1] + (low < halves[:, 1:])   # carry out of the low word
    counters = np.stack(np.broadcast_arrays(high, low), axis=-1).astype(">u8")
    ecb = Cipher(key._aes, modes.ECB()).encryptor()
    stream = np.frombuffer(ecb.update(counters.tobytes()), dtype=np.uint8)
    return ciphertexts ^ stream.reshape(n, blocks * IV_BYTES)[:, :length]


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
