"""Randomized page encryption and password-based key derivation.

Payloads are encrypted with AES-256-CTR under per-volume keys; the 16-byte
IV is regenerated on every page program and stored in the page OOB, shared
by the public and hidden payloads of the same page.  Keys come from scrypt
with per-volume domain separation.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import scrypt

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
