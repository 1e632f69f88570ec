"""Key derivation and page encryption against published test vectors."""

import random
from hashlib import scrypt

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from pearl.crypto import (IV_BYTES, SCRYPT_N, SCRYPT_P, SCRYPT_R, IvRegistry,
                          VolumeKey, decrypt_payload, decrypt_payloads,
                          derive_key, encrypt_payload, fresh_iv)
from pearl.errors import PearlError


def test_scrypt_parameters_reproduce_published_vector():
    """RFC 7914 §12 vector with N=16384, r=8, p=1 — the same cost
    parameters this package uses."""
    out = scrypt(b"pleaseletmein", salt=b"SodiumChloride",
                 n=SCRYPT_N, r=SCRYPT_R, p=SCRYPT_P, dklen=64)
    assert out.hex() == (
        "7023bdcb3afd7348461c06cd81fd38ebfda8fbba904f8e3ea9b543f6545da1f2"
        "d5432955613f0fcf62d49705242a9af9e61e85dc0d651e40dfcf017b45575887"
    )


def test_derive_key_domain_separation():
    salt = bytes(16)
    pub = derive_key("password", "public", salt)
    hid = derive_key("password", "hidden", salt)
    assert pub.key != hid.key
    # deterministic
    assert derive_key("password", "public", salt).key == pub.key
    # matches a direct scrypt call with the volume-suffixed salt
    expect = scrypt(b"password", salt=salt + b"/public",
                    n=SCRYPT_N, r=SCRYPT_R, p=SCRYPT_P, dklen=32)
    assert pub.key == expect


def test_derive_key_validation():
    with pytest.raises(PearlError):
        derive_key("", "public", bytes(16))
    with pytest.raises(PearlError):
        derive_key("pw", "other", bytes(16))
    with pytest.raises(PearlError):
        VolumeKey(b"short", "public")


def test_aes_ctr_published_vector():
    """NIST SP 800-38A F.5.5 (CTR-AES256.Encrypt), first block."""
    key = VolumeKey(bytes.fromhex(
        "603deb1015ca71be2b73aef0857d7781"
        "1f352c073b6108d72d9810a30914dff4"), "public")
    iv = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
    plaintext = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
    assert encrypt_payload(key, iv, plaintext).hex() == \
        "601ec313775789a5b7a7f504bbf3d228"


# The counter's low word carries into the high word, or the whole 128-bit
# counter wraps to zero, within the first 8 KiB (512 blocks).
_CTR_IVS = [
    bytes(16),
    bytes(range(16)),
    bytes(8) + b"\xff" * 8,
    b"\x01" * 8 + (2**64 - 3).to_bytes(8, "big"),
    b"\xff" * 16,
    b"\xff" * 8 + (2**64 - 300).to_bytes(8, "big"),
]


@pytest.mark.parametrize("iv", _CTR_IVS, ids=lambda iv: iv.hex())
def test_keystream_matches_the_ctr_mode_of_cryptography(iv):
    """encrypt_payload, decrypt_payload and decrypt_payloads equal
    cryptography's AES-CTR for every length from 0 to 8,192 bytes."""
    key = VolumeKey(bytes(range(32)), "hidden")
    text = random.Random(iv).randbytes(8192)
    ref = Cipher(algorithms.AES(key.key), modes.CTR(iv)).encryptor().update(
        text)
    for length in range(len(text) + 1):
        assert encrypt_payload(key, iv, text[:length]) == ref[:length]
    assert decrypt_payload(key, iv, ref) == text
    ivs = np.frombuffer(iv * 3, dtype=np.uint8).reshape(3, IV_BYTES)
    for length in (0, 1, 16, 1227, 8192):
        rows = np.frombuffer(ref[:length] * 3, dtype=np.uint8).reshape(3, -1)
        assert [r.tobytes() for r in decrypt_payloads(key, ivs, rows)] == [
            text[:length]] * 3


def test_encrypt_decrypt_roundtrip():
    key = VolumeKey(bytes(range(32)), "hidden")
    iv = bytes(range(16))
    msg = b"attack at dawn" * 11
    ct = encrypt_payload(key, iv, msg)
    assert ct != msg
    assert decrypt_payload(key, iv, ct) == msg


def test_wrong_key_or_iv_yields_garbage_not_error():
    key = VolumeKey(bytes(32), "public")
    other = VolumeKey(bytes([1]) * 32, "public")
    iv = bytes(16)
    ct = encrypt_payload(key, iv, b"x" * 64)
    assert decrypt_payload(other, iv, ct) != b"x" * 64
    assert decrypt_payload(key, bytes([9]) * 16, ct) != b"x" * 64


def test_iv_registry_flags_reuse():
    key = VolumeKey(bytes(32), "public")
    reg = IvRegistry()
    reg.record(key, bytes(16))
    reg.record(key, bytes([1]) * 16)
    with pytest.raises(PearlError):
        reg.record(key, bytes(16))


def test_fresh_iv_size_and_determinism():
    import random
    a = fresh_iv(random.Random(5))
    b = fresh_iv(random.Random(5))
    assert len(a) == IV_BYTES
    assert a == b


def test_keystream_monobit_balance():
    """Encrypting a megabyte of zeros yields a bit balance within
    [0.49, 0.51] — ciphertext equals raw keystream for zero plaintext."""
    key = VolumeKey(bytes.fromhex("00112233445566778899aabbccddeeff") * 2,
                    "public")
    iv = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    ct = encrypt_payload(key, iv, bytes(10**6))
    ones = sum(bin(b).count("1") for b in ct)
    fraction = ones / (8 * 10**6)
    assert 0.49 <= fraction <= 0.51
