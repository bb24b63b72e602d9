"""Hierarchical deterministic keys, addresses, and the digests they need."""

from __future__ import annotations

import hashlib
import struct

from ..internal_api.crypto import ORDER_N, derive_public_key, hmac_digest
from . import HARDENED_BIT

_B58_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
_B58_INDEX = {char: value for value, char in enumerate(_B58_ALPHABET)}


class DerivationError(ValueError):
    """Seed or index produced an unusable key."""


# --- digest helpers ----------------------------------------------------------

def ripemd160(message):
    """RIPEMD-160 digest of message bytes."""
    return hashlib.new("ripemd160", bytes(message)).digest()


def sha256d(data):
    """Double SHA-256."""
    return hashlib.sha256(hashlib.sha256(bytes(data)).digest()).digest()


def hash160(data):
    """RIPEMD-160 of SHA-256, the address digest."""
    return ripemd160(hashlib.sha256(bytes(data)).digest())


# --- base58 with checksum ----------------------------------------------------

def base58check_encode(payload):
    """Payload bytes -> base58 string with 4-byte double-SHA checksum."""
    raw = bytes(payload) + sha256d(payload)[:4]
    value = int.from_bytes(raw, "big")
    encoded = ""
    while value:
        value, digit = divmod(value, 58)
        encoded = _B58_ALPHABET[digit] + encoded
    pad = len(raw) - len(raw.lstrip(b"\x00"))
    return "1" * pad + encoded


def base58check_decode(encoded):
    """Base58 string -> payload bytes; raises ValueError on a bad checksum."""
    value = 0
    for char in encoded:
        if char not in _B58_INDEX:
            raise ValueError(f"invalid base58 character {char!r}")
        value = value * 58 + _B58_INDEX[char]
    raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
    pad = len(encoded) - len(encoded.lstrip("1"))
    raw = b"\x00" * pad + raw
    if len(raw) < 4:
        raise ValueError("base58 string too short for a checksum")
    payload, checksum = raw[:-4], raw[-4:]
    if sha256d(payload)[:4] != checksum:
        raise ValueError("base58 checksum mismatch")
    return payload


# --- key derivation ----------------------------------------------------------

def master_from_seed(seed):
    """64-byte seed -> (master secret key, master chain code)."""
    seed = bytes(seed)
    digest = hmac_digest("sha512", b"Bitcoin seed", seed)
    secret, chain_code = digest[:32], digest[32:]
    scalar = int.from_bytes(secret, "big")
    if scalar == 0 or scalar >= ORDER_N:
        raise DerivationError("seed maps outside the key space")
    return secret, chain_code


def derive_hardened(parent_sk, parent_cc, index):
    """Hardened child at `index`: (child secret key, child chain code)."""
    if not 0 <= index < HARDENED_BIT:
        raise DerivationError(f"child index {index} out of range")
    data = b"\x00" + bytes(parent_sk) + struct.pack(
        ">I", index | HARDENED_BIT)
    digest = hmac_digest("sha512", bytes(parent_cc), data)
    offset = int.from_bytes(digest[:32], "big")
    if offset >= ORDER_N:
        raise DerivationError(f"child index {index} is unusable")
    child = (offset + int.from_bytes(bytes(parent_sk), "big")) % ORDER_N
    if child == 0:
        raise DerivationError(f"child index {index} is unusable")
    return child.to_bytes(32, "big"), digest[32:]


def p2pkh_address(public_key):
    """Compressed public key -> pay-to-pubkey-hash address string."""
    return base58check_encode(b"\x00" + hash160(public_key))


def address_for_key(secret_key):
    """Secret key -> its compressed-key P2PKH address."""
    return p2pkh_address(derive_public_key(secret_key))
