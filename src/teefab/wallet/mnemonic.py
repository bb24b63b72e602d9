"""Mnemonic phrase encoding of wallet entropy, BIP-39 style."""

from __future__ import annotations

import hashlib
import unicodedata
from importlib import resources

from ..internal_api.crypto import openssl

_WORD_COUNT = 2048
_ENTROPY_SIZES = (16, 20, 24, 28, 32)
_PHRASE_SIZES = (12, 15, 18, 21, 24)


class MnemonicError(ValueError):
    """Phrase failed structural or checksum validation."""


def _load_wordlist():
    text = resources.files("teefab").joinpath(
        "data/bip39_english.txt").read_text(encoding="utf-8")
    words = text.split()
    if len(words) != _WORD_COUNT:
        raise RuntimeError(
            f"wordlist has {len(words)} entries, expected {_WORD_COUNT}")
    return tuple(words)


WORDLIST = _load_wordlist()
_WORD_INDEX = {word: index for index, word in enumerate(WORDLIST)}


def entropy_to_mnemonic(entropy):
    """Entropy bytes -> space-joined phrase with embedded checksum."""
    entropy = bytes(entropy)
    if len(entropy) not in _ENTROPY_SIZES:
        raise MnemonicError(f"entropy must be one of {_ENTROPY_SIZES} bytes, "
                            f"got {len(entropy)}")
    check_bits = len(entropy) // 4
    checksum = hashlib.sha256(entropy).digest()[0] >> (8 - check_bits)
    bits = (int.from_bytes(entropy, "big") << check_bits) | checksum
    total_bits = len(entropy) * 8 + check_bits
    words = []
    for position in range(total_bits // 11):
        shift = total_bits - 11 * (position + 1)
        words.append(WORDLIST[(bits >> shift) & 0x7FF])
    return " ".join(words)


def normalize_mnemonic(mnemonic):
    """Collapse whitespace and case so equivalent phrases compare equal."""
    if isinstance(mnemonic, (bytes, bytearray)):
        mnemonic = bytes(mnemonic).decode("utf-8", errors="replace")
    return " ".join(unicodedata.normalize("NFKD", mnemonic).lower().split())


def mnemonic_to_entropy(mnemonic):
    """Phrase -> entropy bytes; raises MnemonicError on any defect."""
    words = normalize_mnemonic(mnemonic).split()
    if len(words) not in _PHRASE_SIZES:
        raise MnemonicError(f"phrase must have one of {_PHRASE_SIZES} words, "
                            f"got {len(words)}")
    bits = 0
    for word in words:
        index = _WORD_INDEX.get(word)
        if index is None:
            raise MnemonicError(f"unknown word {word!r}")
        bits = (bits << 11) | index
    check_bits = len(words) * 11 // 33
    entropy = (bits >> check_bits).to_bytes(len(words) * 11 // 33 * 4, "big")
    expected = hashlib.sha256(entropy).digest()[0] >> (8 - check_bits)
    if bits & ((1 << check_bits) - 1) != expected:
        raise MnemonicError("checksum mismatch")
    return entropy


def validate_mnemonic(mnemonic):
    """True when the phrase decodes cleanly."""
    try:
        mnemonic_to_entropy(mnemonic)
    except MnemonicError:
        return False
    return True


def mnemonic_to_seed(mnemonic, passphrase=""):
    """Phrase -> 64-byte wallet seed (PBKDF2-HMAC-SHA512, 2048 rounds)."""
    # cryptography's PBKDF2 runs on the OpenSSL it bundles, which gave the
    # same bytes in about three quarters of the time of hashlib's on a
    # system OpenSSL 3.0 (2-core x86-64).
    lib = openssl()
    phrase = normalize_mnemonic(mnemonic)
    salt = "mnemonic" + unicodedata.normalize("NFKD", passphrase)
    return lib.PBKDF2HMAC(lib.SHA512(), 64, salt.encode(), 2048).derive(
        phrase.encode())
