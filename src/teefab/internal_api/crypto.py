"""Digest, HMAC, and ECDSA primitives offered to trusted applications.

Digests and HMAC wrap hashlib behind a closed algorithm whitelist.  secp256k1
key derivation, signing and verification run in the OpenSSL-backed
`cryptography` package: its scalar multiplication does not branch on key
bits, and `deterministic_signing` draws RFC 6979 nonces.  This module keeps
the trust-boundary checks (key range, curve, digest, signature and point
lengths), the low-s normalisation and the compact 64-byte r||s format.

A key that is used again can be exported once as PKCS8 DER, which carries
its public point, and loaded later: loading skips the scalar multiplication
that deriving the key from its scalar costs on every call.

`cryptography` is imported by `openssl()` on the first seal, unseal, key
derivation or signature, not with this module: a fabric that never seals
or signs never loads it.
"""

import hashlib
import hmac as hmac_mod
from functools import cache, cached_property

# secp256k1 group order
ORDER_N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
ORDER_HALF = ORDER_N // 2

# PKCS8 DER of a secp256k1 key with its public point: the version, the
# algorithm and curve ids, a 32-byte scalar and a 65-byte uncompressed point.
PKCS8_BYTES = 135

_ALGORITHMS = {"sha256": hashlib.sha256, "sha512": hashlib.sha512}


class _Cryptography:
    """The `cryptography` names this package uses, imported once."""

    def __init__(self):
        from cryptography import exceptions
        from cryptography.hazmat.primitives.asymmetric import ec
        from cryptography.hazmat.primitives.asymmetric.utils import (
            Prehashed,
            decode_dss_signature,
            encode_dss_signature,
        )
        from cryptography.hazmat.primitives.ciphers.aead import AESGCM
        from cryptography.hazmat.primitives.hashes import SHA256, SHA512
        from cryptography.hazmat.primitives.kdf.hkdf import HKDF
        from cryptography.hazmat.primitives.kdf.pbkdf2 import PBKDF2HMAC

        self.exceptions = exceptions
        self.ec = ec
        self.curve = ec.SECP256K1()
        self.Prehashed = Prehashed
        self.decode_dss_signature = decode_dss_signature
        self.encode_dss_signature = encode_dss_signature
        self.AESGCM = AESGCM
        self.SHA256 = SHA256
        self.SHA512 = SHA512
        self.HKDF = HKDF
        self.PBKDF2HMAC = PBKDF2HMAC

    @cached_property
    def serialization(self):
        # Imported at the first key export or load: the module also loads
        # the RSA, DSA, Ed25519 and SSH key modules, which sealing, key
        # derivation and signing by scalar have no use for.
        from cryptography.hazmat.primitives import serialization
        return serialization


@cache
def openssl():
    """The one loader of `cryptography`: imports it on the first call and
    returns the same names on every call after."""
    return _Cryptography()


class CryptoError(Exception):
    pass


class UnsupportedAlgorithm(CryptoError):
    pass


class InvalidKey(CryptoError):
    pass


class InvalidSignature(CryptoError):
    pass


def _resolve(algorithm):
    name = algorithm.lower().replace("-", "").replace("_", "")
    try:
        return _ALGORITHMS[name]
    except KeyError:
        raise UnsupportedAlgorithm(f"no such digest: {algorithm!r}") from None


def digest(algorithm, message):
    """One-shot digest over the whitelisted algorithms."""
    return _resolve(algorithm)(bytes(message)).digest()


def hmac_digest(algorithm, key, message):
    """Keyed MAC over the same algorithm whitelist."""
    return hmac_mod.new(bytes(key), bytes(message), _resolve(algorithm)).digest()


def _scalar_from_key(private_key):
    if isinstance(private_key, int):
        scalar = private_key
    elif len(private_key) == 32:
        scalar = int.from_bytes(private_key, "big")
    else:
        raise InvalidKey(f"private key must be 32 bytes, got {len(private_key)}")
    if not 1 <= scalar < ORDER_N:
        raise InvalidKey("private key outside [1, n-1]")
    return scalar


def _check_digest(msg_hash):
    if len(msg_hash) != 32:
        raise InvalidSignature(f"digest must be 32 bytes, got {len(msg_hash)}")
    return bytes(msg_hash)


def _compressed_point(secret):
    point = secret.public_key().public_numbers()
    return bytes([2 + (point.y & 1)]) + point.x.to_bytes(32, "big")


def _derive(lib, private_key):
    return lib.ec.derive_private_key(_scalar_from_key(private_key), lib.curve)


def derive_public_key(private_key):
    """Compressed 33-byte public point for a private scalar."""
    return _compressed_point(_derive(openssl(), private_key))


def export_private_key(private_key):
    """(compressed point, PKCS8 DER) for a private scalar: one curve
    multiplication, after which load_private_key needs none."""
    lib = openssl()
    secret = _derive(lib, private_key)
    encoding = lib.serialization
    pkcs8 = secret.private_bytes(encoding.Encoding.DER,
                                 encoding.PrivateFormat.PKCS8,
                                 encoding.NoEncryption())
    if len(pkcs8) != PKCS8_BYTES:
        raise CryptoError(
            f"PKCS8 key is {len(pkcs8)} bytes, expected {PKCS8_BYTES}")
    return _compressed_point(secret), pkcs8


def _check_loaded(lib, secret):
    if not (isinstance(secret, lib.ec.EllipticCurvePrivateKey)
            and secret.curve.name == lib.curve.name):
        raise InvalidKey("not a secp256k1 private key")
    return secret


def load_private_key(pkcs8):
    """A secp256k1 private key from the PKCS8 DER that export_private_key
    made; OpenSSL checks the stored point against the scalar."""
    lib = openssl()
    try:
        secret = lib.serialization.load_der_private_key(bytes(pkcs8),
                                                        password=None)
    except (ValueError, TypeError, lib.exceptions.UnsupportedAlgorithm):
        raise InvalidKey("not a PKCS8 private key") from None
    return _check_loaded(lib, secret)


def ecdsa_sign(private_key, msg_hash):
    """Sign a 32-byte digest; compact r||s, s forced to the low half.

    private_key is a scalar (32 bytes or an int) or a key that
    load_private_key returned."""
    msg_hash = _check_digest(msg_hash)
    lib = openssl()
    if isinstance(private_key, (bytes, bytearray, memoryview, int)):
        secret = _derive(lib, private_key)
    else:
        secret = _check_loaded(lib, private_key)
    # Built per call: a deterministic ECDSA loads OpenSSL's backend module
    # and its cipher and RSA modules on first use.
    der = secret.sign(msg_hash, lib.ec.ECDSA(lib.Prehashed(lib.SHA256()),
                                             deterministic_signing=True))
    r, s = lib.decode_dss_signature(der)
    if s > ORDER_HALF:
        s = ORDER_N - s
    return r.to_bytes(32, "big") + s.to_bytes(32, "big")


def ecdsa_verify(public_key, msg_hash, signature):
    """True iff signature is a valid ECDSA signature over msg_hash."""
    msg_hash = _check_digest(msg_hash)
    if len(signature) != 64:
        raise InvalidSignature(f"signature must be 64 bytes, got {len(signature)}")
    public_key = bytes(public_key)
    if len(public_key) != 33 or public_key[0] not in (2, 3):
        raise InvalidKey(
            f"not a 33-byte compressed point: {len(public_key)} bytes")
    lib = openssl()
    try:
        point = lib.ec.EllipticCurvePublicKey.from_encoded_point(
            lib.curve, public_key)
    except ValueError:
        raise InvalidKey("not a point on secp256k1") from None
    r = int.from_bytes(signature[:32], "big")
    s = int.from_bytes(signature[32:], "big")
    if not (1 <= r < ORDER_N and 1 <= s < ORDER_N):
        return False
    try:
        point.verify(lib.encode_dss_signature(r, s), msg_hash,
                     lib.ec.ECDSA(lib.Prehashed(lib.SHA256())))
    except lib.exceptions.InvalidSignature:
        return False
    return True
