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
"""

import hashlib
import hmac as hmac_mod

import cryptography.exceptions
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.utils import (
    Prehashed,
    decode_dss_signature,
    encode_dss_signature,
)
from cryptography.hazmat.primitives.hashes import SHA256

# secp256k1 group order
ORDER_N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
ORDER_HALF = ORDER_N // 2

_CURVE = ec.SECP256K1()

# PKCS8 DER of a secp256k1 key with its public point: the version, the
# algorithm and curve ids, a 32-byte scalar and a 65-byte uncompressed point.
PKCS8_BYTES = 135

_ALGORITHMS = {"sha256": hashlib.sha256, "sha512": hashlib.sha512}


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


def derive_public_key(private_key):
    """Compressed 33-byte public point for a private scalar."""
    return _compressed_point(
        ec.derive_private_key(_scalar_from_key(private_key), _CURVE))


def export_private_key(private_key):
    """(compressed point, PKCS8 DER) for a private scalar: one curve
    multiplication, after which load_private_key needs none."""
    # Imported on first use, here and in load_private_key: the package
    # also loads the RSA, DSA, Ed25519 and SSH key modules, which a fabric
    # that never runs the wallet has no use for.
    from cryptography.hazmat.primitives.serialization import (
        Encoding,
        NoEncryption,
        PrivateFormat,
    )

    secret = ec.derive_private_key(_scalar_from_key(private_key), _CURVE)
    pkcs8 = secret.private_bytes(Encoding.DER, PrivateFormat.PKCS8,
                                 NoEncryption())
    if len(pkcs8) != PKCS8_BYTES:
        raise CryptoError(
            f"PKCS8 key is {len(pkcs8)} bytes, expected {PKCS8_BYTES}")
    return _compressed_point(secret), pkcs8


def _check_loaded(secret):
    if not (isinstance(secret, ec.EllipticCurvePrivateKey)
            and secret.curve.name == _CURVE.name):
        raise InvalidKey("not a secp256k1 private key")
    return secret


def load_private_key(pkcs8):
    """A secp256k1 private key from the PKCS8 DER that export_private_key
    made; OpenSSL checks the stored point against the scalar."""
    from cryptography.hazmat.primitives.serialization import (
        load_der_private_key,
    )

    try:
        secret = load_der_private_key(bytes(pkcs8), password=None)
    except (ValueError, TypeError, cryptography.exceptions.UnsupportedAlgorithm):
        raise InvalidKey("not a PKCS8 private key") from None
    return _check_loaded(secret)


def ecdsa_sign(private_key, msg_hash):
    """Sign a 32-byte digest; compact r||s, s forced to the low half.

    private_key is a scalar (32 bytes or an int) or a key that
    load_private_key returned."""
    msg_hash = _check_digest(msg_hash)
    if isinstance(private_key, (bytes, bytearray, memoryview, int)):
        secret = ec.derive_private_key(_scalar_from_key(private_key), _CURVE)
    else:
        secret = _check_loaded(private_key)
    # Built per call, not at import: a deterministic ECDSA loads OpenSSL's
    # backend module and its cipher and RSA modules on first use.
    der = secret.sign(
        msg_hash, ec.ECDSA(Prehashed(SHA256()), deterministic_signing=True))
    r, s = decode_dss_signature(der)
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
    try:
        point = ec.EllipticCurvePublicKey.from_encoded_point(_CURVE, public_key)
    except ValueError:
        raise InvalidKey("not a point on secp256k1") from None
    r = int.from_bytes(signature[:32], "big")
    s = int.from_bytes(signature[32:], "big")
    if not (1 <= r < ORDER_N and 1 <= s < ORDER_N):
        return False
    try:
        point.verify(encode_dss_signature(r, s), msg_hash,
                     ec.ECDSA(Prehashed(SHA256())))
    except cryptography.exceptions.InvalidSignature:
        return False
    return True
