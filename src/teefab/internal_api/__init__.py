"""Trusted-side core services: randomness, digests, signing, sealed storage."""

from .crypto import (
    CryptoError,
    InvalidKey,
    InvalidSignature,
    ORDER_N,
    UnsupportedAlgorithm,
    derive_public_key,
    digest,
    ecdsa_sign,
    ecdsa_verify,
    hmac_digest,
)
from .rng import Csprng
from .storage import (
    DeviceKey,
    SealedStorage,
    TaStorage,
    TamperedObjectError,
    TeeServices,
)

__all__ = [
    "CryptoError",
    "Csprng",
    "DeviceKey",
    "InvalidKey",
    "InvalidSignature",
    "ORDER_N",
    "SealedStorage",
    "TaStorage",
    "TamperedObjectError",
    "TeeServices",
    "UnsupportedAlgorithm",
    "derive_public_key",
    "digest",
    "ecdsa_sign",
    "ecdsa_verify",
    "hmac_digest",
]
