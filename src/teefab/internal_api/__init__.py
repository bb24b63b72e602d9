"""Trusted-side core services: randomness, digests, signing, sealed storage."""

from .crypto import (
    CryptoError,
    InvalidKey,
    InvalidSignature,
    ORDER_N,
    PKCS8_BYTES,
    UnsupportedAlgorithm,
    derive_public_key,
    digest,
    ecdsa_sign,
    ecdsa_verify,
    export_private_key,
    hmac_digest,
    load_private_key,
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
    "PKCS8_BYTES",
    "SealedStorage",
    "TaStorage",
    "TamperedObjectError",
    "TeeServices",
    "UnsupportedAlgorithm",
    "derive_public_key",
    "digest",
    "ecdsa_sign",
    "ecdsa_verify",
    "export_private_key",
    "hmac_digest",
    "load_private_key",
]
