"""Sealed persistent storage and the service bundle handed to TAs.

Objects are sealed with AES-256-GCM under a key derived from the device
secret and the owning TA's identity, so blobs are unreadable and
unforgeable outside that TA even though they rest on the untrusted host
filesystem.  One file per object:

    <root>/<ta_uuid.hex>/<sha256(object_id).hex>

File layout (all fixed-width, length little-endian):

    magic "SEL1" | uuid (16) | id_len (1) | sha256(object_id) (32)
    | nonce (12) | length (4) | ciphertext (length) | tag (16)

The bytes from magic through length are the GCM associated data, so any
header tampering breaks the tag check.
"""

import hashlib
import os
import struct
import tempfile
import threading
import uuid as uuid_mod
from dataclasses import dataclass
from pathlib import Path

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.hashes import SHA256
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from ..protocol import (
    AccessDeniedError,
    BadParametersError,
    ItemNotFoundError,
)

SEALED_MAGIC = b"SEL1"
NONCE_LEN = 12
TAG_LEN = 16
MAX_OBJECT_ID = 64
# Object locks are striped by object digest: a fixed set, so ids a TA
# makes up, present or not, cannot grow the store's memory.
LOCK_STRIPES = 16
KDF_LABEL = b"tee-sealed-storage-v1"
_HEADER = struct.Struct("<4s16sB32s12sI")


class TamperedObjectError(AccessDeniedError):
    """Sealed blob failed authentication or structural checks."""


class DeviceKey:
    """Hardware-unique secret; only ever feeds the sealing KDF."""

    def __init__(self, key):
        key = bytes(key)
        if len(key) != 32:
            raise ValueError(f"device key must be 32 bytes, got {len(key)}")
        self._key = key

    @classmethod
    def from_seed(cls, seed):
        if isinstance(seed, str):
            seed = seed.encode()
        return cls(hashlib.sha256(bytes(seed)).digest())

    def sealing_key(self, ta_uuid):
        """The per-TA sealing key: HKDF-SHA256 (RFC 5869) of the device key,
        salted with KDF_LABEL, with the TA's uuid as info."""
        return HKDF(SHA256(), 32, salt=KDF_LABEL,
                    info=ta_uuid.bytes).derive(self._key)

    def __repr__(self):
        return "DeviceKey(<hidden>)"


def _object_digest(object_id):
    return hashlib.sha256(object_id).digest()


def _canon_id(object_id):
    if isinstance(object_id, str):
        object_id = object_id.encode()
    object_id = bytes(object_id)
    if not 0 < len(object_id) <= MAX_OBJECT_ID:
        raise BadParametersError(
            f"object id must be 1..{MAX_OBJECT_ID} bytes, got {len(object_id)}")
    return object_id


class SealedStorage:
    """Device-wide sealed object store, namespaced by TA uuid."""

    def __init__(self, root, device_key):
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self._device_key = device_key
        self._locks = tuple(threading.Lock() for _ in range(LOCK_STRIPES))

    def _path(self, ta_uuid, object_id):
        return self._root / ta_uuid.hex / _object_digest(object_id).hex()

    def _lock_for(self, object_id):
        """The lock that makes put, get and delete of one object atomic."""
        return self._locks[_object_digest(object_id)[0] % LOCK_STRIPES]

    def put(self, ta_uuid, object_id, payload):
        """Seal payload under (device key, ta_uuid); atomic replace."""
        object_id = _canon_id(object_id)
        payload = bytes(payload)
        path = self._path(ta_uuid, object_id)
        nonce = os.urandom(NONCE_LEN)
        header = _HEADER.pack(SEALED_MAGIC, ta_uuid.bytes, len(object_id),
                              _object_digest(object_id), nonce, len(payload))
        cipher = AESGCM(self._device_key.sealing_key(ta_uuid))
        sealed = cipher.encrypt(nonce, payload, header)
        with self._lock_for(object_id):
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=".seal-")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(header + sealed)
                os.replace(tmp_name, path)
            except BaseException:
                os.unlink(tmp_name)
                raise

    def get(self, ta_uuid, object_id):
        """Unseal and return the payload; authentication must pass."""
        object_id = _canon_id(object_id)
        path = self._path(ta_uuid, object_id)
        with self._lock_for(object_id):
            try:
                blob = path.read_bytes()
            except FileNotFoundError:
                raise ItemNotFoundError(
                    f"no sealed object for id {object_id!r}") from None
        if len(blob) < _HEADER.size + TAG_LEN:
            raise TamperedObjectError("sealed blob shorter than its framing")
        magic, uuid_bytes, id_len, id_digest, nonce, length = _HEADER.unpack_from(blob)
        if (magic != SEALED_MAGIC
                or uuid_bytes != ta_uuid.bytes
                or id_len != len(object_id)
                or id_digest != _object_digest(object_id)
                or len(blob) != _HEADER.size + length + TAG_LEN):
            raise TamperedObjectError("sealed blob header mismatch")
        cipher = AESGCM(self._device_key.sealing_key(ta_uuid))
        try:
            return cipher.decrypt(nonce, blob[_HEADER.size:], blob[:_HEADER.size])
        except InvalidTag:
            raise TamperedObjectError("sealed blob failed authentication") from None

    def delete(self, ta_uuid, object_id):
        """Remove one sealed object; missing objects are an error."""
        object_id = _canon_id(object_id)
        path = self._path(ta_uuid, object_id)
        with self._lock_for(object_id):
            try:
                path.unlink()
            except FileNotFoundError:
                raise ItemNotFoundError(
                    f"no sealed object for id {object_id!r}") from None

    def exists(self, ta_uuid, object_id):
        return self._path(ta_uuid, _canon_id(object_id)).is_file()


class TaStorage:
    """A TA's own view of the store: its uuid is fixed, not a parameter."""

    def __init__(self, storage, ta_uuid):
        self._storage = storage
        self._uuid = ta_uuid

    def put(self, object_id, payload):
        self._storage.put(self._uuid, object_id, payload)

    def get(self, object_id):
        return self._storage.get(self._uuid, object_id)

    def delete(self, object_id):
        self._storage.delete(self._uuid, object_id)

    def exists(self, object_id):
        return self._storage.exists(self._uuid, object_id)


@dataclass
class TeeServices:
    """Trusted-side service bundle a fabric wires into its enclaves."""

    rng: object
    storage: SealedStorage

    def for_ta(self, ta_uuid):
        if not isinstance(ta_uuid, uuid_mod.UUID):
            raise TypeError(f"ta_uuid must be a UUID, got {type(ta_uuid)}")
        return self.rng, TaStorage(self.storage, ta_uuid)
