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
from functools import cached_property
from pathlib import Path
from types import SimpleNamespace

from ..protocol import (
    AccessDeniedError,
    BadParametersError,
    ItemNotFoundError,
)
from .crypto import openssl

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
        """The key stretched from a str or bytes seed, and no other type:
        `bytes(5)` is five zero bytes, so 5 would share their key."""
        if isinstance(seed, str):
            seed = seed.encode()
        elif not isinstance(seed, bytes):
            raise TypeError(
                f"a device seed is str or bytes, not {type(seed).__name__}")
        return cls(hashlib.sha256(seed).digest())

    def sealing_key(self, ta_uuid):
        """The per-TA sealing key: HKDF-SHA256 (RFC 5869) of the device key,
        salted with KDF_LABEL, with the TA's uuid as info."""
        lib = openssl()
        return lib.HKDF(lib.SHA256(), 32, salt=KDF_LABEL,
                        info=ta_uuid.bytes).derive(self._key)

    def __repr__(self):
        return "DeviceKey(<hidden>)"


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
        self._root = os.fspath(root)
        os.makedirs(self._root, exist_ok=True)
        self._device_key = device_key
        self._locks = tuple(threading.Lock() for _ in range(LOCK_STRIPES))

    def sealer(self, ta_uuid):
        """The AES-GCM cipher that seals ta_uuid's objects; the one place a
        sealing key is derived."""
        return openssl().AESGCM(self._device_key.sealing_key(ta_uuid))

    def _locate(self, ta_uuid, object_id):
        """(canonical id, id digest, object directory, object file): the
        id is hashed once per call, for the path, the lock and the header."""
        object_id = _canon_id(object_id)
        digest = hashlib.sha256(object_id).digest()
        directory = f"{self._root}{os.sep}{ta_uuid.hex}"
        return object_id, digest, directory, \
            f"{directory}{os.sep}{digest.hex()}"

    def _path(self, ta_uuid, object_id):
        return Path(self._locate(ta_uuid, object_id)[3])

    def _lock_for(self, digest):
        """The lock that makes put, get and delete of one object atomic."""
        return self._locks[digest[0] % LOCK_STRIPES]

    def put(self, ta_uuid, object_id, payload, cipher=None):
        """Seal payload under (device key, ta_uuid); atomic replace. `cipher`
        is the TA's `sealer(ta_uuid)`, derived here when not given."""
        object_id, digest, directory, path = self._locate(ta_uuid, object_id)
        payload = bytes(payload)
        nonce = os.urandom(NONCE_LEN)
        header = _HEADER.pack(SEALED_MAGIC, ta_uuid.bytes, len(object_id),
                              digest, nonce, len(payload))
        if cipher is None:
            cipher = self.sealer(ta_uuid)
        sealed = cipher.encrypt(nonce, payload, header)
        with self._lock_for(digest):
            os.makedirs(directory, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=directory, prefix=".seal-")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(header + sealed)
                os.replace(tmp_name, path)
            except BaseException:
                os.unlink(tmp_name)
                raise

    def get(self, ta_uuid, object_id, cipher=None):
        """Unseal and return the payload; authentication must pass. `cipher`
        is the TA's `sealer(ta_uuid)`, derived here when not given."""
        object_id, digest, _directory, path = self._locate(ta_uuid, object_id)
        with self._lock_for(digest):
            try:
                with open(path, "rb", buffering=0) as handle:
                    blob = handle.read()
            except FileNotFoundError:
                raise ItemNotFoundError(
                    f"no sealed object for id {object_id!r}") from None
        if len(blob) < _HEADER.size + TAG_LEN:
            raise TamperedObjectError("sealed blob shorter than its framing")
        magic, uuid_bytes, id_len, id_digest, nonce, length = _HEADER.unpack_from(blob)
        if (magic != SEALED_MAGIC
                or uuid_bytes != ta_uuid.bytes
                or id_len != len(object_id)
                or id_digest != digest
                or len(blob) != _HEADER.size + length + TAG_LEN):
            raise TamperedObjectError("sealed blob header mismatch")
        if cipher is None:
            cipher = self.sealer(ta_uuid)
        try:
            return cipher.decrypt(nonce, blob[_HEADER.size:], blob[:_HEADER.size])
        except openssl().exceptions.InvalidTag:
            raise TamperedObjectError("sealed blob failed authentication") from None

    def delete(self, ta_uuid, object_id):
        """Remove one sealed object; missing objects are an error."""
        object_id, digest, _directory, path = self._locate(ta_uuid, object_id)
        with self._lock_for(digest):
            try:
                os.unlink(path)
            except FileNotFoundError:
                raise ItemNotFoundError(
                    f"no sealed object for id {object_id!r}") from None

    def exists(self, ta_uuid, object_id):
        return os.path.isfile(self._locate(ta_uuid, object_id)[3])


class TaStorage:
    """A TA's own view of the store: its uuid is fixed, not a parameter.

    The view derives its sealing cipher at its first get or put and keeps
    it, so the cipher lives as long as the TA instance that holds the view
    and goes with it at scrub. TAs that never seal derive nothing."""

    def __init__(self, storage, ta_uuid):
        self._storage = storage
        self._uuid = ta_uuid

    @cached_property
    def _cipher(self):
        return self._storage.sealer(self._uuid)

    def put(self, object_id, payload):
        self._storage.put(self._uuid, object_id, payload, self._cipher)

    def get(self, object_id):
        return self._storage.get(self._uuid, object_id, self._cipher)

    def delete(self, object_id):
        self._storage.delete(self._uuid, object_id)

    def exists(self, object_id):
        return self._storage.exists(self._uuid, object_id)


class TeeServices(SimpleNamespace):
    """Trusted-side service bundle a fabric wires into its enclaves."""

    def __init__(self, rng, storage):
        super().__init__(rng=rng, storage=storage)

    def for_ta(self, ta_uuid):
        if not isinstance(ta_uuid, uuid_mod.UUID):
            raise TypeError(f"ta_uuid must be a UUID, got {type(ta_uuid)}")
        return self.rng, TaStorage(self.storage, ta_uuid)
