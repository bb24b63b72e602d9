"""Deterministic CSPRNG for the trusted side.

HMAC-SHA256 generate/update construction: seedable so tests and demos can
pin every random choice, seeded from host entropy when no seed is given.
A TA draws from it and cannot feed it.
"""

import hmac
import hashlib
import os
import threading

_HASH_LEN = 32


class Csprng:
    """Stateful deterministic random generator (HMAC-DRBG shaped)."""

    def __init__(self, seed=None):
        self._key = b"\x00" * _HASH_LEN
        self._value = b"\x01" * _HASH_LEN
        self._lock = threading.Lock()
        self._update(self._seed_material(seed))

    @staticmethod
    def _seed_material(seed):
        if seed is None:
            return os.urandom(48)
        if isinstance(seed, int):
            return seed.to_bytes(8, "big", signed=False)
        raise TypeError(f"seed must be an int or None, not {type(seed)}")

    def _hmac(self, data):
        return hmac.new(self._key, data, hashlib.sha256).digest()

    def _update(self, data=b""):
        self._key = self._hmac(self._value + b"\x00" + data)
        self._value = self._hmac(self._value)
        if data:
            self._key = self._hmac(self._value + b"\x01" + data)
            self._value = self._hmac(self._value)

    def random_bytes(self, count):
        """Return count fresh bytes; count == 0 yields b''. A count that
        is not a non-negative int is refused before the state moves."""
        if not isinstance(count, int):
            raise TypeError(f"count must be an int, not {type(count).__name__}")
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        with self._lock:
            out = bytearray()
            while len(out) < count:
                self._value = self._hmac(self._value)
                out += self._value
            self._update()
            return bytes(out[:count])
