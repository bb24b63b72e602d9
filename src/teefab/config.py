"""Simulator configuration: defaults, key=value file parsing, validation."""

from __future__ import annotations

import warnings
from types import SimpleNamespace

from .resource_model import get_profile, max_enclaves, read_key_values

# The window and TCM sizes come from protocol.py; a file may not set them.
_FIXED_KEYS = {"tcm_size", "shm_size"}
_DEFAULT_HUK_SEED = "teefab-default-device"
_SEED_MAX = 2**64 - 1  # the RNG takes its seed as eight bytes

# Every field and its default; a config file may set exactly these keys.
_DEFAULTS = {
    "enclave_count": 4,
    "device_profile": "zu3eg",
    "storage_dir": "teefab-storage",
    "uart_dir": None,
    "rng_seed": None,
    "huk": None,       # 64 hex chars, the device secret itself
    "huk_seed": None,  # or any string stretched into one
    "dma_ns_per_byte": 0,
    "dma_ns_per_op": 0,
}


class SimConfig(SimpleNamespace):
    """Everything a fabric boot needs; sizes are fixed by the design.
    Takes any field of _DEFAULTS as a keyword; compares by field."""

    def __init__(self, **fields):
        unknown = sorted(fields.keys() - _DEFAULTS.keys())
        if unknown:
            raise TypeError(f"SimConfig() got unexpected keywords {unknown}")
        super().__init__(**{**_DEFAULTS, **fields})

    def device(self):
        return get_profile(self.device_profile)

    def validate(self):
        """Raise ValueError with a precise message on any bad field."""
        if not isinstance(self.enclave_count, int) or self.enclave_count < 1:
            raise ValueError(
                f"enclave_count must be >= 1, got {self.enclave_count!r}")
        device = self.device()
        ceiling, binding = max_enclaves(device)
        if self.enclave_count > ceiling:
            raise ValueError(
                f"enclave_count {self.enclave_count} exceeds what {device.name} "
                f"can hold: {ceiling} enclave(s) before running out of "
                f"{binding} resources")
        if ceiling < 2:
            warnings.warn(
                f"device {device.name} fits only {ceiling} enclave(s); the "
                f"platform floor is two concurrently hosted TAs",
                stacklevel=2)
        if self.huk is not None and self.huk_seed is not None:
            raise ValueError("set huk or huk_seed, not both")
        if self.huk is not None:
            raw = self.huk.strip()
            if len(raw) != 64 or any(c not in "0123456789abcdefABCDEF" for c in raw):
                raise ValueError("huk must be exactly 64 hex characters")
        for name in ("dma_ns_per_byte", "dma_ns_per_op"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"{name} must be a non-negative integer")
        if self.rng_seed is not None and (
                not isinstance(self.rng_seed, int)
                or not 0 <= self.rng_seed <= _SEED_MAX):
            raise ValueError(f"rng_seed must be an integer in 0..2**64-1, "
                             f"got {self.rng_seed!r}")
        return self

    def device_key(self):
        """The device secret this config denotes, already wrapped."""
        from .internal_api import DeviceKey
        if self.huk is not None:
            return DeviceKey(bytes.fromhex(self.huk.strip()))
        seed = self.huk_seed if self.huk_seed is not None else _DEFAULT_HUK_SEED
        return DeviceKey.from_seed(seed)


def _parse_int(key, value):
    try:
        return int(value, 0)
    except ValueError:
        raise ValueError(f"{key} must be an integer, got {value!r}") from None


def load_config(path):
    """Parse a key=value config file into a validated SimConfig."""
    config = SimConfig()
    for lineno, key, value in read_key_values(path):
        if key in _FIXED_KEYS:
            raise ValueError(
                f"{path}:{lineno}: {key} is fixed by the design and cannot "
                f"be overridden")
        if key not in _DEFAULTS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in ("enclave_count", "rng_seed", "dma_ns_per_byte", "dma_ns_per_op"):
            setattr(config, key, _parse_int(key, value))
        else:
            setattr(config, key, value)
    return config.validate()
