"""Configuration parsing and validation."""

import argparse
import uuid

import pytest

from teefab.cli import _build_config
from teefab.config import SimConfig, load_config
from teefab.internal_api import Csprng, DeviceKey


def write_config(tmp_path, text):
    path = tmp_path / "sim.conf"
    path.write_text(text)
    return path


def test_defaults_validate():
    config = SimConfig().validate()
    assert config.enclave_count == 4
    assert config.device_profile == "zu3eg"


def test_a_config_keeps_its_defaults_and_takes_only_its_fields():
    assert vars(SimConfig()) == {
        "enclave_count": 4, "device_profile": "zu3eg",
        "storage_dir": "teefab-storage", "uart_dir": None, "rng_seed": None,
        "huk_seed": "teefab-default-device", "dma_ns_per_byte": 0,
        "dma_ns_per_op": 0}
    assert SimConfig(rng_seed=3) == SimConfig(rng_seed=3) != SimConfig()
    with pytest.raises(TypeError, match="bogus"):
        SimConfig(bogus=1)


def test_a_config_field_can_be_set_after_it_is_made(tmp_path):
    """`load_config` and the command line's overrides set fields one by
    one on a made config."""
    config = SimConfig()
    config.storage_dir = str(tmp_path)
    assert config == SimConfig(storage_dir=str(tmp_path))
    args = argparse.Namespace(config=write_config(tmp_path, "rng_seed = 9\n"),
                              enclaves=2, seed=None, storage_dir="store")
    assert _build_config(args) == SimConfig(enclave_count=2, rng_seed=9,
                                            storage_dir="store")
    # Every field is a key a config file may set.
    samples = {"enclave_count": "2", "device_profile": "zu3eg",
               "storage_dir": "s", "uart_dir": "u", "rng_seed": "9",
               "huk_seed": "x", "dma_ns_per_byte": "1",
               "dma_ns_per_op": "1"}
    assert samples.keys() == vars(SimConfig()).keys()
    for key, value in samples.items():
        config = load_config(write_config(tmp_path, f"{key} = {value}\n"))
        assert str(getattr(config, key)) == value


def test_load_config_full_file(tmp_path):
    path = write_config(tmp_path, (
        "# simulator settings\n"
        "enclave_count = 2\n"
        "device_profile = zu3eg\n"
        "storage_dir = /tmp/teefab-test-store\n"
        "rng_seed = 0x20\n"))
    config = load_config(path)
    assert config.enclave_count == 2
    assert config.rng_seed == 0x20
    assert config.storage_dir == "/tmp/teefab-test-store"


def test_load_config_bools_and_delays(tmp_path):
    path = write_config(tmp_path, (
        "dma_ns_per_byte = 250\n"
        "dma_ns_per_op = 1000\n"))
    config = load_config(path)
    assert config.dma_ns_per_byte == 250
    assert config.dma_ns_per_op == 1000
    # A TA fault always scrubs its slot; the old switch is no key at all.
    with pytest.raises(ValueError, match="unknown key 'quarantine_on_fault'"):
        load_config(write_config(tmp_path, "quarantine_on_fault = true\n"))


def test_fixed_sizes_cannot_be_overridden(tmp_path):
    with pytest.raises(ValueError, match="fixed by the design"):
        load_config(write_config(tmp_path, "tcm_size = 131072\n"))
    with pytest.raises(ValueError, match="fixed by the design"):
        load_config(write_config(tmp_path, "shm_size = 4096\n"))


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown key"):
        load_config(write_config(tmp_path, "enclaves = 2\n"))
    # The profile has one name; `device` is no alias of it.
    with pytest.raises(ValueError, match="unknown key 'device'"):
        load_config(write_config(tmp_path, "device = zu3eg\n"))


def test_huk_and_huk_seed_together_rejected(tmp_path):
    # `huk_seed` is the one form of the device secret; `huk` is no key, so
    # a config that sets it beside `huk_seed` is refused, in a file or not.
    with pytest.raises(ValueError, match="unknown key 'huk'"):
        load_config(write_config(
            tmp_path, f"huk = {'ab' * 32}\nhuk_seed = unit-test\n"))
    with pytest.raises(TypeError, match="huk"):
        SimConfig(huk="ab" * 32, huk_seed="unit-test")
    with pytest.raises(TypeError, match="huk"):
        SimConfig(huk="ab" * 32)


def test_malformed_lines_name_position(tmp_path):
    with pytest.raises(ValueError, match="sim.conf:2"):
        load_config(write_config(tmp_path, "enclave_count = 1\njust words\n"))


def test_bad_value_types(tmp_path):
    with pytest.raises(ValueError, match="must be an integer"):
        load_config(write_config(tmp_path, "enclave_count = lots\n"))
    with pytest.raises(ValueError, match="dma_ns_per_op must be an integer"):
        load_config(write_config(tmp_path, "dma_ns_per_op = fast\n"))


def test_validate_enclave_count_bounds():
    with pytest.raises(ValueError, match="enclave_count must be >= 1"):
        SimConfig(enclave_count=0).validate()
    with pytest.raises(ValueError, match="exceeds what zu3eg can hold"):
        SimConfig(enclave_count=7).validate()
    assert SimConfig(enclave_count=6).validate().enclave_count == 6


def test_a_device_seed_is_a_string():
    """`bytes(seed)` would give 5 the key of five zero bytes, 0 the key of
    "", and take a list: a config refuses any seed but a str, and the
    device key any but a str or bytes."""
    for seed in (5, 0, [1, 2], None, b"bytes"):
        with pytest.raises(ValueError, match="huk_seed must be a string"):
            SimConfig(huk_seed=seed).validate()
    for seed in (5, 0, [1, 2], None, bytearray(b"x")):
        with pytest.raises(TypeError, match="str or bytes"):
            DeviceKey.from_seed(seed)
    unit = uuid.UUID(int=1)
    assert DeviceKey.from_seed(b"\0" * 5).sealing_key(unit) \
        != DeviceKey.from_seed("5").sealing_key(unit)
    assert DeviceKey.from_seed("").sealing_key(unit) \
        == DeviceKey.from_seed(b"").sealing_key(unit)


def test_device_key_sources():
    seeded = SimConfig(huk_seed="unit-test").validate().device_key()
    default = SimConfig().validate().device_key()
    assert default.sealing_key(uuid.UUID(int=1)) \
        != seeded.sealing_key(uuid.UUID(int=1))
    again = SimConfig(huk_seed="unit-test").validate().device_key()
    assert again.sealing_key(uuid.UUID(int=2)) \
        == seeded.sealing_key(uuid.UUID(int=2))


def test_bad_delay_values_rejected():
    with pytest.raises(ValueError, match="dma_ns_per_byte"):
        SimConfig(dma_ns_per_byte=-1).validate()
    with pytest.raises(ValueError, match="rng_seed must be an integer"):
        SimConfig(rng_seed="seed").validate()


def test_the_rng_seed_is_eight_bytes(tmp_path):
    """The RNG takes its seed as eight bytes: 0..2**64-1 and nothing else,
    refused here rather than as an OverflowError at boot."""
    for seed in (0, 2**64 - 1):
        SimConfig(rng_seed=seed).validate()
        Csprng(seed=seed)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=r"rng_seed must be an integer "
                                             r"in 0\.\.2\*\*64-1"):
            SimConfig(rng_seed=seed).validate()
    with pytest.raises(ValueError, match="rng_seed"):
        load_config(write_config(tmp_path, "rng_seed = -1\n"))


def test_tiny_device_warns_below_platform_floor(tmp_path):
    profile = tmp_path / "tiny.profile"
    profile.write_text(
        "name = tiny\nlut = 10000\nlutram = 900\nff = 12000\n"
        "bram = 40\ndsp = 4\nio = 4\nbufg = 4\n")
    with pytest.warns(UserWarning, match="platform floor is two"):
        SimConfig(enclave_count=1, device_profile=str(profile)).validate()
