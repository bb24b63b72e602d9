"""Wallet stack: mnemonic codec, HD derivation, the TA, client and CLI."""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import oracle_hd
import teefab
from teefab.client_api import Context, Direction, Operation, Value
from teefab.internal_api import SealedStorage, crypto
from teefab.protocol import SHM_WINDOW_SIZE, AccessDeniedError, ReturnCode
from teefab.wallet import (
    WALLET_UUID,
    WalletClient,
    WalletError,
    build_wallet_image,
)
from teefab.wallet.client import DEMO_RAW_TX
from teefab.wallet.client import main as wallet_main
from teefab.wallet.hd import (
    base58check_decode,
    base58check_encode,
    derive_hardened,
    hash160,
    master_from_seed,
    p2pkh_address,
    ripemd160,
    sha256d,
)
from teefab.wallet.mnemonic import (
    MnemonicError,
    WORDLIST,
    entropy_to_mnemonic,
    mnemonic_to_entropy,
    mnemonic_to_seed,
    normalize_mnemonic,
    validate_mnemonic,
)
from teefab.wallet.ta import (
    CHILD_TABLE_CAP,
    CHILDREN_ID,
    CMD_CHECK_EXISTS,
    CMD_GET_ADDRESS,
    CMD_SIGN,
    RECORD_ID,
    _parse_record,
)

REFERENCE_MNEMONIC = ("abandon abandon abandon abandon abandon abandon "
                      "abandon abandon abandon abandon abandon about")
OTHER_MNEMONIC = "zoo zoo zoo zoo zoo zoo zoo zoo zoo zoo zoo wrong"

# Frozen from tests/oracle_hd.py (hashlib + pure-Python secp256k1 chain).
VECTORS = {
    "seed": "5eb00bbddcf069084889a8ab9155568165f5c453ccb85e70811aaed6f6da5fc1"
            "9a5ac40b389cd370d086206dec8aa6c43daea6690f20ad3d8d48b2d2ce9e38e4",
    "master_sk": "1837c1be8e2995ec11cda2b066151be2cfb48adf9e47b151d46adab3a21cdf67",
    "master_cc": "7923408dadd3c7b56eed15567707ae5e5dca089de972e07f3b860450e2a3b70e",
    "child0_sk": "c08cf331996482c06db3d259ff99be4bf7083824d53185e33191ee7ceb2bf96f",
    "child0_cc": "f1c03f5ff97108912fd56761d3fada8879e4173aba45f10da4bbd94b1c497160",
    "child0_pub": "027f1d87730e460e921b382242911565bf93daf2081ed685b2edd1d01176b2c13c",
    "child1_sk": "3ef02fc53000742891fc90458ba9edc8363d8f1f267e326b1078710c7db34de5",
    "child1_pub": "03b5184a526dac6abda3d8d54a541471ce83e8c2260d56706053e2780922319f5e",
    "address0": "15E71CDmjirqPGsS9bzuvKXHPCwnwwn93T",
    "tx_digest": "4e44e8626853f5ac9fd9d85eab76f41f49cf1df18171e2cf7b07678f7eab20bb",
    "signature_hex": "99aa8352faab3767fb5347ddf06f9bde3a2080b62b99cd991baa3474"
                     "11992a2a62b2353860c9a25e11ea80725105895877b9ea9fe356bc1b"
                     "66b44df152a3dcb601",
}

PIN = 1234


def test_oracle_still_produces_frozen_vectors():
    assert oracle_hd.wallet_vectors() == VECTORS
    assert oracle_hd.DEMO_RAW_TX == DEMO_RAW_TX
    assert oracle_hd.REFERENCE_MNEMONIC == REFERENCE_MNEMONIC


# --- mnemonic codec ---------------------------------------------------------

def test_wordlist_shape():
    assert len(WORDLIST) == 2048
    assert len(set(WORDLIST)) == 2048
    assert list(WORDLIST) == sorted(WORDLIST)


def test_zero_entropy_reference_phrase():
    assert entropy_to_mnemonic(bytes(16)) == REFERENCE_MNEMONIC
    assert mnemonic_to_entropy(REFERENCE_MNEMONIC) == bytes(16)


def test_mnemonic_round_trips_all_sizes():
    rng = random.Random(0xB1B)
    for size in (16, 20, 24, 28, 32):
        for _ in range(40):
            entropy = bytes(rng.getrandbits(8) for _ in range(size))
            phrase = entropy_to_mnemonic(entropy)
            assert len(phrase.split()) == (size * 8 + size // 4) // 11
            assert mnemonic_to_entropy(phrase) == entropy


def test_checksum_violation_detected():
    phrase = entropy_to_mnemonic(bytes(range(16)))
    words = phrase.split()
    # Swap the last word for a different list entry: checksum must fail.
    wrong = WORDLIST[(WORDLIST.index(words[-1]) + 1) % 2048]
    with pytest.raises(MnemonicError, match="checksum"):
        mnemonic_to_entropy(" ".join(words[:-1] + [wrong]))
    assert not validate_mnemonic(" ".join(words[:-1] + [wrong]))
    assert validate_mnemonic(phrase)


def test_unknown_word_and_length_rejected():
    with pytest.raises(MnemonicError, match="word"):
        mnemonic_to_entropy(REFERENCE_MNEMONIC.replace("about", "aboot"))
    with pytest.raises(MnemonicError, match="12, 15, 18, 21, 24"):
        mnemonic_to_entropy("abandon abandon abandon")


def test_normalization_accepts_sloppy_input():
    sloppy = "  Abandon ABANDON abandon\tabandon abandon abandon\n" \
             "abandon abandon abandon abandon abandon ABOUT "
    assert normalize_mnemonic(sloppy) == REFERENCE_MNEMONIC
    assert normalize_mnemonic(sloppy.encode()) == REFERENCE_MNEMONIC
    assert mnemonic_to_entropy(sloppy) == bytes(16)


def test_seed_matches_reference():
    assert mnemonic_to_seed(REFERENCE_MNEMONIC).hex() == VECTORS["seed"]
    with_pass = mnemonic_to_seed(REFERENCE_MNEMONIC, passphrase="x")
    assert with_pass.hex() != VECTORS["seed"]


# --- hd derivation ----------------------------------------------------------

def test_ripemd160_agrees_with_oracle():
    rng = random.Random(0x160)
    assert ripemd160(b"") == oracle_hd.ripemd160(b"")
    for _ in range(50):
        blob = bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 300)))
        assert ripemd160(blob) == oracle_hd.ripemd160(blob)


def test_hash_helpers_agree_with_oracle():
    assert sha256d(DEMO_RAW_TX).hex() == VECTORS["tx_digest"]
    blob = b"hash160 input"
    assert hash160(blob) == oracle_hd.ripemd160(
        oracle_hd.hashlib.sha256(blob).digest())


def test_base58check_round_trip():
    rng = random.Random(0x58)
    for _ in range(200):
        payload = bytes(rng.getrandbits(8)
                        for _ in range(rng.randrange(0, 40)))
        encoded = base58check_encode(payload)
        assert base58check_decode(encoded) == payload
    assert base58check_encode(b"\x00\x00\x01").startswith("11")
    with pytest.raises(ValueError):
        base58check_decode("0OIl")
    tampered = base58check_encode(b"payload")
    bad = tampered[:-1] + ("2" if tampered[-1] != "2" else "3")
    with pytest.raises(ValueError):
        base58check_decode(bad)


def test_derivation_chain_matches_vectors():
    seed = bytes.fromhex(VECTORS["seed"])
    sk, cc = master_from_seed(seed)
    assert sk.hex() == VECTORS["master_sk"]
    assert cc.hex() == VECTORS["master_cc"]
    child0, cc0 = derive_hardened(sk, cc, 0)
    assert child0.hex() == VECTORS["child0_sk"]
    assert cc0.hex() == VECTORS["child0_cc"]
    child1, _ = derive_hardened(sk, cc, 1)
    assert child1.hex() == VECTORS["child1_sk"]
    assert p2pkh_address(crypto.derive_public_key(child0)) \
        == VECTORS["address0"]
    assert p2pkh_address(bytes.fromhex(VECTORS["child0_pub"])) \
        == VECTORS["address0"]


# --- the TA through the client ----------------------------------------------

@pytest.fixture
def wallet(fabric):
    client = WalletClient(fabric)
    yield client
    client.close()


def test_lifecycle_generate_use_delete(wallet):
    assert wallet.check_exists() is False
    phrase = wallet.generate(PIN)
    assert validate_mnemonic(phrase) and len(phrase.split()) == 12
    assert wallet.check_exists() is True
    address = wallet.get_address(PIN, 0)
    decoded = base58check_decode(address)
    assert decoded[0] == 0 and len(decoded) == 21
    assert wallet.get_address(PIN, 1) != address
    assert wallet.get_address(PIN, 0) == address
    wallet.delete(PIN)
    assert wallet.check_exists() is False


def test_generate_refuses_overwrite(wallet):
    wallet.generate(PIN)
    with pytest.raises(WalletError, match="already exists"):
        wallet.generate(PIN)


def test_wrong_pin_rejected(wallet):
    wallet.generate(PIN)
    for call in (lambda: wallet.get_address(PIN + 1, 0),
                 lambda: wallet.delete(9999),
                 lambda: wallet.sign(0, 0, DEMO_RAW_TX)):
        with pytest.raises(WalletError, match="wrong pin") as info:
            call()
        assert info.value.code is ReturnCode.ERROR_ACCESS_DENIED
    assert wallet.check_exists() is True


def test_missing_wallet_reported(wallet):
    with pytest.raises(WalletError, match="no wallet stored"):
        wallet.get_address(PIN, 0)
    with pytest.raises(WalletError, match="no wallet stored"):
        wallet.delete(PIN)


def test_restore_reproduces_reference_wallet(wallet):
    wallet.restore(PIN, REFERENCE_MNEMONIC)
    assert wallet.get_address(PIN, 0) == VECTORS["address0"]
    assert wallet.sign(PIN, 1, DEMO_RAW_TX) == VECTORS["signature_hex"]


def test_restore_rejects_bad_phrase(wallet):
    with pytest.raises(WalletError, match="invalid mnemonic"):
        wallet.restore(PIN, "complete nonsense phrase")
    assert wallet.check_exists() is False


def test_restore_overwrite_needs_stored_pin(wallet):
    wallet.generate(PIN)
    with pytest.raises(WalletError, match="wrong pin"):
        wallet.restore(4321, REFERENCE_MNEMONIC)
    wallet.restore(PIN, REFERENCE_MNEMONIC)
    assert wallet.get_address(PIN, 0) == VECTORS["address0"]


def test_generated_wallet_restores_to_same_keys(wallet):
    phrase = wallet.generate(PIN)
    before = wallet.get_address(PIN, 3)
    wallet.delete(PIN)
    wallet.restore(PIN, phrase)
    assert wallet.get_address(PIN, 3) == before


def test_signature_verifies_and_is_deterministic(wallet):
    wallet.restore(PIN, REFERENCE_MNEMONIC)
    first = wallet.sign(PIN, 4, DEMO_RAW_TX)
    second = wallet.sign(PIN, 4, DEMO_RAW_TX)
    assert first == second
    assert first.endswith("01") and len(first) == 130
    seed = bytes.fromhex(VECTORS["seed"])
    sk, cc = oracle_hd.master_from_seed(seed)
    child4, _ = oracle_hd.derive_hardened(sk, cc, 4)
    expected = oracle_hd.sign_compact_low_s(
        child4, oracle_hd.sha256d(DEMO_RAW_TX))
    assert first == (expected + b"\x01").hex()


def test_client_validates_locally(wallet):
    with pytest.raises(WalletError, match="pin must be"):
        wallet.generate(10000)
    with pytest.raises(WalletError, match="out of range"):
        wallet.get_address(PIN, -1)


def test_single_session_policy(fabric):
    image = build_wallet_image()
    with Context(fabric) as holder:
        session = holder.open_session(WALLET_UUID, image)
        with Context(fabric) as intruder:
            with pytest.raises(AccessDeniedError):
                intruder.open_session(WALLET_UUID, image)
        client = WalletClient(fabric)
        with pytest.raises(WalletError, match="busy"):
            client.check_exists()
        client.close()
        session.close()
    client = WalletClient(fabric)
    assert client.check_exists() is False
    client.close()


def test_every_command_destroys_its_instance(fabric, wallet):
    wallet.generate(PIN)
    wallet.check_exists()
    wallet.get_address(PIN, 0)
    wallet.sign(PIN, 0, DEMO_RAW_TX)
    wallet.delete(PIN)
    fabric.wait_idle()
    destroys = sum(
        sum("wallet: destroy" in line
            for line in fabric.slot_runtime(i).uart.lines())
        for i in range(fabric.config.enclave_count))
    assert destroys == 5


def test_wallet_survives_fabric_restart(fabric_factory, tmp_path):
    store = str(tmp_path / "persistent-store")
    first = fabric_factory(storage_dir=store)
    client = WalletClient(first)
    client.restore(PIN, REFERENCE_MNEMONIC)
    client.close()
    first.shutdown()
    second = fabric_factory(storage_dir=store)
    client = WalletClient(second)
    assert client.check_exists() is True
    assert client.get_address(PIN, 0) == VECTORS["address0"]
    client.close()


def test_uart_never_leaks_key_material(fabric, wallet):
    wallet.restore(PIN, REFERENCE_MNEMONIC)
    wallet.sign(PIN, 1, DEMO_RAW_TX)
    secrets = (VECTORS["master_sk"], VECTORS["child1_sk"], "abandon", "1234")
    for i in range(fabric.config.enclave_count):
        for line in fabric.slot_runtime(i).uart.lines():
            assert not any(secret in line for secret in secrets)


def test_out_of_range_index_is_bad_parameters(wallet):
    wallet.restore(PIN, REFERENCE_MNEMONIC)
    for call in (lambda: wallet.get_address(PIN, 2**31),
                 lambda: wallet.sign(PIN, 2**32 - 1, DEMO_RAW_TX)):
        with pytest.raises(WalletError) as info:
            call()
        assert info.value.code is ReturnCode.ERROR_BAD_PARAMETERS


def test_client_names_the_child_index_range(wallet):
    wallet.restore(PIN, REFERENCE_MNEMONIC)
    for call in (lambda: wallet.get_address(PIN, 2**31),
                 lambda: wallet.get_address(PIN, 5_000_000_000),
                 lambda: wallet.sign(PIN, 2**31, DEMO_RAW_TX),
                 lambda: wallet.sign(PIN, -1, DEMO_RAW_TX)):
        with pytest.raises(WalletError,
                           match=r"out of range: it must be 0\.\.2147483647"):
            call()
    assert wallet.get_address(PIN, 2**31 - 1).startswith("1")


def test_a_refused_request_loads_no_enclave(fabric, wallet):
    def loads():
        return (fabric.load_count, len(fabric.events("load")),
                len(fabric.events("open")))

    before = loads()
    for call in (lambda: wallet.get_address(PIN, 2**31),
                 lambda: wallet.sign(PIN, -1, DEMO_RAW_TX),
                 lambda: wallet.check_exists(10000),
                 lambda: wallet.restore(-1, REFERENCE_MNEMONIC),
                 lambda: wallet.sign(PIN, 0, bytes(SHM_WINDOW_SIZE - 129)),
                 lambda: wallet.restore(PIN, "a" * (SHM_WINDOW_SIZE + 1))):
        with pytest.raises(WalletError):
            call()
    assert loads() == before
    assert wallet.check_exists(PIN) is False
    assert fabric.load_count == before[0] + 1


def test_oversized_input_is_refused_as_bad_parameters(wallet):
    wallet.restore(PIN, REFERENCE_MNEMONIC)
    largest = bytes(SHM_WINDOW_SIZE - 130)
    assert wallet.sign(PIN, 0, largest) == \
        _oracle_signature(REFERENCE_MNEMONIC, 0, largest)
    for call, match in (
            (lambda: wallet.sign(PIN, 0, largest + b"\0"),
             "input of 8063 bytes is over the 8062"),
            (lambda: wallet.restore(PIN, " " * (SHM_WINDOW_SIZE + 1)),
             "input of 8193 bytes is over the 8192")):
        with pytest.raises(WalletError, match=match) as info:
            call()
        assert info.value.code is ReturnCode.ERROR_BAD_PARAMETERS


def test_wallet_ta_refuses_a_hardened_index_itself(fabric, wallet):
    """The TA's own check, which the client's local one hides."""
    wallet.restore(PIN, REFERENCE_MNEMONIC)
    with Context(fabric) as ctx:
        with ctx.open_session(WALLET_UUID, build_wallet_image()) as session:
            block = session.allocate_shared_memory(40, Direction.OUT)
            result = session.invoke_command(CMD_GET_ADDRESS, Operation(
                Value(Direction.IN, PIN, 2**31), block))
    assert result.code is ReturnCode.ERROR_BAD_PARAMETERS


def _out(session, size):
    return session.allocate_shared_memory(size, Direction.OUT)


def _in(session, data):
    block = session.allocate_shared_memory(len(data), Direction.IN)
    block.write(data)
    return block


_CREDENTIALS = (Direction.IN, PIN, 0)
# What a raw session sends for each refusal that WalletClient's own
# checks hide: (command, its parameters, the code the TA answers).
_RAW_REFUSALS = {
    "p0_not_value_in": lambda s: (CMD_GET_ADDRESS, (
        Value(Direction.INOUT, PIN, 0), _out(s, 40)),
        ReturnCode.ERROR_BAD_PARAMETERS),
    "pin_10000": lambda s: (CMD_GET_ADDRESS, (
        Value(Direction.IN, 10000, 0), _out(s, 40)),
        ReturnCode.ERROR_BAD_PARAMETERS),
    "check_exists_p1_not_value_out": lambda s: (CMD_CHECK_EXISTS, (
        Value(*_CREDENTIALS), Value(Direction.INOUT)),
        ReturnCode.ERROR_BAD_PARAMETERS),
    "value_for_a_memref": lambda s: (CMD_SIGN, (
        Value(*_CREDENTIALS), Value(Direction.IN, 1, 2), _out(s, 160)),
        ReturnCode.ERROR_BAD_PARAMETERS),
    "short_address_block": lambda s: (CMD_GET_ADDRESS, (
        Value(*_CREDENTIALS), _out(s, 10)),
        ReturnCode.ERROR_SHORT_BUFFER),
    "unknown_command": lambda s: (99, (Value(*_CREDENTIALS),),
                                  ReturnCode.ERROR_BAD_PARAMETERS),
    "empty_transaction": lambda s: (CMD_SIGN, (
        Value(*_CREDENTIALS), _in(s, b""), _out(s, 160)),
        ReturnCode.ERROR_BAD_PARAMETERS),
}


@pytest.mark.parametrize("case", sorted(_RAW_REFUSALS))
def test_wallet_ta_refuses_a_raw_request_and_keeps_its_record(
        fabric, wallet, case):
    """The TA's own checks on a request sent past WalletClient: each
    answers its code and leaves the sealed record's bytes as they were."""
    wallet.restore(PIN, REFERENCE_MNEMONIC)
    address = wallet.get_address(PIN, 0)   # child 0 is in the record now
    record = _object_path(fabric, RECORD_ID)
    sealed = record.read_bytes()
    with Context(fabric) as ctx:
        with ctx.open_session(WALLET_UUID, build_wallet_image()) as session:
            cmd, params, code = _RAW_REFUSALS[case](session)
            result = session.invoke_command(cmd, Operation(*params))
    assert result.code is code
    if code is ReturnCode.ERROR_SHORT_BUFFER:
        # The length word carries what the address needs.
        assert result.memref_length(1) == len(address)
        assert params[1].read() == bytes(10)
    assert record.read_bytes() == sealed


# --- the sealed record --------------------------------------------------------

def _oracle_child(phrase, index):
    seed = oracle_hd.mnemonic_to_seed(phrase)
    sk, cc = oracle_hd.master_from_seed(seed)
    return oracle_hd.derive_hardened(sk, cc, index)[0]


def _oracle_address(phrase, index):
    return oracle_hd.p2pkh_address(
        oracle_hd.compressed_pubkey(_oracle_child(phrase, index)))


def _oracle_signature(phrase, index, raw_tx):
    signature = oracle_hd.sign_compact_low_s(
        _oracle_child(phrase, index), oracle_hd.sha256d(raw_tx))
    return (signature + b"\x01").hex()


def _assert_children_match(wallet, phrase, indices):
    for index in indices:
        assert wallet.get_address(PIN, index) == _oracle_address(phrase, index)
        assert wallet.sign(PIN, index, DEMO_RAW_TX) \
            == _oracle_signature(phrase, index, DEMO_RAW_TX)


def _object_path(fabric, object_id):
    return (Path(fabric.config.storage_dir) / WALLET_UUID.hex
            / hashlib.sha256(object_id).hexdigest())


def _stored_children(fabric):
    """The indices of the children the sealed record holds."""
    blob = fabric.services.storage.get(WALLET_UUID, RECORD_ID)
    return sorted(_parse_record(blob)[4])


def _sealed_objects(fabric):
    return sorted(path.name for path in
                  (Path(fabric.config.storage_dir) / WALLET_UUID.hex).iterdir())


def _uart_lines(fabric):
    return [line for i in range(fabric.config.enclave_count)
            for line in fabric.slot_runtime(i).uart.lines()]


def _plant_parent_wallet(fabric, phrase):
    """A master record and a child table as the two-object format sealed
    them: the record is the bare 112-byte master."""
    storage = fabric.services.storage
    sk, cc = oracle_hd.master_from_seed(oracle_hd.mnemonic_to_seed(phrase))
    salt = bytes(range(16))
    storage.put(WALLET_UUID, RECORD_ID, sk + cc + salt + hashlib.sha256(
        b"%04d" % PIN + salt).digest())
    storage.put(WALLET_UUID, CHILDREN_ID, bytes(32))


def test_unreadable_record_answers_generic_and_restore_replaces_it(
        fabric, wallet):
    record = _object_path(fabric, RECORD_ID)
    wallet.restore(PIN, REFERENCE_MNEMONIC)
    wallet.get_address(PIN, 2)
    blob = bytearray(record.read_bytes())
    blob[len(blob) // 2] ^= 0x10
    record.write_bytes(bytes(blob))
    for call in (lambda: wallet.get_address(PIN, 2),
                 lambda: wallet.sign(PIN, 2, DEMO_RAW_TX),
                 lambda: wallet.delete(PIN)):
        with pytest.raises(WalletError) as info:
            call()
        assert info.value.code is ReturnCode.ERROR_GENERIC
    assert any("wallet: record unreadable: sealed blob failed authentication"
               in line for line in _uart_lines(fabric))
    wallet.restore(PIN, REFERENCE_MNEMONIC)
    _assert_children_match(wallet, REFERENCE_MNEMONIC, (0, 2))
    fabric.services.storage.put(WALLET_UUID, RECORD_ID, b"short")
    with pytest.raises(WalletError) as info:
        wallet.get_address(PIN, 0)
    assert info.value.code is ReturnCode.ERROR_GENERIC
    assert any("wallet: record unreadable: malformed" in line
               for line in _uart_lines(fabric))
    wallet.restore(4321, OTHER_MNEMONIC)
    assert wallet.get_address(4321, 0) == _oracle_address(OTHER_MNEMONIC, 0)


def test_child_table_follows_the_master(fabric, wallet):
    record = _object_path(fabric, RECORD_ID)
    wallet.generate(PIN)
    assert _sealed_objects(fabric) == [record.name]
    wallet.restore(PIN, REFERENCE_MNEMONIC)
    wallet.get_address(PIN, 0)
    wallet.sign(PIN, 3, DEMO_RAW_TX)
    assert _stored_children(fabric) == [0, 3]
    wallet.restore(PIN, REFERENCE_MNEMONIC)
    assert _stored_children(fabric) == [0, 3]
    wallet.restore(PIN, OTHER_MNEMONIC)
    assert _stored_children(fabric) == []
    wallet.get_address(PIN, 0)
    assert _stored_children(fabric) == [0]
    assert _sealed_objects(fabric) == [record.name]
    wallet.delete(PIN)
    assert _sealed_objects(fabric) == []


def test_child_table_stops_at_its_cap(fabric, wallet):
    record = _object_path(fabric, RECORD_ID)
    wallet.restore(PIN, REFERENCE_MNEMONIC)
    for index in range(CHILD_TABLE_CAP):
        wallet.get_address(PIN, index)
    assert _stored_children(fabric) == list(range(CHILD_TABLE_CAP))
    full = record.read_bytes()
    _assert_children_match(wallet, REFERENCE_MNEMONIC,
                           (CHILD_TABLE_CAP, 2**31 - 1))
    assert record.read_bytes() == full


def test_a_parent_format_wallet_still_reads(fabric, wallet):
    record, table = (_object_path(fabric, RECORD_ID),
                     _object_path(fabric, CHILDREN_ID))
    _plant_parent_wallet(fabric, REFERENCE_MNEMONIC)
    assert _stored_children(fabric) == []
    _assert_children_match(wallet, REFERENCE_MNEMONIC, (0,))
    assert _stored_children(fabric) == [0]
    wallet.restore(PIN, REFERENCE_MNEMONIC)
    assert _stored_children(fabric) == [0]
    wallet.restore(PIN, OTHER_MNEMONIC)
    assert _sealed_objects(fabric) == [record.name]
    _plant_parent_wallet(fabric, REFERENCE_MNEMONIC)
    assert _sealed_objects(fabric) == sorted([record.name, table.name])
    wallet.delete(PIN)
    assert _sealed_objects(fabric) == []


def test_sign_and_address_make_one_sealed_read(wallet, monkeypatch):
    reads = []
    get = SealedStorage.get

    def spy(self, ta_uuid, object_id, cipher=None):
        reads.append(object_id)
        return get(self, ta_uuid, object_id, cipher)

    monkeypatch.setattr(SealedStorage, "get", spy)
    wallet.restore(PIN, REFERENCE_MNEMONIC)
    for index in (7, CHILD_TABLE_CAP):
        wallet.get_address(PIN, index)
        reads.clear()
        wallet.get_address(PIN, index)
        wallet.sign(PIN, index, DEMO_RAW_TX)
        assert reads == [RECORD_ID, RECORD_ID]


def test_children_match_the_oracle_across_restores(wallet, monkeypatch):
    indices = (0, 1, CHILD_TABLE_CAP - 1, CHILD_TABLE_CAP, 2**31 - 1)
    wallet.restore(PIN, REFERENCE_MNEMONIC)
    _assert_children_match(wallet, REFERENCE_MNEMONIC, indices)
    wallet.restore(PIN, REFERENCE_MNEMONIC)
    calls = []
    ec = crypto.openssl().ec
    derive = ec.derive_private_key

    def spy(*args):
        calls.append(args)
        return derive(*args)

    monkeypatch.setattr(ec, "derive_private_key", spy)
    _assert_children_match(wallet, REFERENCE_MNEMONIC, indices[:3])
    assert calls == []
    wallet.restore(PIN, OTHER_MNEMONIC)
    _assert_children_match(wallet, OTHER_MNEMONIC, indices)


def test_a_stored_child_needs_no_derivation(wallet, monkeypatch):
    calls = []
    ec = crypto.openssl().ec
    derive = ec.derive_private_key

    def spy(*args):
        calls.append(args)
        return derive(*args)

    monkeypatch.setattr(ec, "derive_private_key", spy)
    wallet.restore(PIN, REFERENCE_MNEMONIC)
    first = wallet.get_address(PIN, 5), wallet.sign(PIN, 5, DEMO_RAW_TX)
    assert calls
    calls.clear()
    second = wallet.get_address(PIN, 5), wallet.sign(PIN, 5, DEMO_RAW_TX)
    assert calls == []
    assert first == second == (
        _oracle_address(REFERENCE_MNEMONIC, 5),
        _oracle_signature(REFERENCE_MNEMONIC, 5, DEMO_RAW_TX))


# --- command line ------------------------------------------------------------

def run_cli(tmp_path, *args):
    return wallet_main([*args, "--storage-dir", str(tmp_path / "cli-store"),
                        "--seed", "77"])


def test_cli_happy_path(tmp_path, capsys):
    assert run_cli(tmp_path, "1", "0") == 0
    assert capsys.readouterr().out.strip() == "missing"
    assert run_cli(tmp_path, "2", "1234") == 0
    phrase = capsys.readouterr().out.strip()
    assert validate_mnemonic(phrase)
    assert run_cli(tmp_path, "6", "1234", "-a", "0") == 0
    address = capsys.readouterr().out.strip()
    assert 26 <= len(address) <= 35 and address.startswith("1")
    assert run_cli(tmp_path, "5", "1234", "-a", "0") == 0
    assert len(capsys.readouterr().out.strip()) == 130
    assert run_cli(tmp_path, "4", "1234") == 0
    assert run_cli(tmp_path, "1", "0") == 0
    assert "missing" in capsys.readouterr().out


def test_cli_restore_and_sign_reference(tmp_path, capsys):
    words = REFERENCE_MNEMONIC.split()
    assert run_cli(tmp_path, "3", "1234", "-a", *words) == 0
    capsys.readouterr()
    assert run_cli(tmp_path, "6", "1234", "-a", "0") == 0
    assert capsys.readouterr().out.strip() == VECTORS["address0"]
    assert run_cli(tmp_path, "5", "1234", "-a", "1") == 0
    assert capsys.readouterr().out.strip() == VECTORS["signature_hex"]


def test_cli_failure_exit_codes(tmp_path, capsys):
    assert run_cli(tmp_path, "2", "1234") == 0
    capsys.readouterr()
    assert run_cli(tmp_path, "6", "9999", "-a", "0") == 1
    assert "wrong pin" in capsys.readouterr().err
    assert run_cli(tmp_path, "2", "1234") == 1
    assert "already exists" in capsys.readouterr().err


def test_cli_reports_an_out_of_range_child_index(tmp_path, capsys):
    for command in ("5", "6"):
        assert run_cli(tmp_path, command, "1234", "-a", "5000000000") == 1
        assert "error: child index 5000000000 out of range" \
            in capsys.readouterr().err


def test_cli_refuses_an_oversized_transaction(tmp_path, capsys):
    assert run_cli(tmp_path, "5", "1234", "-a", "0", "00" * 9000) == 1
    assert "error: input of 9000 bytes is over the 8062" \
        in capsys.readouterr().err


def test_cli_refuses_an_out_of_range_seed_in_one_line(tmp_path, capsys):
    store = tmp_path / "seed-store"
    assert wallet_main(["1", "0000", "--storage-dir", str(store),
                        "--seed", str(2**64)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: rng_seed must be an integer in 0..2**64-1, " \
                  f"got {2**64}\n"
    assert not store.exists()


def test_cli_usage_errors(tmp_path, capsys):
    assert run_cli(tmp_path, "3", "1234") == 2
    capsys.readouterr()
    assert run_cli(tmp_path, "6", "12345") == 2
    assert "pin" in capsys.readouterr().err
    assert run_cli(tmp_path, "5", "1234", "-a", "zero") == 2
    with pytest.raises(SystemExit):
        run_cli(tmp_path, "9", "1234")


# --- what a fresh interpreter loads ------------------------------------------

def _run_fresh(script, *args):
    """Run `script` in a new interpreter that imports this checkout's teefab;
    its standard output."""
    src = str(Path(teefab.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else os.pathsep.join((src, path)))
    return subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True,
        text=True, timeout=60, check=True).stdout


_COLD_INCREMENT_SCRIPT = """
import json, sys, uuid
from teefab import Context, Direction, Fabric, Operation, SimConfig, Value
from teefab.enclave import TA_KIND_INCREMENT
from teefab.protocol import TAImage, encode_image

fabric = Fabric(SimConfig(enclave_count=1, storage_dir=sys.argv[1],
                          rng_seed=7))
context = Context(fabric)
ta_uuid = uuid.UUID(int=1, version=4)
session = context.open_session(
    ta_uuid, encode_image(TAImage(ta_uuid, TA_KIND_INCREMENT)))
value = session.invoke_command(
    0, Operation(Value(Direction.INOUT, 41))).value(0)[0]
session.close()
"""

_INCREMENT_THEN_WALLET_SCRIPT = _COLD_INCREMENT_SCRIPT + """
loaded = sorted(name for name in sys.modules
                if name.split(".")[0] == "cryptography"
                or name in ("teefab.wallet.ta", "teefab.wallet.mnemonic"))

from teefab.wallet import WalletClient
from teefab.wallet.client import DEMO_RAW_TX

wallet = WalletClient(fabric)
wallet.restore(1234, sys.argv[2])
print(json.dumps({"value": value, "loaded": loaded,
                  "address0": wallet.get_address(1234, 0),
                  "signature_hex": wallet.sign(1234, 1, DEMO_RAW_TX)}))
wallet.close()
context.close()
fabric.shutdown()
"""


def test_a_fabric_that_never_opens_the_wallet_loads_no_crypto(tmp_path):
    """`import teefab`, a boot and a cold increment round load neither
    `cryptography` nor the wallet TA's code; the wallet loads them at its
    first use in the same process and gives the reference results."""
    result = json.loads(_run_fresh(_INCREMENT_THEN_WALLET_SCRIPT,
                                   str(tmp_path), REFERENCE_MNEMONIC))
    assert result == {"value": 42, "loaded": [],
                      "address0": VECTORS["address0"],
                      "signature_hex": VECTORS["signature_hex"]}


# What `import teefab` once loaded through `dataclasses`.
_INTROSPECTION = ("dataclasses", "inspect", "ast", "dis", "tokenize")

_BOOT_ONLY_SCRIPT = """
import sys
before = set(sys.modules)
import teefab, teefab.cli
""" + _COLD_INCREMENT_SCRIPT + """
context.close()
fabric.shutdown()
print(json.dumps({"value": value,
                  "added": sorted(set(sys.modules) - before)}))
"""


def test_import_boot_and_a_cold_round_load_no_introspection(tmp_path):
    """`import teefab` and `teefab.cli`, a boot and a cold increment round
    load none of the standard library's introspection modules. Modules
    the interpreter had loaded before `import teefab` do not count."""
    result = json.loads(_run_fresh(_BOOT_ONLY_SCRIPT, str(tmp_path)))
    assert result["value"] == 42
    assert [name for name in _INTROSPECTION if name in result["added"]] == []


_NO_RIPEMD_SCRIPT = """
import hashlib

new = hashlib.new

def without_ripemd(name, *args, **kwargs):
    if name.lower() == "ripemd160":
        raise ValueError(f"unsupported hash type {name}")
    return new(name, *args, **kwargs)

hashlib.new = without_ripemd
try:
    import teefab.wallet
except ImportError as exc:
    print(f"ImportError: {exc}")
else:
    print("imported")
"""


def test_importing_the_wallet_fails_without_ripemd160():
    out = _run_fresh(_NO_RIPEMD_SCRIPT)
    assert out.startswith("ImportError: teefab needs RIPEMD-160 from hashlib")
    assert "3.0.7 and later have it by default" in out
