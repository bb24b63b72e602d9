"""Acceptance gate: one test per shipped guarantee, frozen expected values.

Each test is self-contained and named so `pytest -v` prints one verdict line
per guarantee. Expected values come from the synthesis table, published
digest/HMAC vectors, and tests/oracle_hd.py (hashlib + pure-Python curve);
the package must reproduce all of them through its own code paths.
"""

import random
import time
import uuid as uuid_mod

import pytest

import oracle_hd
from conftest import make_image
from teefab.bench import run_bench
from teefab.client_api import Context, Direction, Operation, Value
from teefab.config import SimConfig
from teefab.enclave import (
    TA_KIND_ECHO,
    TA_KIND_INCREMENT,
    TA_KIND_PROBE,
    TA_KIND_SHMEM16,
    TrustedApp,
    register_ta_kind,
)
from teefab.fabric import Fabric
from teefab.internal_api.crypto import (
    ORDER_HALF,
    ORDER_N,
    derive_public_key,
    digest,
    ecdsa_sign,
    ecdsa_verify,
    hmac_digest,
)
from teefab.internal_api.storage import TamperedObjectError, TaStorage
from teefab.protocol import (
    MAILBOX_WORDS,
    MAX_IMAGE_SIZE,
    SHM_WINDOW_SIZE,
    TCM_SIZE,
    AccessDeniedError,
    ImageFormatError,
    ImageSizeError,
    ItemNotFoundError,
    MailboxFrame,
    OperationId,
    ParamKind,
    ReturnCode,
    TAImage,
    decode_frame,
    decode_image,
    decode_image_prefix,
    encode_frame,
    encode_image,
    words_to_bytes,
)
from teefab.resource_model import ZU3EG, fits, max_enclaves, utilization
from teefab.wallet import WalletClient
from teefab.wallet.client import DEMO_RAW_TX
from teefab.wallet.hd import master_from_seed
from teefab.wallet.mnemonic import (
    mnemonic_to_entropy,
    mnemonic_to_seed,
    validate_mnemonic,
)

# --- frozen expected values ---------------------------------------------------

# Synthesis table: per-design-point counts for 1..4 enclaves.
TABLE_COUNTS = {
    1: {"lut": 9845, "lutram": 807, "ff": 11532, "bram": 34,
        "dsp": 3, "io": 2, "bufg": 3},
    2: {"lut": 14844, "lutram": 987, "ff": 17034, "bram": 68,
        "dsp": 6, "io": 2, "bufg": 4},
    3: {"lut": 20146, "lutram": 1171, "ff": 22735, "bram": 102,
        "dsp": 9, "io": 2, "bufg": 4},
    4: {"lut": 24963, "lutram": 1355, "ff": 28026, "bram": 136,
        "dsp": 12, "io": 2, "bufg": 4},
}

# Utilization of the zu3eg device, truncated to two decimals as printed.
TABLE_PERCENT = {
    1: {"lut": "13.95", "lutram": "2.80", "ff": "8.17", "bram": "15.74",
        "dsp": "0.83", "io": "2.43", "bufg": "1.53"},
    2: {"lut": "21.03", "lutram": "3.42", "ff": "12.07", "bram": "31.48",
        "dsp": "1.66", "io": "2.43", "bufg": "2.04"},
    3: {"lut": "28.55", "lutram": "4.06", "ff": "16.11", "bram": "47.22",
        "dsp": "2.50", "io": "2.43", "bufg": "2.04"},
    4: {"lut": "35.37", "lutram": "4.70", "ff": "19.85", "bram": "62.96",
        "dsp": "3.33", "io": "2.43", "bufg": "2.04"},
}

SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
SHA256_ABC = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
SHA512_EMPTY = ("cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
                "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e")
SHA512_ABC = ("ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
              "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f")

HMAC_SHA512_CASES = [
    (b"\x0b" * 20, b"Hi There",
     "87aa7cdea5ef619d4ff0b4241a1d6cb02379f4e2ce4ec2787ad0b30545e17cde"
     "daa833b7d6b8a702038b274eaea3f4e4be9d914eeb61f1702e696c203a126854"),
    (b"Jefe", b"what do ya want for nothing?",
     "164b7a7bfcf819e2e395fbe73b56e0a387bd64222e831fd610270cd7ea250554"
     "9758bf75c05a994a6d034f65f8f0e6fdcaeab1a34d4a6b4b636e070a38bce737"),
    (b"\xaa" * 20, b"\xdd" * 50,
     "fa73b0089d56a284efb0f0756c890be9b1b5dbdd8ee81a3655f83e33b2279d39"
     "bf3e848279a722c806b485a47e67c807b946a337bee8942674278859e13292fb"),
    (bytes(range(1, 26)), b"\xcd" * 50,
     "b0ba465637458c6990e5a8c5f61d4af7e576d97ff94b872de76f8050361ee3db"
     "a91ca5c11aa25eb4d679275cc5788063a5f19741120c4f2de2adebeb10a298dd"),
]

REFERENCE_MNEMONIC = ("abandon abandon abandon abandon abandon abandon "
                      "abandon abandon abandon abandon abandon about")

WALLET_VECTORS = {
    "seed": "5eb00bbddcf069084889a8ab9155568165f5c453ccb85e70811aaed6f6da5fc1"
            "9a5ac40b389cd370d086206dec8aa6c43daea6690f20ad3d8d48b2d2ce9e38e4",
    "master_sk": "1837c1be8e2995ec11cda2b066151be2cfb48adf9e47b151d46adab3a21cdf67",
    "address0": "15E71CDmjirqPGsS9bzuvKXHPCwnwwn93T",
    "signature_hex": "99aa8352faab3767fb5347ddf06f9bde3a2080b62b99cd991baa3474"
                     "11992a2a62b2353860c9a25e11ea80725105895877b9ea9fe356bc1b"
                     "66b44df152a3dcb601",
}

PIN = 1234

TA_KIND_GATE = 237


class GateTa(TrustedApp):
    """Makes the accesses queued in `accesses`, each a (target, at, size,
    data) tuple: through `params.memref(target)`, or through
    `params.memory`'s window methods when target is None; a data of None
    reads. Each outcome goes to `outcomes`: the bytes read, None for a
    write, or "denied"."""

    accesses = []
    outcomes = []

    def invoke_command(self, session, cmd_id, params):
        mem = params.memory
        for target, at, size, data in GateTa.accesses:
            try:
                if target is None:
                    outcome = (mem.window_read(at, size) if data is None
                               else mem.window_write(at, data))
                else:
                    ref = params.memref(target)
                    outcome = (ref.read(at, size) if data is None
                               else ref.write(data, at))
            except AccessDeniedError:
                outcome = "denied"
            GateTa.outcomes.append(outcome)


register_ta_kind(TA_KIND_GATE, GateTa)


@pytest.fixture(scope="module")
def bench_report(tmp_path_factory):
    """One 100-repetition timing run shared by the latency guarantees."""
    return run_bench(repetitions=100, per_byte_ns=1000, per_op_ns=50000,
                     seed=42, storage_dir=str(tmp_path_factory.mktemp("bench")))


def open_ta(context, ta_kind, tag=0, payload=b""):
    ta_uuid, image = make_image(ta_kind, tag=tag, payload=payload)
    return context.open_session(ta_uuid, image)


def test_01_utilization_reproduces_synthesis_table():
    start = time.perf_counter()
    for n in (1, 2, 3, 4):
        counts, percent = utilization(n)
        assert counts.as_dict() == TABLE_COUNTS[n], f"counts for n={n}"
        assert percent == TABLE_PERCENT[n], f"percentages for n={n}"
    assert time.perf_counter() - start < 1.0


def test_02_device_ceiling_is_six_enclaves_bram_bound():
    start = time.perf_counter()
    ceiling, binding = max_enclaves(ZU3EG)
    assert (ceiling, binding) == (6, "bram")
    # Independent brute-force fit scan over 1..32 enclaves.
    fitting = [n for n in range(1, 33) if fits(n, ZU3EG)]
    assert fitting == list(range(1, 7))
    assert time.perf_counter() - start < 1.0


def test_03_two_tenants_interleave_cleanly(fabric):
    with Context(fabric) as context:
        counter = open_ta(context, TA_KIND_INCREMENT)
        echo = open_ta(context, TA_KIND_ECHO)
        assert counter.is_open and echo.is_open
        rng = random.Random(0x37E)
        for i in range(100):
            value = rng.getrandbits(32)
            result = counter.invoke_command(
                0, Operation(Value(Direction.INOUT, value)))
            assert result.success
            assert result.value(0)[0] == (value + 1) & 0xFFFFFFFF
            a, b = rng.getrandbits(32), rng.getrandbits(32)
            result = echo.invoke_command(0, Operation(
                Value(Direction.IN, a, b), Value(Direction.OUT)))
            assert result.success and result.value(1) == (a, b)
            assert counter.is_open and echo.is_open
        rows = fabric.slot_snapshot()
        assert sorted(row["sessions"] for row in rows) == [1, 1]
        echo.close()
        counter.close()


def test_04_cold_open_dwarfs_warm_open(fabric, bench_report):
    # Scripted: a cold open costs one loader copy, a concurrent second
    # session on the same TA costs none.
    ta_uuid, image = make_image(TA_KIND_INCREMENT)
    with Context(fabric) as context:
        assert fabric.load_count == 0
        first = context.open_session(ta_uuid, image)
        assert fabric.load_count == 1
        second = context.open_session(ta_uuid, image)
        assert fabric.load_count == 1
        second.close()
        first.close()
    # Timed: with the per-byte DMA cost model, the 64 KiB image copy makes
    # a cold open at least ten times a warm one on average.
    assert bench_report.repetitions == 100
    cold = bench_report.results["cold_open"].mean_ns
    warm = bench_report.results["warm_open"].mean_ns
    assert cold >= 10.0 * warm, f"cold/warm = {cold / warm:.2f}"


def test_05_builtin_tas_and_shm_cost(fabric, bench_report):
    rng = random.Random(0x05)
    with Context(fabric) as context:
        counter = open_ta(context, TA_KIND_INCREMENT)
        inputs = [rng.getrandbits(32) for _ in range(999)] + [2 ** 32 - 1]
        for value in inputs:
            result = counter.invoke_command(
                0, Operation(Value(Direction.INOUT, value)))
            assert result.value(0)[0] == (value + 1) & 0xFFFFFFFF
        counter.close()
        shm = open_ta(context, TA_KIND_SHMEM16)
        block = shm.allocate_shared_memory(16, Direction.OUT)
        result = shm.invoke_command(0, Operation(block))
        assert result.success and result.memref_length(0) == 16
        assert block.read() == bytes(range(16))
        shm.close()
    raw = bench_report.results["invoke_raw"].mean_ns
    with_shm = bench_report.results["invoke_shm"].mean_ns
    assert with_shm >= raw, f"shm/raw = {with_shm / raw:.2f}"


def test_06_last_close_scrubs_the_slot(fabric_factory):
    fabric = fabric_factory(enclave_count=1)
    sentinel = 0xA5
    with Context(fabric) as context:
        session = open_ta(context, TA_KIND_ECHO, payload=bytes([sentinel]) * 600)
        fabric.shm_write(0, 128, bytes([sentinel]) * 64)
        session.invoke_command(0, Operation(
            Value(Direction.IN, 0xA5A5A5A5, 0xA5A5A5A5), Value(Direction.OUT)))
        runtime = fabric.slot_runtime(0)
        assert sentinel in runtime.tcm.read(0, TCM_SIZE)
        assert sentinel in runtime.window.read(0, SHM_WINDOW_SIZE)
        assert 0xA5A5A5A5 in runtime.mailbox_words()
        session.close()
    fabric.wait_idle()
    runtime = fabric.slot_runtime(0)
    assert runtime.tcm.read(0, TCM_SIZE) == bytes(TCM_SIZE)
    assert runtime.window.read(0, SHM_WINDOW_SIZE) == bytes(SHM_WINDOW_SIZE)
    assert runtime.mailbox_words() == (0,) * MAILBOX_WORDS
    regs = runtime.snapshot()
    assert not regs["int"] and regs["sessions"] == 0
    assert regs["last_sid"] == 0 and regs["reply_serial"] == 0
    assert regs["ta_kind"] is None and not runtime.faulted
    # A fresh TA in the same slot sees nothing of its predecessor.
    probe_uuid, probe_image = make_image(TA_KIND_PROBE)
    assert bytes([sentinel]) not in probe_image
    with Context(fabric) as context:
        probe = context.open_session(probe_uuid, probe_image)
        result = probe.invoke_command(0, Operation(Value(Direction.OUT)))
        nonzero_beyond_image, sentinel_count = result.value(0)
        assert (nonzero_beyond_image, sentinel_count) == (0, 0)
        probe.close()


def test_07_grants_mailboxes_and_sealing_isolate(fabric):
    # (a) 10000 randomized accesses through the memrefs of requests with
    # random, overlapping MEMREF grants: an access inside its reference
    # lands, everything else is refused and mutates nothing. Each request's
    # `params.memory` refuses every window byte.
    rng = random.Random(0x07)
    span = 512
    with Context(fabric) as context:
        with open_ta(context, TA_KIND_GATE) as gate:
            slot = gate.slot_index
            shadow = bytearray(fabric.shm_read(slot, 0, SHM_WINDOW_SIZE))
            for _ in range(200):
                grants = []
                for _ in range(rng.randrange(1, 5)):
                    offset = rng.randrange(0, span)
                    grants.append(
                        (offset, rng.randrange(0, span - offset + 1)))
                GateTa.accesses, GateTa.outcomes = [], []
                expected = []
                for _ in range(50):
                    target = rng.randrange(len(grants))
                    base, length = grants[target]
                    at = rng.randrange(-2, length + 8)
                    size = rng.randrange(0, 64)
                    inside = at >= 0 and at + size <= length
                    data = None
                    if rng.getrandbits(1):
                        data = bytes(rng.getrandbits(8) for _ in range(size))
                        expected.append(None if inside else "denied")
                        if inside:
                            shadow[base + at:base + at + size] = data
                    else:
                        expected.append(
                            bytes(shadow[base + at:base + at + size])
                            if inside else "denied")
                    GateTa.accesses.append((target, at, size, data))
                offset = rng.randrange(0, SHM_WINDOW_SIZE)
                size = rng.randrange(1, SHM_WINDOW_SIZE - offset + 1)
                GateTa.accesses += [(None, offset, size, None),
                                    (None, offset, size, bytes(size))]
                expected += ["denied", "denied"]
                reply = fabric.comm_dispatch(slot, MailboxFrame.build(
                    OperationId.INVOKE, gate.session_id,
                    [(ParamKind.MEMREF, offset, length)
                     for offset, length in grants]))
                assert reply.code is ReturnCode.SUCCESS
                assert GateTa.outcomes == expected
                assert fabric.shm_read(slot, 0, SHM_WINDOW_SIZE) == shadow

    # (b) Traffic on one slot never touches the other slot's mailbox.
    with Context(fabric) as context:
        counter = open_ta(context, TA_KIND_INCREMENT)
        echo = open_ta(context, TA_KIND_ECHO)
        slots = {session.slot_index for session in (counter, echo)}
        assert slots == {0, 1}
        for i in range(20):
            other_before = fabric.slot_runtime(echo.slot_index).mailbox_words()
            counter.invoke_command(0, Operation(Value(Direction.INOUT, i)))
            assert fabric.slot_runtime(echo.slot_index).mailbox_words() \
                == other_before
            other_before = fabric.slot_runtime(
                counter.slot_index).mailbox_words()
            echo.invoke_command(0, Operation(
                Value(Direction.IN, i, i), Value(Direction.OUT)))
            assert fabric.slot_runtime(counter.slot_index).mailbox_words() \
                == other_before
        echo.close()
        counter.close()

    # (c) Objects sealed by TA A are invisible to and undecryptable by TA B,
    # and any single-bit ciphertext flip is detected.
    uuid_a, uuid_b = uuid_mod.UUID(int=0xAAAA), uuid_mod.UUID(int=0xBBBB)
    store = fabric.services.storage
    view_a = TaStorage(store, uuid_a)
    view_b = TaStorage(store, uuid_b)
    view_a.put(b"secret", b"alpha tenant data")
    assert not view_b.exists(b"secret")
    with pytest.raises(ItemNotFoundError):
        view_b.get(b"secret")
    blob = store._path(uuid_a, b"secret")
    stolen = store._path(uuid_b, b"secret")
    stolen.parent.mkdir(parents=True, exist_ok=True)
    stolen.write_bytes(blob.read_bytes())
    with pytest.raises(AccessDeniedError):
        view_b.get(b"secret")
    raw = bytearray(blob.read_bytes())
    for position in (0, len(raw) // 2, len(raw) - 1):
        flipped = bytearray(raw)
        flipped[position] ^= 0x01
        blob.write_bytes(bytes(flipped))
        with pytest.raises(TamperedObjectError):
            view_a.get(b"secret")
    blob.write_bytes(bytes(raw))
    assert view_a.get(b"secret") == b"alpha tenant data"


def test_08_wallet_six_command_flow(fabric):
    client = WalletClient(fabric)

    def destroy_count():
        fabric.wait_idle()
        return sum(
            sum("wallet: destroy" in line
                for line in fabric.slot_runtime(i).uart.lines())
            for i in range(fabric.config.enclave_count))

    # cmd 1: no wallet yet.
    assert client.check_exists() is False
    # cmd 2: generate emits a checksum-valid 12-word phrase.
    phrase = client.generate(PIN)
    assert len(phrase.split()) == 12 and validate_mnemonic(phrase)
    mnemonic_to_entropy(phrase)  # raises on a bad checksum
    # cmd 5: a signature over the demo transaction, DER-free compact form.
    signature = client.sign(PIN, 0, DEMO_RAW_TX)
    assert len(signature) == 130 and signature.endswith("01")
    r = int(signature[:64], 16)
    s = int(signature[64:128], 16)
    assert 1 <= r < ORDER_N and 1 <= s <= ORDER_HALF
    # cmd 6: a base58 P2PKH address.
    address = client.get_address(PIN, 0)
    assert address.startswith("1") and 26 <= len(address) <= 35
    # cmd 4 then cmd 1: delete brings the wallet back to empty.
    client.delete(PIN)
    assert client.check_exists() is False
    assert destroy_count() == 6

    # Restore from the all-zero-entropy phrase and check the chain against
    # independently computed values: master key, child keys, address.
    seed = mnemonic_to_seed(REFERENCE_MNEMONIC)
    assert seed.hex() == WALLET_VECTORS["seed"]
    master_sk, _ = master_from_seed(seed)
    assert master_sk.hex() == WALLET_VECTORS["master_sk"]
    client.restore(PIN, REFERENCE_MNEMONIC)
    assert client.get_address(PIN, 0) == WALLET_VECTORS["address0"]
    assert client.sign(PIN, 1, DEMO_RAW_TX) == WALLET_VECTORS["signature_hex"]
    assert destroy_count() == 9  # still exactly one destroy per command
    client.close()


def test_09_digest_hmac_and_ecdsa_vectors():
    assert digest("sha256", b"").hex() == SHA256_EMPTY
    assert digest("sha256", b"abc").hex() == SHA256_ABC
    assert digest("sha512", b"").hex() == SHA512_EMPTY
    assert digest("sha512", b"abc").hex() == SHA512_ABC
    for key, message, expected in HMAC_SHA512_CASES:
        assert hmac_digest("sha512", key, message).hex() == expected
    rng = random.Random(0x09)
    for i in range(100):
        sk = rng.randrange(1, ORDER_N).to_bytes(32, "big")
        msg_hash = bytes(rng.getrandbits(8) for _ in range(32))
        signature = ecdsa_sign(sk, msg_hash)
        assert ecdsa_sign(sk, msg_hash) == signature  # deterministic nonce
        public = derive_public_key(sk)
        assert ecdsa_verify(public, msg_hash, signature)
        tampered = bytearray(signature)
        tampered[rng.randrange(64)] ^= 1 << rng.randrange(8)
        if bytes(tampered) != signature:
            assert not ecdsa_verify(public, msg_hash, bytes(tampered))
        if i < 10:  # cross-check a sample against the pure-Python oracle
            assert signature == oracle_hd.sign_compact_low_s(sk, msg_hash)
            assert public == oracle_hd.compressed_pubkey(sk)


def test_10_frames_and_images_reject_garbage():
    rng = random.Random(0x10)
    kinds = (ParamKind.NONE, ParamKind.VALUE_IN, ParamKind.VALUE_OUT,
             ParamKind.VALUE_INOUT, ParamKind.MEMREF)
    for _ in range(10000):
        params = []
        for _ in range(4):
            kind = kinds[rng.randrange(len(kinds))]
            if kind is ParamKind.MEMREF:
                offset = rng.randrange(0, SHM_WINDOW_SIZE + 1)
                length = rng.randrange(0, SHM_WINDOW_SIZE - offset + 1)
                params.append((kind, offset, length))
            else:
                params.append((kind, rng.getrandbits(32), rng.getrandbits(32)))
        frame = MailboxFrame.build(
            OperationId(rng.randrange(1, 4)), rng.getrandbits(32), params,
            cmd_id=rng.getrandbits(32))
        words = encode_frame(frame)
        assert decode_frame(words) == frame
        assert words_to_bytes(encode_frame(decode_frame(words))) \
            == words_to_bytes(words)

    # One byte past the private-memory size must be refused outright.
    with pytest.raises(ImageSizeError):
        encode_image(TAImage(uuid_mod.UUID(int=1), 1,
                             b"\x00" * (MAX_IMAGE_SIZE - 32 + 1)))
    with pytest.raises(ImageSizeError):
        decode_image(bytes(MAX_IMAGE_SIZE + 1))
    good = encode_image(TAImage(uuid_mod.UUID(int=1), 1, b"payload" * 100))
    oversized = bytearray(good)
    oversized[28:32] = (MAX_IMAGE_SIZE + 1 - 32).to_bytes(4, "little")
    with pytest.raises((ImageSizeError, ImageFormatError)):
        decode_image(bytes(oversized))

    # Truncations and random corruption must fail cleanly, never crash.
    for cut in range(0, len(good), 7):
        with pytest.raises((ImageSizeError, ImageFormatError)):
            decode_image(good[:cut])
    for _ in range(2000):
        mutated = bytearray(good[:rng.randrange(0, len(good) + 1)])
        for _ in range(rng.randrange(1, 4)):
            if mutated:
                mutated[rng.randrange(len(mutated))] = rng.getrandbits(8)
        try:
            image = decode_image(bytes(mutated))
        except (ImageSizeError, ImageFormatError):
            continue
        assert image.size <= MAX_IMAGE_SIZE  # survivors are well-formed
    for cut in range(0, 40):
        with pytest.raises((ImageSizeError, ImageFormatError)):
            decode_image_prefix(bytes(good[:cut]) + bytes(2))
