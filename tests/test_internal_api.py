"""Trusted-side services: digests, signatures, randomness, sealed storage."""

import hashlib
import hmac
import random
import uuid as uuid_mod

import pytest

from oracle_hd import rfc6979_nonce, sign_compact_low_s
from teefab.internal_api.crypto import (
    ORDER_HALF,
    ORDER_N,
    InvalidKey,
    InvalidSignature,
    UnsupportedAlgorithm,
    derive_public_key,
    digest,
    ecdsa_sign,
    ecdsa_verify,
    hmac_digest,
)
from teefab.internal_api.rng import Csprng
from teefab.internal_api.storage import (
    KDF_LABEL,
    DeviceKey,
    SealedStorage,
    TamperedObjectError,
    TaStorage,
    TeeServices,
)
from teefab.protocol import AccessDeniedError, ItemNotFoundError

UUID_A = uuid_mod.UUID(int=0xA)
UUID_B = uuid_mod.UUID(int=0xB)

# Published digest vectors (FIPS 180 examples).
SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
SHA256_ABC = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
SHA512_EMPTY = ("cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
                "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e")
SHA512_ABC = ("ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
              "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f")


def test_digest_vectors():
    assert digest("sha256", b"").hex() == SHA256_EMPTY
    assert digest("sha256", b"abc").hex() == SHA256_ABC
    assert digest("sha512", b"").hex() == SHA512_EMPTY
    assert digest("sha512", b"abc").hex() == SHA512_ABC


def test_algorithm_whitelist():
    with pytest.raises(UnsupportedAlgorithm):
        digest("md5", b"x")
    with pytest.raises(UnsupportedAlgorithm):
        hmac_digest("sha1", b"k", b"x")


# RFC 4231 test cases 1-4 for HMAC-SHA-512.
RFC4231 = [
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


def test_hmac_sha512_rfc4231_cases():
    for key, message, expected in RFC4231:
        assert hmac_digest("sha512", key, message).hex() == expected


def test_rfc6979_nonce_known_value():
    # sk = 1, message "Satoshi Nakamoto" (widely republished reference value)
    msg_hash = digest("sha256", b"Satoshi Nakamoto")
    nonce = next(rfc6979_nonce(1, msg_hash))
    assert nonce == 0x8F8A276C19F4149656B280621E358CCE24F5F52542772691EE69063B74F15D15
    assert ecdsa_sign(1, msg_hash).hex() == (
        "934b1ea10a4b3c1757e2b0c017d0b6143ce3c9a7e6a4a49860d7a6ab210ee3d8"
        "2442ce9d2b916064108014783e923ec36b49743e2ffa1c4496f01a512aafd9e5")
    assert derive_public_key(1).hex() == (
        "0279be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798")
    top = (ORDER_N - 1).to_bytes(32, "big")
    assert ecdsa_sign(top, msg_hash) == sign_compact_low_s(top, msg_hash)


def test_ecdsa_sign_verify_and_determinism():
    rng = random.Random(0xEC)
    for _ in range(25):
        sk = rng.randrange(1, ORDER_N).to_bytes(32, "big")
        msg = bytes(rng.getrandbits(8) for _ in range(32))
        sig1 = ecdsa_sign(sk, msg)
        sig2 = ecdsa_sign(sk, msg)
        assert sig1 == sig2 and len(sig1) == 64
        s_value = int.from_bytes(sig1[32:], "big")
        assert 1 <= s_value <= ORDER_HALF
        pub = derive_public_key(sk)
        assert ecdsa_verify(pub, msg, sig1)
        assert not ecdsa_verify(pub, bytes(32), sig1) or msg == bytes(32)
        bad = bytearray(sig1)
        bad[8] ^= 1
        assert not ecdsa_verify(pub, msg, bytes(bad))


def test_ecdsa_matches_openssl_oracle():
    import oracle_hd
    rng = random.Random(0x0551)
    for _ in range(10):
        sk = rng.randrange(1, ORDER_N).to_bytes(32, "big")
        msg = bytes(rng.getrandbits(8) for _ in range(32))
        assert ecdsa_sign(sk, msg) == oracle_hd.sign_compact_low_s(sk, msg)
        assert derive_public_key(sk) == oracle_hd.compressed_pubkey(sk)


def test_invalid_keys_rejected():
    with pytest.raises(InvalidKey):
        ecdsa_sign(bytes(32), bytes(32))
    with pytest.raises(InvalidKey):
        ecdsa_sign(ORDER_N.to_bytes(32, "big"), bytes(32))


def test_ecdsa_verify_checks_its_inputs():
    field_p = 2**256 - 2**32 - 977
    sk = (0x1234).to_bytes(32, "big")
    msg = digest("sha256", b"verify boundary")
    sig = ecdsa_sign(sk, msg)
    pub = derive_public_key(sk)
    assert ecdsa_verify(pub, msg, sig)
    # x = 5 has no curve point: 5^3 + 7 is not a square mod p.
    assert pow(5 ** 3 + 7, (field_p - 1) // 2, field_p) == field_p - 1
    for bad_key in (pub[1:], b"\x04" + pub[1:], b"\x04" + bytes(64),
                    b"\x02" + field_p.to_bytes(32, "big"),
                    b"\x02" + (5).to_bytes(32, "big")):
        with pytest.raises(InvalidKey):
            ecdsa_verify(bad_key, msg, sig)
    assert not ecdsa_verify(pub, msg, bytes(32) + sig[32:])
    assert not ecdsa_verify(pub, msg, sig[:32] + ORDER_N.to_bytes(32, "big"))
    with pytest.raises(InvalidSignature):
        ecdsa_verify(pub, msg[:31], sig)
    with pytest.raises(InvalidSignature):
        ecdsa_verify(pub, msg, sig[:63])


def test_csprng_determinism_and_reseed():
    a, b = Csprng(seed=7), Csprng(seed=7)
    assert a.random_bytes(64) == b.random_bytes(64)
    assert a.random_bytes(16) == b.random_bytes(16)
    c = Csprng(seed=8)
    assert Csprng(seed=7).random_bytes(32) != c.random_bytes(32)
    d = Csprng(seed=7)
    d.reseed(b"fresh entropy")
    assert d.random_bytes(32) != Csprng(seed=7).random_bytes(32)
    assert len(Csprng().random_bytes(33)) == 33


def test_sealed_storage_round_trip(tmp_path):
    store = SealedStorage(tmp_path, DeviceKey.from_seed("unit"))
    store.put(UUID_A, b"obj", b"hello sealed world")
    assert store.get(UUID_A, b"obj") == b"hello sealed world"
    assert store.exists(UUID_A, b"obj")
    store.put(UUID_A, b"obj", b"replaced")
    assert store.get(UUID_A, b"obj") == b"replaced"
    store.delete(UUID_A, b"obj")
    assert not store.exists(UUID_A, b"obj")
    with pytest.raises(ItemNotFoundError):
        store.get(UUID_A, b"obj")
    with pytest.raises(ItemNotFoundError):
        store.delete(UUID_A, b"obj")


def test_sealed_storage_is_per_ta(tmp_path):
    store = SealedStorage(tmp_path, DeviceKey.from_seed("unit"))
    store.put(UUID_A, b"secret", b"belongs to A")
    assert not store.exists(UUID_B, b"secret")
    with pytest.raises(ItemNotFoundError):
        store.get(UUID_B, b"secret")


def test_sealed_storage_blob_theft_fails(tmp_path):
    """A's blob copied into B's directory does not decrypt for B."""
    store = SealedStorage(tmp_path, DeviceKey.from_seed("unit"))
    store.put(UUID_A, b"secret", b"belongs to A")
    blob = next(p for p in tmp_path.rglob("*") if p.is_file())
    stolen = tmp_path / UUID_B.hex / blob.name
    stolen.parent.mkdir(parents=True, exist_ok=True)
    stolen.write_bytes(blob.read_bytes())
    with pytest.raises(AccessDeniedError):
        store.get(UUID_B, b"secret")


def test_sealed_storage_bit_flip_detected(tmp_path):
    store = SealedStorage(tmp_path, DeviceKey.from_seed("unit"))
    store.put(UUID_A, b"secret", b"belongs to A")
    blob = next(p for p in tmp_path.rglob("*") if p.is_file())
    raw = bytearray(blob.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    blob.write_bytes(bytes(raw))
    with pytest.raises(TamperedObjectError):
        store.get(UUID_A, b"secret")


def test_different_device_keys_cannot_read(tmp_path):
    SealedStorage(tmp_path, DeviceKey.from_seed("one")).put(
        UUID_A, b"x", b"payload")
    other = SealedStorage(tmp_path, DeviceKey.from_seed("two"))
    with pytest.raises(TamperedObjectError):
        other.get(UUID_A, b"x")


def test_sealing_key_is_frozen_hkdf():
    """The per-TA key must not move, or sealed blobs already on disk become
    unreadable: a frozen vector plus RFC 5869 extract-and-expand written
    out with two HMACs."""
    for seed, ta_uuid in (("sealing-vector", UUID_A), ("unit", UUID_B),
                          (b"", uuid_mod.UUID(int=(1 << 128) - 1))):
        device = DeviceKey.from_seed(seed)
        key = hashlib.sha256(
            seed.encode() if isinstance(seed, str) else seed).digest()
        prk = hmac.new(KDF_LABEL, key, hashlib.sha256).digest()
        okm = hmac.new(prk, ta_uuid.bytes + b"\x01", hashlib.sha256).digest()
        assert device.sealing_key(ta_uuid) == okm
    assert KDF_LABEL == b"tee-sealed-storage-v1"
    assert DeviceKey.from_seed("sealing-vector").sealing_key(UUID_A).hex() \
        == "bedbd0fb9086fdc41b1839a0cbc5490a440f75a431cfa1217beba1008485c1ca"


def test_tee_services_binding(tmp_path):
    services = TeeServices(Csprng(seed=1),
                           SealedStorage(tmp_path, DeviceKey.from_seed("s")))
    rng, storage = services.for_ta(UUID_A)
    storage.put(b"k", b"v")
    assert storage.get(b"k") == b"v"
    assert len(rng.random_bytes(8)) == 8
    with pytest.raises(TypeError):
        services.for_ta("not-a-uuid")


def test_ta_storage_view_is_scoped(tmp_path):
    store = SealedStorage(tmp_path, DeviceKey.from_seed("s"))
    view_a = TaStorage(store, UUID_A)
    view_b = TaStorage(store, UUID_B)
    view_a.put(b"shared-name", b"A data")
    assert not view_b.exists(b"shared-name")
    view_b.put(b"shared-name", b"B data")
    assert view_a.get(b"shared-name") == b"A data"
    assert view_b.get(b"shared-name") == b"B data"
