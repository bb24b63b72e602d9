"""Independent reference implementation for wallet-path expected values.

Everything here is deliberately written against primitives the package under
test does not share: hashlib/hmac for the digest chain, and a pure-Python
secp256k1 (affine point arithmetic, RFC 6979 nonces, low-s signing) for all
elliptic-curve work, where the package calls OpenSSL through `cryptography`.
This module imports nothing from `cryptography`.  Tests freeze the values it
computes; the package must reproduce them through its own code paths.

Run as a script to print the frozen-vector block:

    python tests/oracle_hd.py
"""

import hashlib
import hmac

SECP256K1_ORDER = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
HARDENED = 0x80000000

BASE58_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"


def mnemonic_to_seed(mnemonic, passphrase=""):
    return hashlib.pbkdf2_hmac(
        "sha512",
        mnemonic.encode(),
        b"mnemonic" + passphrase.encode(),
        2048,
        64,
    )


def master_from_seed(seed):
    digest = hmac.new(b"Bitcoin seed", seed, hashlib.sha512).digest()
    return digest[:32], digest[32:]


def derive_hardened(parent_sk, parent_cc, index):
    data = b"\x00" + parent_sk + (HARDENED + index).to_bytes(4, "big")
    digest = hmac.new(parent_cc, data, hashlib.sha512).digest()
    child = (int.from_bytes(digest[:32], "big")
             + int.from_bytes(parent_sk, "big")) % SECP256K1_ORDER
    return child.to_bytes(32, "big"), digest[32:]


# --- secp256k1, textbook affine arithmetic (variable time; tests only) -----

SECP256K1_P = 2**256 - 2**32 - 977
SECP256K1_G = (
    0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
    0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8,
)


def _point_add(a, b):
    """a + b on y^2 = x^3 + 7; None is the point at infinity."""
    if a is None:
        return b
    if b is None:
        return a
    (x1, y1), (x2, y2) = a, b
    if x1 == x2 and (y1 + y2) % SECP256K1_P == 0:
        return None
    if a == b:
        slope = 3 * x1 * x1 * pow(2 * y1, -1, SECP256K1_P)
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, SECP256K1_P)
    x3 = (slope * slope - x1 - x2) % SECP256K1_P
    return x3, (slope * (x1 - x3) - y1) % SECP256K1_P


def point_mul(scalar):
    """scalar * G by double-and-add."""
    result, point = None, SECP256K1_G
    while scalar:
        if scalar & 1:
            result = _point_add(result, point)
        point = _point_add(point, point)
        scalar >>= 1
    return result


def compressed_pubkey(sk):
    """Compressed SEC1 point for sk."""
    x, y = point_mul(int.from_bytes(sk, "big"))
    return bytes([2 + (y & 1)]) + x.to_bytes(32, "big")


def rfc6979_nonce(private_scalar, msg_hash):
    """Yield deterministic nonces per RFC 6979 (HMAC-SHA256, qlen = 256)."""
    x_octets = private_scalar.to_bytes(32, "big")
    h_octets = (int.from_bytes(msg_hash, "big")
                % SECP256K1_ORDER).to_bytes(32, "big")
    v = b"\x01" * 32
    k = b"\x00" * 32
    k = hmac.new(k, v + b"\x00" + x_octets + h_octets, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    k = hmac.new(k, v + b"\x01" + x_octets + h_octets, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    while True:
        v = hmac.new(k, v, hashlib.sha256).digest()
        nonce = int.from_bytes(v, "big")
        if 1 <= nonce < SECP256K1_ORDER:
            yield nonce
        k = hmac.new(k, v + b"\x00", hashlib.sha256).digest()
        v = hmac.new(k, v, hashlib.sha256).digest()


# --- RIPEMD-160, needed only because hashlib no longer ships it ------------

_RMD_R1 = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
           7, 4, 13, 1, 10, 6, 15, 3, 12, 0, 9, 5, 2, 14, 11, 8,
           3, 10, 14, 4, 9, 15, 8, 1, 2, 7, 0, 6, 13, 11, 5, 12,
           1, 9, 11, 10, 0, 8, 12, 4, 13, 3, 7, 15, 14, 5, 6, 2,
           4, 0, 5, 9, 7, 12, 2, 10, 14, 1, 3, 8, 11, 6, 15, 13]
_RMD_R2 = [5, 14, 7, 0, 9, 2, 11, 4, 13, 6, 15, 8, 1, 10, 3, 12,
           6, 11, 3, 7, 0, 13, 5, 10, 14, 15, 8, 12, 4, 9, 1, 2,
           15, 5, 1, 3, 7, 14, 6, 9, 11, 8, 12, 2, 10, 0, 4, 13,
           8, 6, 4, 1, 3, 11, 15, 0, 5, 12, 2, 13, 9, 7, 10, 14,
           12, 15, 10, 4, 1, 5, 8, 7, 6, 2, 13, 14, 0, 3, 9, 11]
_RMD_S1 = [11, 14, 15, 12, 5, 8, 7, 9, 11, 13, 14, 15, 6, 7, 9, 8,
           7, 6, 8, 13, 11, 9, 7, 15, 7, 12, 15, 9, 11, 7, 13, 12,
           11, 13, 6, 7, 14, 9, 13, 15, 14, 8, 13, 6, 5, 12, 7, 5,
           11, 12, 14, 15, 14, 15, 9, 8, 9, 14, 5, 6, 8, 6, 5, 12,
           9, 15, 5, 11, 6, 8, 13, 12, 5, 12, 13, 14, 11, 8, 5, 6]
_RMD_S2 = [8, 9, 9, 11, 13, 15, 15, 5, 7, 7, 8, 11, 14, 14, 12, 6,
           9, 13, 15, 7, 12, 8, 9, 11, 7, 7, 12, 7, 6, 15, 13, 11,
           9, 7, 15, 11, 8, 6, 6, 14, 12, 13, 5, 14, 13, 13, 7, 5,
           15, 5, 8, 11, 14, 14, 6, 14, 6, 9, 12, 9, 12, 5, 15, 8,
           8, 5, 12, 9, 12, 5, 14, 6, 8, 13, 6, 5, 15, 13, 11, 11]
_RMD_K1 = [0x00000000, 0x5A827999, 0x6ED9EBA1, 0x8F1BBCDC, 0xA953FD4E]
_RMD_K2 = [0x50A28BE6, 0x5C4DD124, 0x6D703EF3, 0x7A6D76E9, 0x00000000]


def _rmd_f(j, x, y, z):
    if j < 16:
        return x ^ y ^ z
    if j < 32:
        return (x & y) | (~x & z)
    if j < 48:
        return (x | ~y) ^ z
    if j < 64:
        return (x & z) | (y & ~z)
    return x ^ (y | ~z)


def _rol(x, n):
    x &= 0xFFFFFFFF
    return ((x << n) | (x >> (32 - n))) & 0xFFFFFFFF


def ripemd160(message):
    h = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0]
    padded = message + b"\x80"
    padded += b"\x00" * ((56 - len(padded) % 64) % 64)
    padded += (len(message) * 8).to_bytes(8, "little")
    for off in range(0, len(padded), 64):
        block = padded[off:off + 64]
        x = [int.from_bytes(block[i:i + 4], "little") for i in range(0, 64, 4)]
        a1, b1, c1, d1, e1 = h
        a2, b2, c2, d2, e2 = h
        for j in range(80):
            t = _rol(a1 + _rmd_f(j, b1, c1, d1) + x[_RMD_R1[j]]
                     + _RMD_K1[j // 16], _RMD_S1[j]) + e1
            a1, e1, d1, c1, b1 = e1, d1, _rol(c1, 10), b1, t & 0xFFFFFFFF
            t = _rol(a2 + _rmd_f(79 - j, b2, c2, d2) + x[_RMD_R2[j]]
                     + _RMD_K2[j // 16], _RMD_S2[j]) + e2
            a2, e2, d2, c2, b2 = e2, d2, _rol(c2, 10), b2, t & 0xFFFFFFFF
        h = [(h[1] + c1 + d2) & 0xFFFFFFFF,
             (h[2] + d1 + e2) & 0xFFFFFFFF,
             (h[3] + e1 + a2) & 0xFFFFFFFF,
             (h[4] + a1 + b2) & 0xFFFFFFFF,
             (h[0] + b1 + c2) & 0xFFFFFFFF]
    return b"".join(v.to_bytes(4, "little") for v in h)


def base58check(payload):
    checksum = hashlib.sha256(hashlib.sha256(payload).digest()).digest()[:4]
    number = int.from_bytes(payload + checksum, "big")
    out = ""
    while number:
        number, rem = divmod(number, 58)
        out = BASE58_ALPHABET[rem] + out
    for byte in payload:
        if byte:
            break
        out = "1" + out
    return out


def p2pkh_address(pubkey):
    return base58check(b"\x00" + ripemd160(hashlib.sha256(pubkey).digest()))


def sha256d(data):
    return hashlib.sha256(hashlib.sha256(data).digest()).digest()


def sign_compact_low_s(sk, digest32):
    """Deterministic ECDSA over the prehashed digest, low-s, r||s bytes."""
    secret = int.from_bytes(sk, "big")
    z = int.from_bytes(digest32, "big")
    for nonce in rfc6979_nonce(secret, digest32):
        r = point_mul(nonce)[0] % SECP256K1_ORDER
        s = pow(nonce, -1, SECP256K1_ORDER) * (z + r * secret) % SECP256K1_ORDER
        if r and s:
            break
    if s > SECP256K1_ORDER // 2:
        s = SECP256K1_ORDER - s
    return r.to_bytes(32, "big") + s.to_bytes(32, "big")


REFERENCE_MNEMONIC = ("abandon abandon abandon abandon abandon abandon "
                      "abandon abandon abandon abandon abandon about")

DEMO_RAW_TX = bytes.fromhex(
    "0100000001aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
    "aaaaaaaaaaaa0000000000ffffffff0100e1f505000000001976a914bbbbbb"
    "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb88ac00000000"
)


def wallet_vectors():
    seed = mnemonic_to_seed(REFERENCE_MNEMONIC)
    master_sk, master_cc = master_from_seed(seed)
    child0_sk, child0_cc = derive_hardened(master_sk, master_cc, 0)
    child1_sk, child1_cc = derive_hardened(master_sk, master_cc, 1)
    digest = sha256d(DEMO_RAW_TX)
    signature = sign_compact_low_s(child1_sk, digest)
    return {
        "seed": seed.hex(),
        "master_sk": master_sk.hex(),
        "master_cc": master_cc.hex(),
        "child0_sk": child0_sk.hex(),
        "child0_cc": child0_cc.hex(),
        "child0_pub": compressed_pubkey(child0_sk).hex(),
        "child1_sk": child1_sk.hex(),
        "child1_pub": compressed_pubkey(child1_sk).hex(),
        "address0": p2pkh_address(compressed_pubkey(child0_sk)),
        "tx_digest": digest.hex(),
        "signature_hex": (signature + b"\x01").hex(),
    }


if __name__ == "__main__":
    for key, value in wallet_vectors().items():
        print(f'    "{key}": "{value}",')
