"""Independent wallet oracle for checking replies after the timed phase.

Nothing here imports teefab. Key derivation uses hashlib/hmac, every
elliptic-curve step (public keys, ECDSA verification) runs in the
OpenSSL-backed `cryptography` package, and addresses use hashlib's
RIPEMD-160, so a defect in teefab's own curve, HD or hash code cannot
hide behind a shared implementation.
"""

import hashlib
import hmac

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.utils import (
    Prehashed,
    encode_dss_signature,
)
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

SECP256K1_ORDER = (
    0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141)
_HARDENED = 0x80000000
_BASE58 = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
_SIGHASH_ALL = 0x01


def sha256d(data):
    return hashlib.sha256(hashlib.sha256(data).digest()).digest()


def _base58check(payload):
    data = payload + sha256d(payload)[:4]
    number = int.from_bytes(data, "big")
    out = ""
    while number:
        number, rem = divmod(number, 58)
        out = _BASE58[rem] + out
    pad = len(data) - len(data.lstrip(b"\x00"))
    return "1" * pad + out


class WalletOracle:
    """Expected keys and addresses for the hardened children of a phrase."""

    def __init__(self, mnemonic):
        seed = hashlib.pbkdf2_hmac("sha512", mnemonic.encode(),
                                   b"mnemonic", 2048, 64)
        digest = hmac.new(b"Bitcoin seed", seed, hashlib.sha512).digest()
        self._master_sk, self._master_cc = digest[:32], digest[32:]
        self._public = {}

    def public_key(self, index):
        """The cryptography public key of hardened child `index`."""
        if index not in self._public:
            data = (b"\x00" + self._master_sk
                    + (_HARDENED + index).to_bytes(4, "big"))
            digest = hmac.new(self._master_cc, data, hashlib.sha512).digest()
            scalar = (int.from_bytes(digest[:32], "big")
                      + int.from_bytes(self._master_sk, "big")) \
                % SECP256K1_ORDER
            self._public[index] = ec.derive_private_key(
                scalar, ec.SECP256K1()).public_key()
        return self._public[index]

    def address(self, index):
        """P2PKH address of the compressed public key of child `index`."""
        point = self.public_key(index).public_bytes(
            Encoding.X962, PublicFormat.CompressedPoint)
        h160 = hashlib.new("ripemd160",
                           hashlib.sha256(point).digest()).digest()
        return _base58check(b"\x00" + h160)

    def signature_ok(self, index, raw_tx, signature_hex):
        """True when r||s||sighash verifies over sha256d(raw_tx), low-s."""
        try:
            blob = bytes.fromhex(signature_hex)
        except ValueError:
            return False
        if len(blob) != 65 or blob[64] != _SIGHASH_ALL:
            return False
        r = int.from_bytes(blob[:32], "big")
        s = int.from_bytes(blob[32:64], "big")
        if not (0 < r < SECP256K1_ORDER and 0 < s <= SECP256K1_ORDER // 2):
            return False
        try:
            self.public_key(index).verify(
                encode_dss_signature(r, s), sha256d(raw_tx),
                ec.ECDSA(Prehashed(hashes.SHA256())))
        except InvalidSignature:
            return False
        return True
