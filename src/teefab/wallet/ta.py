"""Bitcoin wallet trusted application: keys live and die inside the enclave."""

from __future__ import annotations

import hashlib
import struct
from hmac import compare_digest

from ..enclave import TrustedApp
# derive_public_key is not called here; perfbench wraps it by name with
# ecdsa_sign, derive_hardened, master_from_seed and mnemonic_to_seed.
from ..internal_api.crypto import (  # noqa: F401
    PKCS8_BYTES,
    derive_public_key,
    ecdsa_sign,
    export_private_key,
    load_private_key,
)
from ..internal_api.storage import TamperedObjectError
from ..protocol import (
    AccessDeniedError,
    BadParametersError,
    ItemNotFoundError,
    ParamKind,
    ShortBufferError,
    TeeError,
)
from . import (
    CMD_CHECK_EXISTS,
    CMD_DELETE,
    CMD_GENERATE,
    CMD_GET_ADDRESS,
    CMD_RESTORE,
    CMD_SIGN,
    HARDENED_BIT,
    PIN_MAX,
)
from .hd import (
    derive_hardened,
    master_from_seed,
    p2pkh_address,
    sha256d,
)
from .mnemonic import (
    MnemonicError,
    entropy_to_mnemonic,
    mnemonic_to_entropy,
    mnemonic_to_seed,
    normalize_mnemonic,
)

RECORD_ID = b"master"
_ENTROPY_BYTES = 16
_SALT_BYTES = 16
_MASTER_BYTES = 32 + 32 + _SALT_BYTES + 32
_SIGHASH_ALL = b"\x01"

# After the master come the hardened children already derived from it,
# each as (index, compressed point, PKCS8), in the same sealed record.
CHILD_TABLE_CAP = 64
_CHILD_ENTRY = struct.Struct(f">I33s{PKCS8_BYTES}s")
# Earlier versions sealed the children apart under this id. Such an object
# is never read; it goes when its master is deleted or replaced.
CHILDREN_ID = b"children"


class RecordUnreadableError(TeeError):
    """The sealed record fails to unseal or parse; restore replaces it."""


def _pin_digest(pin, salt):
    return hashlib.sha256(b"%04d" % pin + salt).digest()


def _derive_child(record, index):
    child_sk, _child_cc = derive_hardened(record[0], record[1], index)
    return export_private_key(child_sk)


def _parse_record(blob):
    """(master_sk, chain_code, salt, pin_digest, {index: (point, pkcs8)});
    ValueError when the blob is not a record as `_store_record` seals
    one, its children in ascending index order below the cap."""
    body = blob[_MASTER_BYTES:]
    if len(blob) < _MASTER_BYTES or len(body) % _CHILD_ENTRY.size:
        raise ValueError("malformed")
    children = {index: (point, pkcs8)
                for index, point, pkcs8 in _CHILD_ENTRY.iter_unpack(body)}
    indices = list(children)
    if (len(indices) * _CHILD_ENTRY.size != len(body)
            or indices != sorted(indices)
            or any(index >= CHILD_TABLE_CAP for index in indices)):
        raise ValueError("malformed")
    return blob[:32], blob[32:64], blob[64:80], blob[80:112], children


class WalletTa(TrustedApp):
    """Single-session wallet: one sealed record, its master and children."""

    def __init__(self, env):
        super().__init__(env)
        self._session_open = False

    # --- session policy ------------------------------------------------------

    def open_session(self, params):
        if self._session_open:
            raise AccessDeniedError("wallet is busy with another session")
        self._session_open = True
        return super().open_session(params)

    def close_session(self, session):
        self._session_open = False

    def destroy(self):
        self.env.uart.log("wallet: destroy")

    # --- sealed record -------------------------------------------------------

    def _load_record(self):
        """(master_sk, chain_code, salt, pin_digest, children).

        ItemNotFoundError when absent; RecordUnreadableError when it fails
        to unseal or parse."""
        try:
            return _parse_record(self.env.storage.get(RECORD_ID))
        except (TamperedObjectError, ValueError) as exc:
            self.env.uart.log(f"wallet: record unreadable: {exc}")
            raise RecordUnreadableError("wallet record unreadable") from None

    def _store_record(self, master_sk, chain_code, pin, children):
        """Seal the master under a fresh salt for `pin`, then its children."""
        salt = self.env.rng.random_bytes(_SALT_BYTES)
        self.env.storage.put(RECORD_ID, b"".join((
            master_sk, chain_code, salt, _pin_digest(pin, salt),
            *(_CHILD_ENTRY.pack(index, *children[index])
              for index in sorted(children)))))

    def _drop_children(self):
        """Remove a child table an earlier version sealed apart."""
        try:
            self.env.storage.delete(CHILDREN_ID)
        except ItemNotFoundError:
            pass

    def _require_pin(self, record, pin):
        _sk, _cc, salt, stored, _children = record
        if not compare_digest(_pin_digest(pin, salt), stored):
            raise AccessDeniedError("wrong pin")

    # --- parameter plumbing --------------------------------------------------

    @staticmethod
    def _credentials(params):
        """p0 carries (pin, child index) on every command."""
        if params.kind(0) is not ParamKind.VALUE_IN:
            raise BadParametersError("parameter 0 must be an input value")
        pin, index = params.value(0)
        if pin > PIN_MAX:
            raise BadParametersError(f"pin must be 0..{PIN_MAX}")
        if index >= HARDENED_BIT:
            raise BadParametersError(
                f"child index must be below {HARDENED_BIT:#x}")
        return pin, index

    @staticmethod
    def _memref_in(params, index):
        if params.kind(index) is not ParamKind.MEMREF:
            raise BadParametersError(f"parameter {index} must be a memref")
        return params.memref(index).read()

    @staticmethod
    def _memref_out(params, index, data):
        """Report the full length, then write what fits or fail short."""
        if params.kind(index) is not ParamKind.MEMREF:
            raise BadParametersError(f"parameter {index} must be a memref")
        block = params.memref(index)
        params.set_memref_length(index, len(data))
        if block.length < len(data):
            raise ShortBufferError(
                f"need {len(data)} bytes, caller granted {block.length}")
        block.write(data)

    # --- children ------------------------------------------------------------

    def _child(self, record, pin, index):
        """(compressed point, PKCS8 key) of hardened child `index`.

        Below CHILD_TABLE_CAP a child is derived once per master and then
        read from the record; at or above it, derived on every call."""
        self._require_pin(record, pin)
        if index >= CHILD_TABLE_CAP:
            return _derive_child(record, index)
        children = record[4]
        if index not in children:
            children[index] = _derive_child(record, index)
            self._store_record(record[0], record[1], pin, children)
        return children[index]

    # --- commands ------------------------------------------------------------

    def invoke_command(self, session, cmd_id, params):
        handler = {
            CMD_CHECK_EXISTS: self._cmd_check_exists,
            CMD_GENERATE: self._cmd_generate,
            CMD_RESTORE: self._cmd_restore,
            CMD_DELETE: self._cmd_delete,
            CMD_SIGN: self._cmd_sign,
            CMD_GET_ADDRESS: self._cmd_get_address,
        }.get(cmd_id)
        if handler is None:
            raise BadParametersError(f"unknown wallet command {cmd_id}")
        handler(params)

    def _cmd_check_exists(self, params):
        self._credentials(params)
        if params.kind(1) is not ParamKind.VALUE_OUT:
            raise BadParametersError("parameter 1 must be an output value")
        params.set_value(1, a=int(self.env.storage.exists(RECORD_ID)))

    def _cmd_generate(self, params):
        pin, _index = self._credentials(params)
        if self.env.storage.exists(RECORD_ID):
            raise BadParametersError("wallet already exists")
        entropy = self.env.rng.random_bytes(_ENTROPY_BYTES)
        phrase = entropy_to_mnemonic(entropy)
        master_sk, chain_code = master_from_seed(mnemonic_to_seed(phrase))
        self._store_record(master_sk, chain_code, pin, {})
        self._memref_out(params, 1, phrase.encode())
        self.env.uart.log("wallet: generated new master record")

    def _cmd_restore(self, params):
        pin, _index = self._credentials(params)
        try:
            record = self._load_record()
        except (ItemNotFoundError, RecordUnreadableError):
            # An unreadable record is replaced as a missing one is: a host
            # that can corrupt it can delete it as well.
            record = None
        if record is not None:
            self._require_pin(record, pin)
        phrase = normalize_mnemonic(self._memref_in(params, 1))
        try:
            mnemonic_to_entropy(phrase)
        except MnemonicError as exc:
            raise BadParametersError(f"invalid mnemonic: {exc}") from exc
        master_sk, chain_code = master_from_seed(mnemonic_to_seed(phrase))
        same = record is not None and compare_digest(
            record[0] + record[1], master_sk + chain_code)
        if not same:
            self._drop_children()
        self._store_record(master_sk, chain_code, pin, record[4] if same else {})
        self.env.uart.log("wallet: restored master record from phrase")

    def _cmd_delete(self, params):
        pin, _index = self._credentials(params)
        record = self._load_record()
        self._require_pin(record, pin)
        self._drop_children()
        self.env.storage.delete(RECORD_ID)
        self.env.uart.log("wallet: deleted master record")

    def _cmd_sign(self, params):
        pin, index = self._credentials(params)
        record = self._load_record()
        raw_tx = self._memref_in(params, 1)
        if not raw_tx:
            raise BadParametersError("empty transaction")
        _point, pkcs8 = self._child(record, pin, index)
        signature = ecdsa_sign(load_private_key(pkcs8), sha256d(raw_tx))
        self._memref_out(params, 2, (signature + _SIGHASH_ALL).hex().encode())

    def _cmd_get_address(self, params):
        pin, index = self._credentials(params)
        record = self._load_record()
        point, _pkcs8 = self._child(record, pin, index)
        address = p2pkh_address(point)
        self._memref_out(params, 1, address.encode())
