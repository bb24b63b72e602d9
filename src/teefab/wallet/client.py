"""REE-side wallet client and the `wallet` command-line entry point."""

from __future__ import annotations

import argparse
import os
import sys
import uuid as uuid_mod

from ..client_api import Context, Direction, Operation, Value
from ..config import SimConfig
from ..fabric import Fabric
from ..protocol import SHM_WINDOW_SIZE, ReturnCode, TAImage, TeeError, encode_image
from . import (
    CMD_CHECK_EXISTS,
    CMD_DELETE,
    CMD_GENERATE,
    CMD_GET_ADDRESS,
    CMD_RESTORE,
    CMD_SIGN,
    HARDENED_BIT,
    PIN_MAX,
    TA_KIND_WALLET,
)

WALLET_UUID = uuid_mod.UUID("9f1c6e04-3d2a-4b8e-9a57-0c11b2a4f7d3")

# One-input one-output placeholder transaction for demo signings.
DEMO_RAW_TX = bytes.fromhex(
    "0100000001aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
    "aaaaaaaaaaaa0000000000ffffffff0100e1f505000000001976a914bbbbbb"
    "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb88ac00000000")

_MNEMONIC_BUFFER = 160
_ADDRESS_BUFFER = 40
_SIGNATURE_BUFFER = 130


class WalletError(Exception):
    """A wallet command failed; the message is user-facing."""

    def __init__(self, message, code=None):
        super().__init__(message)
        self.code = code


def build_wallet_image():
    """Loadable image for the wallet TA."""
    return encode_image(TAImage(WALLET_UUID, TA_KIND_WALLET))


_CODE_MESSAGES = {
    ReturnCode.ERROR_GENERIC: ("the wallet record could not be read; "
                               "`wallet 3` (restore) replaces it from the "
                               "backup phrase"),
    ReturnCode.ERROR_ACCESS_DENIED: "wrong pin",
    ReturnCode.ERROR_ITEM_NOT_FOUND: "no wallet stored",
    ReturnCode.ERROR_SHORT_BUFFER: "reply buffer too small",
}

_BAD_PARAMETERS_BY_COMMAND = {
    CMD_GENERATE: "wallet already exists",
    CMD_RESTORE: "invalid mnemonic",
}


class WalletClient:
    """Drives the wallet TA: one session per command, then tear down."""

    def __init__(self, fabric):
        self._context = Context(fabric)
        self._image = build_wallet_image()

    def close(self):
        self._context.close()

    def _open(self, pin, index=0, payload=b"", room=SHM_WINDOW_SIZE):
        """A session for one command, once the pin, the child index and
        the size of the input `payload` pass the client's own checks: a
        request refused here loads no enclave."""
        if not isinstance(pin, int) or not 0 <= pin <= PIN_MAX:
            raise WalletError(f"pin must be 0..{PIN_MAX}")
        if not isinstance(index, int) or not 0 <= index < HARDENED_BIT:
            raise WalletError(f"child index {index!r} out of range: it "
                              f"must be 0..{HARDENED_BIT - 1}",
                              ReturnCode.ERROR_BAD_PARAMETERS)
        if len(payload) > room:
            raise WalletError(f"input of {len(payload)} bytes is over the "
                              f"{room} the shared window takes",
                              ReturnCode.ERROR_BAD_PARAMETERS)
        try:
            return self._context.open_session(WALLET_UUID, self._image)
        except TeeError as exc:
            if exc.code is ReturnCode.ERROR_ACCESS_DENIED:
                raise WalletError("wallet is busy", exc.code) from exc
            raise WalletError(f"could not reach the wallet: {exc}",
                              exc.code) from exc

    @staticmethod
    def _invoke(session, cmd_id, pin, index, extra):
        """Invoke with the standard credential word, which `_open` has
        checked; map failures."""
        operation = Operation(Value(Direction.IN, pin, index), *extra)
        result = session.invoke_command(cmd_id, operation)
        if not result.success:
            if result.code is ReturnCode.ERROR_BAD_PARAMETERS:
                message = _BAD_PARAMETERS_BY_COMMAND.get(cmd_id, "bad request")
            else:
                message = _CODE_MESSAGES.get(
                    result.code, f"wallet error {result.code.name}")
            raise WalletError(message, result.code)
        return result

    def check_exists(self, pin=0):
        """True when a master record is stored."""
        with self._open(pin) as session:
            result = self._invoke(session, CMD_CHECK_EXISTS, pin, 0,
                                  [Value(Direction.OUT)])
            return bool(result.value(1)[0])

    def generate(self, pin):
        """Create a fresh wallet; returns the backup phrase."""
        with self._open(pin) as session:
            block = session.allocate_shared_memory(_MNEMONIC_BUFFER,
                                                   Direction.OUT)
            self._invoke(session, CMD_GENERATE, pin, 0, [block])
            return block.read(length=block.returned_length).decode()

    def restore(self, pin, mnemonic):
        """Replace the wallet with one derived from a backup phrase."""
        phrase = mnemonic.encode() if isinstance(mnemonic, str) else bytes(mnemonic)
        with self._open(pin, payload=phrase) as session:
            block = session.allocate_shared_memory(len(phrase), Direction.IN)
            block.write(phrase)
            self._invoke(session, CMD_RESTORE, pin, 0, [block])

    def delete(self, pin):
        """Remove the stored wallet record."""
        with self._open(pin) as session:
            self._invoke(session, CMD_DELETE, pin, 0, [])

    def sign(self, pin, index, raw_tx):
        """Sign a raw transaction with hardened child `index`; hex out."""
        raw_tx = bytes(raw_tx)
        with self._open(pin, index, raw_tx,
                        SHM_WINDOW_SIZE - _SIGNATURE_BUFFER) as session:
            tx_block = session.allocate_shared_memory(len(raw_tx),
                                                      Direction.IN)
            tx_block.write(raw_tx)
            sig_block = session.allocate_shared_memory(_SIGNATURE_BUFFER,
                                                       Direction.OUT)
            self._invoke(session, CMD_SIGN, pin, index, [tx_block, sig_block])
            return sig_block.read(length=sig_block.returned_length).decode()

    def get_address(self, pin, index=0):
        """P2PKH address of hardened child `index`."""
        with self._open(pin, index) as session:
            block = session.allocate_shared_memory(_ADDRESS_BUFFER,
                                                   Direction.OUT)
            self._invoke(session, CMD_GET_ADDRESS, pin, index, [block])
            return block.read(length=block.returned_length).decode()


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="wallet",
        description="Drive the in-enclave Bitcoin wallet.",
        epilog=(
            "commands: 1 check  2 generate  3 restore <word...>  4 delete  "
            "5 sign <index> <raw_tx_hex>  6 address <index>"
        ),
    )
    parser.add_argument("command_id", type=int, choices=range(1, 7),
                        metavar="command_id", help="wallet command, 1..6")
    parser.add_argument("pin", help="4-digit wallet pin")
    parser.add_argument("-a", "--args", nargs="*", default=[],
                        help="command arguments (phrase words, index, tx hex)")
    parser.add_argument("--storage-dir",
                        default=os.environ.get("TEEFAB_STORAGE",
                                               "teefab-storage"),
                        help="sealed-storage directory (env TEEFAB_STORAGE)")
    parser.add_argument("--seed", type=int, default=None,
                        help="deterministic fabric RNG seed, 0..2**64-1")
    return parser.parse_args(argv)


def main(argv=None):
    """Exit 0 on success, 1 on a wallet failure, 2 on a usage error."""
    args = _parse_args(argv)
    if not args.pin.isdigit() or len(args.pin) > 4:
        print("pin must be up to four digits", file=sys.stderr)
        return 2
    pin = int(args.pin)
    try:
        fabric = Fabric(SimConfig(enclave_count=1,
                                  storage_dir=args.storage_dir,
                                  rng_seed=args.seed))
    except ValueError as exc:   # the config's check, a seed out of range
        print(f"error: {exc}", file=sys.stderr)
        return 2
    client = WalletClient(fabric)
    try:
        if args.command_id == CMD_CHECK_EXISTS:
            print("exists" if client.check_exists(pin) else "missing")
        elif args.command_id == CMD_GENERATE:
            print(client.generate(pin))
        elif args.command_id == CMD_RESTORE:
            if not args.args:
                print("restore needs the phrase words after -a",
                      file=sys.stderr)
                return 2
            client.restore(pin, " ".join(args.args))
            print("restored")
        elif args.command_id == CMD_DELETE:
            client.delete(pin)
            print("deleted")
        elif args.command_id == CMD_SIGN:
            if len(args.args) not in (1, 2):
                print("sign needs -a <child_index> [raw_tx_hex]",
                      file=sys.stderr)
                return 2
            try:
                index = int(args.args[0])
                raw_tx = (bytes.fromhex(args.args[1])
                          if len(args.args) == 2 else DEMO_RAW_TX)
            except ValueError as exc:
                print(f"bad sign arguments: {exc}", file=sys.stderr)
                return 2
            print(client.sign(pin, index, raw_tx))
        elif args.command_id == CMD_GET_ADDRESS:
            if len(args.args) != 1 or not args.args[0].isdigit():
                print("address needs -a <child_index>", file=sys.stderr)
                return 2
            print(client.get_address(pin, int(args.args[0])))
        return 0
    except WalletError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()
        fabric.shutdown()


if __name__ == "__main__":
    sys.exit(main())
