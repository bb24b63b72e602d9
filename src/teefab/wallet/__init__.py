"""Bitcoin wallet workload: trusted application, REE client, key tooling.

Importing the package registers the wallet's ta_kind and defines the
wallet's wire contract, which the TA and the REE client both import from
here. The TA's module, with its word list and key code, loads where a core
builds the wallet on its first OPEN, and the client loads at its first use.
"""

import hashlib

from ..enclave import register_ta_kind

try:
    hashlib.new("ripemd160")
except ValueError:
    raise ImportError(
        "teefab needs RIPEMD-160 from hashlib for wallet addresses, and this "
        "Python's OpenSSL does not offer it (OpenSSL 3.0.0 to 3.0.6 keep it "
        "in the legacy provider only; 3.0.7 and later have it by default)"
    ) from None

TA_KIND_WALLET = 16

# The wallet's wire contract: the command ids, the largest pin, and the
# bit that marks a hardened child, which bounds a child index from above.
CMD_CHECK_EXISTS = 1
CMD_GENERATE = 2
CMD_RESTORE = 3
CMD_DELETE = 4
CMD_SIGN = 5
CMD_GET_ADDRESS = 6
PIN_MAX = 9999
HARDENED_BIT = 0x80000000


def _wallet_ta(env):
    from .ta import WalletTa
    return WalletTa(env)


register_ta_kind(TA_KIND_WALLET, _wallet_ta)

_CLIENT_NAMES = frozenset(
    {"WALLET_UUID", "WalletClient", "WalletError", "build_wallet_image"})


def __getattr__(name):
    # `client` loads on first use: `python -m teefab.wallet.client` runs
    # the client once, as __main__, not after an import of the package.
    if name in _CLIENT_NAMES:
        from . import client
        return getattr(client, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CMD_CHECK_EXISTS",
    "CMD_DELETE",
    "CMD_GENERATE",
    "CMD_GET_ADDRESS",
    "CMD_RESTORE",
    "CMD_SIGN",
    "HARDENED_BIT",
    "PIN_MAX",
    "TA_KIND_WALLET",
    "WALLET_UUID",
    "WalletClient",
    "WalletError",
    "build_wallet_image",
]
