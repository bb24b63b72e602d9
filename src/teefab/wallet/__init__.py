"""Bitcoin wallet workload: trusted application, REE client, key tooling.

Importing the package registers the wallet's ta_kind and nothing more: the
TA's module, with its word list and key code, loads where a core builds the
wallet on its first OPEN, and the client loads at its first use.
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


def _wallet_ta(env):
    from .ta import WalletTa
    return WalletTa(env)


register_ta_kind(TA_KIND_WALLET, _wallet_ta)

_CLIENT_NAMES = frozenset(
    {"WALLET_UUID", "WalletClient", "WalletError", "build_wallet_image"})
_TA_NAMES = frozenset(
    {"CMD_CHECK_EXISTS", "CMD_DELETE", "CMD_GENERATE", "CMD_GET_ADDRESS",
     "CMD_RESTORE", "CMD_SIGN", "WalletTa"})


def __getattr__(name):
    # `client` and `ta` load on first use: `python -m teefab.wallet.client`
    # runs the client once, as __main__, not after an import of the
    # package, and a fabric that never opens the wallet never loads `ta`.
    if name in _CLIENT_NAMES:
        from . import client
        return getattr(client, name)
    if name in _TA_NAMES:
        from . import ta
        return getattr(ta, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CMD_CHECK_EXISTS",
    "CMD_DELETE",
    "CMD_GENERATE",
    "CMD_GET_ADDRESS",
    "CMD_RESTORE",
    "CMD_SIGN",
    "TA_KIND_WALLET",
    "WALLET_UUID",
    "WalletClient",
    "WalletError",
    "WalletTa",
    "build_wallet_image",
]
