"""Bitcoin wallet workload: trusted application, REE client, key tooling."""

from .ta import (
    CMD_CHECK_EXISTS,
    CMD_DELETE,
    CMD_GENERATE,
    CMD_GET_ADDRESS,
    CMD_RESTORE,
    CMD_SIGN,
    TA_KIND_WALLET,
    WalletTa,
)

_CLIENT_NAMES = frozenset(
    {"WALLET_UUID", "WalletClient", "WalletError", "build_wallet_image"})


def __getattr__(name):
    # `client` loads on first use, so `python -m teefab.wallet.client` runs
    # it once, as __main__, instead of after an import of the package.
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
    "TA_KIND_WALLET",
    "WALLET_UUID",
    "WalletClient",
    "WalletError",
    "WalletTa",
    "build_wallet_image",
]
