"""Walk the wallet through its whole life: create, use, destroy, restore.

Run from the repository root:

    python demos/wallet_flow.py
"""

import sys
import tempfile

from teefab.config import SimConfig
from teefab.fabric import Fabric
from teefab.wallet import WalletClient, WalletError
from teefab.wallet.client import DEMO_RAW_TX as DEMO_TX


def main():
    with tempfile.TemporaryDirectory() as storage_dir:
        return run(storage_dir)


def run(storage_dir):
    fabric = Fabric(SimConfig(enclave_count=2, storage_dir=storage_dir,
                              rng_seed=2024))
    client = WalletClient(fabric)
    pin = 1234
    try:
        print("1) check:", "exists" if client.check_exists() else "missing")

        phrase = client.generate(pin)
        print("2) generate, write this down:")
        print("  ", phrase)

        print("3) address of child 0:", client.get_address(pin, 0))
        print("   address of child 1:", client.get_address(pin, 1))

        signature = client.sign(pin, 0, DEMO_TX)
        print("4) signature over the demo transaction:")
        print("  ", signature)

        try:
            client.sign(4321, 0, DEMO_TX)
        except WalletError as exc:
            print("5) wrong pin is refused:", exc)

        client.delete(pin)
        print("6) deleted; check:",
              "exists" if client.check_exists() else "missing")

        client.restore(pin, phrase)
        print("7) restored from the phrase; child 0 address again:",
              client.get_address(pin, 0))
        return 0
    finally:
        client.close()
        fabric.shutdown()


if __name__ == "__main__":
    sys.exit(main())
