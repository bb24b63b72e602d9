"""Two trusted applications in neighbouring enclaves, fully isolated.

Run from the repository root:

    python demos/two_tenants.py
"""

import sys
import tempfile
import uuid

from teefab.client_api import Context, Direction, Operation, Value
from teefab.config import SimConfig
from teefab.enclave import TA_KIND_ECHO, TA_KIND_INCREMENT
from teefab.fabric import Fabric
from teefab.protocol import TAImage, encode_image

INC_UUID = uuid.UUID("0d203afe-0001-4000-8000-00000000000a")
ECHO_UUID = uuid.UUID("0d203afe-0002-4000-8000-00000000000b")


def main():
    with tempfile.TemporaryDirectory() as storage_dir:
        return run(storage_dir)


def run(storage_dir):
    fabric = Fabric(SimConfig(enclave_count=2, storage_dir=storage_dir))
    try:
        with Context(fabric) as context:
            inc = context.open_session(
                INC_UUID, encode_image(TAImage(INC_UUID, TA_KIND_INCREMENT)))
            echo = context.open_session(
                ECHO_UUID, encode_image(TAImage(ECHO_UUID, TA_KIND_ECHO)))
            print("tenants loaded:")
            for row in fabric.slot_snapshot():
                print(f"  slot {row['slot']}: {row['state']:<6} "
                      f"{row['uuid'] or '-'}")

            print("interleaving 10 invocations of each:")
            counter = 100
            block = echo.allocate_shared_memory(10, Direction.INOUT)
            for round_no in range(10):
                reply = inc.invoke_command(
                    0, Operation(Value(Direction.INOUT, counter)))
                counter = reply.value(0)[0]
                block.write(f"round-{round_no:04d}".encode())
                echo.invoke_command(1, Operation(block))
                print(f"  counter={counter}  "
                      f"echo reversed: {block.read().decode()}")

            inc.close()
            echo.close()
        fabric.wait_idle()
        print("both slots scrubbed:",
              all(row["state"] == "FREE" for row in fabric.slot_snapshot()))
        return 0
    finally:
        fabric.shutdown()


if __name__ == "__main__":
    sys.exit(main())
