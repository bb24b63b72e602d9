"""Command-line front end: boot, demos, bench, resource reports, wallet."""

from __future__ import annotations

import argparse
import sys
import uuid as uuid_mod

from .client_api import Context, Direction, Operation, Value
from .config import SimConfig, load_config
from .fabric import Fabric
from .protocol import TA_KIND_INCREMENT, TA_KIND_SHMEM16, TAImage, encode_image
from .resource_model import get_profile, render_report

_DEMO_INC_UUID = uuid_mod.UUID("0de30000-0001-4000-8000-000000000001")
_DEMO_SHM_UUID = uuid_mod.UUID("0de30000-0002-4000-8000-000000000002")


def _repetitions(text):
    """argparse type of `bench --repetitions`: an int of at least 1."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _parser():
    sizing = argparse.ArgumentParser(add_help=False)
    sizing.add_argument("--config", help="key=value config file")
    sizing.add_argument("--enclaves", type=int, metavar="N",
                        help="number of enclave slots")
    sizing.add_argument("--device", help="device profile name or file")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int,
                        help="deterministic RNG seed, 0..2**64-1")
    stored = argparse.ArgumentParser(add_help=False)
    stored.add_argument("--storage-dir", help="sealed-storage directory")
    stored.add_argument("--uart-dir",
                        help="mirror enclave logs to this directory")
    booted = [sizing, seeded, stored]

    parser = argparse.ArgumentParser(
        prog="teefab",
        description="Software model of an FPGA fabric that builds TEEs on demand.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("boot", parents=booted,
                   help="validate the config and bring the fabric up")

    demo = sub.add_parser("demo", parents=booted,
                          help="run a canned trusted application")
    demo.add_argument("name", choices=("increment", "shmem16"))
    demo.add_argument("--value", type=int, default=41,
                      help="input for the increment demo")

    # No default here: an option left out takes run_bench's own, so only
    # `teefab bench` imports the bench.
    bench = sub.add_parser("bench", parents=[seeded],
                           help="time the five fabric scenarios")
    bench.add_argument("--repetitions", type=_repetitions,
                       help="samples per scenario, at least 1")
    bench.add_argument("--ns-per-byte", type=int,
                       help="modelled DMA cost per byte moved")
    bench.add_argument("--ns-per-op", type=int,
                       help="modelled setup cost per transfer")

    sub.add_parser("resources", parents=[sizing],
                   help="hardware cost of an enclave count")

    wallet = sub.add_parser("wallet", help="drive the Bitcoin wallet TA")
    wallet.add_argument("rest", nargs=argparse.REMAINDER,
                        help="arguments for the wallet command")
    return parser


# Each option a command takes, and the config field it overrides.
_OVERRIDES = (("enclaves", "enclave_count"), ("device", "device_profile"),
              ("seed", "rng_seed"), ("storage_dir", "storage_dir"),
              ("uart_dir", "uart_dir"))


def _build_config(args):
    config = load_config(args.config) if args.config else SimConfig()
    for option, key in _OVERRIDES:
        value = getattr(args, option, None)
        if value is not None:
            setattr(config, key, value)
    return config


def _cmd_boot(config):
    fabric = Fabric(config)
    try:
        device = config.device()
        print(f"fabric up: {config.enclave_count} enclave slot(s) "
              f"on {device.name}")
        print(f"{'slot':<6}{'base':<8}{'state':<10}{'ta':<38}")
        for row in fabric.slot_snapshot():
            print(f"{row['slot']:<6}{row['tcm_base']:<8}{row['state']:<10}"
                  f"{row['uuid'] or '-':<38}")
    finally:
        fabric.shutdown()
    return 0


def _cmd_demo(config, args):
    fabric = Fabric(config)
    try:
        with Context(fabric) as context:
            if args.name == "increment":
                image = encode_image(TAImage(_DEMO_INC_UUID,
                                             TA_KIND_INCREMENT))
                with context.open_session(_DEMO_INC_UUID, image) as session:
                    result = session.invoke_command(
                        0, Operation(Value(Direction.INOUT, args.value
                                           & 0xFFFFFFFF)))
                    result.raise_for_code("increment demo")
                    print(result.value(0)[0])
            else:
                image = encode_image(TAImage(_DEMO_SHM_UUID, TA_KIND_SHMEM16))
                with context.open_session(_DEMO_SHM_UUID, image) as session:
                    block = session.allocate_shared_memory(16, Direction.OUT)
                    session.invoke_command(
                        0, Operation(block)).raise_for_code("shmem16 demo")
                    print(block.read().hex())
    finally:
        fabric.shutdown()
    return 0


def _cmd_bench(args):
    from .bench import run_bench
    given = {"repetitions": args.repetitions, "per_byte_ns": args.ns_per_byte,
             "per_op_ns": args.ns_per_op}
    report = run_bench(seed=args.seed or 0, **{
        name: value for name, value in given.items() if value is not None})
    print(report.render_text())
    return 0


def _cmd_resources(config):
    print(render_report(config.enclave_count,
                        get_profile(config.device_profile)))
    return 0


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.command == "wallet":
        rest = args.rest
        if rest and rest[0] == "--":
            rest = rest[1:]
        from .wallet.client import main as wallet_main
        return wallet_main(rest)
    try:
        if args.command == "bench":
            return _cmd_bench(args)
        config = _build_config(args)
        if args.command == "boot":
            return _cmd_boot(config)
        if args.command == "demo":
            return _cmd_demo(config, args)
        return _cmd_resources(config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
