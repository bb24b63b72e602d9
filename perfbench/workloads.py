"""The three workloads: seeded inputs, one op, its check, lifecycle checks.

Each client thread repeats one cycle of ops made from the seed, and checks
the clock only between whole cycles. A cycle is a run of rounds; every
round holds the same multiset of op kinds in a seeded order with seeded
values. So the exact counts (DMA ops and bytes, cold opens, validations)
are identical from run to run for one seed, and the op mix is the same
for every seed.
"""

import random
import uuid as uuid_mod

from teefab import Context, Direction, Fabric, Operation, SimConfig, Value
from teefab.enclave import TA_KIND_ECHO, TA_KIND_INCREMENT
from teefab.protocol import (
    IMAGE_HEADER_SIZE,
    MAX_IMAGE_SIZE,
    WORD_MASK,
    TAImage,
    encode_image,
)
from teefab.wallet.client import WalletClient

from oracle import WalletOracle

ROUNDS_PER_CYCLE = 32
WALLET_MNEMONIC = ("legal winner thank year wave sausage worth useful "
                   "legal winner thank yellow")
WALLET_PIN = 2718
WALLET_CHILDREN = 16


def _uuid(tag, thread, role):
    return uuid_mod.UUID(f"b0b0{tag:04x}-{thread:04x}-4000-8000-{role:012x}")


def _image(ta_uuid, kind, payload=b""):
    return encode_image(TAImage(ta_uuid, kind, payload))


def _zero_slot_errors(fabric, held):
    """Slots outside `held` must be FREE with all-zero TCM and window."""
    errors = []
    for row in fabric.slot_snapshot():
        index = row["slot"]
        if index in held:
            continue
        runtime = fabric.slot_runtime(index)
        if row["state"] != "FREE":
            errors.append(f"slot {index} is {row['state']}, not FREE")
        if any(runtime.tcm.read(0, len(runtime.tcm))):
            errors.append(f"slot {index} TCM holds residue")
        if any(runtime.window.read(0, len(runtime.window))):
            errors.append(f"slot {index} window holds residue")
    return errors


class Workload:
    """Common frame: a fabric, per-thread cycles and the lifecycle check."""

    threads = 1
    # Peak RSS is read once every client has run this many cycles: a fixed
    # amount of work, reached in about a third of a 7 s worker phase on a
    # 2-vCPU host, so a faster program does not read as a bigger one.
    rss_cycles = 6

    def __init__(self, seed, storage_dir):
        self.rng = random.Random(seed)
        self.storage_dir = storage_dir
        self.fabric = None
        self.cycles = []                    # per thread: list of op specs

    def boot(self, enclaves):
        self.fabric = Fabric(SimConfig(
            enclave_count=enclaves, storage_dir=self.storage_dir,
            rng_seed=self.rng.getrandbits(32),
            dma_ns_per_byte=0, dma_ns_per_op=0))

    def add_cycle(self, rounds):
        self.cycles.append([spec for _ in range(rounds)
                            for spec in self.round()])

    def warm_up(self):
        """One round per thread, so every code path has run once."""
        for thread, cycle in enumerate(self.cycles):
            for spec in cycle[:len(self.round_kinds)]:
                self.prepare(thread, spec)
                reply = self.op(thread, spec)
                if not self.check(thread, spec, reply):
                    raise RuntimeError(f"warm-up op {spec[0]} is wrong")

    def prepare(self, thread, spec):
        """Untimed: fill REE-side buffers before the op."""

    def op(self, thread, spec):
        raise NotImplementedError

    def check(self, thread, spec, reply):
        """Untimed check of one reply; True when it is correct."""
        raise NotImplementedError

    def verify(self):
        """Checks deferred past the timed phase; returns failures."""
        return 0

    def held_slots(self):
        return set()

    def loads_per_cycle(self, thread):
        """Exact cold loads in one cycle of one thread."""
        return 0

    def release(self):
        """Close every long-lived session."""

    def lifecycle_errors(self):
        """Idle, audited, scrubbed: first with long-lived sessions held,
        then after they are closed, when every slot must be FREE."""
        errors = []
        try:
            self.fabric.wait_idle()
            self.fabric.audit()
            errors += _zero_slot_errors(self.fabric, self.held_slots())
            self.release()
            self.fabric.wait_idle()
            self.fabric.audit()
            errors += _zero_slot_errors(self.fabric, set())
        except (AssertionError, TimeoutError) as exc:
            errors.append(f"{type(exc).__name__}: {exc}")
        return errors

    def shutdown(self):
        if self.fabric is not None:
            self.fabric.shutdown()


class InvokeStream(Workload):
    """Two tenants on warm sessions: increments and echo-reverse memrefs."""

    threads = 2
    rss_cycles = 15
    SIZES = (16, 256, 4096)
    PAYLOADS_PER_SIZE = 4
    # Half value-only increments, half echoes split evenly over SIZES.
    round_kinds = ("inc",) * 6 + (0, 0, 1, 1, 2, 2)

    def setup(self):
        self.boot(enclaves=4)
        self.tenants = []
        for thread in range(self.threads):
            context = Context(self.fabric)
            inc_uuid = _uuid(1, thread, 1)
            echo_uuid = _uuid(1, thread, 2)
            inc = context.open_session(
                inc_uuid, _image(inc_uuid, TA_KIND_INCREMENT))
            echo = context.open_session(
                echo_uuid, _image(echo_uuid, TA_KIND_ECHO))
            # allocate_shared_memory never frees, so blocks live for the run.
            blocks = [echo.allocate_shared_memory(size, Direction.INOUT)
                      for size in self.SIZES]
            payloads = [[self.rng.randbytes(size)
                         for _ in range(self.PAYLOADS_PER_SIZE)]
                        for size in self.SIZES]
            reversed_payloads = [[p[::-1] for p in row] for row in payloads]
            self.tenants.append((context, inc, echo, blocks, payloads,
                                 reversed_payloads))
            self.add_cycle(ROUNDS_PER_CYCLE)
        self.warm_up()

    def round(self):
        specs = []
        for kind in self.round_kinds:
            if kind == "inc":
                specs.append((kind, self.rng.getrandbits(32)))
            else:
                specs.append(("echo", kind,
                              self.rng.randrange(self.PAYLOADS_PER_SIZE)))
        self.rng.shuffle(specs)
        return specs

    def op(self, thread, spec):
        _context, inc, echo, blocks, payloads, _rev = self.tenants[thread]
        if spec[0] == "inc":
            return inc.invoke_command(
                0, Operation(Value(Direction.INOUT, spec[1]))).value(0)[0]
        block = blocks[spec[1]]
        return echo.invoke_command(1, Operation(block)).success

    def prepare(self, thread, spec):
        if spec[0] == "echo":
            _c, _i, _e, blocks, payloads, _r = self.tenants[thread]
            blocks[spec[1]].write(payloads[spec[1]][spec[2]])

    def check(self, thread, spec, reply):
        if spec[0] == "inc":
            return reply == (spec[1] + 1) & WORD_MASK
        _c, _i, _e, blocks, _p, reversed_payloads = self.tenants[thread]
        return (reply is True and blocks[spec[1]].buffer
                == reversed_payloads[spec[1]][spec[2]])

    def held_slots(self):
        return {s.slot_index for t in self.tenants for s in t[1:3]}

    def release(self):
        for context, inc, echo, *_ in self.tenants:
            inc.close()
            echo.close()
            context.close()


class SessionChurn(Workload):
    """Open, one increment, close: warm home TA or a cold private TA."""

    threads = 2
    rss_cycles = 10
    round_kinds = ("home", "small", "full") * 2

    def setup(self):
        self.boot(enclaves=4)
        self.clients = []
        for thread in range(self.threads):
            context = Context(self.fabric)
            home = _uuid(2, thread, 1)
            small = _uuid(2, thread, 2)
            full = _uuid(2, thread, 3)
            payload = self.rng.randbytes(MAX_IMAGE_SIZE - IMAGE_HEADER_SIZE)
            images = {
                "home": (home, _image(home, TA_KIND_INCREMENT)),
                "small": (small, _image(small, TA_KIND_INCREMENT)),
                "full": (full, _image(full, TA_KIND_INCREMENT, payload)),
            }
            held = context.open_session(*images["home"])
            self.clients.append((context, images, held))
            self.add_cycle(ROUNDS_PER_CYCLE)
        self.warm_up()

    def round(self):
        specs = [(target, self.rng.getrandbits(32))
                 for target in self.round_kinds]
        self.rng.shuffle(specs)
        return specs

    def op(self, thread, spec):
        context, images, _held = self.clients[thread]
        with context.open_session(*images[spec[0]]) as session:
            return session.invoke_command(
                0, Operation(Value(Direction.INOUT, spec[1]))).value(0)[0]

    def check(self, thread, spec, reply):
        return reply == (spec[1] + 1) & WORD_MASK

    def loads_per_cycle(self, thread):
        return sum(spec[0] != "home" for spec in self.cycles[thread])

    def held_slots(self):
        return {held.slot_index for _c, _i, held in self.clients}

    def release(self):
        for context, _images, held in self.clients:
            held.close()
            context.close()


class WalletRounds(Workload):
    """WalletClient on a restored wallet; each command is a cold enclave."""

    round_kinds = ("sign",) * 4 + ("address",) * 4 + ("exists", "restore")
    TX_POOL = 8
    TX_BYTES = 226                          # a one-input two-output tx
    ROUNDS_PER_CYCLE = 8

    def setup(self):
        self.boot(enclaves=2)
        self.client = WalletClient(self.fabric)
        self.client.restore(WALLET_PIN, WALLET_MNEMONIC)
        self.txs = [self.rng.randbytes(self.TX_BYTES)
                    for _ in range(self.TX_POOL)]
        self.pending = []
        self.add_cycle(self.ROUNDS_PER_CYCLE)
        self.warm_up()

    def round(self):
        specs = []
        for kind in self.round_kinds:
            if kind == "sign":
                specs.append((kind, self.rng.randrange(WALLET_CHILDREN),
                              self.rng.randrange(self.TX_POOL)))
            elif kind == "address":
                specs.append((kind, self.rng.randrange(WALLET_CHILDREN)))
            else:
                specs.append((kind,))
        self.rng.shuffle(specs)
        return specs

    def op(self, thread, spec):
        kind = spec[0]
        if kind == "sign":
            return self.client.sign(WALLET_PIN, spec[1], self.txs[spec[2]])
        if kind == "address":
            return self.client.get_address(WALLET_PIN, spec[1])
        if kind == "exists":
            return self.client.check_exists(WALLET_PIN)
        return self.client.restore(WALLET_PIN, WALLET_MNEMONIC)

    def check(self, thread, spec, reply):
        """Signatures and addresses are checked after the timed phase."""
        if spec[0] in ("sign", "address"):
            self.pending.append((spec, reply))
            return True
        return reply is (True if spec[0] == "exists" else None)

    def verify(self):
        oracle = getattr(self, "oracle", None)
        if oracle is None:
            oracle = self.oracle = WalletOracle(WALLET_MNEMONIC)
        failures = 0
        for spec, reply in self.pending:
            if spec[0] == "sign":
                ok = oracle.signature_ok(spec[1], self.txs[spec[2]], reply)
            else:
                ok = reply == oracle.address(spec[1])
            failures += not ok
        self.pending.clear()
        return failures

    def loads_per_cycle(self, thread):
        return len(self.cycles[thread])

    def release(self):
        self.client.close()


WORKLOADS = {
    "invoke_stream": InvokeStream,
    "session_churn": SessionChurn,
    "wallet_rounds": WalletRounds,
}
