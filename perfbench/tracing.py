"""Span tracing, DMA counting and cost injection, all applied from outside.

Nothing in teefab is edited: the tracer replaces public entry points with
timing wrappers for the traced phase and puts the originals back after.

A span's self time is its duration minus the spans nested in it. Spans
that run on an enclave worker thread (the TA body, the frame decode and
two of the four validations) have no parent on that thread; their
duration is credited to the `EnclaveRuntime.deliver` in flight on the same
slot, which is unique because `Fabric.comm_dispatch` holds the slot lock.
Spans on the cleaner thread (the scrub after a close) belong to no
request and are reported as background work.
"""

import threading
from collections import defaultdict
from time import perf_counter_ns

import reference

# Layer names shared with run.py's per-layer report.
OP = "bench.op"
DELIVER = "enclave.deliver"
OPEN_COLD = "fabric.manager_open.cold"
OPEN_WARM = "fabric.manager_open.warm"
OPEN_REFUSED = "fabric.manager_open.refused"


class Patcher:
    """Replaces class or module attributes and restores them in order."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, name, make):
        """Set owner.name to make(current value); returns the original."""
        original = owner.__dict__.get(name, _MISSING) \
            if isinstance(owner, type) else getattr(owner, name)
        current = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(current))
        return current

    def restore(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)


_MISSING = object()


class CountingDelay:
    """Pass-through wrapper over a fabric's DelayModel.

    Every charge still reaches the real model; the wrapper only counts the
    operations and bytes, so modeled DMA time can be priced afterwards
    without the busy-wait entering host time.
    """

    def __init__(self, inner):
        self.inner = inner
        self._lock = threading.Lock()
        self.ops = 0
        self.bytes = 0

    def charge(self, nbytes):
        with self._lock:
            self.ops += 1
            self.bytes += nbytes
        self.inner.charge(nbytes)

    def reset(self):
        with self._lock:
            self.ops = 0
            self.bytes = 0


class _ThreadState:
    def __init__(self, slot):
        self.stack = []                     # [child_ns] per open span
        self.slot = slot                    # enclave slot index or None
        self.in_op = False
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.tally = defaultdict(int)
        self.in_op_self_ns = 0
        self.op_ns = 0


class Tracer:
    """Collects per-layer self time, call counts and tallies per thread."""

    def __init__(self):
        self._local = threading.local()
        self._states = []
        self._states_lock = threading.Lock()
        self._slot_child_ns = {}            # slot -> enclave-thread ns
        self._slot_in_op = {}               # slot -> request is an op

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            name = threading.current_thread().name
            slot = int(name[8:]) if name.startswith("enclave-") else None
            state = _ThreadState(slot)
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
        return state

    def _close(self, state, layer, duration, child):
        own = duration - child
        state.self_ns[layer] += own
        state.calls[layer] += 1
        if state.stack:
            state.stack[-1][0] += duration
        elif state.slot is not None:
            self._slot_child_ns[state.slot] = \
                self._slot_child_ns.get(state.slot, 0) + duration
        if state.in_op or (state.slot is not None
                           and self._slot_in_op.get(state.slot)):
            state.in_op_self_ns += own

    def wrap(self, layer, fn, classify=None, tally=None):
        """Span wrapper; classify(result, exc) may rename the layer and
        tally(args, result) adds to the counter named after the layer."""
        def traced(*args, **kwargs):
            state = self._state()
            frame = [0]
            state.stack.append(frame)
            result = exc = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                duration = perf_counter_ns() - start
                state.stack.pop()
                name = classify(result, exc) if classify else layer
                if tally is not None and exc is None:
                    state.tally[name] += tally(args, result)
                self._close(state, name, duration, frame[0])
        return traced

    def wrap_deliver(self, fn):
        """deliver: enclave-thread spans of this request are its children."""
        def traced(runtime, words):
            state = self._state()
            frame = [0]
            state.stack.append(frame)
            self._slot_child_ns[runtime.index] = 0
            self._slot_in_op[runtime.index] = state.in_op
            start = perf_counter_ns()
            try:
                return fn(runtime, words)
            finally:
                duration = perf_counter_ns() - start
                state.stack.pop()
                self._slot_in_op[runtime.index] = False
                frame[0] += self._slot_child_ns.pop(runtime.index, 0)
                self._close(state, DELIVER, duration, frame[0])
        return traced

    def op(self, call):
        """Run one benchmark op as the root span of a request."""
        state = self._state()
        frame = [0]
        state.stack.append(frame)
        state.in_op = True
        start = perf_counter_ns()
        try:
            return call()
        finally:
            duration = perf_counter_ns() - start
            state.stack.pop()
            state.in_op = False
            state.op_ns += duration
            self._close(state, OP, duration, frame[0])

    def totals(self):
        """Merged (self_ns, calls, tally, in_op_self_ns, op_ns)."""
        self_ns, calls, tally = (defaultdict(int) for _ in range(3))
        in_op = op_ns = 0
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for layer, value in state.self_ns.items():
                self_ns[layer] += value
            for layer, value in state.calls.items():
                calls[layer] += value
            for layer, value in state.tally.items():
                tally[layer] += value
            in_op += state.in_op_self_ns
            op_ns += state.op_ns
        return self_ns, calls, tally, in_op, op_ns


def _open_kind(result, exc):
    if exc is not None:
        return OPEN_REFUSED
    return OPEN_COLD if result[1] else OPEN_WARM


def install(tracer, patcher):
    """Wrap one public entry point per layer boundary."""
    from teefab import client_api, enclave, fabric, protocol
    from teefab.internal_api import storage
    from teefab.wallet import client as wallet_client, ta

    def span(owner, name, layer, **options):
        patcher.replace(owner, name,
                        lambda fn: tracer.wrap(layer, fn, **options))

    span(client_api.Context, "open_session", "client_api.open")
    span(client_api.Session, "invoke_command", "client_api.invoke")
    span(client_api.Session, "close", "client_api.close")

    patcher.replace(protocol.MailboxFrame, "build", lambda bound: classmethod(
        tracer.wrap("protocol.codec",
                    lambda cls, *a, **kw: bound.__func__(cls, *a, **kw))))
    span(protocol.MailboxFrame, "validate", "protocol.validate")
    for module, name in ((fabric, "encode_frame"), (fabric, "decode_reply"),
                         (enclave, "decode_frame"), (enclave, "encode_reply")):
        span(module, name, "protocol.codec")

    span(fabric.Fabric, "comm_dispatch", "fabric.comm_dispatch")
    span(fabric.Fabric, "shm_write", "fabric.shm_copy",
         tally=lambda args, result: len(args[3]))
    span(fabric.Fabric, "shm_read", "fabric.shm_copy",
         tally=lambda args, result: len(result))
    span(fabric.Fabric, "manager_open", OPEN_COLD, classify=_open_kind)

    patcher.replace(enclave.EnclaveRuntime, "deliver", tracer.wrap_deliver)
    span(enclave.EnclaveRuntime, "load_image", "enclave.load_image")
    span(enclave.EnclaveRuntime, "assert_reset", "enclave.assert_reset")
    span(enclave.EnclaveRuntime, "deassert_reset", "enclave.deassert_reset")
    span(enclave.Space, "zeroize", "enclave.zeroize")
    span(enclave.MemoryContext, "window_read", "enclave.window_gate")
    span(enclave.MemoryContext, "window_write", "enclave.window_gate")
    for cls in (enclave.IncrementTa, enclave.EchoTa, ta.WalletTa):
        for name in ("open_session", "invoke_command", "close_session"):
            span(cls, name, "enclave.ta_body")

    span(ta, "ecdsa_sign", "internal_api.crypto.sign")
    span(ta, "derive_public_key", "internal_api.crypto.pubkey")
    span(storage.SealedStorage, "get", "internal_api.storage.get")
    span(storage.SealedStorage, "put", "internal_api.storage.put")
    span(storage.SealedStorage, "exists", "internal_api.storage.exists")
    span(ta, "derive_hardened", "wallet.hd.derive")
    span(ta, "master_from_seed", "wallet.hd.derive")
    span(ta, "mnemonic_to_seed", "wallet.mnemonic.seed")
    for name in ("sign", "get_address", "check_exists", "restore"):
        span(wallet_client.WalletClient, name, "wallet.client")


def inject(patcher, target, cost_us):
    """Add cost_us reference microseconds of work to one public entry point.

    The sensitivity self-test uses this to show that a known slowdown in
    one layer moves the workload that leans on it and spares the others.
    The work is a count of reference units, so its cost in the reported
    (reference-scaled) figures is cost_us whatever the host's speed.
    """
    from teefab import enclave, fabric
    from teefab.wallet import ta

    targets = {
        "deliver": (enclave.EnclaveRuntime, "deliver"),
        "manager_open": (fabric.Fabric, "manager_open"),
        "ecdsa_sign": (ta, "ecdsa_sign"),
    }
    if target not in targets:
        raise ValueError(f"unknown injection target {target!r}; "
                         f"choose from {sorted(targets)}")
    owner, name = targets[target]
    units = round(cost_us * reference.UNITS_PER_S / 1e6)

    def make(fn):
        def slowed(*args, **kwargs):
            reference.work(units)
            return fn(*args, **kwargs)
        return slowed
    patcher.replace(owner, name, make)
