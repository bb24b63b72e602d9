"""Emulated fabric: the manager, loader and communication agent blocks."""

from __future__ import annotations

import mmap
import sys
import threading
import time
import uuid as uuid_mod
from collections import deque
from contextlib import contextmanager
from enum import IntEnum
from pathlib import Path
from typing import NamedTuple

from .config import SimConfig
from .enclave import EnclaveRuntime, EnclaveResetError, ta_factory
from .internal_api import Csprng, SealedStorage, TeeServices
from .protocol import (
    CM_ALIGNMENT,
    CM_REGION_SIZE,
    IMAGE_HEADER_SIZE,
    MAILBOX_BYTES,
    MAX_IMAGE_SIZE,
    AccessDeniedError,
    ImageFormatError,
    ImageSizeError,
    LoadStatus,
    OperationId,
    OutOfEnclavesError,
    OutOfMemoryError,
    decode_frame,
    decode_image_header,
    decode_reply,
    encode_frame,
)

EVENT_CAPACITY = 4096


class SlotState(IntEnum):
    FREE = 0
    LOADING = 1
    TAKEN = 2
    CLEANING = 3


# Members read on every dispatch, bound once: on Python 3.11 each
# `Enum.MEMBER` read costs several times a module global's.
_LOADING, _TAKEN = SlotState.LOADING, SlotState.TAKEN
_CLEANING = SlotState.CLEANING
_OPEN, _CLOSE = OperationId.OPEN, OperationId.CLOSE


# Each event kind's field names, in the order `_log` takes its values.
_EVENT_FIELDS = {
    "boot": ("slots", "device"),
    "stage": ("offset", "size"),
    "release": ("offset",),
    "open": ("uuid", "warm"),
    "load_status": ("uuid", "status"),
    "load": ("size", "dur_ns"),
    "close": (),
    "dispatch": ("op", "cmd", "code", "dur_ns"),
    "shutdown": (),
}


class Event(NamedTuple):
    """One fabric log record; `seq` numbers every event ever logged, so a
    gap before the oldest kept record counts the events that fell off.
    `values` are kept as logged, and named only when `fields` is read."""

    seq: int
    kind: str
    slot: int | None
    values: tuple

    @property
    def fields(self):
        """{name: value} by the kind's schema, a new dict on each read, so
        no reader can change the record."""
        return dict(zip(_EVENT_FIELDS[self.kind], self.values, strict=True))

    def __repr__(self):
        named = "".join(f", {name}={value!r}"
                        for name, value in self.fields.items())
        return (f"Event(seq={self.seq!r}, kind={self.kind!r}, "
                f"slot={self.slot!r}{named})")


class DelayModel:
    """Transfer-cost model: a busy-wait per fabric copy operation."""

    def __init__(self, per_byte_ns=0, per_op_ns=0):
        self.per_byte_ns = int(per_byte_ns)
        self.per_op_ns = int(per_op_ns)

    def charge(self, nbytes):
        cost = self.per_op_ns + nbytes * self.per_byte_ns
        if cost <= 0:
            return
        deadline = time.perf_counter_ns() + cost
        while time.perf_counter_ns() < deadline:
            pass


# A private map, so that a forked process gets its own copy of the region
# on write, as it would of a bytearray, instead of sharing it.
_PRIVATE_MAP = ({"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE")
                else {})


class CmRegion:
    """Flat staging region with a 64-byte-aligned first-fit allocator.

    The region is reserved address space: anonymous memory reads as zeros
    and the host commits a page only when something is first written
    there, so a fabric's resident cost follows what is staged, not the
    capacity."""

    def __init__(self, capacity=CM_REGION_SIZE):
        if capacity <= 0:
            raise ValueError(
                f"staging capacity must be positive, got {capacity}")
        self._buf = mmap.mmap(-1, capacity, **_PRIVATE_MAP)
        self._allocs = {}
        self._lock = threading.Lock()

    def alloc(self, size):
        if size < 0:
            raise OutOfMemoryError(f"negative staging size {size}")
        span = max(size, 1)  # zero-size stakes out one aligned slot
        with self._lock:
            cursor = 0
            for offset in sorted(self._allocs):
                if offset - cursor >= span:
                    break
                cursor = _align(offset + self._allocs[offset])
            if cursor + span > len(self._buf):
                raise OutOfMemoryError("staging region exhausted")
            self._allocs[cursor] = span
            return cursor

    def free(self, offset):
        with self._lock:
            if self._allocs.pop(offset, None) is None:
                raise OutOfMemoryError(f"no staging block at offset {offset}")

    def write(self, offset, data):
        data = bytes(data)
        self._check(offset, len(data))
        self._buf[offset:offset + len(data)] = data

    def read(self, offset, length):
        self._check(offset, length)
        with memoryview(self._buf) as view:
            return bytes(view[offset:offset + length])

    def _check(self, offset, length):
        if offset < 0 or length < 0 or offset + length > len(self._buf):
            raise OutOfMemoryError(
                f"staging access [{offset}, +{length}) out of range")


def _align(offset):
    return (offset + CM_ALIGNMENT - 1) & ~(CM_ALIGNMENT - 1)


class _Turn:
    """A thread's exchange depth at one turnstile, and the lock it parks
    on there: held while it rests, released by `Turnstile._handover`."""

    __slots__ = ("depth", "waiter")

    def __init__(self):
        self.depth = 0
        self.waiter = threading.Lock()
        self.waiter.acquire()


class _TurnstileLocal(threading.local):
    """Each thread's `_Turn`, reached in one thread-local lookup."""

    def __init__(self):
        self.turn = _Turn()


class Turnstile:
    """FIFO hand-off of the interpreter between the threads that have
    requests in flight on one fabric.

    A thread is a contender while it is inside `Fabric.exchange`, counted
    once however deep its exchanges nest, and while it is parked. When it
    leaves its outermost exchange with another contender about, it parks,
    so that the others take their turn; the last running contender wakes
    the oldest parked one. Clients thus take turns request by request,
    oldest first, and a lone client finds nobody and goes on without a
    syscall. Every park is bounded by `sys.getswitchinterval()`, the bound
    CPython puts on a thread waiting for the interpreter lock, so a
    contender that never lets go (a TA spinning without `check_abort`)
    delays each request of the others by about that much.
    """

    def __init__(self):
        self._mutex = threading.Lock()
        self._local = _TurnstileLocal()
        self._running = 0           # contenders in an exchange, or woken
        self._parked = deque()      # each parked thread's waiter, oldest first

    def enter(self):
        """Enter an exchange; the outermost one makes this thread a
        contender."""
        turn = self._local.turn
        depth = turn.depth
        turn.depth = depth + 1
        if not depth:
            with self._mutex:
                self._running += 1

    def leave(self):
        """Leave an exchange; at the outermost one, park while another
        contender takes its turn. Call with no lock held."""
        turn = self._local.turn
        turn.depth -= 1
        if turn.depth:
            return
        with self._mutex:
            self._running -= 1
            if not (self._running or self._parked):
                return
            self._handover()
            waiter = turn.waiter
            self._parked.append(waiter)
        self._park(waiter)

    def _park(self, waiter):
        """Wait for a turn, or for the switch interval to run out. Every
        path leaves the waiter locked, as it rests between parks."""
        woken = waiter.acquire(True, sys.getswitchinterval())
        with self._mutex:
            # A waiter that `_handover` popped and released just as the
            # bound ran out was handed a turn all the same.
            if woken or waiter.acquire(False):
                self._running -= 1              # our turn is here
            else:
                self._parked.remove(waiter)     # the bound ran out
            self._handover()

    @contextmanager
    def stepped_out(self):
        """Not a contender for the body: a thread that waits there does
        not hold up the others."""
        if not self._local.turn.depth:
            yield
            return
        with self._mutex:
            self._running -= 1
            self._handover()
        try:
            yield
        finally:
            with self._mutex:
                self._running += 1

    def _handover(self):
        """The last running contender wakes the oldest parked one, or it
        would wait out its bound. Caller holds the mutex."""
        if not self._running and self._parked:
            self._running += 1
            self._parked.popleft().release()


class _Exchange:
    """`with fabric.exchange(slot) as load`: the slot lock for one request,
    a turn at the turnstile, and the slot's load, `(uuid, generation)`
    with uuid None unless the slot is TAKEN. The load is read under the
    slot lock, under which a load commits and a scrub frees the slot, so
    it holds until the exchange ends; no manager lock is taken. A thread
    that misses the lock for a switch interval waits on outside the
    contention, lest it hold up every other client."""

    __slots__ = ("_slot", "_turnstile")

    def __init__(self, slot, turnstile):
        self._slot = slot
        self._turnstile = turnstile

    def __enter__(self):
        self._turnstile.enter()
        slot = self._slot
        lock = slot.runtime.lock
        if not (lock.acquire(False)
                or lock.acquire(True, sys.getswitchinterval())):
            with self._turnstile.stepped_out():
                lock.acquire()
        return (slot.uuid if slot.state is _TAKEN else None), slot.generation

    def __exit__(self, *exc_info):
        # Parks, if at all, only after the slot lock is let go.
        self._slot.runtime.lock.release()
        self._turnstile.leave()
        return False


class EnclaveSlot:
    """The manager's one record of an enclave: lifecycle state, the uuid it
    loads or hosts, the load's generation and its open-retains. The core
    owns the slot lock, the reset and the session count."""

    def __init__(self, index, runtime, turnstile):
        self.index = index
        self.runtime = runtime
        self.exchange = _Exchange(self, turnstile)
        self.state = SlotState.FREE
        self.uuid = None
        self.generation = 0  # completed loads; binds sessions to one load
        self.pending = 0


class _Slots(dict):
    """Slot index -> EnclaveSlot. Every entry point looks its slot up
    here, so an index that names no slot (-1, one past the end, "0") is
    refused in one place; a hit runs no Python code."""

    def __missing__(self, index):
        raise AccessDeniedError(f"no slot {index!r}")


class Fabric:
    """The three agent blocks plus slot bookkeeping and the event log."""

    def __init__(self, config=None):
        self.config = (config or SimConfig()).validate()
        storage_root = Path(self.config.storage_dir)
        self.services = TeeServices(
            rng=Csprng(seed=self.config.rng_seed),
            storage=SealedStorage(storage_root, self.config.device_key()))
        self.delay = DelayModel(self.config.dma_ns_per_byte,
                                self.config.dma_ns_per_op)
        self.cm = CmRegion()
        uart_dir = self.config.uart_dir
        if uart_dir is not None:
            Path(uart_dir).mkdir(parents=True, exist_ok=True)
        self.turnstile = Turnstile()
        self._slots = _Slots()
        for index in range(self.config.enclave_count):
            uart_path = None
            if uart_dir is not None:
                uart_path = Path(uart_dir) / f"enclave{index}.log"
            runtime = EnclaveRuntime(index, self.services, self.turnstile,
                                     uart_path)
            self._slots[index] = EnclaveSlot(index, runtime, self.turnstile)
        # The manager lock, always taken with `with` on the lock itself; the
        # condition over it serves only the threads that wait for a slot to
        # change state, and `_waiting` counts them, so that a change wakes
        # nobody when nobody waits.
        self._manager = threading.Lock()
        self._changed = threading.Condition(self._manager)
        self._waiting = 0
        self._load_count = 0
        self._events = deque(maxlen=EVENT_CAPACITY)
        self._seq = 0
        self._log_lock = threading.Lock()
        self._log("boot", None, len(self._slots), self.config.device_profile)

    # ---- staging (CM region) ----

    def cm_stage(self, image_bytes):
        """Stage a TA binary; returns (offset, size) inside the CM region."""
        data = bytes(image_bytes)
        offset = self.cm.alloc(len(data))
        self.cm.write(offset, data)
        self._log("stage", None, offset, len(data))
        return offset, len(data)

    def cm_release(self, offset):
        self.cm.free(offset)
        self._log("release", None, offset)

    # ---- manager agent ----

    def manager_open(self, ta_uuid, cm_addr, size):
        """Find or create the slot hosting ta_uuid; retains the slot for one
        follow-up OPEN dispatch. Returns (slot_index, fresh_load)."""
        with self._manager:
            while True:
                record = self._hosting(ta_uuid)
                if record is None:
                    break
                if record.state is _TAKEN:
                    record.pending += 1
                    self._log("open", record.index, ta_uuid, True)
                    return record.index, False
                # Another caller is loading this TA; join its outcome.
                self._wait()
            if size > MAX_IMAGE_SIZE:
                self._log("load_status", None, ta_uuid, LoadStatus.ERR_SIZE)
                raise ImageSizeError(
                    f"image of {size} bytes exceeds the {MAX_IMAGE_SIZE}-byte "
                    f"private memory")
            # The one CM read and the one check of this load: the loader
            # copies these bytes to TCM, and the core boots from the check.
            data = self.cm.read(cm_addr, size)
            try:
                uuid_bytes, ta_kind, total = decode_image_header(data)
                if total != size:
                    raise ImageFormatError(
                        f"payload_len {total - IMAGE_HEADER_SIZE} "
                        f"inconsistent with the {size}-byte staged image")
                # Matched as the integer a UUID holds: no UUID is built
                # for the header unless it is refused.
                if not (isinstance(ta_uuid, uuid_mod.UUID) and ta_uuid.int
                        == int.from_bytes(uuid_bytes, "big")):
                    raise ImageFormatError(
                        f"image uuid {uuid_mod.UUID(bytes=uuid_bytes)} does "
                        f"not match requested {ta_uuid}")
                factory = ta_factory(ta_kind)
                if factory is None:
                    raise ImageFormatError(
                        f"no trusted application registered for ta_kind "
                        f"{ta_kind}")
            except (ImageFormatError, ImageSizeError):
                self._log("load_status", None, ta_uuid, LoadStatus.ERR_FORMAT)
                raise
            record = self._acquire_free_slot(ta_uuid)
        slot = record.index
        try:
            self._loader_copy(record, data)
            record.runtime.deassert_reset(ta_uuid, ta_kind, size, factory)
        except Exception:
            with self._manager:
                self._log("load_status", slot, ta_uuid, LoadStatus.ERR_FORMAT)
                record.state = _CLEANING
            self._scrub(record)
            raise
        # Committed under the slot lock too, which an exchange reads under.
        with record.runtime.lock, self._manager:
            record.state = _TAKEN
            record.generation += 1
            record.pending = 1
            self._load_count += 1
            self._log("load_status", slot, ta_uuid, LoadStatus.LOADED)
            if self._waiting:
                self._changed.notify_all()
        self._log("open", slot, ta_uuid, False)
        return slot, True

    def _hosting(self, ta_uuid):
        """The record LOADING or TAKEN for ta_uuid, or None; no uuid is
        claimed on two slots. Caller holds the manager lock."""
        for record in self._slots.values():
            state = record.state
            # `is` first: the manager stores the caller's own UUID.
            if ((state is _TAKEN or state is _LOADING) and (
                    record.uuid is ta_uuid or record.uuid == ta_uuid)):
                return record
        return None

    def _wait(self, timeout=None):
        """Wait for a slot to change state, counted in `_waiting` while it
        waits. Caller holds the manager lock."""
        self._waiting += 1
        try:
            self._changed.wait(timeout)
        finally:
            self._waiting -= 1

    def _acquire_free_slot(self, ta_uuid):
        """Claim the lowest-index free slot for loading ta_uuid; waits out
        in-flight cleanups before declaring the fabric full. Caller holds
        the manager lock."""
        while True:
            for record in self._slots.values():
                if record.state is SlotState.FREE:
                    record.state = _LOADING
                    record.uuid = ta_uuid
                    return record
            if not any(r.state is _CLEANING for r in self._slots.values()):
                self._log("load_status", None, ta_uuid, LoadStatus.ERR_FULL)
                raise OutOfEnclavesError("no free enclave slot")
            self._wait()

    def _loader_copy(self, record, data):
        """Loader agent DMA: the staged bytes land at TCM offset 0."""
        start = time.perf_counter_ns()
        self.delay.charge(len(data))
        record.runtime.load_image(data)
        self._log("load", record.index, len(data),
                  time.perf_counter_ns() - start)

    def manager_close(self, slot_index):
        """Tear one slot down: reset, zeroize, mark free. Idempotent; a load
        or teardown already under way is waited out first."""
        record = self._slots[slot_index]
        with self._manager:
            while record.state is _LOADING or record.state is _CLEANING:
                self._wait()
            if record.state is SlotState.FREE:
                return
            record.state = _CLEANING
        self._scrub(record)

    def release_pending(self, slot_index):
        """Drop the retain of a `manager_open` that no OPEN dispatch
        follows; may scrub a slot nobody uses any more. The reply to an
        OPEN drops its own retain."""
        self._maybe_cleanup(self._slots[slot_index], release=True)

    def _maybe_cleanup(self, record, release=False):
        """Scrub a TAKEN slot whose core faulted, or that has no session
        and no pending open, after dropping one open-retain when `release`
        is set; all in one hold of the manager lock, so no reader sees the
        slot unheld yet TAKEN. A slot already CLEANING is left to the
        scrub under way."""
        with self._manager:
            if release:
                record.pending = max(0, record.pending - 1)
            if record.state is not _TAKEN or (not record.runtime.faulted and (
                    record.pending or record.runtime.session_count)):
                return
            record.state = _CLEANING
        self._scrub(record)

    def _scrub(self, record):
        """CLEANING -> FREE on the calling thread. The reset aborts a
        dispatch in flight and zeroizes after any REE window copy already
        under way; CLEANING refuses new ones. The slot is freed under its
        lock, under which an exchange reads the load."""
        runtime = record.runtime
        runtime.assert_reset()
        with runtime.lock, self._manager:
            record.state = SlotState.FREE
            record.uuid = None
            record.pending = 0
            if self._waiting:
                self._changed.notify_all()
        self._log("close", record.index)

    # ---- communication agent ----

    def comm_dispatch(self, slot_index, frame):
        """Copy a frame to the slot mailbox, ring INT, return the reply."""
        record = self._slots[slot_index]
        runtime = record.runtime
        with runtime.lock:
            if record.state is not _TAKEN:
                raise AccessDeniedError(f"slot {slot_index} is not taken")
            request = encode_frame(frame)
            start = time.perf_counter_ns()
            self.delay.charge(MAILBOX_BYTES)
            reply = None
            try:
                packed = runtime.deliver(request)
                self.delay.charge(MAILBOX_BYTES)
                reply = decode_reply(packed)
            except EnclaveResetError:
                raise AccessDeniedError(
                    f"slot {slot_index} was reset mid-request") from None
            finally:
                # On every exit, a reply or an exception: the code is None
                # when no reply came back.
                self._log("dispatch", slot_index, frame.operation,
                          frame.cmd_id, None if reply is None else reply.code,
                          time.perf_counter_ns() - start)
                # Under the slot lock, so the slot still holds the load
                # that answered. A faulted core is scrubbed at once, which
                # ends every session on the slot; a CLOSE frees the slot
                # at its last one.
                if runtime.faulted or frame.operation is _CLOSE:
                    self._maybe_cleanup(record)
                elif frame.operation is _OPEN:
                    # The exchange ends this open's retain, whatever its
                    # outcome.
                    self._maybe_cleanup(record, release=True)
        return reply

    def exchange(self, slot_index):
        """Context manager serializing a multi-step request on one slot;
        leaving it hands the interpreter to another client in flight."""
        return self._slots[slot_index].exchange

    def shm_write(self, slot_index, offset, data):
        """REE copy into the slot's shared window (costed transfer): bytes
        and bytearray go into the window in one copy, with no staging."""
        record = self._slots[slot_index]
        with record.runtime.lock:
            if record.state is not _TAKEN:
                raise AccessDeniedError(f"slot {slot_index} is not taken")
            if type(data) is not bytes and type(data) is not bytearray:
                data = bytes(data)
            # Charged after the window's bounds check: a refused copy is free.
            record.runtime.window.write(offset, data)
            self.delay.charge(len(data))

    def shm_read(self, slot_index, offset, length):
        """REE copy out of the slot's shared window (costed transfer)."""
        record = self._slots[slot_index]
        with record.runtime.lock:
            if record.state is not _TAKEN:
                raise AccessDeniedError(f"slot {slot_index} is not taken")
            data = record.runtime.window.read(offset, length)
            self.delay.charge(length)
            return data

    # ---- observability ----

    def _log(self, kind, slot, *values):
        """Log `values` in the order `_EVENT_FIELDS[kind]` names them."""
        # _log_lock is a leaf: callers may hold the manager or a slot lock.
        with self._log_lock:
            self._seq += 1
            # Not Event(...): tuple.__new__ skips its Python-level __new__.
            self._events.append(
                tuple.__new__(Event, (self._seq, kind, slot, values)))

    def events(self, kind=None):
        """The last EVENT_CAPACITY records, oldest first; only those of
        `kind` when given."""
        with self._log_lock:
            kept = tuple(self._events)
        if kind is None:
            return kept
        return tuple(event for event in kept if event.kind == kind)

    @property
    def load_count(self):
        with self._manager:
            return self._load_count

    @property
    def loaded_tas(self):
        """{uuid: slot index} of the TAs the slots host now."""
        with self._manager:
            return {r.uuid: r.index for r in self._slots.values()
                    if r.state is _TAKEN}

    def slot_snapshot(self):
        with self._manager:
            return [{
                "slot": r.index,
                "tcm_base": f"tcm{r.index}",
                "state": r.state.name,
                "uuid": None if r.uuid is None else str(r.uuid),
                "sessions": r.runtime.session_count,
                "pending": r.pending,
            } for r in self._slots.values()]

    def slot_runtime(self, slot_index):
        return self._slots[slot_index].runtime

    def audit(self):
        """Check slot-allocation soundness; raises AssertionError on drift.

        No uuid may be loading or hosted on two slots. Each slot is then
        checked under its slot lock, which a CLOSE holds from the core
        dropping the session until the fabric frees the slot: a TAKEN slot
        has a uuid and a session or a pending open. A TA that ignores the
        abort and holds its slot blocks the audit."""
        with self._manager:
            claimed = [r.uuid for r in self._slots.values()
                       if r.state in (_LOADING, _TAKEN)]
        if len(set(claimed)) != len(claimed):
            raise AssertionError(f"a TA is on two slots: {claimed}")
        for record in self._slots.values():
            with record.runtime.lock, self._manager:
                if record.state is _TAKEN and (record.uuid is None or not (
                        record.pending or record.runtime.session_count)):
                    raise AssertionError(
                        f"slot {record.index} is TAKEN with no uuid, or "
                        f"with no session and no pending open")
        return self.slot_snapshot()

    def wait_idle(self, timeout=30):
        """Block until no slot is CLEANING: scrubs run on the thread that
        frees the slot, so this only waits out those still in progress."""
        deadline = time.monotonic() + timeout
        with self._manager:
            while any(r.state is _CLEANING for r in self._slots.values()):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError("cleanup did not drain")
                self._wait(remaining)

    def shutdown(self):
        """Tear every slot down through `manager_close`, so each ends FREE,
        its core held in reset and zeroized. A TA in flight is aborted,
        and its core zeroizes once the request lets go of the slot lock;
        a TA that ignores the abort blocks this, as it blocks
        manager_close. Each core's UART file is closed after its slot."""
        for record in self._slots.values():
            self.manager_close(record.index)
            record.runtime.uart.close()
        self._log("shutdown", None)
