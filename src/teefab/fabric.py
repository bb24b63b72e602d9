"""Emulated fabric: the manager, loader and communication agent blocks."""

from __future__ import annotations

import threading
import time
import uuid as uuid_mod
from collections import deque
from enum import IntEnum
from pathlib import Path
from typing import NamedTuple

from .config import SimConfig
from .enclave import EnclaveRuntime, EnclaveResetError
from .internal_api import Csprng, SealedStorage, TeeServices
from .protocol import (
    CM_ALIGNMENT,
    CM_REGION_SIZE,
    MAILBOX_WORDS,
    MAX_IMAGE_SIZE,
    AccessDeniedError,
    ImageFormatError,
    ImageSizeError,
    LoadStatus,
    ManagerRegisters,
    OperationId,
    OutOfEnclavesError,
    OutOfMemoryError,
    ReturnCode,
    decode_frame,
    decode_image,
    decode_reply,
    encode_frame,
)

_MAILBOX_BYTES = MAILBOX_WORDS * 4
EVENT_CAPACITY = 4096


class SlotState(IntEnum):
    FREE = 0
    LOADING = 1
    TAKEN = 2
    CLEANING = 3


# Members read on every dispatch, bound once: on Python 3.11 each
# `Enum.MEMBER` read costs several times a module global's.
_TAKEN = SlotState.TAKEN
_SUCCESS = ReturnCode.SUCCESS
_OPEN, _CLOSE = OperationId.OPEN, OperationId.CLOSE


class Event(NamedTuple):
    """One fabric log record; `seq` numbers every event ever logged, so a
    gap before the oldest kept record counts the events that fell off."""

    seq: int
    kind: str
    slot: int | None
    fields: dict


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


class CmRegion:
    """Flat staging region with a 64-byte-aligned first-fit allocator."""

    def __init__(self, capacity=CM_REGION_SIZE):
        self._buf = bytearray(capacity)
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
        return bytes(self._buf[offset:offset + length])

    def _check(self, offset, length):
        if offset < 0 or length < 0 or offset + length > len(self._buf):
            raise OutOfMemoryError(
                f"staging access [{offset}, +{length}) out of range")


def _align(offset):
    return (offset + CM_ALIGNMENT - 1) & ~(CM_ALIGNMENT - 1)


class EnclaveSlot:
    """Manager bookkeeping for one enclave: lifecycle state, the hosted load
    and its open-retains. The core owns the slot lock, the reset and the
    session count."""

    def __init__(self, index, runtime):
        self.index = index
        self.runtime = runtime
        self.tcm_base = f"tcm{index}"
        self.state = SlotState.FREE
        self.uuid = None
        self.generation = 0  # completed loads; binds sessions to one load
        self.pending = 0


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
        self.registers = ManagerRegisters()
        self.cm = CmRegion()
        uart_dir = self.config.uart_dir
        if uart_dir is not None:
            Path(uart_dir).mkdir(parents=True, exist_ok=True)
        self._slots = []
        for index in range(self.config.enclave_count):
            runtime = EnclaveRuntime(index, self.services)
            if uart_dir is not None:
                runtime.uart.attach_file(Path(uart_dir) / f"enclave{index}.log")
            self._slots.append(EnclaveSlot(index, runtime))
        self.loaded_tas = {}
        self._loading = set()
        self._manager = threading.Condition()
        self._load_count = 0
        self._events = deque(maxlen=EVENT_CAPACITY)
        self._seq = 0
        self._log_lock = threading.Lock()
        self._log("boot", None, slots=len(self._slots),
                  device=self.config.device_profile)

    # ---- staging (CM region) ----

    def cm_stage(self, image_bytes):
        """Stage a TA binary; returns (offset, size) inside the CM region."""
        data = bytes(image_bytes)
        offset = self.cm.alloc(len(data))
        self.cm.write(offset, data)
        self._log("stage", None, offset=offset, size=len(data))
        return offset, len(data)

    def cm_release(self, offset):
        self.cm.free(offset)
        self._log("release", None, offset=offset)

    # ---- manager agent ----

    def manager_open(self, ta_uuid, cm_addr, size):
        """Find or create the slot hosting ta_uuid; retains the slot for one
        follow-up OPEN dispatch. Returns (slot_index, fresh_load)."""
        with self._manager:
            while True:
                slot = self.loaded_tas.get(ta_uuid)
                if slot is not None:
                    self._slots[slot].pending += 1
                    self._log("open", slot, uuid=ta_uuid, warm=True)
                    return slot, False
                if ta_uuid not in self._loading:
                    break
                # Another caller is loading this TA; join its outcome.
                self._manager.wait()
            self.registers.uuid = ta_uuid
            self.registers.addr = cm_addr
            self.registers.size = size
            if size > MAX_IMAGE_SIZE:
                self._load_status(LoadStatus.ERR_SIZE)
                raise ImageSizeError(
                    f"image of {size} bytes exceeds the {MAX_IMAGE_SIZE}-byte "
                    f"private memory")
            try:
                image = decode_image(self.cm.read(cm_addr, size))
            except (ImageFormatError, ImageSizeError):
                self._load_status(LoadStatus.ERR_FORMAT)
                raise
            if image.uuid != ta_uuid:
                self._load_status(LoadStatus.ERR_FORMAT)
                raise ImageFormatError(
                    f"image uuid {image.uuid} does not match requested "
                    f"{ta_uuid}")
            slot = self._acquire_free_slot()
            self._loading.add(ta_uuid)
            self.registers.status = LoadStatus.LOADING
        record = self._slots[slot]
        try:
            self._loader_copy(record, cm_addr, size)
            record.runtime.deassert_reset()
            if record.runtime.snapshot()["ta_kind"] is None:
                raise ImageFormatError(
                    f"no trusted application registered for the image in "
                    f"slot {slot}")
        except Exception:
            record.runtime.assert_reset()
            with self._manager:
                record.state = SlotState.FREE
                self._loading.discard(ta_uuid)
                self._load_status(LoadStatus.ERR_FORMAT, slot)
                self._manager.notify_all()
            raise
        with self._manager:
            record.state = SlotState.TAKEN
            record.uuid = ta_uuid
            record.generation += 1
            record.pending = 1
            self.loaded_tas[ta_uuid] = slot
            self._loading.discard(ta_uuid)
            self._load_status(LoadStatus.LOADED, slot)
            self._manager.notify_all()
        self._log("open", slot, uuid=ta_uuid, warm=False)
        return slot, True

    def _load_status(self, status, slot=None):
        """Log a load's outcome; the status register then reads IDLE again.
        Caller holds the manager lock."""
        self._log("load_status", slot, uuid=self.registers.uuid,
                  status=status)
        self.registers.status = LoadStatus.IDLE

    def _acquire_free_slot(self):
        """Lowest-index free slot; waits out in-flight cleanups before
        declaring the fabric full. Caller holds the manager lock."""
        while True:
            for record in self._slots:
                if record.state is SlotState.FREE:
                    record.state = SlotState.LOADING
                    return record.index
            if not any(r.state is SlotState.CLEANING for r in self._slots):
                raise OutOfEnclavesError("no free enclave slot")
            self._manager.wait()

    def _loader_copy(self, record, cm_addr, size):
        """Loader agent DMA: CM bytes land at TCM offset 0."""
        data = self.cm.read(cm_addr, size)
        start = time.perf_counter_ns()
        self.delay.charge(len(data))
        record.runtime.load_image(data)
        with self._manager:
            self._load_count += 1
        self._log("load", record.index, size=size,
                  dur_ns=time.perf_counter_ns() - start)

    def manager_close(self, slot_index):
        """Tear one slot down: reset, zeroize, mark free. Idempotent; a load
        or teardown already under way is waited out first."""
        record = self._slots[slot_index]
        with self._manager:
            while record.state in (SlotState.LOADING, SlotState.CLEANING):
                self._manager.wait()
            if record.state is SlotState.FREE:
                return
            self._begin_scrub(record)
        self._scrub(record)

    def release_pending(self, slot_index):
        """Drop one open-retain; may scrub a slot nobody uses any more."""
        record = self._slots[slot_index]
        with self._manager:
            record.pending = max(0, record.pending - 1)
        self._maybe_cleanup(record)

    def _maybe_cleanup(self, record):
        with self._manager:
            if (record.state is not _TAKEN or record.pending
                    or record.runtime.session_count):
                return
            self._begin_scrub(record)
        self._scrub(record)

    def _begin_scrub(self, record):
        """TAKEN -> CLEANING; caller holds the manager lock."""
        if record.uuid is not None:
            self.loaded_tas.pop(record.uuid, None)
        record.state = SlotState.CLEANING

    def _scrub(self, record):
        """CLEANING -> FREE on the calling thread. The reset aborts a
        dispatch in flight and zeroizes after any REE window copy already
        under way; CLEANING refuses new ones. The slot is freed under its
        lock, which `slot_load` relies on."""
        runtime = record.runtime
        runtime.assert_reset()
        with runtime.lock, self._manager:
            record.state = SlotState.FREE
            record.uuid = None
            record.pending = 0
            self._manager.notify_all()
        self._log("close", record.index)

    # ---- communication agent ----

    def comm_dispatch(self, slot_index, frame):
        """Copy a frame to the slot mailbox, ring INT, return the reply."""
        record = self._slots[slot_index]
        runtime = record.runtime
        with runtime.lock:
            if record.state is not _TAKEN:
                raise AccessDeniedError(f"slot {slot_index} is not taken")
            if self.config.quarantine_on_fault and runtime.faulted:
                raise AccessDeniedError(
                    f"slot {slot_index} is quarantined after a fault")
            words = encode_frame(frame)
            start = time.perf_counter_ns()
            self.delay.charge(_MAILBOX_BYTES)
            try:
                reply_words = runtime.deliver(words)
            except EnclaveResetError:
                raise AccessDeniedError(
                    f"slot {slot_index} was reset mid-request") from None
            self.delay.charge(_MAILBOX_BYTES)
            reply = decode_reply(reply_words)
            self._log("dispatch", slot_index, op=frame.operation,
                      cmd=frame.cmd_id, code=reply.code,
                      dur_ns=time.perf_counter_ns() - start)
            if frame.operation is _OPEN:
                if reply.code is _SUCCESS:
                    # The core counts the session; this open's retain ends.
                    # Freeing the slot needs the lock held here, so the
                    # retain still belongs to the load that answered.
                    with self._manager:
                        record.pending = max(0, record.pending - 1)
            elif frame.operation is _CLOSE:
                # Whatever the reply code: a TA that faults while closing
                # still loses the session in the core.
                self._maybe_cleanup(record)
        return reply

    def exchange(self, slot_index):
        """Context manager serializing a multi-step request on one slot."""
        return self._slots[slot_index].runtime.lock

    def slot_load(self, slot_index):
        """(uuid, generation) of the load the slot hosts; uuid is None unless
        the slot is TAKEN. Read under `exchange`, it holds until released:
        freeing the slot needs that lock."""
        record = self._slots[slot_index]
        with self._manager:
            taken = record.state is _TAKEN
            return (record.uuid if taken else None), record.generation

    def shm_write(self, slot_index, offset, data):
        """REE copy into the slot's shared window (costed transfer)."""
        record = self._slots[slot_index]
        with record.runtime.lock:
            if record.state is not _TAKEN:
                raise AccessDeniedError(f"slot {slot_index} is not taken")
            data = bytes(data)
            self.delay.charge(len(data))
            record.runtime.window.write(offset, data)

    def shm_read(self, slot_index, offset, length):
        """REE copy out of the slot's shared window (costed transfer)."""
        record = self._slots[slot_index]
        with record.runtime.lock:
            if record.state is not _TAKEN:
                raise AccessDeniedError(f"slot {slot_index} is not taken")
            self.delay.charge(length)
            return record.runtime.window.read(offset, length)

    # ---- observability ----

    def _log(self, kind, slot, **fields):
        # _log_lock is a leaf: callers may hold the manager or a slot lock.
        with self._log_lock:
            self._seq += 1
            self._events.append(Event(self._seq, kind, slot, fields))

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

    def slot_snapshot(self):
        with self._manager:
            return [{
                "slot": r.index,
                "tcm_base": r.tcm_base,
                "state": r.state.name,
                "uuid": None if r.uuid is None else str(r.uuid),
                "sessions": r.runtime.session_count,
                "pending": r.pending,
            } for r in self._slots]

    def slot_runtime(self, slot_index):
        return self._slots[slot_index].runtime

    def audit(self):
        """Check slot-allocation soundness; raises AssertionError on drift."""
        with self._manager:
            mapped = {}
            for ta_uuid, slot in self.loaded_tas.items():
                if slot in mapped.values():
                    raise AssertionError(f"slot {slot} mapped twice")
                mapped[ta_uuid] = slot
            for record in self._slots:
                taken = record.state is SlotState.TAKEN
                in_map = record.uuid is not None and \
                    self.loaded_tas.get(record.uuid) == record.index
                if taken != in_map:
                    raise AssertionError(
                        f"slot {record.index}: taken={taken} but mapping "
                        f"says {in_map}")
            return self.slot_snapshot()

    def wait_idle(self, timeout=30):
        """Block until no slot is CLEANING: scrubs run on the thread that
        frees the slot, so this only waits out those still in progress."""
        deadline = time.monotonic() + timeout
        with self._manager:
            while any(r.state is SlotState.CLEANING for r in self._slots):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError("cleanup did not drain")
                self._manager.wait(remaining)

    def shutdown(self):
        """Hold every core in reset, zeroized. A TA in flight is aborted,
        and each core zeroizes once its request lets go of the slot lock;
        a TA that ignores the abort blocks this, as it blocks
        manager_close."""
        for record in self._slots:
            record.runtime.assert_reset()
        self._log("shutdown", None)
