"""Fabric agents: loads, slot lifecycle, dispatch, observability."""

import os
import random
import subprocess
import sys
import threading
import time
from array import array
from pathlib import Path

import pytest

from conftest import make_image
import teefab
from teefab import client_api, enclave, protocol
from teefab import fabric as fabric_module
from teefab.client_api import Context, Direction, Operation, Value
from teefab.enclave import (
    TA_KIND_ECHO,
    TA_KIND_INCREMENT,
    TA_KIND_SHMEM16,
    Space,
    TrustedApp,
    register_ta_kind,
)
from teefab.fabric import (
    EVENT_CAPACITY,
    DelayModel,
    Event,
    Fabric,
    Turnstile,
)
from teefab.protocol import (
    MAX_IMAGE_SIZE,
    SHM_WINDOW_SIZE,
    TCM_SIZE,
    AccessDeniedError,
    ImageFormatError,
    ImageSizeError,
    ItemNotFoundError,
    LoadStatus,
    MailboxFrame,
    OperationId,
    OutOfEnclavesError,
    ParamKind,
    ReplyFrame,
    ReturnCode,
    TeeError,
    decode_frame,
    decode_reply,
    encode_frame,
    encode_reply,
)
from teefab.wallet.client import WalletClient, WalletError
from test_acceptance import PIN, REFERENCE_MNEMONIC, WALLET_VECTORS

TA_KIND_SECOND_OPEN_FAULT = 244
TA_KIND_TRIPWIRE = 245
TA_KIND_STALL = 246
TA_KIND_BAD_CLOSE = 247
TA_KIND_BAD_DESTROY = 248
TA_KIND_NAP = 249
TA_KIND_SPIN = 250
TA_KIND_STORAGE_PROBE = 251
TA_KIND_REFUSE_OPEN = 252
TA_KIND_WIDEN = 236
TA_KIND_EXIT_ON_OPEN = 230
TA_KIND_EXIT_ON_INVOKE = 231
TA_KIND_ODD_CODE = 232
TA_KIND_REFUSE_THEN_BAD_DESTROY = 233
TA_KIND_INTERRUPT = 234
TA_KIND_UNREADABLE_CODE = 235


class TripwireTa(TrustedApp):
    """Faults on purpose so scrub-on-fault is testable."""

    def invoke_command(self, session, cmd_id, params):
        raise RuntimeError("tripwire")


class StallTa(TrustedApp):
    """Blocks inside invoke until the core is reset."""

    started = threading.Event()

    def invoke_command(self, session, cmd_id, params):
        StallTa.started.set()
        self.env.sleep(30.0)


class BadCloseTa(TrustedApp):
    """Faults while closing a session."""

    def close_session(self, session):
        raise RuntimeError("close fault")


class BadDestroyTa(TrustedApp):
    """Faults while tearing its instance down after the last close."""

    def destroy(self):
        raise RuntimeError("destroy fault")


class NapTa(TrustedApp):
    """Waits in env.sleep for a second inside invoke."""

    started = threading.Event()

    def invoke_command(self, session, cmd_id, params):
        NapTa.started.set()
        self.env.sleep(1.0)


class SpinTa(TrustedApp):
    """Spins for 0.6 s inside invoke and never checks for an abort."""

    started = threading.Event()

    def invoke_command(self, session, cmd_id, params):
        SpinTa.started.set()
        deadline = time.monotonic() + 0.6
        while time.monotonic() < deadline:
            pass


class StorageProbeTa(TrustedApp):
    """cmd 0: `get` value a distinct made-up object ids, none stored."""

    def invoke_command(self, session, cmd_id, params):
        count, _ = params.value(0)
        for index in range(count):
            try:
                self.env.storage.get(b"probe-%d" % index)
            except ItemNotFoundError:
                pass


class RefuseOpenTa(TrustedApp):
    """Refuses every session."""

    def open_session(self, params):
        raise AccessDeniedError("no sessions here")


class ExitOnOpenTa(TrustedApp):
    """Raises SystemExit, which is no Exception, from open_session."""

    def open_session(self, params):
        raise SystemExit("exit in open")


class ExitOnInvokeTa(TrustedApp):
    """Raises SystemExit from invoke_command."""

    def invoke_command(self, session, cmd_id, params):
        raise SystemExit("exit in invoke")


class OddCodeError(TeeError):
    """A TeeError whose code is no ReturnCode."""

    code = 42


class OddCodeTa(TrustedApp):
    """Refuses every session with an OddCodeError."""

    def open_session(self, params):
        raise OddCodeError("odd code")


class UnreadableCodeError(TeeError):
    """A TeeError whose code raises when it is read."""

    @property
    def code(self):
        raise RuntimeError("code unreadable")


class UnreadableCodeTa(TrustedApp):
    """Refuses every session with an UnreadableCodeError."""

    def open_session(self, params):
        raise UnreadableCodeError("unreadable code")


class RefuseThenBadDestroyTa(RefuseOpenTa):
    """Refuses every session, then faults in the destroy that follows."""

    def destroy(self):
        raise ValueError("destroy fault")


class InterruptTa(TrustedApp):
    """Raises KeyboardInterrupt from invoke_command."""

    def invoke_command(self, session, cmd_id, params):
        raise KeyboardInterrupt


class SecondOpenFaultTa(TrustedApp):
    """Opens one session per load, then faults on the next open."""

    def __init__(self, env):
        super().__init__(env)
        self.opened = False

    def open_session(self, params):
        if self.opened:
            raise RuntimeError("second open")
        self.opened = True
        return super().open_session(params)


class WidenTa(TrustedApp):
    """Tries to widen its reach through the handles it is handed. cmd 0
    grants itself the whole window, then reads it and overwrites its
    first 64 bytes; cmd 1 points its UART at `path`, then logs a line;
    cmd 2 keeps its handles in `handed`. Each step's result, or the type
    of the exception it raised, goes to `outcomes`."""

    outcomes = []
    path = None
    handed = {}

    def invoke_command(self, session, cmd_id, params):
        if cmd_id == 2:
            WidenTa.handed.update(
                env=self.env, rng=self.env.rng, storage=self.env.storage,
                uart=self.env.uart, params=params, memory=params.memory,
                memref=params.memref(0))
            return
        if cmd_id == 0:
            mem = params.memory
            steps = (lambda: mem.grant(0, SHM_WINDOW_SIZE),
                     lambda: mem.window_read(0, SHM_WINDOW_SIZE),
                     lambda: mem.window_write(0, b"\xee" * 64))
        else:
            uart = self.env.uart
            steps = (lambda: uart.attach_file(WidenTa.path),
                     lambda: uart.log("widen: a line"))
        for step in steps:
            try:
                WidenTa.outcomes.append(step())
            except Exception as exc:
                WidenTa.outcomes.append(type(exc))


register_ta_kind(TA_KIND_TRIPWIRE, TripwireTa)
register_ta_kind(TA_KIND_STALL, StallTa)
register_ta_kind(TA_KIND_BAD_CLOSE, BadCloseTa)
register_ta_kind(TA_KIND_BAD_DESTROY, BadDestroyTa)
register_ta_kind(TA_KIND_NAP, NapTa)
register_ta_kind(TA_KIND_SPIN, SpinTa)
register_ta_kind(TA_KIND_STORAGE_PROBE, StorageProbeTa)
register_ta_kind(TA_KIND_REFUSE_OPEN, RefuseOpenTa)
register_ta_kind(TA_KIND_SECOND_OPEN_FAULT, SecondOpenFaultTa)
register_ta_kind(TA_KIND_WIDEN, WidenTa)
register_ta_kind(TA_KIND_EXIT_ON_OPEN, ExitOnOpenTa)
register_ta_kind(TA_KIND_EXIT_ON_INVOKE, ExitOnInvokeTa)
register_ta_kind(TA_KIND_ODD_CODE, OddCodeTa)
register_ta_kind(TA_KIND_REFUSE_THEN_BAD_DESTROY, RefuseThenBadDestroyTa)
register_ta_kind(TA_KIND_INTERRUPT, InterruptTa)
register_ta_kind(TA_KIND_UNREADABLE_CODE, UnreadableCodeTa)


def open_frame():
    return MailboxFrame.build(OperationId.OPEN, 0)


def close_frame(session_id):
    return MailboxFrame.build(OperationId.CLOSE, session_id)


def open_ta(fabric, ta_kind, tag=0, payload=b""):
    """Load and OPEN one TA; returns (slot, session_id)."""
    ta_uuid, image = make_image(ta_kind, tag=tag, payload=payload)
    slot, _fresh = fabric.manager_open(ta_uuid, image)
    reply = fabric.comm_dispatch(slot, open_frame())
    assert reply.code is ReturnCode.SUCCESS
    return slot, reply.session_id


def load_statuses(fabric):
    return [event.fields["status"] for event in fabric.events("load_status")]


def test_cold_then_warm_open(fabric):
    ta_uuid, image = make_image(TA_KIND_INCREMENT)
    slot, fresh = fabric.manager_open(ta_uuid, image)
    assert fresh and fabric.load_count == 1
    again, fresh = fabric.manager_open(ta_uuid, image)
    assert again == slot and not fresh
    assert fabric.load_count == 1
    assert load_statuses(fabric) == [LoadStatus.LOADED]
    fabric.release_pending(slot)
    fabric.release_pending(slot)
    fabric.wait_idle()
    assert fabric.slot_snapshot()[slot]["state"] == "FREE"


def test_the_exchange_reads_its_load_without_the_manager_lock(fabric):
    """A warm request checks its slot's load under the slot lock alone, so
    a manager busy elsewhere does not hold it up."""
    ta_uuid, image = make_image(TA_KIND_INCREMENT)
    slot, _fresh = fabric.manager_open(ta_uuid, image)
    hosted = []

    def read_load():
        with fabric.exchange(slot) as load:
            hosted.append(load)

    with fabric._manager:
        reader = threading.Thread(target=read_load)
        reader.start()
        reader.join(timeout=2.0)
        assert not reader.is_alive()
    assert hosted == [(ta_uuid, 1)]
    fabric.release_pending(slot)


def test_oversized_image_rejected(fabric):
    ta_uuid, _ = make_image(TA_KIND_INCREMENT)
    with pytest.raises(ImageSizeError):
        fabric.manager_open(ta_uuid, bytes(MAX_IMAGE_SIZE + 1))
    assert load_statuses(fabric) == [LoadStatus.ERR_SIZE]


def test_malformed_image_rejected(fabric):
    ta_uuid, _ = make_image(TA_KIND_INCREMENT)
    with pytest.raises(ImageFormatError):
        fabric.manager_open(ta_uuid, b"not an image at all" * 4)
    assert load_statuses(fabric) == [LoadStatus.ERR_FORMAT]
    assert fabric.slot_snapshot()[0]["state"] == "FREE"


def test_image_uuid_must_match_request(fabric):
    _, image = make_image(TA_KIND_INCREMENT, tag=1)
    wrong_uuid, _ = make_image(TA_KIND_INCREMENT, tag=2)
    with pytest.raises(ImageFormatError):
        fabric.manager_open(wrong_uuid, image)
    assert load_statuses(fabric) == [LoadStatus.ERR_FORMAT]


def _set_word(image, at, word):
    raw = bytearray(image)
    raw[at:at + 4] = word.to_bytes(4, "little")
    return bytes(raw)


@pytest.mark.parametrize("staged, error", [
    (lambda image: image + bytes(64), ImageFormatError),
    (lambda image: image[:-1], ImageFormatError),
    (lambda image: b"TEOX" + image[4:], ImageFormatError),
    (lambda image: _set_word(image, 4, 2), ImageFormatError),
    (lambda image: _set_word(image, 28, MAX_IMAGE_SIZE), ImageSizeError),
], ids=["payload_len_short", "payload_len_long", "magic", "version", "cap"])
def test_staged_image_rejected_before_any_slot(fabric, staged, error):
    """The manager's header check of the bytes it is handed: a
    payload_len that disagrees with their size, a bad magic or version, or
    an image over the cap is ERR_FORMAT, and no slot is touched."""
    ta_uuid, image = make_image(TA_KIND_INCREMENT, payload=b"\x11" * 100)
    with pytest.raises(error):
        fabric.manager_open(ta_uuid, staged(image))
    assert load_statuses(fabric) == [LoadStatus.ERR_FORMAT]
    assert fabric.load_count == 0
    assert all(row["state"] == "FREE" for row in fabric.slot_snapshot())


def test_unregistered_kind_frees_slot(fabric, monkeypatch):
    """A ta_kind with no registered TA is refused by the manager's header
    check, before any slot is claimed: no loader run, no DMA charged, and
    every slot stays FREE and zeroed."""
    ta_uuid, image = make_image(209)
    charges = []
    monkeypatch.setattr(fabric.delay, "charge", charges.append)
    with pytest.raises(ImageFormatError):
        fabric.manager_open(ta_uuid, image)
    assert load_statuses(fabric) == [LoadStatus.ERR_FORMAT]
    assert fabric.load_count == 0 and fabric.events("load") == ()
    assert charges == []
    for slot in range(fabric.config.enclave_count):
        assert_scrubbed(fabric, slot)


def test_a_load_that_fails_after_its_claim_frees_the_slot(fabric,
                                                          monkeypatch):
    """A loader DMA that breaks off half way, after the manager claimed a
    slot: the load is logged ERR_FORMAT on that slot and the slot closed,
    the error reaches the caller, and the slot is FREE and zeroed."""
    ta_uuid, image = make_image(TA_KIND_INCREMENT, payload=b"\xa5" * 256)

    def broken_dma(runtime, data):
        runtime.tcm.write(0, data[:len(data) // 2])
        raise OSError("DMA broke off")

    monkeypatch.setattr(enclave.EnclaveRuntime, "load_image", broken_dma)
    with pytest.raises(OSError, match="DMA broke off"):
        fabric.manager_open(ta_uuid, image)
    failed = [event for event in fabric.events()
              if event.kind in ("load_status", "close")]
    assert [(e.kind, e.slot) for e in failed] == [("load_status", 0),
                                                  ("close", 0)]
    assert failed[0].fields == {"uuid": ta_uuid,
                                "status": LoadStatus.ERR_FORMAT}
    assert fabric.load_count == 0 and fabric.loaded_tas == {}
    assert_scrubbed(fabric, 0)
    fabric.audit()


def test_fabric_full(fabric):
    open_ta(fabric, TA_KIND_INCREMENT, tag=1)
    open_ta(fabric, TA_KIND_ECHO, tag=2)
    ta_uuid, image = make_image(TA_KIND_INCREMENT, tag=3)
    with pytest.raises(OutOfEnclavesError):
        fabric.manager_open(ta_uuid, image)
    assert load_statuses(fabric) == [
        LoadStatus.LOADED, LoadStatus.LOADED, LoadStatus.ERR_FULL]


def test_close_frees_slot_async(fabric):
    slot, sid = open_ta(fabric, TA_KIND_INCREMENT)
    reply = fabric.comm_dispatch(slot, close_frame(sid))
    assert reply.code is ReturnCode.SUCCESS
    fabric.wait_idle()
    row = fabric.slot_snapshot()[slot]
    assert row["state"] == "FREE" and row["uuid"] is None
    assert not fabric.loaded_tas
    fabric.audit()


@pytest.mark.parametrize("index", [-1, -2, 2, "0"],
                         ids=["minus_one", "minus_two", "past_end", "text"])
def test_an_index_that_names_no_slot_is_refused(fabric, index):
    """On two slots, -2 would alias slot 0 and 2 would raise IndexError:
    each entry point refuses any index but 0 and 1, and slot 0 keeps its
    session."""
    slot, sid = open_ta(fabric, TA_KIND_INCREMENT)
    assert slot == 0
    invoke = MailboxFrame.build(OperationId.INVOKE, sid,
                                [(ParamKind.VALUE_INOUT, 7, 0)])
    calls = {
        "manager_close": lambda: fabric.manager_close(index),
        "release_pending": lambda: fabric.release_pending(index),
        "comm_dispatch": lambda: fabric.comm_dispatch(index, invoke),
        "exchange": lambda: fabric.exchange(index),
        "shm_write": lambda: fabric.shm_write(index, 0, b"abcd"),
        "shm_read": lambda: fabric.shm_read(index, 0, 4),
        "slot_runtime": lambda: fabric.slot_runtime(index),
    }
    for name, call in calls.items():
        with pytest.raises(AccessDeniedError, match="no slot"):
            call()
    row = fabric.slot_snapshot()[0]
    assert row["state"] == "TAKEN" and row["sessions"] == 1
    assert fabric.comm_dispatch(0, invoke).gp[0] == 8
    fabric.audit()


def test_release_pending_without_open(fabric):
    ta_uuid, image = make_image(TA_KIND_INCREMENT)
    slot, _ = fabric.manager_open(ta_uuid, image)
    fabric.release_pending(slot)
    fabric.wait_idle()
    assert fabric.slot_snapshot()[slot]["state"] == "FREE"


def test_dispatch_to_free_slot_denied(fabric):
    with pytest.raises(AccessDeniedError):
        fabric.comm_dispatch(0, open_frame())


def test_concurrent_same_uuid_single_load(fabric):
    ta_uuid, image = make_image(TA_KIND_INCREMENT)
    results, errors = [], []

    def opener():
        try:
            results.append(fabric.manager_open(ta_uuid, image))
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=opener) for _ in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert fabric.load_count == 1
    slots = {slot for slot, _ in results}
    assert len(slots) == 1
    assert sum(1 for _, fresh in results if fresh) == 1
    fabric.audit()


def test_quarantine_after_fault(fabric):
    slot, sid = open_ta(fabric, TA_KIND_TRIPWIRE)
    reply = fabric.comm_dispatch(slot, MailboxFrame.build(
        OperationId.INVOKE, sid, [], cmd_id=0))
    assert reply.code is ReturnCode.ERROR_GENERIC
    with pytest.raises(AccessDeniedError):
        fabric.comm_dispatch(slot, close_frame(sid))
    fabric.manager_close(slot)
    assert fabric.slot_snapshot()[slot]["state"] == "FREE"


def test_quarantine_scrubs_the_faulted_slot_at_once(fabric):
    """A TA fault scrubs its slot before the reply returns: every session
    on the slot ends, and the slot is free, unmapped and zeroed rather
    than left TAKEN for good."""
    ta_uuid, image = make_image(TA_KIND_TRIPWIRE, payload=b"\xa5" * 600)
    with Context(fabric) as ctx:
        faulting = ctx.open_session(ta_uuid, image)
        bystander = ctx.open_session(ta_uuid, image)
        slot = faulting.slot_index
        assert bystander.slot_index == slot
        fabric.shm_write(slot, 0, b"\x5a" * 64)
        assert faulting.invoke_command(0).code is ReturnCode.ERROR_GENERIC
        assert_scrubbed(fabric, slot)
        assert not fabric.loaded_tas
        fabric.audit()
        dispatches = len(fabric.events("dispatch"))
        with pytest.raises(AccessDeniedError):
            bystander.invoke_command(0)
        bystander.close()
        faulting.close()
        assert not (bystander.is_open or faulting.is_open)
        assert len(fabric.events("dispatch")) == dispatches
        assert [event.slot for event in fabric.events("close")] == [slot]
    fabric.audit()


def test_a_fault_in_open_ends_every_session_on_the_slot(fabric):
    """An OPEN that faults scrubs the slot before its reply returns, so a
    session already open there ends too, and the next open loads cold."""
    ta_uuid, image = make_image(TA_KIND_SECOND_OPEN_FAULT,
                                payload=b"\xa5" * 600)
    with Context(fabric) as ctx:
        first = ctx.open_session(ta_uuid, image)
        slot = first.slot_index
        fabric.shm_write(slot, 0, b"\x5a" * 64)
        with pytest.raises(TeeError) as refused:
            ctx.open_session(ta_uuid, image)
        assert refused.value.code is ReturnCode.ERROR_GENERIC
        assert_scrubbed(fabric, slot)
        assert not fabric.loaded_tas
        fabric.audit()
        with pytest.raises(AccessDeniedError):
            first.invoke_command(0)
        first.close()
        assert not first.is_open
        again = ctx.open_session(ta_uuid, image)
        assert fabric.load_count == 2
        again.close()
    fabric.audit()


def test_concurrent_cold_loads_log_their_own_uuid(fabric):
    """A cold open of another TA while a load copies must not change the
    uuid that the first load's outcome is logged with."""
    first_uuid, first_image = make_image(TA_KIND_INCREMENT, tag=1)
    second_uuid, second_image = make_image(TA_KIND_ECHO, tag=2)
    copying, second_opened = threading.Event(), threading.Event()
    runtime = fabric.slot_runtime(0)
    load_image = runtime.load_image

    def held_load_image(data):
        copying.set()
        second_opened.wait(5.0)
        load_image(data)

    runtime.load_image = held_load_image
    first = []
    loader = threading.Thread(target=lambda: first.append(
        fabric.manager_open(first_uuid, first_image)))
    loader.start()
    assert copying.wait(5.0)
    second = fabric.manager_open(second_uuid, second_image)
    second_opened.set()
    loader.join(timeout=5.0)
    assert not loader.is_alive()
    assert first == [(0, True)] and second == (1, True)
    assert sorted((event.slot, event.fields["uuid"], event.fields["status"])
                  for event in fabric.events("load_status")) == [
        (0, first_uuid, LoadStatus.LOADED),
        (1, second_uuid, LoadStatus.LOADED)]
    fabric.release_pending(0)
    fabric.release_pending(1)
    fabric.audit()


def test_an_open_that_joins_a_load_is_woken_when_it_commits(fabric):
    """A second open of a TA being loaded waits for that load, and the
    load's commit wakes it: only a change that finds a waiter notifies,
    and one that finds a waiter does."""
    ta_uuid, image = make_image(TA_KIND_INCREMENT)
    copying, release = threading.Event(), threading.Event()
    runtime = fabric.slot_runtime(0)
    load_image = runtime.load_image

    def held_load_image(data):
        copying.set()
        release.wait(5.0)
        load_image(data)

    runtime.load_image = held_load_image
    opened = []
    threads = [threading.Thread(target=lambda: opened.append(
        fabric.manager_open(ta_uuid, image))) for _ in range(2)]
    threads[0].start()
    assert copying.wait(5.0)
    threads[1].start()
    deadline = time.monotonic() + 5.0
    while fabric._waiting != 1 and time.monotonic() < deadline:
        time.sleep(0.001)
    assert fabric._waiting == 1 and opened == []
    release.set()
    for thread in threads:
        thread.join(timeout=5.0)
        assert not thread.is_alive()
    assert opened == [(0, True), (0, False)] and fabric._waiting == 0
    fabric.release_pending(0)
    fabric.release_pending(0)
    fabric.wait_idle()
    assert fabric.slot_snapshot()[0]["state"] == "FREE"


def test_open_session_leaves_the_retain_to_the_open_reply(fabric,
                                                          monkeypatch):
    """The reply to an OPEN drops that open's retain in the fabric, so the
    client never calls release_pending, and a TA that refuses its first
    OPEN leaves its slot free and zeroed once open_session raises."""
    released = []
    release_pending = Fabric.release_pending

    def spy(self, slot_index):
        released.append(slot_index)
        release_pending(self, slot_index)

    monkeypatch.setattr(Fabric, "release_pending", spy)
    refusing_uuid, refusing_image = make_image(TA_KIND_REFUSE_OPEN,
                                               payload=b"\xa5" * 600)
    with Context(fabric) as ctx:
        with pytest.raises(AccessDeniedError):
            ctx.open_session(refusing_uuid, refusing_image)
        assert_scrubbed(fabric, 0)
        assert fabric.events("close")[-1].slot == 0
        assert not fabric.loaded_tas
        fabric.audit()
        with ctx.open_session(*make_image(TA_KIND_INCREMENT)) as session:
            assert fabric.slot_snapshot()[session.slot_index]["pending"] == 0
            fabric.audit()
    assert released == []
    fabric.audit()


def test_shm_round_trip_and_gating(fabric):
    slot, _sid = open_ta(fabric, TA_KIND_ECHO)
    fabric.shm_write(slot, 64, b"through the window")
    assert fabric.shm_read(slot, 64, 18) == b"through the window"
    other = 1 - slot
    with pytest.raises(AccessDeniedError):
        fabric.shm_write(other, 0, b"x")


class _CountingDelay:
    """Stands in for a fabric's DelayModel and records each charge."""

    def __init__(self):
        self.charged = []

    def charge(self, nbytes):
        self.charged.append(nbytes)


def test_a_refused_window_copy_is_not_charged(fabric):
    slot, _sid = open_ta(fabric, TA_KIND_ECHO)
    fabric.delay = delay = _CountingDelay()
    for refused in (lambda: fabric.shm_read(slot, 0, -5),
                    lambda: fabric.shm_read(slot, SHM_WINDOW_SIZE, 100),
                    lambda: fabric.shm_write(slot, SHM_WINDOW_SIZE - 1, b"xx"),
                    lambda: fabric.shm_write(1 - slot, 0, b"x")):
        with pytest.raises(AccessDeniedError):
            refused()
    assert delay.charged == []
    fabric.shm_write(slot, SHM_WINDOW_SIZE - 2, b"xx")
    assert fabric.shm_read(slot, SHM_WINDOW_SIZE - 2, 2) == b"xx"
    assert delay.charged == [2, 2]


def test_shm_write_takes_what_bytes_takes(fabric):
    """A window copy takes any input bytes() takes, copies its bytes as
    bytes() reads them, and is charged that many; it keeps no hold on the
    caller's buffer."""
    slot, _sid = open_ta(fabric, TA_KIND_ECHO)
    fabric.delay = delay = _CountingDelay()
    source = bytearray(b"mutable")
    inputs = (b"bytes", memoryview(b"a view"), array("H", [1, 2]),
              memoryview(b"abcdef")[::2], [7, 8, 9], 3, source)
    for data in inputs:
        fabric.shm_write(slot, 32, data)
        assert fabric.shm_read(slot, 32, len(bytes(data))) == bytes(data)
    source[:] = b"changed"
    assert fabric.shm_read(slot, 32, 7) == b"mutable"
    assert delay.charged == [n for data in inputs
                             for n in (len(bytes(data)),) * 2] + [7]
    with pytest.raises(TypeError):
        fabric.shm_write(slot, 0, "text")
    for offset in (1.0, "0", None):
        with pytest.raises(AccessDeniedError, match="must be integers"):
            fabric.shm_write(slot, offset, b"x")
        with pytest.raises(AccessDeniedError, match="must be integers"):
            fabric.shm_read(slot, offset, 1)
    with pytest.raises(AccessDeniedError, match="must be integers"):
        fabric.shm_read(slot, 0, 1.0)
    assert len(delay.charged) == 2 * len(inputs) + 1


@pytest.mark.parametrize("ta_kind, cmd_id, direction, size", [
    (TA_KIND_ECHO, 1, Direction.INOUT, 16),
    (TA_KIND_ECHO, 1, Direction.INOUT, 256),
    (TA_KIND_ECHO, 1, Direction.INOUT, 4096),
    (TA_KIND_SHMEM16, 0, Direction.OUT, 16),
], ids=["echo16", "echo256", "echo4096", "shmem16-out"])
def test_a_memref_request_is_charged_once_per_crossing(
        fabric, ta_kind, cmd_id, direction, size):
    """The modeled cost of a memref request: the block into the window
    (zeros for OUT), the mailbox frame each way, the block back out."""
    with Context(fabric) as context:
        ta_uuid, image = make_image(ta_kind)
        session = context.open_session(ta_uuid, image)
        block = session.allocate_shared_memory(size, direction)
        data = bytes(i % 251 for i in range(size))
        block.write(data)
        fabric.delay = delay = _CountingDelay()
        session.invoke_command(cmd_id, Operation(block)).raise_for_code()
        assert delay.charged == [size, 48, 48, size]
        assert block.read() == (data[::-1] if ta_kind == TA_KIND_ECHO
                                else bytes(range(16)))


def test_frames_and_events_keep_their_named_tuple_types(fabric):
    """Frames and events are built with tuple.__new__, which equality
    cannot tell from a plain tuple: each is still its named-tuple type,
    and every field reads by name."""
    gp = (1, 2) + (0,) * 6
    built = (MailboxFrame.build(OperationId.INVOKE, 7,
                                [(ParamKind.VALUE_INOUT, 1, 2)], cmd_id=3),
             MailboxFrame.build(OperationId.INVOKE, 7,
                                [ParamKind.VALUE_INOUT] + [ParamKind.NONE] * 3,
                                gp=(1, 2), cmd_id=3))
    for frame in (*built, decode_frame(encode_frame(built[0]))):
        assert type(frame) is MailboxFrame
        assert (frame.operation, frame.session_id, frame.param_type,
                frame.gp, frame.cmd_id) == (OperationId.INVOKE, 7, 3, gp, 3)
    reply = decode_reply(encode_reply((ReturnCode.ERROR_SHORT_BUFFER, 7, 3,
                                       gp, 3)))
    assert type(reply) is ReplyFrame
    assert (reply.code, reply.session_id, reply.param_type, reply.gp,
            reply.cmd_id) == (ReturnCode.ERROR_SHORT_BUFFER, 7, 3, gp, 3)
    slot, _sid = open_ta(fabric, TA_KIND_INCREMENT)
    events = fabric.events()
    assert all(type(event) is Event for event in events)
    opened = fabric.events("open")[0]
    assert (opened.seq, opened.kind, opened.slot, opened.fields["warm"]) == \
        (4, "open", slot, False)


def test_events_record_lifecycle(fabric):
    slot, sid = open_ta(fabric, TA_KIND_INCREMENT)
    fabric.comm_dispatch(slot, close_frame(sid))
    fabric.wait_idle()
    events = fabric.events()
    assert [event.kind for event in events] == [
        "boot", "load", "load_status", "open", "dispatch", "dispatch",
        "close"]
    assert [event.seq for event in events] == list(range(1, 8))
    assert all(event.slot == slot for event in events
               if event.kind in ("load", "open", "dispatch", "close"))
    assert [(event.fields["op"], event.fields["code"])
            for event in fabric.events("dispatch")] == [
        (OperationId.OPEN, ReturnCode.SUCCESS),
        (OperationId.CLOSE, ReturnCode.SUCCESS)]


def test_every_event_kind_names_exactly_its_schema(fabric, monkeypatch):
    """Each `_log` call site, driven once: a record keeps its values as a
    tuple, `fields` names them by its kind's schema, and reading the log
    builds no record."""
    schema = fabric_module._EVENT_FIELDS
    inc_uuid, inc_image = make_image(TA_KIND_INCREMENT)
    slot, fresh = fabric.manager_open(inc_uuid, inc_image)      # cold
    assert fresh
    assert fabric.manager_open(inc_uuid, inc_image) == (slot, False)
    assert fabric.comm_dispatch(slot, open_frame()).code is ReturnCode.SUCCESS
    fabric.release_pending(slot)
    unloaded = make_image(TA_KIND_ECHO, tag=1)[0]
    with pytest.raises(ImageSizeError):
        fabric.manager_open(unloaded, bytes(MAX_IMAGE_SIZE + 1))
    with pytest.raises(ImageFormatError):       # before a slot is claimed
        fabric.manager_open(unloaded, inc_image)
    stall, stall_sid = open_ta(fabric, TA_KIND_STALL, payload=b"\xa5" * 600)
    echo_uuid, echo_image = make_image(TA_KIND_ECHO)
    with pytest.raises(OutOfEnclavesError):
        fabric.manager_open(echo_uuid, echo_image)
    StallTa.started.clear()
    outcome = []

    def invoker():
        try:
            fabric.comm_dispatch(stall, MailboxFrame.build(
                OperationId.INVOKE, stall_sid, [], cmd_id=0))
        except AccessDeniedError:
            outcome.append("denied")

    cut_short = threading.Thread(target=invoker)
    cut_short.start()
    assert StallTa.started.wait(5.0)
    fabric.manager_close(stall)                 # resets the core mid-call
    cut_short.join(timeout=5.0)
    assert outcome == ["denied"]

    def broken_dma(runtime, data):
        raise OSError("DMA broke off")

    with monkeypatch.context() as patch:        # after a slot is claimed
        patch.setattr(enclave.EnclaveRuntime, "load_image", broken_dma)
        with pytest.raises(OSError):
            fabric.manager_open(echo_uuid, echo_image)
    fabric.shutdown()

    events = fabric.events()
    assert {event.kind for event in events} == schema.keys()
    assert [(event.slot is None, event.fields["status"])
            for event in fabric.events("load_status")] == [
        (False, LoadStatus.LOADED), (True, LoadStatus.ERR_SIZE),
        (True, LoadStatus.ERR_FORMAT), (False, LoadStatus.LOADED),
        (True, LoadStatus.ERR_FULL), (False, LoadStatus.ERR_FORMAT)]
    assert [event.fields["warm"] for event in fabric.events("open")] == [
        False, True, False]
    assert [event.fields["code"] for event in fabric.events("dispatch")] == [
        ReturnCode.SUCCESS, ReturnCode.SUCCESS, None]
    again = fabric.events()
    for index, event in enumerate(events):
        assert tuple(event.fields) == schema[event.kind], event
        assert type(event.values) is tuple
        assert again[index] is event


def test_a_reader_cannot_rewrite_the_log(fabric):
    """`fields` is a new dict on each read: changing or adding a key
    changes nothing that the log keeps."""
    fields = fabric.events()[-1].fields
    fields["slots"] = 99
    fields["extra"] = "added"
    boot = fabric.events()[-1]
    assert boot.fields == {"slots": 2, "device": fabric.config.device_profile}
    assert boot.fields is not boot.fields
    assert "slots=2" in repr(boot)


def test_event_log_keeps_the_newest_records(fabric):
    slot, sid = open_ta(fabric, TA_KIND_INCREMENT)
    invoke = MailboxFrame.build(
        OperationId.INVOKE, sid, [(ParamKind.VALUE_INOUT, 0, 0)], cmd_id=0)
    for _ in range(EVENT_CAPACITY + 50):
        assert fabric.comm_dispatch(slot, invoke).code is ReturnCode.SUCCESS
    # boot, load, load_status, open, the OPEN dispatch
    total = 5 + EVENT_CAPACITY + 50
    events = fabric.events()
    assert len(events) == EVENT_CAPACITY
    assert [event.seq for event in events] == list(
        range(total - EVENT_CAPACITY + 1, total + 1))
    assert all(event.kind == "dispatch" for event in events)
    assert not fabric.events("boot") and not fabric.events("open")


def test_concurrent_cold_rounds_keep_the_log_in_order(fabric_factory):
    """Eight clients do cold rounds on one four-slot fabric and read the
    log after each round, while the others log and the log overflows.
    Every snapshot is oldest first and numbered with no gap after its
    oldest record, as a record is numbered and kept in one step."""
    fabric = fabric_factory(enclave_count=4)
    clients, rounds = 8, 250
    ready = threading.Barrier(clients)
    failures = []

    def client(tag):
        ta_uuid, image = make_image(TA_KIND_INCREMENT, tag=tag)
        try:
            with Context(fabric) as ctx:
                ready.wait()
                for _ in range(rounds):
                    try:
                        with ctx.open_session(ta_uuid, image) as session:
                            session.invoke_command(
                                0, Operation(Value(Direction.INOUT, tag)))
                    except OutOfEnclavesError:
                        pass
                    seqs = [event.seq for event in fabric.events()]
                    breaks = [pair for pair in zip(seqs, seqs[1:])
                              if pair[1] != pair[0] + 1]
                    if breaks:
                        failures.append(breaks)
        except Exception as exc:
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)     # many more switches between records
    try:
        threads = [threading.Thread(target=client, args=(tag,))
                   for tag in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[:1]
    events = fabric.events()
    assert len(events) == EVENT_CAPACITY and events[0].seq > 1
    fabric.audit()


def test_uart_files_written(fabric_factory, tmp_path):
    uart_dir = tmp_path / "uart"
    fabric = fabric_factory(uart_dir=str(uart_dir))
    slot, _sid = open_ta(fabric, TA_KIND_INCREMENT)
    log = uart_dir / f"enclave{slot}.log"
    assert log.exists() and "boot: ta" in log.read_text()


def widen(fabric, slot, session_id, cmd_id, params=()):
    WidenTa.outcomes.clear()
    reply = fabric.comm_dispatch(slot, MailboxFrame.build(
        OperationId.INVOKE, session_id, params, cmd_id=cmd_id))
    assert reply.code is ReturnCode.SUCCESS


def test_a_ta_cannot_grant_itself_the_window(fabric):
    """`params.memory` grants nothing: a TA serving a value-only request
    reads none of what the REE left in its window and changes none."""
    slot, sid = open_ta(fabric, TA_KIND_WIDEN)
    pattern = bytes(range(1, 38))
    fabric.shm_write(slot, 0, pattern)
    widen(fabric, slot, sid, 0, [(ParamKind.VALUE_IN, 1, 2)])
    assert fabric.shm_read(slot, 0, SHM_WINDOW_SIZE) \
        == pattern + bytes(SHM_WINDOW_SIZE - len(pattern))
    assert WidenTa.outcomes == [AttributeError, AccessDeniedError,
                                AccessDeniedError]


def test_a_ta_cannot_point_its_uart_at_a_file(fabric, tmp_path):
    """A core's UART file is set when the fabric builds the core; a TA
    can only log to it."""
    slot, sid = open_ta(fabric, TA_KIND_WIDEN)
    WidenTa.path = tmp_path / "elsewhere.log"
    widen(fabric, slot, sid, 1)
    assert not WidenTa.path.exists()
    assert WidenTa.outcomes == [AttributeError, None]
    assert fabric.slot_runtime(slot).uart.lines()[-1] == "widen: a line"


def test_a_ta_is_handed_only_these_names(fabric):
    """The public names on each handle a TA is handed. A handle that
    gains one widens what every TA can reach."""
    slot, sid = open_ta(fabric, TA_KIND_WIDEN)
    WidenTa.handed.clear()
    widen(fabric, slot, sid, 2, [(ParamKind.MEMREF, 0, 16)])
    allowed = {
        "env": {"uuid", "rng", "storage", "uart", "image_size",
                "check_abort", "sleep"},
        "rng": {"random_bytes"},
        "storage": {"get", "put", "delete", "exists"},
        "uart": {"log", "lines", "close"},
        "params": {"kind", "value", "set_value", "memory", "memref",
                   "set_memref_length"},
        "memory": {"tcm_read", "tcm_write", "window_read", "window_write"},
        "memref": {"length", "read", "write"},
    }
    assert {handle: {name for name in dir(obj) if not name.startswith("_")}
            for handle, obj in WidenTa.handed.items()} == allowed


def test_a_uart_file_opens_once_for_many_cold_loads(fabric_factory, tmp_path,
                                                     monkeypatch):
    """A core's UART file is opened at its first line and kept open, every
    line in it as it is logged, until shutdown closes it."""
    sinks = []

    def spy(*args, **kwargs):
        sinks.append(open(*args, **kwargs))
        return sinks[-1]

    monkeypatch.setattr(enclave, "open", spy, raising=False)
    uart_dir = tmp_path / "uart"
    fabric = fabric_factory(enclave_count=1, uart_dir=str(uart_dir))
    log = uart_dir / "enclave0.log"
    ta_uuid, image = make_image(TA_KIND_INCREMENT)
    with Context(fabric) as ctx:
        for value in range(50):
            with ctx.open_session(ta_uuid, image) as session:
                result = session.invoke_command(
                    0, Operation(Value(Direction.INOUT, value)))
                assert result.value(0)[0] == value + 1
            assert tuple(log.read_text().splitlines()) \
                == fabric.slot_runtime(0).uart.lines()
    assert fabric.load_count == 50 and len(sinks) == 1
    assert log.read_text().count("boot: ta") == 50
    fabric.shutdown()
    assert sinks[0].closed


# Run in a fresh interpreter: in this one, the allocator may hand a
# bytearray pages that an earlier test's fabric left resident.
_BOOT_RESIDENT_SCRIPT = """
import os, sys
from teefab.fabric import Fabric
from teefab.config import SimConfig

def resident():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

before = resident()
fabric = Fabric(SimConfig(storage_dir=sys.argv[1]))
print(resident() - before)
fabric.shutdown()
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="needs /proc/self/statm")
def test_booting_a_fabric_commits_no_staging_pages(tmp_path):
    """A fabric keeps no staging region, so a default fabric's resident
    cost at boot is about its slots."""
    src = str(Path(teefab.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else os.pathsep.join((src, path)))
    run = subprocess.run(
        [sys.executable, "-c", _BOOT_RESIDENT_SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert int(run.stdout) < 4 << 20


def test_delay_model_busy_wait():
    model = DelayModel(per_byte_ns=100, per_op_ns=300_000)
    start = time.perf_counter_ns()
    model.charge(1000)
    elapsed = time.perf_counter_ns() - start
    assert elapsed >= 400_000
    noop = DelayModel()
    start = time.perf_counter_ns()
    noop.charge(10_000_000)
    assert time.perf_counter_ns() - start < 50_000_000


def test_mailbox_transfers_are_costed(fabric_factory):
    fabric = fabric_factory(dma_ns_per_op=2_000_000)
    slot, sid = open_ta(fabric, TA_KIND_INCREMENT)
    start = time.perf_counter_ns()
    fabric.comm_dispatch(slot, MailboxFrame.build(
        OperationId.INVOKE, sid, [(ParamKind.VALUE_INOUT, 1, 0)], cmd_id=0))
    elapsed = time.perf_counter_ns() - start
    # One request and one reply mailbox copy, 2ms per transfer.
    assert elapsed >= 4_000_000

def assert_scrubbed(fabric, slot):
    runtime = fabric.slot_runtime(slot)
    assert fabric.slot_snapshot()[slot]["state"] == "FREE"
    assert runtime.tcm.read(0, TCM_SIZE) == bytes(TCM_SIZE)
    assert runtime.window.read(0, SHM_WINDOW_SIZE) == bytes(SHM_WINDOW_SIZE)


def test_fabric_starts_no_threads(fabric_factory):
    before = threading.active_count()
    fabric = fabric_factory(enclave_count=4)
    slot, sid = open_ta(fabric, TA_KIND_INCREMENT)
    assert threading.active_count() == before
    fabric.comm_dispatch(slot, close_frame(sid))
    fabric.shutdown()
    assert threading.active_count() == before


def test_session_close_scrubs_before_returning(fabric):
    ta_uuid, image = make_image(TA_KIND_ECHO, payload=b"\xa5" * 600)
    with Context(fabric) as ctx:
        session = ctx.open_session(ta_uuid, image)
        fabric.shm_write(session.slot_index, 0, b"\x5a" * 64)
        session.close()
        assert_scrubbed(fabric, session.slot_index)
        assert not fabric.loaded_tas


@pytest.mark.parametrize("kind", [TA_KIND_BAD_CLOSE, TA_KIND_BAD_DESTROY])
def test_close_that_faults_still_frees_the_slot(fabric, kind):
    """The core drops the session even when the TA faults closing it, and
    the reply is then ERROR_GENERIC: the slot must still be scrubbed."""
    ta_uuid, image = make_image(kind, payload=b"\xa5" * 600)
    with Context(fabric) as ctx:
        session = ctx.open_session(ta_uuid, image)
        fabric.shm_write(session.slot_index, 0, b"\x5a" * 64)
        session.close()
        fabric.wait_idle()
        assert_scrubbed(fabric, session.slot_index)
        assert not fabric.loaded_tas
        fabric.audit()


def assert_faulted_and_freed(fabric, slot, raised):
    """The slot a TA faulted on is free and zeroed, its fault and the
    name of what it raised are on the core's UART, and the reply that
    ended the request is in the log."""
    assert_scrubbed(fabric, slot)
    assert fabric.slot_snapshot()[slot]["pending"] == 0
    assert not fabric.loaded_tas
    fabric.audit()
    fault = [line for line in fabric.slot_runtime(slot).uart.lines()
             if line.startswith("isr: ta fault:")]
    assert len(fault) == 1 and raised in fault[0]
    dispatch = fabric.events("dispatch")[-1]
    assert dispatch.slot == slot
    assert dispatch.fields["code"] is ReturnCode.ERROR_GENERIC


@pytest.mark.parametrize("kind, raised", [
    (TA_KIND_EXIT_ON_OPEN, "SystemExit: exit in open"),
    (TA_KIND_ODD_CODE, "OddCodeError: odd code"),
    (TA_KIND_UNREADABLE_CODE, "UnreadableCodeError: unreadable code"),
    (TA_KIND_REFUSE_THEN_BAD_DESTROY, "ValueError: destroy fault"),
], ids=["system_exit", "code_42", "unreadable_code", "bad_destroy"])
def test_an_open_that_raises_anything_is_refused_and_frees_its_slot(
        fabric, kind, raised):
    """Whatever a TA raises in a first OPEN, or in the destroy after it
    refused one, reaches the client as a refusal with ERROR_GENERIC, not
    as the exception itself or an undecodable reply, and the slot is
    scrubbed rather than left TAKEN with a pending open."""
    ta_uuid, image = make_image(kind, payload=b"\xa5" * 600)
    with Context(fabric) as ctx:
        with pytest.raises(TeeError) as refused:
            ctx.open_session(ta_uuid, image)
        assert type(refused.value) is TeeError
        assert refused.value.code is ReturnCode.ERROR_GENERIC
        assert_faulted_and_freed(fabric, 0, raised)
        with ctx.open_session(*make_image(TA_KIND_INCREMENT)) as session:
            assert session.slot_index == 0
    fabric.audit()


def test_an_invoke_that_raises_system_exit_faults_and_scrubs_the_slot(
        fabric):
    ta_uuid, image = make_image(TA_KIND_EXIT_ON_INVOKE, payload=b"\xa5" * 600)
    with Context(fabric) as ctx:
        session = ctx.open_session(ta_uuid, image)
        fabric.shm_write(session.slot_index, 0, b"\x5a" * 64)
        assert session.invoke_command(0).code is ReturnCode.ERROR_GENERIC
        assert_faulted_and_freed(fabric, session.slot_index,
                                 "SystemExit: exit in invoke")
        with pytest.raises(AccessDeniedError):
            session.invoke_command(0)
        session.close()
    fabric.audit()


def test_a_keyboard_interrupt_in_a_ta_goes_up_once_the_slot_is_scrubbed(
        fabric):
    """A KeyboardInterrupt is the one exception of a TA that reaches the
    client as it is; the fabric scrubs the slot before it lets it go."""
    ta_uuid, image = make_image(TA_KIND_INTERRUPT, payload=b"\xa5" * 600)
    with Context(fabric) as ctx:
        session = ctx.open_session(ta_uuid, image)
        fabric.shm_write(session.slot_index, 0, b"\x5a" * 64)
        with pytest.raises(KeyboardInterrupt):
            session.invoke_command(0)
        assert_scrubbed(fabric, session.slot_index)
        assert not fabric.loaded_tas
        fabric.audit()
        dispatch = fabric.events("dispatch")[-1]
        assert dispatch.slot == session.slot_index
        assert dispatch.fields["code"] is None
        session.close()
    fabric.audit()


def test_shutdown_aborts_a_dispatch_in_flight(fabric):
    slot, sid = open_ta(fabric, TA_KIND_STALL, payload=b"\xa5" * 600)
    fabric.shm_write(slot, 0, b"\x5a" * 64)
    StallTa.started.clear()
    outcome = []

    def invoker():
        try:
            fabric.comm_dispatch(slot, MailboxFrame.build(
                OperationId.INVOKE, sid, [], cmd_id=0))
            outcome.append("returned")
        except AccessDeniedError:
            outcome.append("denied")

    thread = threading.Thread(target=invoker)
    thread.start()
    assert StallTa.started.wait(5.0)
    start = time.monotonic()
    fabric.shutdown()
    assert time.monotonic() - start < 1.0
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert outcome == ["denied"]
    runtime = fabric.slot_runtime(slot)
    assert runtime.snapshot()["rst"]
    assert runtime.tcm.read(0, TCM_SIZE) == bytes(TCM_SIZE)
    assert runtime.window.read(0, SHM_WINDOW_SIZE) == bytes(SHM_WINDOW_SIZE)


def test_shutdown_frees_every_slot(fabric):
    """Shutdown scrubs each slot through the one teardown path: every
    slot ends FREE and unmapped, and a later open loads cold at once."""
    ta_uuid, image = make_image(TA_KIND_INCREMENT)
    with Context(fabric) as ctx:
        stale = ctx.open_session(ta_uuid, image)
        fabric.shm_write(stale.slot_index, 0, b"\x5a" * 64)
        fabric.shutdown()
        fabric.audit()
        assert not fabric.loaded_tas
        for slot, row in enumerate(fabric.slot_snapshot()):
            assert row["pending"] == 0 and row["sessions"] == 0
            assert_scrubbed(fabric, slot)
        loads, mark = fabric.load_count, fabric.events()[-1].seq
        session = ctx.open_session(ta_uuid, image)
        opens = [event.fields["warm"] for event in fabric.events("open")
                 if event.seq > mark]
        assert opens == [False]
        assert fabric.load_count == loads + 1
        assert session.invoke_command(
            0, Operation(Value(Direction.INOUT, 1))).value(0) == (2, 0)
        stale.close()
        session.close()
    fabric.audit()
    assert_scrubbed(fabric, session.slot_index)


def test_cold_open_does_each_piece_of_image_work_once(fabric, monkeypatch):
    """The client parses none of the bytes it is handed, and a load parses
    their header once, in the manager. The object the loader copies to
    TCM is the very object that was checked, and a `bytes` image is not
    copied on its way there. The core boots from that parse: it neither
    parses its TCM nor copies the whole of it."""
    header_parsers = []
    image_parsers = []
    loaded = []
    tcm_reads = []
    load_image, space_read = enclave.EnclaveRuntime.load_image, Space.read
    tcms = {id(fabric.slot_runtime(i).tcm)
            for i in range(fabric.config.enclave_count)}

    def recording_load_image(runtime, data):
        loaded.append(data)
        return load_image(runtime, data)

    def recording_space_read(space, offset, length):
        if id(space) in tcms:
            tcm_reads.append(length)
        return space_read(space, offset, length)

    def recording_parse(parse, parsers):
        def recorded(buf):
            parsers.append((Path(sys._getframe(1).f_code.co_filename).name,
                            buf))
            return parse(buf)
        return recorded

    # Each module that binds a parser; the client and the core should
    # bind none.
    for module in (protocol, fabric_module, enclave, client_api):
        if hasattr(module, "decode_image_header"):
            monkeypatch.setattr(module, "decode_image_header",
                                recording_parse(module.decode_image_header,
                                                header_parsers))
        for name in ("decode_image", "decode_image_prefix"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, recording_parse(
                    getattr(module, name), image_parsers))
    monkeypatch.setattr(enclave.EnclaveRuntime, "load_image",
                        recording_load_image)
    monkeypatch.setattr(Space, "read", recording_space_read)
    ta_uuid, image = make_image(TA_KIND_INCREMENT, payload=b"\x11" * 4000)
    _, other_image = make_image(TA_KIND_INCREMENT, payload=b"\x22" * 4000)
    rounds = (image, image, bytes(bytearray(image)),
              other_image, bytes(bytearray(other_image)))
    with Context(fabric) as ctx:
        # Each round loads cold: its close frees the slot.
        for same_bytes in rounds:
            with ctx.open_session(ta_uuid, same_bytes) as session:
                assert session.invoke_command(
                    0, Operation(Value(Direction.INOUT, 7))).value(0) == (8, 0)
    assert fabric.load_count == 5
    # One parse per load, in the manager, and no other parse of an image.
    assert [name for name, _buf in header_parsers] == ["fabric.py"] * 5
    assert image_parsers == []
    assert len(loaded) == 5
    assert all(data is buf for data, (_name, buf) in zip(loaded,
                                                          header_parsers))
    assert all(data is handed for data, handed in zip(loaded, rounds))
    assert TCM_SIZE not in tcm_reads


def test_manager_close_resets_a_blocked_invoke(fabric):
    slot, sid = open_ta(fabric, TA_KIND_STALL, payload=b"\xa5" * 600)
    fabric.shm_write(slot, 0, b"\x5a" * 64)
    StallTa.started.clear()
    outcome = []

    def invoker():
        try:
            fabric.comm_dispatch(slot, MailboxFrame.build(
                OperationId.INVOKE, sid, [], cmd_id=0))
            outcome.append("returned")
        except AccessDeniedError:
            outcome.append("denied")

    thread = threading.Thread(target=invoker)
    thread.start()
    assert StallTa.started.wait(5.0)
    fabric.manager_close(slot)
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert outcome == ["denied"]
    assert_scrubbed(fabric, slot)
    fabric.audit()
    closes = [event.slot for event in fabric.events("close")]
    fabric.manager_close(slot)
    assert [event.slot for event in fabric.events("close")] == closes == [slot]
    assert_scrubbed(fabric, slot)


def test_scrub_zeroizes_after_a_stalled_window_copy(fabric):
    """A REE copy stalled inside the DMA charge while the slot is torn
    down must not land in the window after the zeroize."""
    slot, _sid = open_ta(fabric, TA_KIND_ECHO)
    runtime = fabric.slot_runtime(slot)
    entered, release = threading.Event(), threading.Event()
    charge = fabric.delay.charge

    def stalling_charge(nbytes):
        if nbytes == 16:
            entered.set()
            release.wait(5.0)
        charge(nbytes)

    fabric.delay.charge = stalling_charge
    writer = threading.Thread(
        target=fabric.shm_write, args=(slot, 0, b"\x5a" * 16))
    closer = threading.Thread(target=fabric.manager_close, args=(slot,))
    writer.start()
    assert entered.wait(5.0)
    closer.start()
    deadline = time.monotonic() + 5.0
    while not runtime.snapshot()["rst"] and time.monotonic() < deadline:
        time.sleep(0.001)
    release.set()
    writer.join(timeout=5.0)
    closer.join(timeout=5.0)
    assert not writer.is_alive() and not closer.is_alive()
    assert_scrubbed(fabric, slot)
    fabric.audit()


def test_clients_survive_concurrent_resets(fabric):
    """Four clients open, increment and close over three TAs on two slots
    while a fifth thread tears slots down at random: every reply is right
    or refused, and the fabric ends audited, free and zeroed."""
    images = [make_image(TA_KIND_INCREMENT, tag=tag) for tag in (1, 2, 3)]
    failures, done = [], threading.Event()

    def client(seed):
        rng = random.Random(seed)
        with Context(fabric) as ctx:
            for _ in range(40):
                value = rng.getrandbits(31)
                try:
                    session = ctx.open_session(*rng.choice(images))
                except (OutOfEnclavesError, AccessDeniedError):
                    continue
                try:
                    result = session.invoke_command(
                        0, Operation(Value(Direction.INOUT, value)))
                    if result.success and result.value(0)[0] != value + 1:
                        failures.append(f"{value} -> {result.value(0)}")
                except AccessDeniedError:
                    pass
                finally:
                    session.close()

    def resetter():
        rng = random.Random(99)
        while not done.is_set():
            fabric.manager_close(rng.randrange(2))
            time.sleep(0.002)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        clients = [threading.Thread(target=client, args=(seed,))
                   for seed in range(4)]
        chaos = threading.Thread(target=resetter)
        for thread in clients + [chaos]:
            thread.start()
        for thread in clients:
            thread.join(timeout=30.0)
        done.set()
        chaos.join(timeout=5.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in clients + [chaos])
    assert not failures
    fabric.wait_idle(timeout=5)
    fabric.audit()
    for slot in range(2):
        assert_scrubbed(fabric, slot)


def test_audit_catches_a_slot_nothing_holds(fabric):
    """A close whose cleanup never ran leaves a TAKEN slot with no session
    and no pending open; the audit must not pass it."""
    ta_uuid, image = make_image(TA_KIND_INCREMENT)
    with Context(fabric) as ctx:
        session = ctx.open_session(ta_uuid, image)
        fabric.audit()
        fabric._maybe_cleanup = lambda record: None
        session.close()
        del fabric._maybe_cleanup
        with pytest.raises(AssertionError, match="no session"):
            fabric.audit()
        fabric.manager_close(session.slot_index)
    fabric.audit()
    assert_scrubbed(fabric, session.slot_index)


# ---- the turnstile: turns between clients with requests in flight ----

def increment(session, value):
    result = session.invoke_command(0, Operation(Value(Direction.INOUT,
                                                       value)))
    return result.value(0)[0]


def invoke_until_reset(session):
    try:
        session.invoke_command(0)
    except AccessDeniedError:
        pass


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline
        time.sleep(0.001)


def test_lone_client_never_parks_or_sleeps(fabric, monkeypatch):
    parks, sleeps = [], []
    monkeypatch.setattr(fabric.turnstile, "_park", parks.append)
    monkeypatch.setattr(time, "sleep", sleeps.append)
    ta_uuid, image = make_image(TA_KIND_INCREMENT)
    with Context(fabric) as ctx:
        session = ctx.open_session(ta_uuid, image)
        for value in range(100):
            assert increment(session, value) == value + 1
        session.close()
    assert parks == [] and sleeps == []


def test_turnstile_hands_turns_to_parked_threads_in_fifo_order():
    turnstile = Turnstile()
    order = []

    def contender(name):
        turnstile.enter()
        turnstile.leave()       # parks: the main thread is a contender
        order.append(name)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(5.0)  # no park runs out during the test
    try:
        turnstile.enter()
        threads = []
        for name in ("first", "second", "third"):
            threads.append(threading.Thread(target=contender, args=(name,)))
            threads[-1].start()
            wait_until(lambda: len(turnstile._parked) == len(threads))
        assert order == []
        turnstile.leave()       # hands the turn on, then parks itself
        for thread in threads:
            thread.join(timeout=5.0)
    finally:
        sys.setswitchinterval(interval)
    assert order == ["first", "second", "third"]
    assert not turnstile._parked


class _RacingWaiter:
    """A parked thread's waiter whose timed wait runs out just as
    `_handover` pops and releases it: it waits for the release, then
    reports the bound as spent."""

    def __init__(self):
        self.lock = threading.Lock()
        self.lock.acquire()
        self.timed_out = 0

    def acquire(self, blocking=True, timeout=-1):
        if timeout < 0:
            return self.lock.acquire(blocking)
        wait_until(lambda: not self.lock.locked())
        self.timed_out += 1
        return False

    def release(self):
        self.lock.release()


def test_a_park_that_runs_out_as_it_is_woken_counts_as_a_turn():
    turnstile = Turnstile()
    waiter = _RacingWaiter()
    done = threading.Event()

    def contender():
        turnstile._local.turn.waiter = waiter
        turnstile.enter()
        turnstile.leave()       # parks: the main thread is a contender
        done.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(5.0)  # only the stubbed wait runs out
    try:
        turnstile.enter()
        thread = threading.Thread(target=contender)
        thread.start()
        wait_until(lambda: len(turnstile._parked) == 1)
        turnstile.leave()       # pops and releases the waiter, then parks
        thread.join(timeout=5.0)
    finally:
        sys.setswitchinterval(interval)
    assert not thread.is_alive() and done.is_set()
    assert waiter.timed_out == 1
    assert turnstile._running == 0 and not turnstile._parked
    # The waiter rests locked again, so its thread's next park waits.
    assert waiter.lock.locked()


def test_a_client_nesting_requests_counts_once():
    turnstile = Turnstile()
    turnstile.enter()
    turnstile.enter()
    turnstile.leave()
    turnstile.leave()           # alone: returns without parking
    assert turnstile._running == 0 and not turnstile._parked


def test_a_napping_ta_does_not_hold_up_other_clients(fabric):
    """env.sleep steps out of the turnstile: increments beside a TA that
    sleeps for a second need no park."""
    nap_uuid, nap_image = make_image(TA_KIND_NAP)
    ta_uuid, image = make_image(TA_KIND_INCREMENT)
    with Context(fabric) as ctx:
        napper = ctx.open_session(nap_uuid, nap_image)
        session = ctx.open_session(ta_uuid, image)
        NapTa.started.clear()
        thread = threading.Thread(target=invoke_until_reset, args=(napper,))
        thread.start()
        assert NapTa.started.wait(5.0)
        start = time.perf_counter()
        for value in range(20):
            assert increment(session, value) == value + 1
        elapsed = time.perf_counter() - start
        fabric.manager_close(napper.slot_index)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        session.close()
    assert elapsed < 0.05
    # The napper's request raised AccessDeniedError and still left.
    assert fabric.turnstile._running == 0 and not fabric.turnstile._parked


def test_a_client_queued_behind_a_napping_ta_does_not_hold_up_others(
        fabric):
    """A thread waiting for a slot lock stops being a contender once the
    wait outlasts a switch interval."""
    nap_uuid, nap_image = make_image(TA_KIND_NAP)
    ta_uuid, image = make_image(TA_KIND_INCREMENT)
    with Context(fabric) as ctx:
        napper = ctx.open_session(nap_uuid, nap_image)
        session = ctx.open_session(ta_uuid, image)
        NapTa.started.clear()
        threads = [threading.Thread(target=invoke_until_reset,
                                    args=(napper,)) for _ in range(2)]
        threads[0].start()
        assert NapTa.started.wait(5.0)
        threads[1].start()
        time.sleep(2 * sys.getswitchinterval())
        start = time.perf_counter()
        for value in range(20):
            assert increment(session, value) == value + 1
        elapsed = time.perf_counter() - start
        fabric.manager_close(napper.slot_index)
        for thread in threads:
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        session.close()
    assert elapsed < 0.05
    assert fabric.turnstile._running == 0 and not fabric.turnstile._parked


def test_a_spinning_ta_delays_other_clients_by_bounded_parks(fabric):
    """A TA that spins without check_abort stays a contender; each park
    beside it ends at the switch interval."""
    spin_uuid, spin_image = make_image(TA_KIND_SPIN)
    ta_uuid, image = make_image(TA_KIND_INCREMENT)
    with Context(fabric) as ctx:
        spinner = ctx.open_session(spin_uuid, spin_image)
        session = ctx.open_session(ta_uuid, image)
        SpinTa.started.clear()
        thread = threading.Thread(target=spinner.invoke_command, args=(0,))
        thread.start()
        assert SpinTa.started.wait(5.0)
        start = time.perf_counter()
        for value in range(10):
            assert increment(session, value) == value + 1
        elapsed = time.perf_counter() - start
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        session.close()
        spinner.close()
    assert elapsed < 0.3, f"10 increments took {elapsed:.3f} s"


def test_two_clients_take_turns(fabric):
    """In the middle half of two clients' completions, most consecutive
    completions switch client."""
    for _trial in range(3):
        order = []
        ready = threading.Barrier(2)

        def client(tag):
            ta_uuid, image = make_image(TA_KIND_INCREMENT, tag=tag)
            with Context(fabric) as ctx:
                session = ctx.open_session(ta_uuid, image)
                ready.wait(timeout=5.0)
                for value in range(2000):
                    assert increment(session, value) == value + 1
                    order.append(tag)
                session.close()

        threads = [threading.Thread(target=client, args=(tag,))
                   for tag in (1, 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        assert len(order) == 4000
        middle = order[1000:3000]
        switches = sum(a != b for a, b in zip(middle, middle[1:]))
        assert switches / (len(middle) - 1) >= 0.6, (
            f"switch ratio {switches}/{len(middle) - 1} = "
            f"{switches / (len(middle) - 1):.3f}")
        fabric.wait_idle()
        fabric.audit()


def test_six_tenants_each_get_turns_on_their_own_slots(fabric_factory):
    """The paper's six enclaves, each with a client of its own doing
    increments on its warm slot: every reply is right, every client ends
    within 10 s, and while all six are running each completes at least
    once in every window of 25 completions per tenant."""
    tenants, increments, window = 6, 300, 25 * 6
    fabric = fabric_factory(enclave_count=tenants)
    order, errors, slots, elapsed = [], [], set(), {}
    ready = threading.Barrier(tenants)

    def client(tag):
        ta_uuid, image = make_image(TA_KIND_INCREMENT, tag=tag)
        try:
            with Context(fabric) as ctx:
                session = ctx.open_session(ta_uuid, image)
                slots.add(session.slot_index)
                ready.wait(timeout=5.0)
                start = time.monotonic()
                for value in range(increments):
                    got = increment(session, value)
                    if got != value + 1:
                        errors.append((tag, value, got))
                    order.append(tag)
                elapsed[tag] = time.monotonic() - start
                session.close()
        except Exception as exc:  # reported below, with the tag
            errors.append((tag, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-3)
    try:
        threads = [threading.Thread(target=client, args=(tag,))
                   for tag in range(tenants)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert len(slots) == tenants
    assert len(order) == tenants * increments
    assert max(elapsed.values()) < 10.0
    # The stretch in which all six are running: from the last client's
    # first completion to the first client's last one.
    start = max(order.index(tag) for tag in range(tenants))
    end = min(len(order) - 1 - order[::-1].index(tag)
              for tag in range(tenants))
    assert end - start >= 2 * window
    for at in range(start, end - window + 2):
        assert set(order[at:at + window]) == set(range(tenants)), at
    fabric.wait_idle()
    fabric.audit()


def test_two_wallet_clients_share_the_wallet_slot(fabric):
    """Two WalletClients on their own threads meet on one wallet slot:
    every call answers gate 8's address or says the wallet is busy."""
    restorer = WalletClient(fabric)
    restorer.restore(PIN, REFERENCE_MNEMONIC)
    restorer.close()
    answers = []

    def client():
        wallet = WalletClient(fabric)
        try:
            for _ in range(5):
                try:
                    answers.append(wallet.get_address(PIN, 0))
                except WalletError as exc:
                    answers.append(str(exc))
        finally:
            wallet.close()

    threads = [threading.Thread(target=client) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)
        assert not thread.is_alive()
    assert len(answers) == 10
    assert set(answers) <= {WALLET_VECTORS["address0"], "wallet is busy"}
    fabric.wait_idle()
    fabric.audit()
    for slot in range(2):
        assert_scrubbed(fabric, slot)


def test_a_ta_probing_missing_ids_leaves_the_lock_map_bounded(fabric):
    size = len(fabric.services.storage._locks)
    ta_uuid, image = make_image(TA_KIND_STORAGE_PROBE)
    with Context(fabric) as ctx:
        session = ctx.open_session(ta_uuid, image)
        for _ in range(4):
            assert session.invoke_command(
                0, Operation(Value(Direction.IN, 500))).success
        session.close()
    assert len(fabric.services.storage._locks) == size


def test_turnstile_counts_hold_under_many_clients(fabric):
    """Four clients over two shared slots, with a switch interval short
    enough that parks and slot-lock waits run out: every reply is right,
    and the turnstile ends with nobody counted and nobody parked."""
    images = [make_image(TA_KIND_INCREMENT, tag=tag) for tag in (1, 2)]
    failures = []

    def client(index):
        with Context(fabric) as ctx:
            session = ctx.open_session(*images[index % 2])
            for value in range(300):
                if increment(session, value) != value + 1:
                    failures.append((index, value))
            session.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures
    assert fabric.turnstile._running == 0 and not fabric.turnstile._parked
    fabric.wait_idle()
    fabric.audit()
    for slot in range(2):
        assert_scrubbed(fabric, slot)
    events = fabric.events()
    assert all(type(event) is Event for event in events)
    # Every event of the run has its own seq, one above the last.
    assert [event.seq for event in events] == list(
        range(events[0].seq, events[0].seq + len(events)))
