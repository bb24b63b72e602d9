"""Fabric agents: staging, loads, slot lifecycle, dispatch, observability."""

import random
import sys
import threading
import time

import pytest

from conftest import make_image
from teefab.client_api import Context, Direction, Operation, Value
from teefab.enclave import (
    TA_KIND_ECHO,
    TA_KIND_INCREMENT,
    TrustedApp,
    register_ta_kind,
)
from teefab.fabric import EVENT_CAPACITY, CmRegion, DelayModel
from teefab.protocol import (
    MAX_IMAGE_SIZE,
    SHM_WINDOW_SIZE,
    TCM_SIZE,
    AccessDeniedError,
    ImageFormatError,
    ImageSizeError,
    LoadStatus,
    MailboxFrame,
    OperationId,
    OutOfEnclavesError,
    OutOfMemoryError,
    ParamKind,
    ReturnCode,
)

TA_KIND_TRIPWIRE = 245
TA_KIND_STALL = 246
TA_KIND_BAD_CLOSE = 247
TA_KIND_BAD_DESTROY = 248


class TripwireTa(TrustedApp):
    """Faults on purpose so quarantine behaviour is testable."""

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


register_ta_kind(TA_KIND_TRIPWIRE, TripwireTa)
register_ta_kind(TA_KIND_STALL, StallTa)
register_ta_kind(TA_KIND_BAD_CLOSE, BadCloseTa)
register_ta_kind(TA_KIND_BAD_DESTROY, BadDestroyTa)


def open_frame():
    return MailboxFrame.build(OperationId.OPEN, 0)


def close_frame(session_id):
    return MailboxFrame.build(OperationId.CLOSE, session_id)


def open_ta(fabric, ta_kind, tag=0, payload=b""):
    """Stage, load and OPEN one TA; returns (slot, session_id)."""
    ta_uuid, image = make_image(ta_kind, tag=tag, payload=payload)
    offset, size = fabric.cm_stage(image)
    slot, _fresh = fabric.manager_open(ta_uuid, offset, size)
    reply = fabric.comm_dispatch(slot, open_frame())
    assert reply.code is ReturnCode.SUCCESS
    fabric.cm_release(offset)
    return slot, reply.session_id


def load_statuses(fabric):
    return [event.fields["status"] for event in fabric.events("load_status")]


def test_cold_then_warm_open(fabric):
    ta_uuid, image = make_image(TA_KIND_INCREMENT)
    offset, size = fabric.cm_stage(image)
    slot, fresh = fabric.manager_open(ta_uuid, offset, size)
    assert fresh and fabric.load_count == 1
    again, fresh = fabric.manager_open(ta_uuid, offset, size)
    assert again == slot and not fresh
    assert fabric.load_count == 1
    assert load_statuses(fabric) == [LoadStatus.LOADED]
    assert fabric.registers.status is LoadStatus.IDLE
    fabric.release_pending(slot)
    fabric.release_pending(slot)
    fabric.wait_idle()
    assert fabric.slot_snapshot()[slot]["state"] == "FREE"


def test_oversized_image_rejected(fabric):
    ta_uuid, _ = make_image(TA_KIND_INCREMENT)
    with pytest.raises(ImageSizeError):
        fabric.manager_open(ta_uuid, 0, MAX_IMAGE_SIZE + 1)
    assert load_statuses(fabric) == [LoadStatus.ERR_SIZE]
    assert fabric.registers.status is LoadStatus.IDLE


def test_malformed_image_rejected(fabric):
    ta_uuid, _ = make_image(TA_KIND_INCREMENT)
    offset, size = fabric.cm_stage(b"not an image at all" * 4)
    with pytest.raises(ImageFormatError):
        fabric.manager_open(ta_uuid, offset, size)
    assert load_statuses(fabric) == [LoadStatus.ERR_FORMAT]
    assert fabric.slot_snapshot()[0]["state"] == "FREE"


def test_image_uuid_must_match_request(fabric):
    _, image = make_image(TA_KIND_INCREMENT, tag=1)
    wrong_uuid, _ = make_image(TA_KIND_INCREMENT, tag=2)
    offset, size = fabric.cm_stage(image)
    with pytest.raises(ImageFormatError):
        fabric.manager_open(wrong_uuid, offset, size)


def test_unregistered_kind_frees_slot(fabric):
    ta_uuid, image = make_image(209)
    offset, size = fabric.cm_stage(image)
    with pytest.raises(ImageFormatError):
        fabric.manager_open(ta_uuid, offset, size)
    assert all(row["state"] == "FREE" for row in fabric.slot_snapshot())


def test_fabric_full(fabric):
    open_ta(fabric, TA_KIND_INCREMENT, tag=1)
    open_ta(fabric, TA_KIND_ECHO, tag=2)
    ta_uuid, image = make_image(TA_KIND_INCREMENT, tag=3)
    offset, size = fabric.cm_stage(image)
    with pytest.raises(OutOfEnclavesError):
        fabric.manager_open(ta_uuid, offset, size)


def test_close_frees_slot_async(fabric):
    slot, sid = open_ta(fabric, TA_KIND_INCREMENT)
    reply = fabric.comm_dispatch(slot, close_frame(sid))
    assert reply.code is ReturnCode.SUCCESS
    fabric.wait_idle()
    row = fabric.slot_snapshot()[slot]
    assert row["state"] == "FREE" and row["uuid"] is None
    assert not fabric.loaded_tas
    fabric.audit()


def test_release_pending_without_open(fabric):
    ta_uuid, image = make_image(TA_KIND_INCREMENT)
    offset, size = fabric.cm_stage(image)
    slot, _ = fabric.manager_open(ta_uuid, offset, size)
    fabric.release_pending(slot)
    fabric.wait_idle()
    assert fabric.slot_snapshot()[slot]["state"] == "FREE"


def test_dispatch_to_free_slot_denied(fabric):
    with pytest.raises(AccessDeniedError):
        fabric.comm_dispatch(0, open_frame())


def test_concurrent_same_uuid_single_load(fabric):
    ta_uuid, image = make_image(TA_KIND_INCREMENT)
    offset, size = fabric.cm_stage(image)
    results, errors = [], []

    def opener():
        try:
            results.append(fabric.manager_open(ta_uuid, offset, size))
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


def test_quarantine_after_fault(fabric_factory):
    fabric = fabric_factory(quarantine_on_fault=True)
    slot, sid = open_ta(fabric, TA_KIND_TRIPWIRE)
    reply = fabric.comm_dispatch(slot, MailboxFrame.build(
        OperationId.INVOKE, sid, [], cmd_id=0))
    assert reply.code is ReturnCode.ERROR_GENERIC
    with pytest.raises(AccessDeniedError):
        fabric.comm_dispatch(slot, close_frame(sid))
    fabric.manager_close(slot)
    assert fabric.slot_snapshot()[slot]["state"] == "FREE"


def test_fault_not_quarantined_by_default(fabric):
    slot, sid = open_ta(fabric, TA_KIND_TRIPWIRE)
    reply = fabric.comm_dispatch(slot, MailboxFrame.build(
        OperationId.INVOKE, sid, [], cmd_id=0))
    assert reply.code is ReturnCode.ERROR_GENERIC
    assert fabric.comm_dispatch(slot, close_frame(sid)).code \
        is ReturnCode.SUCCESS


def test_shm_round_trip_and_gating(fabric):
    slot, _sid = open_ta(fabric, TA_KIND_ECHO)
    fabric.shm_write(slot, 64, b"through the window")
    assert fabric.shm_read(slot, 64, 18) == b"through the window"
    other = 1 - slot
    with pytest.raises(AccessDeniedError):
        fabric.shm_write(other, 0, b"x")


def test_events_record_lifecycle(fabric):
    slot, sid = open_ta(fabric, TA_KIND_INCREMENT)
    fabric.comm_dispatch(slot, close_frame(sid))
    fabric.wait_idle()
    events = fabric.events()
    assert [event.kind for event in events] == [
        "boot", "stage", "load", "load_status", "open", "dispatch",
        "release", "dispatch", "close"]
    assert [event.seq for event in events] == list(range(1, 10))
    assert all(event.slot == slot for event in events
               if event.kind in ("load", "open", "dispatch", "close"))
    assert [(event.fields["op"], event.fields["code"])
            for event in fabric.events("dispatch")] == [
        (OperationId.OPEN, ReturnCode.SUCCESS),
        (OperationId.CLOSE, ReturnCode.SUCCESS)]


def test_event_log_keeps_the_newest_records(fabric):
    slot, sid = open_ta(fabric, TA_KIND_INCREMENT)
    invoke = MailboxFrame.build(
        OperationId.INVOKE, sid, [(ParamKind.VALUE_INOUT, 0, 0)], cmd_id=0)
    for _ in range(EVENT_CAPACITY + 50):
        assert fabric.comm_dispatch(slot, invoke).code is ReturnCode.SUCCESS
    # boot, stage, load, load_status, open, the OPEN dispatch, release
    total = 7 + EVENT_CAPACITY + 50
    events = fabric.events()
    assert len(events) == EVENT_CAPACITY
    assert [event.seq for event in events] == list(
        range(total - EVENT_CAPACITY + 1, total + 1))
    assert all(event.kind == "dispatch" for event in events)
    assert not fabric.events("boot") and not fabric.events("open")


def test_uart_files_written(fabric_factory, tmp_path):
    uart_dir = tmp_path / "uart"
    fabric = fabric_factory(uart_dir=str(uart_dir))
    slot, _sid = open_ta(fabric, TA_KIND_INCREMENT)
    log = uart_dir / f"enclave{slot}.log"
    assert log.exists() and "boot: ta" in log.read_text()


def test_cm_region_alloc_cycle():
    cm = CmRegion(capacity=4096)
    a = cm.alloc(100)
    b = cm.alloc(200)
    assert a != b
    cm.write(a, b"A" * 100)
    cm.write(b, b"B" * 200)
    assert cm.read(a, 100) == b"A" * 100
    cm.free(a)
    c = cm.alloc(50)
    cm.write(c, b"C" * 50)
    assert cm.read(b, 200) == b"B" * 200
    with pytest.raises(OutOfMemoryError):
        cm.alloc(4096)
    with pytest.raises(OutOfMemoryError):
        cm.read(4090, 100)
    with pytest.raises(OutOfMemoryError):
        CmRegion(capacity=64).alloc(65)


def test_cm_free_unknown_offset():
    cm = CmRegion(capacity=1024)
    with pytest.raises(OutOfMemoryError):
        cm.free(512)


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
