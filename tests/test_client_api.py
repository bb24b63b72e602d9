"""Untrusted-side API: contexts, sessions, operations, shared memory."""

import sys
import threading
from pathlib import Path

import pytest

from conftest import make_image
import teefab
from teefab import client_api, protocol
from teefab.client_api import (
    Context,
    Direction,
    Operation,
    SharedMemory,
    Value,
)
from teefab.enclave import TA_KIND_ECHO, TA_KIND_INCREMENT, TA_KIND_SHMEM16
from teefab.protocol import (
    CM_REGION_SIZE,
    MAX_IMAGE_SIZE,
    SHM_WINDOW_SIZE,
    AccessDeniedError,
    BadParametersError,
    ImageFormatError,
    ImageSizeError,
    InvalidFrame,
    LoadStatus,
    MailboxFrame,
    OutOfMemoryError,
    ReturnCode,
    ShortBufferError,
    TAImage,
    TeeError,
    encode_image,
)


@pytest.fixture
def context(fabric):
    with Context(fabric) as ctx:
        yield ctx


def open_ta(context, ta_kind, tag=0):
    ta_uuid, image = make_image(ta_kind, tag=tag)
    return context.open_session(ta_uuid, image)


def load_statuses(fabric):
    return [event.fields["status"] for event in fabric.events("load_status")]


def test_invoke_validates_once_per_trust_boundary(context, monkeypatch):
    """One request is validated twice: on the REE side as it is built,
    and in the ISR as it is decoded. No other layer validates it again."""
    session = open_ta(context, TA_KIND_INCREMENT)
    callers = []
    validate = MailboxFrame.validate

    def counting_validate(frame):
        callers.append(sys._getframe(1).f_code.co_name)
        return validate(frame)

    monkeypatch.setattr(MailboxFrame, "validate", counting_validate)
    result = session.invoke_command(0, Operation(Value(Direction.INOUT, 41)))
    assert result.value(0) == (42, 0)
    assert callers == ["build", "decode_frame"]



_PACKAGE = str(Path(teefab.__file__).parent)


def _frames_entered(call):
    """The names of the Python frames that call() enters in teefab's own
    files, plus the `<string>` frames of generated code such as a named
    tuple's __new__. The standard library's frames are not counted, so the
    figure does not move between Python versions."""
    entered = []

    def profile(frame, event, _arg):
        if event == "call":
            filename = frame.f_code.co_filename
            if filename == "<string>" or filename.startswith(_PACKAGE):
                entered.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return entered


def test_a_warm_request_stays_within_its_frame_budget(context):
    """A warm increment enters at most 27 frames and a 256-byte echo at
    most 35: a frame that only forwards a call, or rebuilds what its caller
    holds, costs every request. The session marshals its own operation and
    reads its slot's load from the exchange, and the core serves the frame
    in `deliver`. A memref access is checked in the TA's `MemRef` and an
    REE window copy by the window's `Space._check` under
    `shm_write`/`shm_read`, each once."""
    inc = open_ta(context, TA_KIND_INCREMENT)
    echo = open_ta(context, TA_KIND_ECHO)
    block = echo.allocate_shared_memory(256, Direction.INOUT)
    data = bytes(range(256))
    results = []

    def increment():
        results.append(inc.invoke_command(
            0, Operation(Value(Direction.INOUT, 41))).value(0))

    def echo_block():
        block.write(data)
        echo.invoke_command(1, Operation(block))

    increment()
    echo_block()            # warm-up: every lazy first use is behind us
    entered = _frames_entered(increment)
    assert len(entered) <= 27, entered
    entered = _frames_entered(echo_block)
    assert len(entered) <= 35, entered
    assert results == [(42, 0)] * 2
    assert block.read() == data[::-1]


def test_a_cold_open_stays_within_its_frame_budget(fabric, context):
    """A cold open of a 32-byte image, one increment and the close that
    scrubs the slot enter at most 100 frames: the manager parses the
    header once, looks the TA kind's factory up once and boots the core
    from that parse and that factory, no frame packs the parameter kinds
    of an OPEN or CLOSE by hand, and the CLOSE is sent without `build`."""
    ta_uuid, image = make_image(TA_KIND_INCREMENT)

    def cold_round():
        with context.open_session(ta_uuid, image) as session:
            assert session.invoke_command(
                0, Operation(Value(Direction.INOUT, 41))).value(0) == (42, 0)

    cold_round()            # warm-up: the image is staged, lazy uses done
    loads = fabric.load_count
    entered = _frames_entered(cold_round)
    assert len(entered) <= 100, entered
    assert len(image) == 32 and fabric.load_count == loads + 1


def test_every_open_sends_the_one_prebuilt_open_frame(fabric, context,
                                                       monkeypatch):
    """A cold and a warm `open_session` build no frame: each sends the
    OPEN frame built at import, which the core decodes and checks as it
    does any frame."""
    ta_uuid, image = make_image(TA_KIND_INCREMENT)
    built, opens = [], []
    build, dispatch = MailboxFrame.build, fabric.comm_dispatch

    def spy_build(cls, *args, **kwargs):
        built.append(args)
        return build(*args, **kwargs)

    def spy_dispatch(slot, frame):
        if frame.operation is protocol.OperationId.OPEN:
            opens.append(frame)
        return dispatch(slot, frame)

    monkeypatch.setattr(fabric, "comm_dispatch", spy_dispatch)
    with monkeypatch.context() as patch:
        patch.setattr(MailboxFrame, "build", classmethod(spy_build))
        cold = context.open_session(ta_uuid, image)
        warm = context.open_session(ta_uuid, image)
    assert built == []
    assert [event.fields["warm"] for event in fabric.events("open")] == [
        False, True]
    assert len(opens) == 2
    assert all(frame is client_api._OPEN_FRAME for frame in opens)
    assert client_api._OPEN_FRAME == MailboxFrame.build(
        protocol.OperationId.OPEN, 0)
    warm.close()
    cold.close()


def test_every_close_is_sent_without_build(fabric, context, monkeypatch):
    """A close builds no frame: it sends CLOSE with its own session id,
    made from constants, and the core decodes and validates each such
    frame once. A close after the slot was reset sends nothing."""
    ta_uuid, image = make_image(TA_KIND_INCREMENT)
    sessions = [context.open_session(ta_uuid, image) for _ in range(2)]
    ids = [session.session_id for session in sessions]
    built, closes, validated = [], [], []
    build, dispatch = MailboxFrame.build, fabric.comm_dispatch
    validate = MailboxFrame.validate

    def spy_build(cls, *args, **kwargs):
        built.append(args)
        return build(*args, **kwargs)

    def spy_dispatch(slot, frame):
        if frame.operation is protocol.OperationId.CLOSE:
            closes.append(frame)
        return dispatch(slot, frame)

    def spy_validate(frame):
        validated.append((sys._getframe(1).f_code.co_name, frame.operation))
        return validate(frame)

    monkeypatch.setattr(fabric, "comm_dispatch", spy_dispatch)
    with monkeypatch.context() as patch:
        patch.setattr(MailboxFrame, "build", classmethod(spy_build))
        patch.setattr(MailboxFrame, "validate", spy_validate)
        for session in sessions:
            session.close()
    assert built == []
    assert validated == [("decode_frame", protocol.OperationId.CLOSE)] * 2
    assert closes == [MailboxFrame.build(protocol.OperationId.CLOSE, sid)
                      for sid in ids]
    assert [session.session_id for session in sessions] == [0, 0]

    # A session whose slot was reset under it: its close is a no-op.
    session = context.open_session(ta_uuid, image)
    fabric.manager_close(session.slot_index)
    closes.clear()
    session.close()
    assert closes == [] and not session.is_open


class CountingLock:
    """A lock that counts how often it is taken, however it is taken:
    `with`, `acquire`, or a `threading.Condition` built over it."""

    def __init__(self):
        self._lock = threading.Lock()
        self.holds = 0

    def acquire(self, blocking=True, timeout=-1):
        self.holds += 1
        return self._lock.acquire(blocking, timeout)

    def release(self):
        self._lock.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc_info):
        self.release()


def _record_calls(monkeypatch, calls, cls, names):
    """Wrap methods of a standard-library class so that each call made
    while the test runs is recorded as "Class.method"."""
    for name in names:
        method = getattr(cls, name)

        def spy(self, *args, _method=method, _name=f"{cls.__name__}.{name}",
                **kwargs):
            calls.append(_name)
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, spy)


def test_a_lone_round_takes_the_manager_lock_five_times_and_wakes_nobody(
        fabric, context, monkeypatch):
    """With no other thread about, a cold round (open, one increment,
    close) takes the manager lock at most 5 times and calls no
    `Condition.notify`/`notify_all` or `wait`: only a waiting thread is
    woken. Neither it nor a warm increment calls a `threading.Event`
    method, as the core reads its RST line as a plain attribute, and a
    warm increment does not take the manager lock at all. Counted by
    spies, not by frames, so the figures hold on every Python version."""
    ta_uuid, image = make_image(TA_KIND_INCREMENT)

    def cold_round():
        with context.open_session(ta_uuid, image) as session:
            assert session.invoke_command(
                0, Operation(Value(Direction.INOUT, 41))).value(0) == (42, 0)

    cold_round()            # warm-up: the image is staged, lazy uses done
    warm = open_ta(context, TA_KIND_INCREMENT, tag=1)
    manager = CountingLock()
    monkeypatch.setattr(fabric, "_manager", manager)
    monkeypatch.setattr(fabric, "_changed", threading.Condition(manager))
    calls = []
    _record_calls(monkeypatch, calls, threading.Condition,
                  ("notify", "notify_all", "wait", "wait_for"))
    _record_calls(monkeypatch, calls, threading.Event,
                  ("is_set", "set", "clear", "wait"))
    loads = fabric.load_count
    manager.holds = 0
    cold_round()
    assert manager.holds <= 5 and calls == []
    assert fabric.load_count == loads + 1
    manager.holds = 0
    assert warm.invoke_command(
        0, Operation(Value(Direction.INOUT, 1))).value(0) == (2, 0)
    assert manager.holds == 0 and calls == []


def test_open_and_close_frames_pack_no_kinds_by_hand(context, monkeypatch):
    """The kinds of an OPEN or CLOSE frame, none at all, are found in the
    same table as a request's four: `pack_param_types` is never called."""
    calls = []
    pack = protocol.pack_param_types

    def spying_pack(kinds):
        calls.append(kinds)
        return pack(kinds)

    monkeypatch.setattr(protocol, "pack_param_types", spying_pack)
    with open_ta(context, TA_KIND_INCREMENT) as session:
        assert session.invoke_command(
            0, Operation(Value(Direction.INOUT, 41))).value(0) == (42, 0)
    assert calls == []


def _refused_before_the_window(fabric, session, monkeypatch, *request):
    """The request raises InvalidFrame on the REE side: no window copy,
    and the core answers no frame."""
    copies = []
    monkeypatch.setattr(fabric, "shm_write",
                        lambda *args: copies.append(args))
    runtime = fabric.slot_runtime(session.slot_index)
    served = runtime.snapshot()["reply_serial"]
    with pytest.raises(InvalidFrame):
        session.invoke_command(*request)
    assert copies == []
    assert runtime.snapshot()["reply_serial"] == served


@pytest.mark.parametrize("cmd_id", [2 ** 32, -1, 1.0], ids=repr)
def test_a_cmd_id_that_is_no_word_is_refused_on_the_ree_side(
        fabric, context, monkeypatch, cmd_id):
    session = open_ta(context, TA_KIND_ECHO)
    block = session.allocate_shared_memory(16)
    _refused_before_the_window(fabric, session, monkeypatch,
                               cmd_id, Operation(block))


def test_a_value_word_changed_after_it_was_built_is_refused(
        fabric, context, monkeypatch):
    session = open_ta(context, TA_KIND_INCREMENT)
    value = Value(Direction.INOUT, 41)
    value.a = 2 ** 32
    _refused_before_the_window(fabric, session, monkeypatch,
                               0, Operation(value))


@pytest.mark.parametrize("field, moved", [
    ("offset", SHM_WINDOW_SIZE - 8), ("length", SHM_WINDOW_SIZE + 1)])
def test_a_block_moved_past_the_window_is_refused(
        fabric, context, monkeypatch, field, moved):
    session = open_ta(context, TA_KIND_ECHO)
    block = session.allocate_shared_memory(16)
    setattr(block, field, moved)
    _refused_before_the_window(fabric, session, monkeypatch,
                               1, Operation(block))

def test_open_invoke_close(context):
    session = open_ta(context, TA_KIND_INCREMENT)
    assert session.is_open
    result = session.invoke_command(0, Operation(Value(Direction.INOUT, 41)))
    assert result.success and result.value(0) == (42, 0)
    session.close()
    assert not session.is_open


def test_value_out_ignores_ree_words(context):
    """OUT values travel to the TA as zeros regardless of REE contents."""
    session = open_ta(context, TA_KIND_ECHO)
    result = session.invoke_command(0, Operation(
        Value(Direction.IN, 123, 456),
        Value(Direction.OUT, 0xDEAD, 0xBEEF)))
    assert result.value(1) == (123, 456)
    session.close()


def test_value_direction_gates_result_reads(context):
    session = open_ta(context, TA_KIND_ECHO)
    result = session.invoke_command(0, Operation(
        Value(Direction.IN, 9, 9),
        Value(Direction.OUT, 0, 0)))
    with pytest.raises(BadParametersError):
        result.value(0)
    session.close()


@pytest.mark.parametrize("index", [4, -1, 1.0, "0", None])
def test_a_result_index_outside_0_to_3_is_refused(context, index):
    """-1 would read parameter 3's kind and words, and 4 would raise
    IndexError: both reads refuse any index but the four parameters."""
    session = open_ta(context, TA_KIND_ECHO)
    result = session.invoke_command(0, Operation(
        Value(Direction.IN, 9, 9), Value(Direction.OUT), None,
        Value(Direction.OUT)))
    assert result.value(1) == (9, 9) and result.value(3) == (0, 0)
    for read in (result.value, result.memref_length):
        with pytest.raises(BadParametersError, match="no parameter"):
            read(index)
    session.close()


@pytest.mark.parametrize("call", [
    lambda block: block.write(b"ab", at="x"),
    lambda block: block.write(b"ab", at=1.5),
    lambda block: block.read(at=1.0),
    lambda block: block.read(0, 2.5),
    lambda block: block.read(None, 2),
], ids=["write_at_text", "write_at_float", "read_at_float",
        "read_length_float", "read_at_none"])
def test_a_shared_block_refuses_an_offset_that_is_no_int(call):
    block = SharedMemory(0, 4, Direction.INOUT)
    block.write(b"abcd")
    with pytest.raises(BadParametersError, match="outside 4-byte block"):
        call(block)
    assert block.read() == b"abcd" and block.read(1, 2) == b"bc"


def test_shared_memory_round_trip(context):
    session = open_ta(context, TA_KIND_SHMEM16)
    block = session.allocate_shared_memory(16, Direction.OUT)
    block.write(b"\xff" * 16)
    result = session.invoke_command(0, Operation(block))
    assert result.success
    assert block.read() == bytes(range(16))
    assert result.memref_length(0) == 16
    session.close()


def test_out_window_is_scrubbed_before_dispatch(context):
    """REE garbage in an OUT block never reaches the enclave window: the
    echo TA reverses what it finds there, and it finds only zeros."""
    session = open_ta(context, TA_KIND_ECHO)
    block = session.allocate_shared_memory(16, Direction.OUT)
    block.write(b"\xa7" * 16)
    assert session.invoke_command(1, Operation(block)).success
    assert block.read() == bytes(16)
    session.close()


def test_short_buffer_reports_needed_length(context):
    session = open_ta(context, TA_KIND_SHMEM16)
    block = session.allocate_shared_memory(8, Direction.OUT)
    result = session.invoke_command(0, Operation(block))
    assert result.code is ReturnCode.ERROR_SHORT_BUFFER
    assert not result.success
    assert result.memref_length(0) == 16
    assert block.read() == bytes(8)
    with pytest.raises(ShortBufferError):
        result.raise_for_code()
    session.close()


def test_inout_block_copies_both_ways(context):
    session = open_ta(context, TA_KIND_ECHO)
    block = session.allocate_shared_memory(10, Direction.INOUT)
    block.write(b"0123456789")
    result = session.invoke_command(1, Operation(block))
    assert result.success
    assert block.read() == b"9876543210"
    session.close()


def test_window_allocator_exhaustion(context):
    session = open_ta(context, TA_KIND_ECHO)
    session.allocate_shared_memory(SHM_WINDOW_SIZE - 8, Direction.INOUT)
    session.allocate_shared_memory(8, Direction.INOUT)
    with pytest.raises(OutOfMemoryError):
        session.allocate_shared_memory(1, Direction.INOUT)
    session.close()


def test_zero_length_block_is_legal(context):
    session = open_ta(context, TA_KIND_ECHO)
    block = session.allocate_shared_memory(0, Direction.INOUT)
    result = session.invoke_command(1, Operation(block))
    assert result.success
    session.close()


def test_operation_rejects_too_many_params():
    with pytest.raises(BadParametersError):
        Operation(*(Value(Direction.IN, 0) for _ in range(5)))


def test_value_word_range_checked():
    with pytest.raises(BadParametersError):
        Value(Direction.IN, 1 << 32)


@pytest.mark.parametrize("make", [
    lambda direction: Value(direction),
    lambda direction: SharedMemory(0, 4, direction)],
    ids=["Value", "SharedMemory"])
def test_direction_is_taken_as_the_enum_call_takes_it(make):
    accepted = [(1, Direction.IN), (2, Direction.OUT), (3, Direction.INOUT),
                (True, Direction.IN), (1.0, Direction.IN)]
    accepted += [(member, member) for member in Direction]
    for given, member in accepted:
        assert make(given).direction is member, given
    for given in (0, 4, "1", None, [1]):
        with pytest.raises(ValueError):
            make(given)


def test_closed_session_refuses_work(context):
    session = open_ta(context, TA_KIND_INCREMENT)
    session.close()
    session.close()  # double close is a no-op
    with pytest.raises(TeeError):
        session.invoke_command(0, Operation(Value(Direction.INOUT, 1)))
    with pytest.raises(TeeError):
        session.allocate_shared_memory(4, Direction.INOUT)


def test_stale_session_cannot_reach_the_next_load(fabric):
    """A reloaded core numbers sessions from 1 again: a handle from before
    a reset must not reach the next tenant's session of the same number."""
    with Context(fabric) as ctx:
        stale = open_ta(ctx, TA_KIND_INCREMENT, tag=1)
        fabric.manager_close(stale.slot_index)
        echo = open_ta(ctx, TA_KIND_ECHO, tag=2)
        assert (echo.slot_index, echo.session_id) == \
            (stale.slot_index, stale.session_id)
        with pytest.raises(AccessDeniedError):
            stale.invoke_command(0, Operation(Value(Direction.INOUT, 7)))
        stale.close()
        assert not stale.is_open
        row = fabric.slot_snapshot()[echo.slot_index]
        assert (row["state"], row["sessions"]) == ("TAKEN", 1)
        result = echo.invoke_command(0, Operation(
            Value(Direction.IN, 3, 4), Value(Direction.OUT)))
        assert result.value(1) == (3, 4)
        echo.close()


def test_the_exchange_yields_the_load_it_holds(fabric):
    """`with fabric.exchange(slot) as load` gives (uuid, generation) while
    the slot is TAKEN, (None, generation) once it is torn down, and a
    generation one higher after a reload. A session compares against that
    reading, so it refuses a reloaded slot."""
    with Context(fabric) as ctx:
        stale = open_ta(ctx, TA_KIND_INCREMENT, tag=1)
        slot = stale.slot_index
        with fabric.exchange(slot) as load:
            assert load == (stale.uuid, 1)
        fabric.manager_close(slot)
        with fabric.exchange(slot) as load:
            assert load == (None, 1)
        echo = open_ta(ctx, TA_KIND_ECHO, tag=2)
        assert echo.slot_index == slot
        with fabric.exchange(slot) as load:
            assert load == (echo.uuid, 2)
        with pytest.raises(AccessDeniedError, match="no longer hosts"):
            stale.invoke_command(0, Operation(Value(Direction.INOUT, 7)))
        stale.close()
        assert echo.invoke_command(0, Operation(
            Value(Direction.IN, 3, 4), Value(Direction.OUT))).value(1) == (3, 4)
        echo.close()


def test_open_retries_when_its_slot_is_reloaded_before_open(fabric):
    """A teardown and a reload between the lookup and the OPEN dispatch
    must not bind the session to the TA that took the slot over."""
    increment_uuid, increment_image = make_image(TA_KIND_INCREMENT, tag=3)
    echo_uuid, echo_image = make_image(TA_KIND_ECHO, tag=4)
    lookup = fabric.manager_open
    intruders = []

    def lookup_then_reload(ta_uuid, cm_addr, size):
        slot, fresh = lookup(ta_uuid, cm_addr, size)
        if ta_uuid == increment_uuid and not intruders:
            fabric.manager_close(slot)
            intruders.append(Context(fabric).open_session(
                echo_uuid, echo_image))
        return slot, fresh

    fabric.manager_open = lookup_then_reload
    with Context(fabric) as ctx:
        session = ctx.open_session(increment_uuid, increment_image)
        assert session.slot_index != intruders[0].slot_index
        result = session.invoke_command(0, Operation(
            Value(Direction.INOUT, 7)))
        assert result.value(0) == (8, 0)
        session.close()
    intruders[0].close()
    intruders[0].context.close()


def test_open_failure_raises_mapped_error(context):
    ta_uuid, image = make_image(TA_KIND_INCREMENT, tag=7)
    bad = bytearray(image)
    bad[0] ^= 0xFF
    with pytest.raises(TeeError):
        context.open_session(ta_uuid, bytes(bad))


def test_open_rejects_uuid_mismatch(context):
    ta_uuid, _ = make_image(TA_KIND_INCREMENT, tag=8)
    _, image = make_image(TA_KIND_INCREMENT, tag=9)
    with pytest.raises(TeeError):
        context.open_session(ta_uuid, image)


def test_staging_cache_reuses_cm_offset(fabric):
    ta_uuid, image = make_image(TA_KIND_INCREMENT)
    with Context(fabric) as ctx:
        first = ctx.open_session(ta_uuid, image)
        second = ctx.open_session(ta_uuid, image)
        assert len(fabric.events("stage")) == 1
        first.close()
        second.close()


def test_restaging_other_bytes_leaves_the_check_to_the_manager(fabric):
    """Bytes other than the staged ones for a uuid get a block of their
    own and a cold load, so the manager checks them: another uuid's image
    and a corrupt or wrong-length one are each refused with ERR_FORMAT,
    and a valid image of the same uuid loads from its own block."""
    ta_uuid, image = make_image(TA_KIND_INCREMENT, tag=10, payload=b"v1")
    _, other_uuid_image = make_image(TA_KIND_INCREMENT, tag=11)
    _, same_uuid_image = make_image(TA_KIND_INCREMENT, tag=10, payload=b"v2")
    corrupt = bytearray(image)
    corrupt[0] ^= 0xFF
    bad_images = (other_uuid_image, bytes(corrupt), image[:-1],
                  image + b"\x00")
    with Context(fabric) as ctx:
        ctx.open_session(ta_uuid, image).close()
        for bad in bad_images:
            refusals = load_statuses(fabric).count(LoadStatus.ERR_FORMAT)
            with pytest.raises(ImageFormatError):
                ctx.open_session(ta_uuid, bad)
            assert load_statuses(fabric).count(
                LoadStatus.ERR_FORMAT) == refusals + 1
        loads = fabric.load_count
        with ctx.open_session(ta_uuid, same_uuid_image) as session:
            assert fabric.load_count == loads + 1
            tcm = fabric.slot_runtime(session.slot_index).tcm
            assert tcm.read(0, len(same_uuid_image)) == same_uuid_image
        assert len(fabric.events("stage")) == 2 + len(bad_images)


def test_a_context_loads_the_bytes_it_is_handed(fabric):
    """A Context handed other bytes for a uuid it staged before loads
    those bytes, not the ones it staged first."""
    ta_uuid, increment_image = make_image(TA_KIND_INCREMENT, tag=12)
    echo_image = encode_image(TAImage(ta_uuid, TA_KIND_ECHO))
    with Context(fabric) as ctx:
        ctx.open_session(ta_uuid, increment_image).close()
        fabric.wait_idle()
        with ctx.open_session(ta_uuid, echo_image) as session:
            runtime = fabric.slot_runtime(session.slot_index)
            assert runtime.snapshot()["ta_kind"] == TA_KIND_ECHO
        assert len(fabric.events("stage")) == 2


def test_open_refuses_an_image_over_the_cap_before_staging_it(fabric):
    """No load could take an image over MAX_IMAGE_SIZE, so the client
    refuses it before it takes any CM space."""
    ta_uuid, _ = make_image(TA_KIND_INCREMENT, tag=13)
    with Context(fabric) as ctx:
        with pytest.raises(ImageSizeError):
            ctx.open_session(ta_uuid, bytes(MAX_IMAGE_SIZE + 1))
        assert fabric.events("stage") == ()
        # The whole region is free: nothing was staged.
        fabric.cm.free(fabric.cm.alloc(CM_REGION_SIZE))


def test_sessions_share_one_warm_slot(fabric):
    ta_uuid, image = make_image(TA_KIND_INCREMENT)
    with Context(fabric) as ctx:
        first = ctx.open_session(ta_uuid, image)
        second = ctx.open_session(ta_uuid, image)
        assert fabric.load_count == 1
        assert first.session_id != second.session_id
        first.close()
        second.close()
    fabric.wait_idle()
    assert all(row["state"] == "FREE" for row in fabric.slot_snapshot())


def test_context_close_releases_resources(fabric):
    ta_uuid, image = make_image(TA_KIND_INCREMENT)
    ctx = Context(fabric)
    session = ctx.open_session(ta_uuid, image)
    session.close()
    ctx.close()
    fabric.wait_idle()
    assert fabric.events("release")


def test_session_context_manager(context):
    with open_ta(context, TA_KIND_INCREMENT) as session:
        result = session.invoke_command(
            0, Operation(Value(Direction.INOUT, 1)))
        assert result.value(0) == (2, 0)
    assert not session.is_open


def test_memref_direction_in_skips_copy_back(context):
    session = open_ta(context, TA_KIND_ECHO)
    block = session.allocate_shared_memory(6, Direction.IN)
    block.write(b"abcdef")
    result = session.invoke_command(1, Operation(block))
    assert result.success
    # The TA reversed its window slice, but an IN block is never copied back.
    assert block.read() == b"abcdef"
    session.close()


def test_invoke_on_unknown_command_maps_error(context):
    session = open_ta(context, TA_KIND_INCREMENT)
    result = session.invoke_command(42, Operation(Value(Direction.INOUT, 1)))
    assert result.code is ReturnCode.ERROR_BAD_PARAMETERS
    with pytest.raises(BadParametersError):
        result.raise_for_code()
    session.close()
