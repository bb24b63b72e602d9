"""Enclave core: boot, dispatch, grants, zeroization, fault containment."""

import threading
import uuid as uuid_mod

import pytest

from teefab.enclave import (
    TA_KIND_ECHO,
    TA_KIND_INCREMENT,
    TA_KIND_PROBE,
    TA_KIND_SHMEM16,
    UART_CAPACITY,
    EnclaveResetError,
    EnclaveRuntime,
    MemoryContext,
    Space,
    TrustedApp,
    UartLog,
    register_ta_kind,
    ta_factory,
)
from teefab.internal_api.rng import Csprng
from teefab.internal_api.storage import (
    DeviceKey,
    SealedStorage,
    TeeServices,
)
from teefab.protocol import (
    MAILBOX_WORDS,
    SHM_WINDOW_SIZE,
    TCM_SIZE,
    AccessDeniedError,
    MailboxFrame,
    OperationId,
    ParamKind,
    ReturnCode,
    TAImage,
    decode_reply,
    encode_frame,
    encode_image,
)

TA_KIND_SLEEPY = 240
TA_KIND_CRASHY = 241
TA_KIND_FAREWELL = 242


class SleepyTa(TrustedApp):
    """Blocks inside invoke until the core is reset."""

    started = threading.Event()

    def invoke_command(self, session, cmd_id, params):
        SleepyTa.started.set()
        self.env.sleep(30.0)


class CrashyTa(TrustedApp):
    """Raises a non-protocol exception from its handler."""

    def invoke_command(self, session, cmd_id, params):
        raise ZeroDivisionError("intentional ta bug")


class FarewellTa(TrustedApp):
    """Logs lifecycle events so destroy ordering is observable."""

    def close_session(self, session):
        self.env.uart.log("farewell: close")

    def destroy(self):
        self.env.uart.log("farewell: destroy")


register_ta_kind(TA_KIND_SLEEPY, SleepyTa)
register_ta_kind(TA_KIND_CRASHY, CrashyTa)
register_ta_kind(TA_KIND_FAREWELL, FarewellTa)


@pytest.fixture
def services(tmp_path):
    return TeeServices(Csprng(seed=5),
                       SealedStorage(tmp_path, DeviceKey.from_seed("enclave")))


@pytest.fixture
def core(services):
    runtime = EnclaveRuntime(0, services)
    yield runtime
    runtime.assert_reset()


def image_for(kind, tag=0, payload=b""):
    ta_uuid = uuid_mod.UUID(int=(kind << 64) | tag, version=4)
    return encode_image(TAImage(ta_uuid, kind, payload))


def boot(core, kind, payload=b""):
    core.load_image(image_for(kind, payload=payload))
    core.deassert_reset()


def exchange(core, operation, session_id, params=(), cmd_id=0):
    frame = MailboxFrame.build(operation, session_id, params, cmd_id=cmd_id)
    return decode_reply(core.deliver(encode_frame(frame)))


def open_session(core):
    reply = exchange(core, OperationId.OPEN, 0)
    assert reply.code is ReturnCode.SUCCESS
    assert reply.session_id != 0
    return reply.session_id


def test_boot_and_uart(core):
    boot(core, TA_KIND_INCREMENT)
    snap = core.snapshot()
    assert not snap["rst"] and snap["ta_kind"] == TA_KIND_INCREMENT
    assert any("boot: ta" in line for line in core.uart.lines())


def test_uart_keeps_the_newest_lines_and_files_all(tmp_path):
    uart = UartLog()
    path = tmp_path / "enclave0.log"
    uart.attach_file(path)
    lines = [f"line {n}" for n in range(UART_CAPACITY + 10)]
    for line in lines:
        uart.log(line)
    assert uart.lines() == tuple(lines[10:])
    assert path.read_text().splitlines() == lines


def test_increment_round_trip(core):
    boot(core, TA_KIND_INCREMENT)
    sid = open_session(core)
    reply = exchange(core, OperationId.INVOKE, sid,
                     [(ParamKind.VALUE_INOUT, 41, 0)])
    assert reply.code is ReturnCode.SUCCESS
    assert reply.param_words(0)[0] == 42
    reply = exchange(core, OperationId.INVOKE, sid,
                     [(ParamKind.VALUE_INOUT, 0xFFFFFFFF, 0)])
    assert reply.param_words(0)[0] == 0
    assert exchange(core, OperationId.CLOSE, sid).code is ReturnCode.SUCCESS


def test_dma_requires_reset(core):
    boot(core, TA_KIND_INCREMENT)
    with pytest.raises(RuntimeError):
        core.load_image(image_for(TA_KIND_ECHO))


def test_deliver_while_reset_fails(core):
    with pytest.raises(EnclaveResetError):
        exchange(core, OperationId.OPEN, 0)


def test_invoke_without_session(core):
    boot(core, TA_KIND_INCREMENT)
    reply = exchange(core, OperationId.INVOKE, 77,
                     [(ParamKind.VALUE_INOUT, 1, 0)])
    assert reply.code is ReturnCode.ERROR_BAD_PARAMETERS


def test_session_ids_are_fresh(core):
    boot(core, TA_KIND_INCREMENT)
    first = open_session(core)
    second = open_session(core)
    assert first != second
    exchange(core, OperationId.CLOSE, first)
    third = open_session(core)
    assert third not in (first, second)


def test_destroy_fires_only_after_last_close(core):
    boot(core, TA_KIND_FAREWELL)
    a, b = open_session(core), open_session(core)
    exchange(core, OperationId.CLOSE, a)
    lines = core.uart.lines()
    assert sum("farewell: destroy" in l for l in lines) == 0
    exchange(core, OperationId.CLOSE, b)
    lines = core.uart.lines()
    assert sum("farewell: close" in l for l in lines) == 2
    assert sum("farewell: destroy" in l for l in lines) == 1


def test_zeroize_on_reset(core):
    secret = b"\xa5" * 600
    boot(core, TA_KIND_ECHO, payload=secret)
    sid = open_session(core)
    core.window.write(100, b"\x5a" * 32)
    exchange(core, OperationId.INVOKE, sid,
             [(ParamKind.VALUE_IN, 7, 7), (ParamKind.VALUE_OUT, 0, 0)])
    core.assert_reset()
    assert core.tcm.read(0, TCM_SIZE) == bytes(TCM_SIZE)
    assert core.window.read(0, len(core.window)) == bytes(len(core.window))
    assert core.mailbox_words() == (0,) * MAILBOX_WORDS
    snap = core.snapshot()
    assert snap["rst"] and not snap["int"]
    assert snap["sessions"] == 0 and snap["last_sid"] == 0
    assert snap["ta_kind"] is None and snap["reply_serial"] == 0
    assert not core.faulted


def test_probe_sees_no_predecessor_bytes(core):
    boot(core, TA_KIND_ECHO, payload=b"\xa5" * 600)
    sid = open_session(core)
    exchange(core, OperationId.CLOSE, sid)
    core.assert_reset()
    boot(core, TA_KIND_PROBE)
    sid = open_session(core)
    reply = exchange(core, OperationId.INVOKE, sid,
                     [(ParamKind.VALUE_OUT, 0, 0)])
    nonzero_beyond_image, sentinel_count = reply.param_words(0)
    assert (nonzero_beyond_image, sentinel_count) == (0, 0)


def test_fault_containment(core):
    boot(core, TA_KIND_CRASHY)
    sid = open_session(core)
    reply = exchange(core, OperationId.INVOKE, sid, [])
    assert reply.code is ReturnCode.ERROR_GENERIC
    assert core.faulted
    assert any("ZeroDivisionError" in line for line in core.uart.lines())
    # The core keeps answering after a contained fault.
    assert exchange(core, OperationId.CLOSE, sid).code is ReturnCode.SUCCESS


def test_reset_interrupts_blocked_handler(core):
    boot(core, TA_KIND_SLEEPY)
    sid = open_session(core)
    SleepyTa.started.clear()
    failure = []

    def caller():
        try:
            exchange(core, OperationId.INVOKE, sid, [])
        except EnclaveResetError:
            failure.append("reset")

    thread = threading.Thread(target=caller)
    thread.start()
    assert SleepyTa.started.wait(5.0)
    core.assert_reset()
    thread.join(timeout=5.0)
    assert failure == ["reset"]
    assert core.snapshot()["state"].name == "RESET"


def test_bad_image_boot_is_inert(core):
    core.load_image(b"\xde\xad\xbe\xef" * 16)
    core.deassert_reset()
    assert any("image rejected" in line for line in core.uart.lines())
    reply = exchange(core, OperationId.OPEN, 0)
    assert reply.code is ReturnCode.ERROR_GENERIC


def test_unknown_kind_boot_is_inert(core):
    core.load_image(image_for(209))
    core.deassert_reset()
    assert any("no handler" in line for line in core.uart.lines())
    assert ta_factory(209) is None


def test_malformed_frame_words(core, monkeypatch):
    boot(core, TA_KIND_INCREMENT)
    words = [9] + [0] * (MAILBOX_WORDS - 1)
    reply = decode_reply(core.deliver(words))
    assert reply.code is ReturnCode.ERROR_BAD_PARAMETERS
    assert any("bad frame" in line for line in core.uart.lines())

    bodies = []
    ta_class = ta_factory(TA_KIND_INCREMENT)
    body = ta_class.invoke_command
    monkeypatch.setattr(ta_class, "invoke_command",
                        lambda ta, *args: bodies.append(args) or body(ta, *args))
    sid = open_session(core)
    good = encode_frame(MailboxFrame.build(
        OperationId.INVOKE, sid, [(ParamKind.VALUE_INOUT, 41, 0)]))
    memref_pair = (ParamKind.MEMREF << 4) | ParamKind.VALUE_INOUT
    for name, changes in (
            ("gp word of 2**32", {4: 2 ** 32}),
            ("nibble 0x4", {2: (0x4 << 4) | ParamKind.VALUE_INOUT}),
            ("memref past the window",
             {2: memref_pair, 5: SHM_WINDOW_SIZE - 8, 6: 9})):
        words = list(good)
        for index, word in changes.items():
            words[index] = word
        bad_frames = _bad_frame_lines(core)
        reply = decode_reply(core.deliver(words))
        assert reply.code is ReturnCode.ERROR_BAD_PARAMETERS, name
        assert _bad_frame_lines(core) == bad_frames + 1, name
    assert bodies == []
    # The same frame without the damage reaches the TA body.
    reply = decode_reply(core.deliver(good))
    assert reply.code is ReturnCode.SUCCESS and reply.param_words(0) == (42, 0)
    assert len(bodies) == 1


def _bad_frame_lines(core):
    return sum("bad frame" in line for line in core.uart.lines())


def test_shmem16_writes_window(core):
    boot(core, TA_KIND_SHMEM16)
    sid = open_session(core)
    reply = exchange(core, OperationId.INVOKE, sid,
                     [(ParamKind.MEMREF, 32, 16)])
    assert reply.code is ReturnCode.SUCCESS
    assert reply.param_words(0) == (32, 16)
    assert core.window.read(32, 16) == bytes(range(16))


def test_echo_copies_value_pair(core):
    boot(core, TA_KIND_ECHO)
    sid = open_session(core)
    reply = exchange(core, OperationId.INVOKE, sid,
                     [(ParamKind.VALUE_IN, 5, 6), (ParamKind.VALUE_OUT, 0, 0)],
                     cmd_id=0)
    assert reply.code is ReturnCode.SUCCESS
    assert reply.param_words(1) == (5, 6)


def test_echo_reverses_memref(core):
    boot(core, TA_KIND_ECHO)
    sid = open_session(core)
    core.window.write(0, b"abcdef")
    reply = exchange(core, OperationId.INVOKE, sid,
                     [(ParamKind.MEMREF, 0, 6)], cmd_id=1)
    assert reply.code is ReturnCode.SUCCESS
    assert core.window.read(0, 6) == b"fedcba"


@pytest.mark.parametrize("offset, length", [
    (100, 4096), (0, 4095), (0, SHM_WINDOW_SIZE)],
    ids=["4k-at-100", "odd-length", "whole-window"])
def test_echo_reverses_large_and_offset_blocks(core, offset, length):
    boot(core, TA_KIND_ECHO)
    sid = open_session(core)
    window = bytes((i * 37 + i // 251) % 256 for i in range(SHM_WINDOW_SIZE))
    block = window[offset:offset + length]
    assert block != block[::-1]
    core.window.write(0, window)
    reply = exchange(core, OperationId.INVOKE, sid,
                     [(ParamKind.MEMREF, offset, length)], cmd_id=1)
    assert reply.code is ReturnCode.SUCCESS
    assert core.window.read(offset, length) == block[::-1]
    assert core.window.read(0, offset) == window[:offset]
    end = offset + length
    assert core.window.read(end, SHM_WINDOW_SIZE - end) == window[end:]


def test_memory_context_grants():
    mem = MemoryContext(Space(256), Space(256))
    mem.grant(16, 32)
    mem.grant(48, 16)
    assert mem.window_read(16, 48) == bytes(48)
    mem.window_write(40, b"ok")
    with pytest.raises(AccessDeniedError):
        mem.window_read(0, 8)
    with pytest.raises(AccessDeniedError):
        mem.window_read(60, 8)
    with pytest.raises(AccessDeniedError):
        mem.window_write(63, b"xx")
    with pytest.raises(AccessDeniedError):
        mem.grant(250, 10)
    mem.tcm_write(0, b"tcm is always reachable")
    assert mem.tcm_read(0, 3) == b"tcm"


def test_memory_context_zero_length_edges():
    mem = MemoryContext(Space(64), Space(64))
    assert mem.window_read(0, 0) == b""
    mem.grant(10, 0)
    with pytest.raises(AccessDeniedError):
        mem.window_read(10, 1)


def test_space_bounds():
    space = Space(16)
    space.write(12, b"1234")
    with pytest.raises(AccessDeniedError):
        space.write(13, b"1234")
    with pytest.raises(AccessDeniedError):
        space.read(-1, 4)
    assert space.read(12, 4) == b"1234"
    space.zeroize()
    assert space.read(12, 4) == bytes(4)
