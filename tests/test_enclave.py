"""Enclave core: boot, dispatch, grants, zeroization, fault containment."""

import struct
import threading
import time
import uuid as uuid_mod

import pytest

from teefab.enclave import (
    TA_KIND_ECHO,
    TA_KIND_INCREMENT,
    TA_KIND_PROBE,
    TA_KIND_SHMEM16,
    UART_CAPACITY,
    AbortedError,
    EnclaveResetError,
    EnclaveRuntime,
    Space,
    TaParams,
    TrustedApp,
    UartLog,
    register_ta_kind,
    ta_factory,
)
from teefab.fabric import Turnstile
from teefab.internal_api.rng import Csprng
from teefab.internal_api.storage import (
    DeviceKey,
    SealedStorage,
    TeeServices,
)
from conftest import make_image
from teefab.client_api import Context
from teefab.protocol import (
    MAILBOX_BYTES,
    MAILBOX_WORDS,
    SHM_WINDOW_SIZE,
    TCM_SIZE,
    WORD_MASK,
    AccessDeniedError,
    BadParametersError,
    MailboxFrame,
    OperationId,
    ParamKind,
    ReturnCode,
    InvalidFrame,
    TAImage,
    decode_reply,
    encode_frame,
    encode_image,
    encode_reply,
    words_to_bytes,
)

TA_KIND_SLEEPY = 240
TA_KIND_CRASHY = 241
TA_KIND_FAREWELL = 242
TA_KIND_IMAGE_SIZE = 243
TA_KIND_MEMORY = 239
TA_KIND_REACH = 238


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


class ImageSizeTa(TrustedApp):
    """cmd 0: value parameter 0 gets the image size the core booted."""

    def invoke_command(self, session, cmd_id, params):
        params.set_value(0, a=self.env.image_size)


class MemoryTa(TrustedApp):
    """Reaches `params.memory`, which grants no window byte. cmd 0:
    value 0 gets the image magic read from TCM and the number of window
    accesses refused. cmd 1: polls the window gate until a reset
    aborts it, and records the abort; it gives up after five seconds."""

    started = threading.Event()
    aborted = []

    def invoke_command(self, session, cmd_id, params):
        mem = params.memory
        if cmd_id == 0:
            refused = 0
            for access in (lambda: mem.window_read(0, 1),
                           lambda: mem.window_write(0, b"x"),
                           lambda: mem.window_read(0, SHM_WINDOW_SIZE)):
                try:
                    access()
                except AccessDeniedError:
                    refused += 1
            magic = int.from_bytes(mem.tcm_read(0, 4), "little")
            params.set_value(0, a=magic, b=refused)
            return
        MemoryTa.started.set()
        deadline = time.monotonic() + 5.0
        try:
            while time.monotonic() < deadline:
                mem.window_read(0, 0)
                time.sleep(0.001)
        except AbortedError:
            MemoryTa.aborted.append("window gate")
            raise


class ReachTa(TrustedApp):
    """Tries to reach past a memref's 16-byte grant. cmd 0: raises the
    length word to 64 before it asks for the memref, then probes it.
    cmd 1: keeps the memref; cmd 2, a later request: probes the kept one.
    cmd 3 and 4: poll a read, or a write, of the memref until a reset
    aborts it, and record the abort; each gives up after five seconds."""

    GRANT = 16
    probes = []
    started = threading.Event()
    aborted = []

    def invoke_command(self, session, cmd_id, params):
        if cmd_id == 0:
            params.set_memref_length(0, 64)
            ReachTa.probes.append(self._probe(params.memref(0)))
        elif cmd_id == 1:
            self.kept = params.memref(0)
        elif cmd_id == 2:
            ReachTa.probes.append(self._probe(self.kept))
        else:
            ref = params.memref(0)
            poll = ref.read if cmd_id == 3 else lambda: ref.write(b"x")
            ReachTa.started.set()
            deadline = time.monotonic() + 5.0
            try:
                while time.monotonic() < deadline:
                    poll()
                    time.sleep(0.001)
            except AbortedError:
                ReachTa.aborted.append(cmd_id)
                raise

    def _probe(self, ref):
        """The length, a whole read, four accesses past the grant and a
        write of the whole grant: each result, or "denied"."""
        grant, outcomes = self.GRANT, [ref.length]
        for access in (ref.read,
                       lambda: ref.read(0, grant + 1),
                       lambda: ref.read(grant, 1),
                       lambda: ref.write(b"\xee" * (grant + 1)),
                       lambda: ref.write(b"\xee", at=grant),
                       lambda: ref.write(b"\xff" * grant)):
            try:
                outcomes.append(access())
            except AccessDeniedError:
                outcomes.append("denied")
        return outcomes


register_ta_kind(TA_KIND_SLEEPY, SleepyTa)
register_ta_kind(TA_KIND_CRASHY, CrashyTa)
register_ta_kind(TA_KIND_FAREWELL, FarewellTa)
register_ta_kind(TA_KIND_IMAGE_SIZE, ImageSizeTa)
register_ta_kind(TA_KIND_MEMORY, MemoryTa)
register_ta_kind(TA_KIND_REACH, ReachTa)


@pytest.fixture
def services(tmp_path):
    return TeeServices(Csprng(seed=5),
                       SealedStorage(tmp_path, DeviceKey.from_seed("enclave")))


@pytest.fixture
def core(services):
    runtime = EnclaveRuntime(0, services, Turnstile())
    yield runtime
    runtime.assert_reset()


def uuid_for(kind, tag=0):
    return uuid_mod.UUID(int=(kind << 64) | tag, version=4)


def image_for(kind, tag=0, payload=b""):
    return encode_image(TAImage(uuid_for(kind, tag), kind, payload))


def boot(core, kind, payload=b""):
    """Load an image and boot it as the manager does, with the uuid,
    ta_kind, factory and size it checked; returns the image."""
    image = image_for(kind, payload=payload)
    core.load_image(image)
    core.deassert_reset(uuid_for(kind), kind, len(image), ta_factory(kind))
    return image


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
    path = tmp_path / "enclave0.log"
    uart = UartLog(path)
    lines = [f"line {n}" for n in range(UART_CAPACITY + 10)]
    for line in lines:
        uart.log(line)
    assert uart.lines() == tuple(lines[10:])
    assert path.read_text().splitlines() == lines
    uart.close()
    uart.log("after close")
    uart.close()
    assert path.read_text().splitlines() == lines + ["after close"]


def test_increment_round_trip(core):
    boot(core, TA_KIND_INCREMENT)
    sid = open_session(core)
    reply = exchange(core, OperationId.INVOKE, sid,
                     [(ParamKind.VALUE_INOUT, 41, 0)])
    assert reply.code is ReturnCode.SUCCESS
    assert reply.gp[0] == 42
    reply = exchange(core, OperationId.INVOKE, sid,
                     [(ParamKind.VALUE_INOUT, 0xFFFFFFFF, 0)])
    assert reply.gp[0] == 0
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
    nonzero_beyond_image, sentinel_count = reply.gp[0:2]
    assert (nonzero_beyond_image, sentinel_count) == (0, 0)


@pytest.mark.parametrize("payload_len", [0, 700, TCM_SIZE - 32])
def test_boot_reports_the_image_size_to_the_ta(core, payload_len):
    image = boot(core, TA_KIND_IMAGE_SIZE, payload=b"\x11" * payload_len)
    sid = open_session(core)
    reply = exchange(core, OperationId.INVOKE, sid,
                     [(ParamKind.VALUE_OUT, 0, 0)])
    assert reply.gp[0] == len(image)


def test_probe_scans_past_its_own_payload(core):
    """The residue scan starts where the booted image ends, so the
    probe's own non-zero payload is not counted as residue."""
    boot(core, TA_KIND_PROBE, payload=b"\x11" * 700)
    sid = open_session(core)
    reply = exchange(core, OperationId.INVOKE, sid,
                     [(ParamKind.VALUE_OUT, 0, 0)])
    assert reply.gp[0:2] == (0, 0)
    core.tcm.write(TCM_SIZE - 1, b"\x01")
    reply = exchange(core, OperationId.INVOKE, sid,
                     [(ParamKind.VALUE_OUT, 0, 0)])
    assert reply.gp[0:2] == (1, 0)


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


def test_a_value_only_request_reaches_tcm_and_no_window(core):
    """`params.memory` is built on first read: with no memref in the
    request it still reaches all of TCM, and grants no window byte."""
    boot(core, TA_KIND_MEMORY)
    sid = open_session(core)
    reply = exchange(core, OperationId.INVOKE, sid,
                     [(ParamKind.VALUE_INOUT, 0, 0)])
    assert reply.code is ReturnCode.SUCCESS
    assert reply.gp[:2] == (int.from_bytes(b"TEOD", "little"), 3)
    mem = TaParams((ParamKind.NONE,) * 4, (0,) * 8, core).memory
    mem.tcm_write(0, b"tcm is always reachable")
    assert mem.tcm_read(0, 3) == b"tcm"


def test_params_memory_grants_no_window_byte_beside_a_memref(core):
    """A memref's slice is reached through `memref` alone: the request's
    MemoryContext still refuses every window access."""
    boot(core, TA_KIND_MEMORY)
    sid = open_session(core)
    reply = exchange(core, OperationId.INVOKE, sid,
                     [(ParamKind.VALUE_INOUT, 0, 0),
                      (ParamKind.MEMREF, 0, SHM_WINDOW_SIZE)])
    assert reply.code is ReturnCode.SUCCESS
    assert reply.gp[1] == 3


def test_a_reset_aborts_a_value_only_request_at_the_window_gate(core):
    boot(core, TA_KIND_MEMORY)
    sid = open_session(core)
    MemoryTa.started.clear()
    MemoryTa.aborted.clear()
    failure = []

    def caller():
        try:
            exchange(core, OperationId.INVOKE, sid,
                     [(ParamKind.VALUE_IN, 0, 0)], cmd_id=1)
        except EnclaveResetError:
            failure.append("reset")

    thread = threading.Thread(target=caller)
    thread.start()
    assert MemoryTa.started.wait(5.0)
    core.assert_reset()
    thread.join(timeout=5.0)
    assert failure == ["reset"]
    assert MemoryTa.aborted == ["window gate"]


# A window whose every byte differs from its neighbours', and the 16-byte
# grant the ReachTa requests carry; the next request grants other bytes.
PATTERN = bytes((i * 7 + 3) % 251 for i in range(SHM_WINDOW_SIZE))
GRANT_AT = 64
GRANT = (ParamKind.MEMREF, GRANT_AT, ReachTa.GRANT)
GRANTED = slice(GRANT_AT, GRANT_AT + ReachTa.GRANT)
# What a probe of the grant sees: its length, its own bytes, four refusals
# and the whole-grant write, which returns None.
PROBED = [ReachTa.GRANT, PATTERN[GRANTED]] + ["denied"] * 4 + [None]


def _window_after_probe():
    after = bytearray(PATTERN)
    after[GRANTED] = b"\xff" * ReachTa.GRANT
    return bytes(after)


def test_a_raised_length_word_reaches_no_byte_past_the_grant(core):
    """The memref is cut from the words the request carried, not from a
    length the TA reported before it asked for the memref."""
    boot(core, TA_KIND_REACH)
    sid = open_session(core)
    core.window.write(0, PATTERN)
    ReachTa.probes.clear()
    reply = exchange(core, OperationId.INVOKE, sid, [GRANT], cmd_id=0)
    assert reply.code is ReturnCode.SUCCESS
    assert reply.gp[0:2] == (GRANT_AT, 64)   # what the TA reported
    assert ReachTa.probes == [PROBED]
    assert core.window.read(0, SHM_WINDOW_SIZE) == _window_after_probe()


def test_a_kept_memref_reaches_only_its_own_slice_later(core):
    boot(core, TA_KIND_REACH)
    sid = open_session(core)
    core.window.write(0, PATTERN)
    ReachTa.probes.clear()
    for cmd_id, params in ((1, [GRANT]),
                           (2, [(ParamKind.MEMREF, GRANT_AT + 16, 64)]),
                           (2, [(ParamKind.VALUE_IN, 0, 0)])):
        reply = exchange(core, OperationId.INVOKE, sid, params, cmd_id=cmd_id)
        assert reply.code is ReturnCode.SUCCESS
    assert ReachTa.probes[0] == PROBED
    # The second probe reads back the first one's write.
    assert ReachTa.probes[1] == [ReachTa.GRANT, b"\xff" * ReachTa.GRANT] \
        + PROBED[2:]
    assert core.window.read(0, SHM_WINDOW_SIZE) == _window_after_probe()


@pytest.mark.parametrize("cmd_id", [3, 4], ids=["read", "write"])
def test_a_reset_aborts_a_request_at_a_memref_access(core, cmd_id):
    boot(core, TA_KIND_REACH)
    sid = open_session(core)
    ReachTa.started.clear()
    ReachTa.aborted.clear()
    failure = []

    def caller():
        try:
            exchange(core, OperationId.INVOKE, sid, [GRANT], cmd_id=cmd_id)
        except EnclaveResetError:
            failure.append("reset")

    thread = threading.Thread(target=caller)
    thread.start()
    assert ReachTa.started.wait(5.0)
    core.assert_reset()
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert failure == ["reset"]
    assert ReachTa.aborted == [cmd_id]


def test_malformed_frame_words(core, fabric, monkeypatch):
    """A request the core must refuse, delivered as 48 bytes, is answered
    ERROR_BAD_PARAMETERS with one more `bad frame` line, and no TA body
    runs; the same frame undamaged reaches the body. A word that is not
    32-bit cannot be delivered at all: the writer refuses it."""
    boot(core, TA_KIND_INCREMENT)
    reply = decode_reply(core.deliver(
        words_to_bytes([9] + [0] * (MAILBOX_WORDS - 1))))
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
            ("unknown operation", {0: 9}),
            ("nibble 0x4", {2: (0x4 << 4) | ParamKind.VALUE_INOUT}),
            ("memref past the window",
             {2: memref_pair, 5: SHM_WINDOW_SIZE - 8, 6: 9})):
        words = list(struct.unpack("<12I", good))
        for index, word in changes.items():
            words[index] = word
        bad_frames = _bad_frame_lines(core)
        reply = decode_reply(core.deliver(words_to_bytes(words)))
        assert reply.code is ReturnCode.ERROR_BAD_PARAMETERS, name
        assert _bad_frame_lines(core) == bad_frames + 1, name
    assert bodies == []
    # The same frame without the damage reaches the TA body.
    reply = decode_reply(core.deliver(good))
    assert reply.code is ReturnCode.SUCCESS and reply.gp[0:2] == (42, 0)
    assert len(bodies) == 1

    # A gp word of 2**32, in a frame made without `build`: the agent's
    # pack refuses it and the core serves nothing.
    ta_uuid, image = make_image(TA_KIND_INCREMENT)
    with Context(fabric) as ctx:
        session = ctx.open_session(ta_uuid, image)
        runtime = fabric.slot_runtime(session.slot_index)
        frame = MailboxFrame.build(OperationId.INVOKE, session.session_id,
                                   [(ParamKind.VALUE_INOUT, 41, 0)])
        gp = list(frame.gp)
        gp[1] = 2 ** 32
        served = runtime.snapshot()["reply_serial"]
        lines, bodies[:] = runtime.uart.lines(), []
        with pytest.raises(InvalidFrame, match="word4 "):
            fabric.comm_dispatch(session.slot_index,
                                 frame._replace(gp=tuple(gp)))
        assert runtime.snapshot()["reply_serial"] == served
        assert runtime.uart.lines() == lines and bodies == []
        reply = fabric.comm_dispatch(session.slot_index, frame)
        assert reply.code is ReturnCode.SUCCESS and reply.gp[0] == 42
        assert runtime.snapshot()["reply_serial"] == served + 1
        session.close()


def test_the_mailbox_registers_hold_48_bytes(core):
    """`deliver` takes 48 bytes and nothing else, and refuses the rest
    before it writes the mailbox; the mailbox holds the reply after a
    request and zeros after a scrub."""
    boot(core, TA_KIND_INCREMENT)
    sid = open_session(core)
    request = MailboxFrame.build(OperationId.INVOKE, sid,
                                 [(ParamKind.VALUE_INOUT, 41, 0)])
    reply = core.deliver(encode_frame(request))
    assert len(reply) == MAILBOX_BYTES
    assert core.mailbox_words() == struct.unpack("<12I", reply)
    assert core.mailbox_words()[3] == 42
    before = core.mailbox_words()
    for bad in (bytes(47), bytes(49), struct.unpack("<12I", reply),
                "x" * MAILBOX_BYTES):
        with pytest.raises(InvalidFrame, match="48 bytes"):
            core.deliver(bad)
        assert core.mailbox_words() == before
    assert core.snapshot()["int"] is False
    reply = core.deliver(bytearray(encode_frame(request)))
    assert decode_reply(reply) == decode_reply(encode_reply(
        (ReturnCode.SUCCESS, sid, request.param_type,
         (42, 0) + (0,) * 6, 0)))
    assert core.mailbox_words() == struct.unpack("<12I", reply)
    core.assert_reset()
    assert core.mailbox_words() == (0,) * MAILBOX_WORDS


def _bad_frame_lines(core):
    return sum("bad frame" in line for line in core.uart.lines())


def test_shmem16_writes_window(core):
    boot(core, TA_KIND_SHMEM16)
    sid = open_session(core)
    reply = exchange(core, OperationId.INVOKE, sid,
                     [(ParamKind.MEMREF, 32, 16)])
    assert reply.code is ReturnCode.SUCCESS
    assert reply.gp[0:2] == (32, 16)
    assert core.window.read(32, 16) == bytes(range(16))


def test_echo_copies_value_pair(core):
    boot(core, TA_KIND_ECHO)
    sid = open_session(core)
    reply = exchange(core, OperationId.INVOKE, sid,
                     [(ParamKind.VALUE_IN, 5, 6), (ParamKind.VALUE_OUT, 0, 0)],
                     cmd_id=0)
    assert reply.code is ReturnCode.SUCCESS
    assert reply.gp[2:4] == (5, 6)


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
    assert len(space) == 16


def test_space_is_at_most_tcm_sized():
    space = Space(TCM_SIZE)
    space.write(0, b"\xff" * TCM_SIZE)
    space.zeroize()
    assert space.read(0, TCM_SIZE) == bytes(TCM_SIZE)
    with pytest.raises(ValueError):
        Space(TCM_SIZE + 1)


MEMREF, NONE = ParamKind.MEMREF, ParamKind.NONE


def test_ta_params_refuse_the_wrong_kind_and_non_32_bit_words(core):
    """Each accessor checks the kind it serves, and each word a TA
    writes back is a 32-bit int; a refusal changes no word."""
    words = (1, 2, 3, 4, 0, 16, 0, 0)
    params = TaParams((ParamKind.VALUE_IN, ParamKind.VALUE_INOUT, MEMREF,
                       NONE), words, core)
    refused = [
        lambda: params.value(2), lambda: params.value(3),
        lambda: params.set_value(0, a=1), lambda: params.set_value(2, a=1),
        lambda: params.set_value(3, b=1),
        lambda: params.memref(0), lambda: params.memref(1),
        lambda: params.memref(3),
        lambda: params.set_memref_length(1, 4),
        lambda: params.set_memref_length(3, 4)]
    for word in (-1, WORD_MASK + 1, 1.0, "1", None):
        refused.append(lambda word=word: params.set_memref_length(2, word))
        if word is not None:     # None leaves a word as it is
            refused.append(lambda word=word: params.set_value(1, a=word))
            refused.append(lambda word=word: params.set_value(1, b=word))
    for access in refused:
        with pytest.raises(BadParametersError):
            access()
    assert params._words == list(words)
    assert params.value(0) == (1, 2) and params.value(1) == (3, 4)
    params.set_value(1, a=WORD_MASK, b=0)
    params.set_memref_length(2, WORD_MASK)
    assert params._words == [1, 2, WORD_MASK, 0, 0, WORD_MASK, 0, 0]


def test_a_memref_refuses_offsets_that_are_not_ints(core):
    core.deassert_reset(uuid_for(TA_KIND_ECHO), TA_KIND_ECHO, 0,
                        ta_factory(TA_KIND_ECHO))
    core.window.write(0, b"0123456789abcdef")
    ref = TaParams((MEMREF, NONE, NONE, NONE), (0, 16) + (0,) * 6,
                   core).memref(0)
    for access in (lambda: ref.read(1.0), lambda: ref.read("1"),
                   lambda: ref.read(0, 2.0), lambda: ref.read(0, "2"),
                   lambda: ref.read(None, 2),
                   lambda: ref.write(b"x", 1.0), lambda: ref.write(b"x", "1"),
                   lambda: ref.write(b"x", None)):
        with pytest.raises(AccessDeniedError,
                           match="window offsets must be integers"):
            access()
    assert core.window.read(0, 16) == b"0123456789abcdef"
    assert ref.read(10) == b"abcdef" and ref.read(1, 2) == b"12"


def test_check_abort_raises_once_rst_is_asserted(core):
    boot(core, TA_KIND_ECHO)
    open_session(core)
    env = core._ta.env
    env.check_abort()
    core.assert_reset()
    with pytest.raises(AbortedError, match="reset asserted"):
        env.check_abort()
