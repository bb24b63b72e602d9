"""Emulated enclave core: private TCM, shared window, mailbox, RST/INT lines."""

from __future__ import annotations

import threading
import time
import traceback
from collections import deque
from enum import IntEnum

from .protocol import (
    WORD_MASK,
    MAILBOX_WORDS,
    TCM_SIZE,
    SHM_WINDOW_SIZE,
    OperationId,
    ParamKind,
    ReturnCode,
    TeeError,
    InvalidFrame,
    BadParametersError,
    AccessDeniedError,
    ShortBufferError,
    ImageFormatError,
    ImageSizeError,
    ReplyFrame,
    decode_frame,
    encode_reply,
    decode_image_prefix,
)

TA_KIND_INCREMENT = 1
TA_KIND_SHMEM16 = 2
TA_KIND_ECHO = 3
TA_KIND_PROBE = 4

UART_CAPACITY = 1024

# Members read on every dispatch, bound once: on Python 3.11 each
# `Enum.MEMBER` read costs several times a module global's.
_MEMREF, _VALUE_INOUT = ParamKind.MEMREF, ParamKind.VALUE_INOUT
_SUCCESS = ReturnCode.SUCCESS
_OPEN, _INVOKE = OperationId.OPEN, OperationId.INVOKE


class CoreState(IntEnum):
    RESET = 0
    WFI = 1
    ISR = 2


class AbortedError(Exception):
    """Raised inside a TA handler when RST is asserted mid-dispatch."""


class EnclaveResetError(RuntimeError):
    """A mailbox delivery was cut short by a reset."""


class Space:
    """Bounds-checked byte region; out-of-range access is a bus fault."""

    def __init__(self, size):
        self._buf = bytearray(size)

    def __len__(self):
        return len(self._buf)

    def _check(self, offset, length):
        if not isinstance(offset, int) or not isinstance(length, int):
            raise AccessDeniedError("region offsets must be integers")
        if offset < 0 or length < 0 or offset + length > len(self._buf):
            raise AccessDeniedError(
                f"access [{offset}, +{length}) outside {len(self._buf)}-byte region")

    def read(self, offset, length):
        self._check(offset, length)
        return bytes(self._buf[offset:offset + length])

    def write(self, offset, data):
        data = bytes(data)
        self._check(offset, len(data))
        self._buf[offset:offset + len(data)] = data

    def zeroize(self):
        self._buf[:] = bytes(len(self._buf))


class MemoryContext:
    """Per-dispatch access rights: all of TCM plus granted window slices."""

    def __init__(self, tcm, window, abort_check=None):
        self._tcm = tcm
        self._window = window
        self._grants = []
        self._abort_check = abort_check

    def grant(self, offset, length):
        """Admit one window slice for this dispatch."""
        if offset < 0 or length < 0 or offset + length > len(self._window):
            raise AccessDeniedError(
                f"grant [{offset}, +{length}) outside the shared window")
        if length:
            self._grants.append((offset, offset + length))
            self._grants.sort()

    def _covered(self, lo, hi):
        """True when [lo, hi) lies inside the union of grants."""
        cursor = lo
        for start, end in self._grants:
            if start > cursor:
                break
            cursor = max(cursor, end)
            if cursor >= hi:
                return True
        return cursor >= hi

    def _gate(self, offset, length):
        if self._abort_check is not None:
            self._abort_check()
        if not isinstance(offset, int) or not isinstance(length, int):
            raise AccessDeniedError("window offsets must be integers")
        if offset < 0 or length < 0 or offset + length > len(self._window):
            raise AccessDeniedError(
                f"access [{offset}, +{length}) outside the shared window")
        if length and not self._covered(offset, offset + length):
            raise AccessDeniedError(
                f"access [{offset}, +{length}) outside granted slices")

    def window_read(self, offset, length):
        self._gate(offset, length)
        return self._window.read(offset, length)

    def window_write(self, offset, data):
        data = bytes(data)
        self._gate(offset, len(data))
        self._window.write(offset, data)

    def tcm_read(self, offset, length):
        if self._abort_check is not None:
            self._abort_check()
        return self._tcm.read(offset, length)

    def tcm_write(self, offset, data):
        if self._abort_check is not None:
            self._abort_check()
        self._tcm.write(offset, data)


class MemRef:
    """A TA's handle on one granted window slice."""

    def __init__(self, mem, offset, length):
        self._mem = mem
        self._offset = offset
        self.length = length

    def read(self, at=0, length=None):
        if length is None:
            length = self.length - at
        if at < 0 or length < 0 or at + length > self.length:
            raise AccessDeniedError(
                f"read [{at}, +{length}) outside {self.length}-byte reference")
        return self._mem.window_read(self._offset + at, length)

    def write(self, data, at=0):
        data = bytes(data)
        if at < 0 or at + len(data) > self.length:
            raise AccessDeniedError(
                f"write [{at}, +{len(data)}) outside {self.length}-byte reference")
        self._mem.window_write(self._offset + at, data)


_VALUES = frozenset((ParamKind.VALUE_IN, ParamKind.VALUE_OUT, _VALUE_INOUT))
_WRITABLE = frozenset((ParamKind.VALUE_OUT, _VALUE_INOUT))


class TaParams:
    """Handler view of the four frame parameters."""

    def __init__(self, frame, mem):
        self._kinds = frame.kinds()
        self._words = list(frame.gp)
        self._mem = mem

    def kind(self, index):
        return self._kinds[index]

    def value(self, index):
        """The (a, b) word pair of a value parameter."""
        kind = self._kinds[index]
        if kind not in _VALUES:
            raise BadParametersError(f"parameter {index} is {kind.name}, not a value")
        return self._words[2 * index], self._words[2 * index + 1]

    def set_value(self, index, a=None, b=None):
        """Update the words of an output-capable value parameter."""
        if self._kinds[index] not in _WRITABLE:
            raise BadParametersError(
                f"parameter {index} is {self._kinds[index].name}, not writable")
        for slot, word in ((2 * index, a), (2 * index + 1, b)):
            if word is None:
                continue
            if not isinstance(word, int) or not 0 <= word <= WORD_MASK:
                raise BadParametersError(f"value word {word!r} is not 32-bit")
            self._words[slot] = word

    @property
    def memory(self):
        """The dispatch's MemoryContext (full TCM, granted window slices)."""
        return self._mem

    def memref(self, index):
        """The granted window slice behind a memory reference parameter."""
        if self._kinds[index] is not _MEMREF:
            raise BadParametersError(
                f"parameter {index} is {self._kinds[index].name}, not a memref")
        offset, length = self._words[2 * index], self._words[2 * index + 1]
        return MemRef(self._mem, offset, length)

    def set_memref_length(self, index, length):
        """Report the size a memref actually needs (short-buffer replies)."""
        if self._kinds[index] is not _MEMREF:
            raise BadParametersError(
                f"parameter {index} is {self._kinds[index].name}, not a memref")
        if not isinstance(length, int) or not 0 <= length <= WORD_MASK:
            raise BadParametersError(f"length {length!r} is not 32-bit")
        self._words[2 * index + 1] = length

    def words(self):
        return tuple(self._words)


class UartLog:
    """Debug console for one enclave: the last UART_CAPACITY lines in
    memory, every line in the attached file."""

    def __init__(self):
        self._lock = threading.Lock()
        self._lines = deque(maxlen=UART_CAPACITY)
        self._path = None

    def attach_file(self, path):
        """Mirror every line into a plain-text log file."""
        with self._lock:
            self._path = path

    def log(self, line):
        line = str(line)
        with self._lock:
            self._lines.append(line)
            if self._path is not None:
                with open(self._path, "a") as sink:
                    sink.write(line + "\n")

    def lines(self):
        with self._lock:
            return tuple(self._lines)


class TaEnvironment:
    """Trusted-side services handed to a TA instance."""

    def __init__(self, ta_uuid, rng, storage, uart, abort_event,
                 image_size=0):
        self.uuid = ta_uuid
        self.rng = rng
        self.storage = storage
        self.uart = uart
        self.image_size = image_size
        self._abort_event = abort_event

    def check_abort(self):
        if self._abort_event.is_set():
            raise AbortedError("reset asserted")

    def sleep(self, seconds):
        """Abort-aware wait; a reset cuts it short."""
        if self._abort_event.wait(seconds):
            raise AbortedError("reset asserted")


class TrustedApp:
    """Base trusted application; subclasses override the lifecycle hooks."""

    def __init__(self, env):
        self.env = env

    def open_session(self, params):
        """Return a per-session context object (may be None)."""
        return None

    def invoke_command(self, session, cmd_id, params):
        raise BadParametersError(f"command {cmd_id} not implemented")

    def close_session(self, session):
        pass

    def destroy(self):
        pass


_TA_KINDS = {}


def register_ta_kind(kind, factory):
    """Map an image ta_kind to a TrustedApp factory(env)."""
    kind = int(kind)
    if kind in _TA_KINDS:
        raise ValueError(f"ta_kind {kind} already registered")
    _TA_KINDS[kind] = factory


def ta_factory(kind):
    return _TA_KINDS.get(int(kind))


class IncrementTa(TrustedApp):
    """cmd 0: add one to value parameter 0 (32-bit wraparound)."""

    def invoke_command(self, session, cmd_id, params):
        if cmd_id != 0:
            raise BadParametersError(f"unknown command {cmd_id}")
        if params.kind(0) is not _VALUE_INOUT:
            raise BadParametersError("parameter 0 must be an in/out value")
        a, _ = params.value(0)
        params.set_value(0, a=(a + 1) & WORD_MASK)


class Shmem16Ta(TrustedApp):
    """cmd 0: write bytes 0x00..0x0f into memref 0 (16 bytes needed)."""

    PATTERN = bytes(range(16))

    def invoke_command(self, session, cmd_id, params):
        if cmd_id != 0:
            raise BadParametersError(f"unknown command {cmd_id}")
        ref = params.memref(0)
        params.set_memref_length(0, len(self.PATTERN))
        if ref.length < len(self.PATTERN):
            raise ShortBufferError(
                f"need {len(self.PATTERN)} bytes, granted {ref.length}")
        ref.write(self.PATTERN)


class EchoTa(TrustedApp):
    """cmd 0: copy value param 0 into value param 1; cmd 1: reverse memref 0."""

    def invoke_command(self, session, cmd_id, params):
        if cmd_id == 0:
            a, b = params.value(0)
            params.set_value(1, a=a, b=b)
        elif cmd_id == 1:
            ref = params.memref(0)
            ref.write(ref.read()[::-1])
        else:
            raise BadParametersError(f"unknown command {cmd_id}")


class ProbeTa(TrustedApp):
    """cmd 0: scan own TCM for residue; a=nonzero bytes past the image,
    b=count of 0xA5 sentinel bytes anywhere."""

    SENTINEL = 0xA5

    def invoke_command(self, session, cmd_id, params):
        if cmd_id != 0:
            raise BadParametersError(f"unknown command {cmd_id}")
        tcm = params.memory.tcm_read(0, TCM_SIZE)
        beyond = tcm[self.env.image_size:]
        nonzero = sum(1 for byte in beyond if byte)
        params.set_value(0, a=nonzero & WORD_MASK,
                         b=tcm.count(self.SENTINEL) & WORD_MASK)


register_ta_kind(TA_KIND_INCREMENT, IncrementTa)
register_ta_kind(TA_KIND_SHMEM16, Shmem16Ta)
register_ta_kind(TA_KIND_ECHO, EchoTa)
register_ta_kind(TA_KIND_PROBE, ProbeTa)


class EnclaveRuntime:
    """One emulated core: mailbox, RST/INT lines, an ISR on the caller's thread.

    The fabric loads an image over DMA while RST is asserted, deasserts RST
    to boot, then exchanges 12-word frames: deliver() places a request and
    raises INT, and the core serves it in its ISR on the delivering thread,
    clearing INT once the reply is in the mailbox.

    `lock` is the slot lock: the fabric holds it across a whole request and
    every REE window copy, and the core holds it across the ISR. The RST
    line is one event that TAs also check or wait on as their abort flag,
    so assert_reset() aborts a handler in flight at once; the core then
    zeroizes once, under the lock, after that request has let go of it.
    """

    def __init__(self, index, services):
        self.index = index
        self._services = services
        self.tcm = Space(TCM_SIZE)
        self.window = Space(SHM_WINDOW_SIZE)
        self.uart = UartLog()
        self.lock = threading.RLock()
        self._mailbox = [0] * MAILBOX_WORDS
        self._rst = threading.Event()
        self._rst.set()
        self._int = False
        self._reply_serial = 0
        self._faulted = False
        self._image = None
        self._image_size = 0
        self._ta = None
        self._sessions = {}
        self._last_sid = 0

    # ---- lines the fabric drives ----

    def load_image(self, data):
        """Loader DMA into TCM; only legal while RST is asserted."""
        with self.lock:
            if not self._rst.is_set():
                raise RuntimeError("DMA into a running enclave")
            self.tcm.write(0, data)

    def assert_reset(self):
        """Pull RST, then zeroize once the slot lock is free.

        RST goes up before the lock is taken, so a handler in flight aborts
        at once instead of holding the lock to its end; a handler that
        ignores it is waited out. Raised again under the lock, it holds
        across the zeroize."""
        self._rst.set()
        with self.lock:
            self._rst.set()
            self._zeroize()

    def deassert_reset(self):
        """Release RST; the core boots from whatever TCM now holds."""
        with self.lock:
            if not self._rst.is_set():
                return
            self._rst.clear()
            self._boot()

    def deliver(self, words):
        """Place a request, ring INT and run the ISR on this thread."""
        words = tuple(words)
        if len(words) != MAILBOX_WORDS:
            raise InvalidFrame(f"mailbox holds {MAILBOX_WORDS} words")
        reply = None
        with self.lock:
            if self._rst.is_set():
                raise EnclaveResetError(f"enclave {self.index} is in reset")
            if self._int:
                raise RuntimeError(f"enclave {self.index} mailbox is busy")
            self._mailbox[:] = words
            self._int = True
            try:
                reply = self._dispatch(words)
            except AbortedError:
                pass
            finally:
                # An aborted request leaves the zeroize to the resetter,
                # which takes this lock next.
                self._int = False
                if self._rst.is_set():
                    reply = None
                elif reply is not None:
                    self._mailbox[:] = reply
                    self._reply_serial += 1
        if reply is None:
            raise EnclaveResetError(
                f"enclave {self.index} reset while a request was in flight")
        # The host core would now sleep until INT; yield the interpreter
        # here too, or no request ever blocks and the 5 ms switch interval
        # alone decides which client thread runs next.
        time.sleep(0)
        return reply

    def snapshot(self):
        """Register scan: control lines plus bookkeeping, for tests and CLI.
        It takes no lock, so it reads the lines while a request holds the
        slot."""
        rst = self._rst.is_set()
        if self._int:
            state = CoreState.ISR
        else:
            state = CoreState.RESET if rst else CoreState.WFI
        image = self._image
        return {
            "index": self.index,
            "state": state,
            "rst": rst,
            "int": self._int,
            "sessions": len(self._sessions),
            "last_sid": self._last_sid,
            "ta_kind": None if image is None else image.ta_kind,
            "reply_serial": self._reply_serial,
        }

    def mailbox_words(self):
        return tuple(self._mailbox)

    @property
    def faulted(self):
        return self._faulted

    @property
    def session_count(self):
        """Sessions open on the loaded TA; the fabric frees the slot at 0."""
        return len(self._sessions)

    # ---- the core itself ----

    def _zeroize(self):
        """Reset entry: no secret survives in TCM, window, mailbox or state."""
        self.tcm.zeroize()
        self.window.zeroize()
        self._mailbox[:] = [0] * MAILBOX_WORDS
        self._int = False
        self._faulted = False
        self._image = None
        self._image_size = 0
        self._ta = None
        self._sessions.clear()
        self._last_sid = 0
        self._reply_serial = 0

    def _boot(self):
        """Parse the loaded image; a bad image leaves the core answering
        every request with a generic error and a note on the UART."""
        raw = self.tcm.read(0, len(self.tcm))
        try:
            image, consumed = decode_image_prefix(raw)
        except (ImageFormatError, ImageSizeError) as exc:
            self.uart.log(f"boot: image rejected: {exc}")
            return
        if ta_factory(image.ta_kind) is None:
            self.uart.log(f"boot: no handler for ta_kind {image.ta_kind}")
            return
        self._image = image
        self._image_size = consumed
        self.uart.log(f"boot: ta {image.uuid} kind {image.ta_kind}")

    def _ensure_ta(self):
        if self._ta is None:
            env = TaEnvironment(self._image.uuid,
                                *self._services.for_ta(self._image.uuid),
                                self.uart, self._rst,
                                image_size=self._image_size)
            self._ta = ta_factory(self._image.ta_kind)(env)
        return self._ta

    def _next_sid(self):
        self._last_sid = (self._last_sid + 1) & WORD_MASK or 1
        return self._last_sid

    def _check_abort(self):
        if self._rst.is_set():
            raise AbortedError("reset asserted")

    def _dispatch(self, words):
        """Serve one mailbox frame; returns the 12 reply words."""
        try:
            frame = decode_frame(words)
        except InvalidFrame as exc:
            self.uart.log(f"isr: bad frame: {exc}")
            return encode_reply(ReplyFrame(
                ReturnCode.ERROR_BAD_PARAMETERS, 0, 0, (0,) * 8, 0))
        if self._image is None:
            self.uart.log("isr: no valid image loaded")
            return encode_reply(ReplyFrame(
                ReturnCode.ERROR_GENERIC, frame.session_id, frame.param_type,
                frame.gp, frame.cmd_id))
        mem = MemoryContext(self.tcm, self.window, self._check_abort)
        for i, kind in enumerate(frame.kinds()):
            if kind is _MEMREF:
                mem.grant(*frame.param_words(i))
        params = TaParams(frame, mem)
        code = _SUCCESS
        session_out = frame.session_id
        try:
            if frame.operation is _OPEN:
                ta = self._ensure_ta()
                context = ta.open_session(params)
                sid = self._next_sid()
                self._sessions[sid] = context
                session_out = sid
            elif frame.operation is _INVOKE:
                if frame.session_id not in self._sessions:
                    raise BadParametersError(f"no session {frame.session_id}")
                self._ensure_ta().invoke_command(
                    self._sessions[frame.session_id], frame.cmd_id, params)
            else:
                if frame.session_id not in self._sessions:
                    raise BadParametersError(f"no session {frame.session_id}")
                context = self._sessions.pop(frame.session_id)
                ta = self._ensure_ta()
                ta.close_session(context)
                if not self._sessions:
                    ta.destroy()
                    self._ta = None
        except AbortedError:
            raise
        except TeeError as exc:
            code = exc.code
            if frame.operation is _OPEN:
                session_out = 0
        except Exception:
            self.uart.log("isr: ta fault:\n" + traceback.format_exc().rstrip())
            self._faulted = True
            code = ReturnCode.ERROR_GENERIC
            if frame.operation is _OPEN:
                session_out = 0
        if (frame.operation is _OPEN and code is not _SUCCESS
                and not self._sessions and self._ta is not None):
            # Balance the instance created for a rejected first open.
            try:
                self._ta.destroy()
            finally:
                self._ta = None
        return encode_reply(ReplyFrame(
            code, session_out, frame.param_type, params.words(), frame.cmd_id))
