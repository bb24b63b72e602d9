"""Emulated enclave core: private TCM, shared window, mailbox, RST/INT lines."""

from __future__ import annotations

import threading
from collections import deque
from enum import IntEnum

from .protocol import (
    WORD_MASK,
    MAILBOX_BYTES,
    TCM_SIZE,
    SHM_WINDOW_SIZE,
    TA_KIND_ECHO,
    TA_KIND_INCREMENT,
    TA_KIND_PROBE,
    TA_KIND_SHMEM16,
    TA_KIND_WALLET,
    OperationId,
    ParamKind,
    ReturnCode,
    TeeError,
    InvalidFrame,
    BadParametersError,
    AccessDeniedError,
    ShortBufferError,
    _KINDS_BY_WORD,
    _MAILBOX,
    decode_frame,
    encode_reply,
)

UART_CAPACITY = 1024

# Every scrub copies from this one block; TCM is the largest region.
_ZEROS = memoryview(bytes(TCM_SIZE))

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


class ResetLine:
    """A core's RST line. `raised` is the line itself, read with no call.
    The core lowers it by storing False under its slot lock, and nobody
    waits for that; `pull` raises it and wakes the threads in `wait`, if
    any wait."""

    def __init__(self):
        self.raised = True
        self._lock = threading.Lock()
        self._pulled = threading.Condition(self._lock)
        self._sleepers = 0

    def pull(self):
        with self._lock:
            self.raised = True
            if self._sleepers:
                self._pulled.notify_all()

    def wait(self, timeout):
        """True once the line is raised, False if `timeout` seconds run
        out first."""
        with self._lock:
            self._sleepers += 1
            try:
                return self._pulled.wait_for(lambda: self.raised, timeout)
            finally:
                self._sleepers -= 1


class Space:
    """Bounds-checked byte region; out-of-range access is a bus fault."""

    def __init__(self, size):
        if size > len(_ZEROS):
            raise ValueError(f"a region holds at most {len(_ZEROS)} bytes")
        # A view: a slice of it copies once, and takes an assignment as is.
        self._buf = memoryview(bytearray(size))

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
        return self._buf[offset:offset + length].tobytes()

    def write(self, offset, data):
        # bytes and bytearray go into the region as they are: one copy.
        if type(data) is not bytes and type(data) is not bytearray:
            data = bytes(data)
        self._check(offset, len(data))
        self._buf[offset:offset + len(data)] = data

    def zeroize(self):
        self._buf[:] = _ZEROS[:len(self._buf)]


class MemoryContext:
    """Per-dispatch access rights: all of TCM and no window byte, which a
    TA reaches only through `TaParams.memref`. `rst` is the core's
    `ResetLine`: once it is raised, every access raises AbortedError."""

    def __init__(self, tcm, rst):
        self._tcm = tcm
        self._rst = rst

    def _gate(self, offset, length):
        """Refuse every window byte; an empty access inside the window
        passes, reaching nothing."""
        if self._rst.raised:
            raise AbortedError("reset asserted")
        if not isinstance(offset, int) or not isinstance(length, int):
            raise AccessDeniedError("window offsets must be integers")
        if length or not 0 <= offset <= SHM_WINDOW_SIZE:
            raise AccessDeniedError(
                f"access [{offset}, +{length}) outside any memref")

    def window_read(self, offset, length):
        self._gate(offset, length)
        return b""

    def window_write(self, offset, data):
        self._gate(offset, len(bytes(data)))

    def tcm_read(self, offset, length):
        if self._rst.raised:
            raise AbortedError("reset asserted")
        return self._tcm.read(offset, length)

    def tcm_write(self, offset, data):
        if self._rst.raised:
            raise AbortedError("reset asserted")
        self._tcm.write(offset, data)


class MemRef:
    """A TA's handle on one granted window slice: a view of exactly the
    bytes its request's memref words grant, and the core's RST line, so
    an access copies straight from or into the window."""

    def __init__(self, view, rst):
        self._view = view
        self._rst = rst
        self.length = len(view)

    def read(self, at=0, length=None):
        if length is None and isinstance(at, int):
            length = self.length - at
        if not isinstance(at, int) or not isinstance(length, int):
            raise AccessDeniedError("window offsets must be integers")
        if at < 0 or length < 0 or at + length > self.length:
            raise AccessDeniedError(
                f"read [{at}, +{length}) outside {self.length}-byte reference")
        if self._rst.raised:
            raise AbortedError("reset asserted")
        return self._view[at:at + length].tobytes()

    def write(self, data, at=0):
        data = bytes(data)
        if not isinstance(at, int):
            raise AccessDeniedError("window offsets must be integers")
        if at < 0 or at + len(data) > self.length:
            raise AccessDeniedError(
                f"write [{at}, +{len(data)}) outside {self.length}-byte reference")
        if self._rst.raised:
            raise AbortedError("reset asserted")
        self._view[at:at + len(data)] = data


_VALUES = frozenset((ParamKind.VALUE_IN, ParamKind.VALUE_OUT, _VALUE_INOUT))
_WRITABLE = frozenset((ParamKind.VALUE_OUT, _VALUE_INOUT))


class TaParams:
    """Handler view of the four frame parameters on one core."""

    def __init__(self, kinds, gp, core):
        self._kinds = kinds
        self._gp = gp
        self._words = list(gp)
        self._core = core
        self._mem = None

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
        """The dispatch's MemoryContext, built on first read: all of TCM
        and no window byte, which a TA reaches only through `memref`."""
        if self._mem is None:
            core = self._core
            self._mem = MemoryContext(core.tcm, core._rst)
        return self._mem

    def memref(self, index):
        """The granted window slice behind a memory reference parameter:
        cut by the request's own words, which `decode_frame` checked to
        lie in the window, not by a length `set_memref_length` reports."""
        if self._kinds[index] is not _MEMREF:
            raise BadParametersError(
                f"parameter {index} is {self._kinds[index].name}, not a memref")
        offset, core = self._gp[2 * index], self._core
        return MemRef(core.window._buf[offset:offset + self._gp[2 * index + 1]],
                      core._rst)

    def set_memref_length(self, index, length):
        """Report the size a memref actually needs (short-buffer replies)."""
        if self._kinds[index] is not _MEMREF:
            raise BadParametersError(
                f"parameter {index} is {self._kinds[index].name}, not a memref")
        if not isinstance(length, int) or not 0 <= length <= WORD_MASK:
            raise BadParametersError(f"length {length!r} is not 32-bit")
        self._words[2 * index + 1] = length


class UartLog:
    """Debug console for one enclave: the last UART_CAPACITY lines in
    memory, and every line in the file at `path`, if one is given.

    The file is opened at the first line and stays open, line-buffered,
    so each line is in it once `log` returns; `close` closes it, and a
    later line opens it again."""

    def __init__(self, path=None):
        self._lock = threading.Lock()
        self._lines = deque(maxlen=UART_CAPACITY)
        self._path = path
        self._sink = None

    def log(self, line):
        line = str(line)
        with self._lock:
            self._lines.append(line)
            if self._path is not None:
                if self._sink is None:
                    self._sink = open(self._path, "a", buffering=1)
                self._sink.write(line + "\n")

    def close(self):
        """Close the file, if it is open."""
        with self._lock:
            if self._sink is not None:
                self._sink.close()
                self._sink = None

    def lines(self):
        with self._lock:
            return tuple(self._lines)


class TaEnvironment:
    """Trusted-side services handed to a TA instance."""

    def __init__(self, ta_uuid, rng, storage, uart, rst, image_size,
                 turnstile):
        self.uuid = ta_uuid
        self.rng = rng
        self.storage = storage
        self.uart = uart
        self.image_size = image_size
        self._rst = rst
        self._step_out = turnstile.stepped_out

    def check_abort(self):
        if self._rst.raised:
            raise AbortedError("reset asserted")

    def sleep(self, seconds):
        """Abort-aware wait; a reset cuts it short. The waiting thread
        steps out of the fabric's turnstile, so other clients do not hand
        it turns it cannot take."""
        with self._step_out():
            aborted = self._rst.wait(seconds)
        if aborted:
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


def _wallet_ta(env):
    # The wallet TA's modules load where a core builds it, at its first
    # OPEN, under the slot lock.
    from .wallet.ta import WalletTa
    return WalletTa(env)


register_ta_kind(TA_KIND_INCREMENT, IncrementTa)
register_ta_kind(TA_KIND_SHMEM16, Shmem16Ta)
register_ta_kind(TA_KIND_ECHO, EchoTa)
register_ta_kind(TA_KIND_PROBE, ProbeTa)
register_ta_kind(TA_KIND_WALLET, _wallet_ta)


class EnclaveRuntime:
    """One emulated core: mailbox, RST/INT lines, an ISR on the caller's thread.

    The fabric's manager checks an image once, its loader copies it
    over DMA while RST is asserted, and the manager deasserts RST with what
    it checked: the core boots that TA and never parses TCM. The fabric
    then exchanges frames through the mailbox, twelve 32-bit registers
    (48 bytes): deliver() places a packed request and raises INT, and the
    core serves it in its ISR on the delivering thread, clearing INT once
    the packed reply is in the mailbox. The core never yields
    the interpreter itself: the fabric's turnstile hands it between
    client threads as their requests leave `Fabric.exchange`. The core
    passes that turnstile to its TA's environment, so that a TA waiting
    in `env.sleep` steps out of it.

    `lock` is the slot lock: the fabric holds it across a whole request and
    every REE window copy, and the core holds it across the ISR. The RST
    line is one `ResetLine` that TAs also check or wait on as their abort
    flag, so assert_reset() aborts a handler in flight at once; the core
    then zeroizes once, under the lock, after that request has let go of
    it. The core reads the line as a plain attribute.
    """

    def __init__(self, index, services, turnstile, uart_path=None):
        self.index = index
        self._services = services
        self._turnstile = turnstile
        self.tcm = Space(TCM_SIZE)
        self.window = Space(SHM_WINDOW_SIZE)
        self.uart = UartLog(uart_path)
        self.lock = threading.RLock()
        self._mailbox = bytearray(MAILBOX_BYTES)
        self._rst = ResetLine()
        self._int = False
        self._reply_serial = 0
        # Set by a TA fault; the fabric then scrubs the slot at once.
        self.faulted = False
        self._ta_uuid = None
        self._ta_kind = None
        self._ta_factory = None
        self._image_size = 0
        self._ta = None
        self._sessions = {}
        self._last_sid = 0

    # ---- lines the fabric drives ----

    def load_image(self, data):
        """Loader DMA into TCM; only legal while RST is asserted."""
        with self.lock:
            if not self._rst.raised:
                raise RuntimeError("DMA into a running enclave")
            self.tcm.write(0, data)

    def assert_reset(self):
        """Pull RST, then zeroize once the slot lock is free.

        RST goes up before the lock is taken, so a handler in flight aborts
        at once instead of holding the lock to its end; a handler that
        ignores it is waited out. Raised again under the lock if a
        deassert lowered it in between, it holds across the zeroize."""
        rst = self._rst
        rst.pull()
        with self.lock:
            if not rst.raised:
                rst.pull()
            self._zeroize()

    def deassert_reset(self, ta_uuid, ta_kind, image_size, factory):
        """Release RST and boot the TA the manager checked and loaded:
        its uuid, its ta_kind and the factory registered for it, which
        the manager looked up, and the image size that `env.image_size`
        reports. The core parses nothing in TCM."""
        with self.lock:
            if not self._rst.raised:
                return
            self._rst.raised = False
            self._ta_uuid = ta_uuid
            self._ta_kind = ta_kind
            self._ta_factory = factory
            self._image_size = image_size
            self.uart.log(f"boot: ta {ta_uuid} kind {ta_kind}")

    def deliver(self, request):
        """Place a request's 48 bytes in the mailbox, ring INT and serve it
        in the ISR on this thread; returns the reply's 48 packed bytes. The
        ISR unpacks and checks the request once, in `decode_frame`, and
        packs the reply from its fields. Anything but 48 bytes of `bytes`
        or `bytearray` is refused before the mailbox is written."""
        if (type(request) is not bytes and type(request) is not bytearray
                or len(request) != MAILBOX_BYTES):
            raise InvalidFrame(f"the mailbox takes {MAILBOX_BYTES} bytes")
        reply = None
        rst = self._rst
        with self.lock:
            if rst.raised:
                raise EnclaveResetError(f"enclave {self.index} is in reset")
            if self._int:
                raise RuntimeError(f"enclave {self.index} mailbox is busy")
            mailbox = self._mailbox
            mailbox[:] = request
            self._int = True
            try:
                try:
                    frame = decode_frame(mailbox)
                except InvalidFrame as exc:
                    self.uart.log(f"isr: bad frame: {exc}")
                    reply = encode_reply(
                        (ReturnCode.ERROR_BAD_PARAMETERS, 0, 0, (0,) * 8, 0))
                else:
                    params = TaParams(_KINDS_BY_WORD[frame.param_type],
                                      frame.gp, self)
                    code = _SUCCESS
                    session_out = frame.session_id
                    try:
                        if frame.operation is _OPEN:
                            if self._ta is None:    # the load's first session
                                self._ta = self._ta_factory(TaEnvironment(
                                    self._ta_uuid,
                                    *self._services.for_ta(self._ta_uuid),
                                    self.uart, self._rst, self._image_size,
                                    self._turnstile))
                            context = self._ta.open_session(params)
                            self._last_sid = session_out = (
                                (self._last_sid + 1) & WORD_MASK or 1)
                            self._sessions[session_out] = context
                        elif frame.session_id not in self._sessions:
                            raise BadParametersError(
                                f"no session {frame.session_id}")
                        elif frame.operation is _INVOKE:
                            # The core holds its TA while a session is open.
                            self._ta.invoke_command(
                                self._sessions[frame.session_id],
                                frame.cmd_id, params)
                        else:
                            self._ta.close_session(
                                self._sessions.pop(frame.session_id))
                            if not self._sessions:
                                self._ta.destroy()
                                self._ta = None
                    except BaseException as exc:
                        code = self._failure(exc)
                        if frame.operation is _OPEN:
                            session_out = 0
                    if (frame.operation is _OPEN and code is not _SUCCESS
                            and not self._sessions and self._ta is not None):
                        # Balance the instance made for a refused first open.
                        ta, self._ta = self._ta, None
                        try:
                            ta.destroy()
                        except BaseException as exc:
                            code = self._failure(exc)
                    reply = encode_reply((code, session_out, frame.param_type,
                                          params._words, frame.cmd_id))
            except AbortedError:
                pass
            finally:
                # An aborted request leaves the zeroize to the resetter,
                # which takes this lock next.
                self._int = False
                if rst.raised:
                    reply = None
                elif reply is not None:
                    mailbox[:] = reply
                    self._reply_serial += 1
        if reply is None:
            raise EnclaveResetError(
                f"enclave {self.index} reset while a request was in flight")
        return reply

    def snapshot(self):
        """Register scan: control lines plus bookkeeping, for tests and CLI.
        It takes no lock, so it reads the lines while a request holds the
        slot."""
        rst = self._rst.raised
        if self._int:
            state = CoreState.ISR
        else:
            state = CoreState.RESET if rst else CoreState.WFI
        return {
            "index": self.index,
            "state": state,
            "rst": rst,
            "int": self._int,
            "sessions": len(self._sessions),
            "last_sid": self._last_sid,
            "ta_kind": self._ta_kind,
            "reply_serial": self._reply_serial,
        }

    def mailbox_words(self):
        """The mailbox's twelve registers as words; takes no lock."""
        return _MAILBOX.unpack(self._mailbox)

    @property
    def session_count(self):
        """Sessions open on the loaded TA; the fabric frees the slot at 0."""
        return len(self._sessions)

    # ---- the core itself ----

    def _zeroize(self):
        """Reset entry: no secret survives in TCM, window, mailbox or state."""
        self.tcm.zeroize()
        self.window.zeroize()
        self._mailbox[:] = _ZEROS[:MAILBOX_BYTES]
        self._int = False
        self.faulted = False
        self._ta_uuid = None
        self._ta_kind = None
        self._ta_factory = None
        self._image_size = 0
        self._ta = None
        self._sessions.clear()
        self._last_sid = 0
        self._reply_serial = 0

    def _failure(self, exc):
        """The reply code for `exc`, which a TA raised, called in the
        block that caught it. An AbortedError goes on up to `deliver`. A
        TeeError whose code is a ReturnCode error replies that code.
        Anything else is a fault: its traceback goes to the UART, the core
        is marked faulted, so that the fabric scrubs the slot, and the
        reply is ERROR_GENERIC; a KeyboardInterrupt then goes on up, and
        the fabric settles the slot on its way out."""
        if isinstance(exc, AbortedError):
            raise exc
        try:
            code = exc.code if isinstance(exc, TeeError) else None
        except Exception:   # a code the TA made unreadable: a fault
            code = None
        if type(code) is ReturnCode and code is not _SUCCESS:
            return code
        import traceback    # on the fault path only
        self.uart.log("isr: ta fault:\n" + traceback.format_exc().rstrip())
        self.faulted = True
        if isinstance(exc, KeyboardInterrupt):
            raise exc
        return ReturnCode.ERROR_GENERIC
