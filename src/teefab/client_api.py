"""REE-side client library: contexts, sessions, parameter marshalling."""

from __future__ import annotations

from enum import IntEnum

from .protocol import (
    GP_WORDS,
    PARAM_SLOTS,
    SHM_WINDOW_SIZE,
    WORD_MASK,
    AccessDeniedError,
    BadParametersError,
    MailboxFrame,
    OperationId,
    OutOfMemoryError,
    ParamKind,
    ReturnCode,
    error_for_code,
)

_OPEN_RETRIES = 5


class Direction(IntEnum):
    IN = 1
    OUT = 2
    INOUT = 3


# Members read on every request, bound once: on Python 3.11 each
# `Enum.MEMBER` read costs several times a module global's.
_IN, _OUT, _INOUT = Direction.IN, Direction.OUT, Direction.INOUT
_NONE, _MEMREF = ParamKind.NONE, ParamKind.MEMREF
_SUCCESS = ReturnCode.SUCCESS
_INVOKE, _CLOSE = OperationId.INVOKE, OperationId.CLOSE
# Every OPEN is the same frame, so it is built and checked once; the core
# still decodes and checks each one it receives.
_OPEN_FRAME = MailboxFrame.build(OperationId.OPEN, 0)
# A CLOSE differs from it only in its operation and its session id, which
# came from a reply register and so is a 32-bit int: `Session.close` makes
# it from these without `build`, and the core checks it as any frame.
_NO_GP = (0,) * GP_WORDS

_VALUE_KINDS = {
    _IN: ParamKind.VALUE_IN,
    _OUT: ParamKind.VALUE_OUT,
    _INOUT: ParamKind.VALUE_INOUT,
}
_OUTPUT_VALUES = frozenset((ParamKind.VALUE_OUT, ParamKind.VALUE_INOUT))
_COPIED_IN = frozenset((_IN, _INOUT))
_COPIED_OUT = frozenset((_OUT, _INOUT))
_DIRECTIONS = {int(d): d for d in Direction}


def _direction(direction):
    """Direction(direction) as one dict lookup. What the table lacks,
    unhashable values such as a list included, goes to the Enum call,
    which raises its ValueError."""
    try:
        return _DIRECTIONS[direction]
    except (KeyError, TypeError):
        return Direction(direction)


class Value:
    """One (a, b) word-pair parameter."""

    def __init__(self, direction, a=0, b=0):
        try:
            self.direction = _DIRECTIONS[direction]
        except (KeyError, TypeError):
            self.direction = Direction(direction)
        for word in (a, b):
            if not isinstance(word, int) or not 0 <= word <= WORD_MASK:
                raise BadParametersError(f"value word {word!r} is not 32-bit")
        self.a = a
        self.b = b


class SharedMemory:
    """A reserved slice of one slot's shared window plus its REE buffer."""

    def __init__(self, offset, length, direction):
        self.offset = offset
        self.length = length
        self.direction = _direction(direction)
        self.buffer = bytearray(length)

    def write(self, data, at=0):
        """Copy bytes-like data into the buffer at `at`; anything else,
        an int taken as a length included, is refused."""
        try:
            with memoryview(data) as view:
                data = view.tobytes()
        except TypeError:
            raise BadParametersError(
                f"block data is bytes-like, not {type(data).__name__}"
            ) from None
        if not isinstance(at, int) or at < 0 or at + len(data) > self.length:
            raise BadParametersError(
                f"write [{at!r}, +{len(data)}) outside {self.length}-byte block")
        self.buffer[at:at + len(data)] = data

    def read(self, at=0, length=None):
        if length is None and isinstance(at, int):
            length = self.length - at
        if (not isinstance(at, int) or not isinstance(length, int) or at < 0
                or length < 0 or at + length > self.length):
            raise BadParametersError(
                f"read [{at!r}, +{length!r}) outside {self.length}-byte block")
        return bytes(self.buffer[at:at + length])


class Operation:
    """Up to four logical parameters for one open/invoke exchange."""

    def __init__(self, *params):
        if len(params) > PARAM_SLOTS:
            raise BadParametersError(
                f"at most {PARAM_SLOTS} parameters, got {len(params)}")
        for param in params:
            if param is not None and not isinstance(param, (Value, SharedMemory)):
                raise BadParametersError(
                    f"parameter must be Value or SharedMemory, got {param!r}")
        self.params = list(params) + [None] * (PARAM_SLOTS - len(params))


_NO_OPERATION = Operation()     # what a bare invoke sends; never mutated


class InvokeResult:
    """Reply-side view of one exchange: the reply's code and words, read
    by the kinds the request was sent with."""

    def __init__(self, reply, kinds):
        self.code = reply.code
        self._kinds = kinds
        self._words = reply.gp

    @property
    def success(self):
        return self.code is _SUCCESS

    def value(self, index):
        """(a, b) words of an output-capable value parameter."""
        if not isinstance(index, int) or not 0 <= index < PARAM_SLOTS:
            raise BadParametersError(f"no parameter {index!r}")
        if self._kinds[index] not in _OUTPUT_VALUES:
            raise BadParametersError(
                f"parameter {index} is {self._kinds[index].name}, not an "
                f"output value")
        return self._words[2 * index], self._words[2 * index + 1]

    def memref_length(self, index):
        """The length word the TA left on a memref (short-buffer reporting)."""
        if not isinstance(index, int) or not 0 <= index < PARAM_SLOTS:
            raise BadParametersError(f"no parameter {index!r}")
        if self._kinds[index] is not _MEMREF:
            raise BadParametersError(
                f"parameter {index} is {self._kinds[index].name}, not a memref")
        return self._words[2 * index + 1]

    def raise_for_code(self, context=""):
        if not self.success:
            raise error_for_code(self.code, context)
        return self


class Context:
    """One client connection to a running fabric. It holds nothing on the
    fabric: an open hands its image to the manager, which checks and loads
    it on a cold open."""

    def __init__(self, fabric):
        self.fabric = fabric

    def open_session(self, ta_uuid, image):
        """Find-or-load the slot and dispatch OPEN. A cold open loads
        exactly these bytes, once the manager has checked them; a warm open
        attaches by uuid alone and reads none of them."""
        last_error = None
        for _ in range(_OPEN_RETRIES):
            slot, _fresh = self.fabric.manager_open(ta_uuid, image)
            with self.fabric.exchange(slot) as (hosted, generation):
                if hosted is not ta_uuid and hosted != ta_uuid:
                    # Torn down (and maybe reloaded) since the lookup; the
                    # teardown dropped this open's retain with the load.
                    last_error = AccessDeniedError(
                        f"slot {slot} no longer hosts TA {ta_uuid}")
                    continue
                try:
                    # The reply drops this open's retain, whatever its code.
                    reply = self.fabric.comm_dispatch(slot, _OPEN_FRAME)
                except AccessDeniedError as exc:
                    # Torn down under way; the scrub drops the retain.
                    last_error = exc
                    continue
            if reply.code is not _SUCCESS:
                raise error_for_code(reply.code,
                                     f"TA {ta_uuid} rejected the session")
            return Session(self, ta_uuid, slot, reply.session_id, generation)
        raise last_error

    def close(self):
        """Finalize the context, as a GlobalPlatform client does. It holds
        no fabric resource, so this releases nothing; each session is
        closed on its own."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


class Session:
    """One open session on one load of a slot; per-session window
    allocator for shared blocks."""

    def __init__(self, context, ta_uuid, slot_index, session_id, generation):
        self.context = context
        self.uuid = ta_uuid
        self.slot_index = slot_index
        self.session_id = session_id
        # What `exchange` yields while the slot hosts this session's load;
        # a reloaded core numbers its sessions from 1 again.
        self._load = (ta_uuid, generation)
        self._exchange = context.fabric.exchange(slot_index)
        self._shm_cursor = 0

    @property
    def is_open(self):
        return self.session_id != 0

    def allocate_shared_memory(self, length, direction=Direction.INOUT):
        """Reserve the next disjoint window slice for this session."""
        if not self.is_open:
            raise BadParametersError("session is closed")
        if not isinstance(length, int) or length < 0:
            raise BadParametersError(f"bad shared block length {length!r}")
        if self._shm_cursor + length > SHM_WINDOW_SIZE:
            raise OutOfMemoryError(
                f"shared window exhausted: {self._shm_cursor} used, "
                f"{length} requested of {SHM_WINDOW_SIZE}")
        block = SharedMemory(self._shm_cursor, length, direction)
        self._shm_cursor += length
        return block

    def invoke_command(self, cmd_id, operation=None):
        """Marshal in one walk over the parameters (OUT value words travel
        as zeros), copy shared buffers in, dispatch, copy back out."""
        if not self.session_id:
            raise BadParametersError("session is closed")
        fabric = self.context.fabric
        slot = self.slot_index
        # Marshalled inside the exchange, so that the turnstile counts this
        # thread as a contender for most of each request.
        with self._exchange as load:
            kinds, words, shared = [], [], []
            for index, param in enumerate(
                    (operation or _NO_OPERATION).params):
                if param is None:
                    kinds.append(_NONE)
                    words += (0, 0)
                elif isinstance(param, Value):
                    kinds.append(_VALUE_KINDS[param.direction])
                    if param.direction is _OUT:
                        words += (0, 0)
                    else:
                        words += (param.a, param.b)
                else:
                    kinds.append(_MEMREF)
                    words += (param.offset, param.length)
                    shared.append((index, param))
            frame = MailboxFrame.build(_INVOKE, self.session_id,
                                       kinds, gp=words, cmd_id=cmd_id)
            if load != self._load:
                raise AccessDeniedError(
                    f"slot {slot} no longer hosts the load "
                    f"session {self.session_id} was opened on")
            for _index, block in shared:
                if block.length:
                    # OUT: REE contents must never reach the enclave.
                    fabric.shm_write(slot, block.offset, block.buffer
                                     if block.direction in _COPIED_IN
                                     else bytes(block.length))
            reply = fabric.comm_dispatch(slot, frame)
            for index, block in shared:
                if (reply.code is _SUCCESS
                        and block.direction in _COPIED_OUT
                        and block.length):
                    data = fabric.shm_read(slot, block.offset,
                                           min(reply.gp[2 * index + 1],
                                               block.length))
                    block.buffer[:len(data)] = data
        return InvokeResult(reply, kinds)

    def close(self):
        """Dispatch CLOSE; double close and close after the slot's load
        went away are no-ops."""
        if not self.session_id:
            return
        frame = tuple.__new__(MailboxFrame,
                              (_CLOSE, self.session_id, 0, _NO_GP, 0))
        with self._exchange as load:
            if load == self._load:
                try:
                    self.context.fabric.comm_dispatch(self.slot_index, frame)
                except AccessDeniedError:
                    pass  # torn down under way: the session is gone
        self.session_id = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False
