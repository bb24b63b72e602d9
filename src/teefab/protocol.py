"""Wire-level data model shared by the REE and the enclave fabric.

Everything that crosses the mailbox or the loader path is defined here:
the 12-word request/reply frame, the packed parameter-type field, return
codes, the loadable TA image container, and the load outcomes the manager
logs (`LoadStatus`).
All multi-word values are little-endian when serialized to bytes.
"""

from __future__ import annotations

import struct
import uuid as uuid_mod
from collections import namedtuple
from enum import IntEnum
from typing import NamedTuple

WORD_MASK = 0xFFFFFFFF
MAILBOX_WORDS = 12

TCM_SIZE = 64 * 1024          # private code+data memory per enclave
SHM_WINDOW_SIZE = 8 * 1024    # REE-visible shared window per enclave
CM_REGION_SIZE = 16 * 1024 * 1024   # staging region for TA images
CM_ALIGNMENT = 64

IMAGE_MAGIC = b"TEOD"
IMAGE_VERSION = 1
IMAGE_HEADER_SIZE = 32        # magic + version + uuid + kind + payload_len
MAX_IMAGE_SIZE = TCM_SIZE

# The image header's ta_kind of each built-in TA, which enclave.py
# registers; the wallet's is TA_KIND_WALLET in teefab.wallet.
TA_KIND_INCREMENT = 1
TA_KIND_SHMEM16 = 2
TA_KIND_ECHO = 3
TA_KIND_PROBE = 4

GP_WORDS = 8                  # general-purpose payload words per frame
PARAM_SLOTS = 4               # logical parameters, two gp words each


class OperationId(IntEnum):
    """Word 0 of a request frame."""

    OPEN = 1
    INVOKE = 2
    CLOSE = 3


class ParamKind(IntEnum):
    """One 4-bit nibble of the packed param_type word."""

    NONE = 0
    VALUE_IN = 1
    VALUE_OUT = 2
    VALUE_INOUT = 3
    MEMREF = 5


class ReturnCode(IntEnum):
    """Word 0 of a reply frame (the reply reuses the request storage)."""

    SUCCESS = 0
    ERROR_GENERIC = 1
    ERROR_BAD_PARAMETERS = 2
    ERROR_ACCESS_DENIED = 3
    ERROR_OUT_OF_MEMORY = 4
    ERROR_ITEM_NOT_FOUND = 5
    ERROR_OUT_OF_ENCLAVES = 6
    ERROR_SHORT_BUFFER = 7


class LoadStatus(IntEnum):
    """Outcome of a load, as the manager logs it in a `load_status` event."""

    LOADED = 2
    ERR_FULL = 3
    ERR_SIZE = 4
    ERR_FORMAT = 5


class TeeError(Exception):
    """Base for all errors that map onto a protocol return code."""

    code = ReturnCode.ERROR_GENERIC

    def __init__(self, message=""):
        super().__init__(message or self.__class__.__name__)


class InvalidFrame(TeeError):
    code = ReturnCode.ERROR_BAD_PARAMETERS


class BadParametersError(TeeError):
    code = ReturnCode.ERROR_BAD_PARAMETERS


class AccessDeniedError(TeeError):
    code = ReturnCode.ERROR_ACCESS_DENIED


class OutOfMemoryError(TeeError):
    code = ReturnCode.ERROR_OUT_OF_MEMORY


class ItemNotFoundError(TeeError):
    code = ReturnCode.ERROR_ITEM_NOT_FOUND


class OutOfEnclavesError(TeeError):
    code = ReturnCode.ERROR_OUT_OF_ENCLAVES


class ShortBufferError(TeeError):
    code = ReturnCode.ERROR_SHORT_BUFFER


class ImageSizeError(TeeError):
    """TA image does not fit the private memory (manager ERR_SIZE)."""

    code = ReturnCode.ERROR_OUT_OF_MEMORY


class ImageFormatError(TeeError):
    """TA image failed magic/version/length/uuid checks (manager ERR_FORMAT)."""

    code = ReturnCode.ERROR_GENERIC


_VALID_NIBBLES = frozenset(int(k) for k in ParamKind)

# Word -> member tables: one dict lookup where an Enum call costs a
# microsecond on the per-request path.
_OPERATIONS = {int(op): op for op in OperationId}
_RETURN_CODES = {int(code): code for code in ReturnCode}


def _param_type_tables():
    """Each of the 5**4 valid param_type words -> its four kinds, the
    reverse map from every tuple of up to four kinds (the missing ones
    NONE), and each word -> the indices of its memory references. Built
    one parameter slot at a time."""
    all_kinds, memref = tuple(ParamKind), ParamKind.MEMREF
    entries = [((), 0, ())]
    words_by_kinds = {(): 0}
    for slot in range(PARAM_SLOTS):
        entries = [(kinds + (kind,), word | kind << (4 * slot),
                    memrefs + (slot,) if kind is memref else memrefs)
                   for kinds, word, memrefs in entries for kind in all_kinds]
        words_by_kinds.update((kinds, word) for kinds, word, _ in entries)
    return ({word: kinds for kinds, word, _ in entries},
            words_by_kinds,
            {word: memrefs for _, word, memrefs in entries})


_KINDS_BY_WORD, _WORDS_BY_KINDS, _MEMREF_SLOTS = _param_type_tables()

# A parameter kind is a member or an exact int. The kinds table is keyed
# on tuples, where 1.0 == True == VALUE_IN: a hit counts only when every
# kind has one of these types.
_KIND_TYPES = frozenset((ParamKind, int))


def pack_param_types(kinds):
    """Pack up to four ParamKind nibbles into the param_type word."""
    kinds = tuple(kinds)
    packed = _WORDS_BY_KINDS.get(kinds)
    if packed is not None and _KIND_TYPES.issuperset(map(type, kinds)):
        return packed
    if len(kinds) > PARAM_SLOTS:
        raise InvalidFrame(f"at most {PARAM_SLOTS} parameters, got {len(kinds)}")
    # Not all members: go kind by kind, naming the first bad one.
    packed = 0
    for i, kind in enumerate(kinds):
        if type(kind) not in _KIND_TYPES:
            raise InvalidFrame(
                f"parameter {i} kind {kind!r} is not a ParamKind or an int")
        if kind not in _VALID_NIBBLES:
            raise InvalidFrame(f"parameter {i} has invalid kind {kind:#x}")
        packed |= kind << (4 * i)
    return packed


def unpack_param_types(packed):
    """Unpack the param_type word into four ParamKind nibbles."""
    if type(packed) is not int:
        # The table is keyed on exact ints: 1.0 == 1 must not find it.
        if not isinstance(packed, int):
            raise InvalidFrame(f"param_type is not an integer: {packed!r}")
        packed = int(packed)
    kinds = _KINDS_BY_WORD.get(packed)
    if kinds is None:
        # Not a valid word: find what to name in the error.
        if packed & ~0xFFFF:
            raise InvalidFrame(f"param_type upper bits set: {packed:#010x}")
        for i in range(PARAM_SLOTS):
            nibble = (packed >> (4 * i)) & 0xF
            if nibble not in _VALID_NIBBLES:
                raise InvalidFrame(f"parameter {i} has invalid kind {nibble:#x}")
    return kinds


_EXACT_INT = frozenset((int,))


def _word_checker(names):
    """A check that len(names) words are each 0..2**32-1.

    When every word is exactly an int, one precompiled struct pack does
    the range check. Anything else (int subclasses, non-ints, a word out
    of range) takes the per-word loop, which names the first bad word.
    Callers check the word count first."""
    pack = struct.Struct(f"<{len(names)}I").pack

    def check(words):
        if _EXACT_INT.issuperset(map(type, words)):
            try:
                pack(*words)
                return
            except struct.error:
                pass
        for name, word in zip(names, words):
            if not isinstance(word, int) or not 0 <= word <= WORD_MASK:
                raise InvalidFrame(f"{name} is not a 32-bit word: {word!r}")
    return check


_check_frame_words = _word_checker(
    ("session_id", *(f"gp{i}" for i in range(GP_WORDS)), "cmd_id"))
_check_mailbox_words = _word_checker(
    tuple(f"word{i}" for i in range(MAILBOX_WORDS)))
_check_ta_kind = _word_checker(("ta_kind",))


class MailboxFrame(NamedTuple):
    """One 12-word request as placed in an enclave mailbox; an immutable
    named tuple of five fields, not the words themselves.

    Word layout: [operation, session_id, param_type, gp0..gp7, cmd_id].
    Logical parameter i owns gp words 2i and 2i+1: (a, b) for values,
    (offset, length) for shared-memory references.
    """

    operation: OperationId
    session_id: int
    param_type: int
    gp: tuple
    cmd_id: int = 0

    @classmethod
    def build(cls, operation, session_id, params=(), gp=(), cmd_id=0):
        """Construct from a kind list or from (kind, a, b) triples."""
        try:
            kinds = params = tuple(params)
        except TypeError:
            raise InvalidFrame(f"params must be iterable, got {params!r}") from None
        if params and isinstance(params[0], (tuple, list)):
            if gp:
                raise InvalidFrame("gp words are implied by (kind, a, b) triples")
            kinds, gp = (), []
            for index, entry in enumerate(params):
                try:
                    kind, word_a, word_b = entry
                except (TypeError, ValueError):
                    raise InvalidFrame(f"parameter {index} is not a "
                                       f"(kind, a, b) triple: {entry!r}") from None
                kinds += (kind,)
                gp += [word_a, word_b]
        try:
            gp = tuple(gp)
        except TypeError:
            raise InvalidFrame(f"gp must be iterable, got {gp!r}") from None
        if len(gp) > GP_WORDS:
            raise InvalidFrame(f"at most {GP_WORDS} gp words, got {len(gp)}")
        gp += (0,) * (GP_WORDS - len(gp))
        _check_frame_words((session_id, *gp, cmd_id))
        packed = _WORDS_BY_KINDS.get(kinds)     # up to four members: one lookup
        if packed is None or not _KIND_TYPES.issuperset(map(type, kinds)):
            packed = pack_param_types(kinds)
        # An unknown operation stays as given, for validate() to name.
        # tuple.__new__ skips the named tuple's Python-level __new__.
        frame = tuple.__new__(cls, (_OPERATIONS.get(operation, operation),
                                    session_id, packed, gp, cmd_id))
        frame.validate()
        return frame

    def kinds(self):
        return unpack_param_types(self.param_type)

    def param_words(self, index):
        """The (2i, 2i+1) gp word pair of logical parameter index."""
        return self.gp[2 * index], self.gp[2 * index + 1]

    def validate(self):
        """Check the operation, the gp word count, param_type and each
        memref's bounds. That every word is 32-bit is checked where the
        words come in, once: by `build` from a caller's values and by
        `decode_frame` from the mailbox, its two callers."""
        if self.operation not in _OPERATIONS:
            raise InvalidFrame(f"operation word {self.operation!r} not in 1..3")
        gp = self.gp
        if len(gp) != GP_WORDS:
            raise InvalidFrame(f"expected {GP_WORDS} gp words, got {len(gp)}")
        # One lookup checks an exact int: the table holds every valid
        # word and no other. Anything else goes through kinds(), which
        # names what is wrong, so that 1.0 == 1 cannot find an entry.
        memrefs = _MEMREF_SLOTS.get(self.param_type) \
            if type(self.param_type) is int else None
        if memrefs is None:
            self.kinds()
            memrefs = _MEMREF_SLOTS[self.param_type]
        for i in memrefs:
            offset, length = gp[2 * i], gp[2 * i + 1]
            # Plain integer sum: a 32-bit wraparound cannot sneak past.
            if offset + length > SHM_WINDOW_SIZE:
                raise InvalidFrame(
                    f"memref {i} [{offset}, +{length}) outside the "
                    f"{SHM_WINDOW_SIZE}-byte window")


class ReplyFrame(NamedTuple):
    """The 12 words an enclave leaves in the mailbox when INT clears, as
    an immutable named tuple of five fields like MailboxFrame.

    Identical layout to the request except word 0 carries the return code.
    """

    code: ReturnCode
    session_id: int
    param_type: int
    gp: tuple
    cmd_id: int = 0

    def param_words(self, index):
        return self.gp[2 * index], self.gp[2 * index + 1]


def encode_frame(frame):
    """MailboxFrame -> 12 words; build() has validated the frame."""
    return (int(frame.operation), frame.session_id, frame.param_type,
            *frame.gp, frame.cmd_id)


def decode_frame(words):
    """12 words -> MailboxFrame, rejecting anything malformed: the words
    are converted and range-checked here, the rest by validate()."""
    words = tuple(words)
    if len(words) != MAILBOX_WORDS:
        raise InvalidFrame(f"expected {MAILBOX_WORDS} words, got {len(words)}")
    _check_mailbox_words(words)
    frame = tuple.__new__(MailboxFrame, (_OPERATIONS.get(words[0], words[0]),
                                         words[1], words[2], words[3:11],
                                         words[11]))
    frame.validate()
    return frame


def encode_reply(reply):
    """A ReplyFrame, or its five fields as a plain tuple -> 12 words
    (return code in the operation slot)."""
    code, session_id, param_type, gp, cmd_id = reply
    return (int(code), session_id, param_type, *gp, cmd_id)


def decode_reply(words):
    """12 words -> ReplyFrame."""
    words = tuple(words)
    if len(words) != MAILBOX_WORDS:
        raise InvalidFrame(f"expected {MAILBOX_WORDS} words, got {len(words)}")
    _check_mailbox_words(words)
    code = _RETURN_CODES.get(words[0])
    if code is None:
        raise InvalidFrame(f"unknown return code {words[0]}")
    return tuple.__new__(ReplyFrame,
                         (code, words[1], words[2], words[3:11], words[11]))


def words_to_bytes(words):
    """Serialize mailbox words little-endian for bit-exact comparison."""
    return struct.pack(f"<{len(words)}I", *words)


def bytes_to_words(data):
    if len(data) % 4:
        raise InvalidFrame(f"byte length {len(data)} not word aligned")
    return struct.unpack(f"<{len(data) // 4}I", data)


class TAImage(namedtuple("TAImage", "uuid ta_kind payload", defaults=(b"",))):
    """Loadable trusted-application container.

    Header (32 bytes): magic "TEOD", version, uuid, ta_kind, payload_len,
    all words little-endian.  ta_kind selects the TA behaviour from the
    registry the enclave runtime consults; payload is free-form data that
    the loader places in TCM right after the header, where the TA can
    read it.  Total size never exceeds the private memory (64 KiB).
    """

    __slots__ = ()

    @property
    def size(self):
        return IMAGE_HEADER_SIZE + len(self.payload)


def encode_image(image):
    """TAImage -> bytes, enforcing the size cap."""
    _check_ta_kind((image.ta_kind,))
    total = IMAGE_HEADER_SIZE + len(image.payload)
    if total > MAX_IMAGE_SIZE:
        raise ImageSizeError(
            f"image is {total} bytes, cap is {MAX_IMAGE_SIZE}")
    return b"".join((
        IMAGE_MAGIC,
        struct.pack("<I", IMAGE_VERSION),
        image.uuid.bytes,
        struct.pack("<I", image.ta_kind),
        struct.pack("<I", len(image.payload)),
        image.payload,
    ))


_IMAGE_HEADER = struct.Struct("<4sI16sII")


def decode_image_header(buf):
    """(uuid_bytes, ta_kind, total_bytes) of the image at the front of a
    buffer; uuid_bytes are the 16 bytes of the uuid field, from which a
    caller builds a UUID only if it needs one.

    Checks the magic, the version, the size cap and that payload_len fits
    the buffer, in one unpack; copies no payload, so a memoryview of a
    larger region parses in place.
    """
    if len(buf) < IMAGE_HEADER_SIZE:
        raise ImageFormatError(
            f"truncated header: {len(buf)} < {IMAGE_HEADER_SIZE} bytes")
    magic, version, uuid_bytes, ta_kind, payload_len = \
        _IMAGE_HEADER.unpack_from(buf)
    if magic != IMAGE_MAGIC:
        raise ImageFormatError(f"bad magic {magic!r}")
    if version != IMAGE_VERSION:
        raise ImageFormatError(f"unsupported version {version}")
    total = IMAGE_HEADER_SIZE + payload_len
    if total > MAX_IMAGE_SIZE:
        raise ImageSizeError(f"image is {total} bytes, cap is {MAX_IMAGE_SIZE}")
    if total > len(buf):
        raise ImageFormatError(
            f"payload_len {payload_len} runs past the {len(buf)}-byte buffer")
    return uuid_bytes, ta_kind, total


def decode_image_prefix(buf):
    """Parse a TAImage from the front of a larger buffer.

    Returns (image, consumed_bytes): the image followed by zero fill, as
    an enclave's private memory holds it, parses to the image alone.
    """
    uuid_bytes, ta_kind, total = decode_image_header(buf)
    return TAImage(uuid_mod.UUID(bytes=uuid_bytes), ta_kind,
                   bytes(buf[IMAGE_HEADER_SIZE:total])), total


def decode_image(buf):
    """bytes -> TAImage; never reads past the provided buffer."""
    buf = bytes(buf)
    if len(buf) > MAX_IMAGE_SIZE:
        raise ImageSizeError(f"image is {len(buf)} bytes, cap is {MAX_IMAGE_SIZE}")
    uuid_bytes, ta_kind, total = decode_image_header(buf)
    if total != len(buf):
        raise ImageFormatError(
            f"payload_len {total - IMAGE_HEADER_SIZE} inconsistent with "
            f"{len(buf) - IMAGE_HEADER_SIZE} payload bytes")
    return TAImage(uuid_mod.UUID(bytes=uuid_bytes), ta_kind,
                   buf[IMAGE_HEADER_SIZE:])


_CODE_ERRORS = {
    ReturnCode.ERROR_GENERIC: TeeError,
    ReturnCode.ERROR_BAD_PARAMETERS: BadParametersError,
    ReturnCode.ERROR_ACCESS_DENIED: AccessDeniedError,
    ReturnCode.ERROR_OUT_OF_MEMORY: OutOfMemoryError,
    ReturnCode.ERROR_ITEM_NOT_FOUND: ItemNotFoundError,
    ReturnCode.ERROR_OUT_OF_ENCLAVES: OutOfEnclavesError,
    ReturnCode.ERROR_SHORT_BUFFER: ShortBufferError,
}


def error_for_code(code, message=""):
    """Build the TeeError subclass matching a non-success return code."""
    exc_class = _CODE_ERRORS.get(ReturnCode(code), TeeError)
    exc = exc_class(message or f"operation failed with {ReturnCode(code).name}")
    return exc
