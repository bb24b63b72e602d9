"""Wire-format tests: mailbox frames, param nibbles, image container."""

import random
import struct
import uuid as uuid_mod
from enum import IntEnum

import pytest

from teefab.enclave import EnclaveRuntime
from teefab.fabric import Turnstile
from teefab.protocol import (
    ReplyFrame,
    GP_WORDS,
    IMAGE_HEADER_SIZE,
    MAILBOX_BYTES,
    MAILBOX_WORDS,
    MAX_IMAGE_SIZE,
    PARAM_SLOTS,
    SHM_WINDOW_SIZE,
    BadParametersError,
    ImageFormatError,
    ImageSizeError,
    InvalidFrame,
    MailboxFrame,
    OperationId,
    ParamKind,
    ReturnCode,
    TAImage,
    decode_frame,
    decode_image,
    decode_image_prefix,
    decode_reply,
    encode_frame,
    encode_image,
    encode_reply,
    error_for_code,
    pack_param_types,
    unpack_param_types,
    words_to_bytes,
)

ALL_KINDS = (ParamKind.NONE, ParamKind.VALUE_IN, ParamKind.VALUE_OUT,
             ParamKind.VALUE_INOUT, ParamKind.MEMREF)


def test_operation_and_code_values():
    assert (OperationId.OPEN, OperationId.INVOKE, OperationId.CLOSE) == (1, 2, 3)
    assert ReturnCode.SUCCESS == 0
    assert ReturnCode.ERROR_GENERIC == 1
    assert ReturnCode.ERROR_BAD_PARAMETERS == 2
    assert ReturnCode.ERROR_ACCESS_DENIED == 3
    assert ReturnCode.ERROR_OUT_OF_MEMORY == 4
    assert ReturnCode.ERROR_ITEM_NOT_FOUND == 5
    assert ReturnCode.ERROR_OUT_OF_ENCLAVES == 6
    assert ReturnCode.ERROR_SHORT_BUFFER == 7


def test_param_type_nibble_packing():
    kinds = [ParamKind.VALUE_IN, ParamKind.MEMREF, ParamKind.NONE,
             ParamKind.VALUE_INOUT]
    packed = pack_param_types(kinds)
    assert packed == 0x1 | (0x5 << 4) | (0x0 << 8) | (0x3 << 12)
    assert unpack_param_types(packed) == tuple(kinds)


def test_frame_layout_is_twelve_words_little_endian():
    frame = MailboxFrame.build(
        OperationId.INVOKE, 0xDEAD,
        [ParamKind.VALUE_IN, ParamKind.NONE, ParamKind.NONE, ParamKind.NONE],
        gp=[7, 8, 0, 0, 0, 0, 0, 0], cmd_id=42)
    raw = encode_frame(frame)
    assert type(raw) is bytes and len(raw) == MAILBOX_BYTES == 48
    assert struct.unpack("<12I", raw) == (
        2, 0xDEAD, ParamKind.VALUE_IN, 7, 8, 0, 0, 0, 0, 0, 0, 42)
    assert raw == words_to_bytes(struct.unpack("<12I", raw))


def test_frame_param_words_ownership():
    frame = MailboxFrame.build(
        OperationId.INVOKE, 1,
        [(ParamKind.VALUE_IN, 10, 11), (ParamKind.VALUE_OUT, 0, 0),
         (ParamKind.MEMREF, 64, 16), (ParamKind.VALUE_INOUT, 30, 31)],
        cmd_id=9)
    assert frame.gp[0:2] == (10, 11)
    assert frame.gp[4:6] == (64, 16)
    assert frame.gp[6:8] == (30, 31)
    assert frame.kinds()[2] is ParamKind.MEMREF


def test_build_rejects_both_triples_and_flat_gp():
    with pytest.raises(InvalidFrame):
        MailboxFrame.build(OperationId.INVOKE, 1,
                           [(ParamKind.VALUE_IN, 1, 2)], gp=[1, 2])


@pytest.mark.parametrize("params, index", [
    ([(ParamKind.VALUE_IN, 1)], 0),
    ([(ParamKind.VALUE_IN, 1, 2), 5], 1),
])
def test_build_names_an_entry_that_is_no_triple(params, index):
    with pytest.raises(InvalidFrame, match=f"parameter {index} is not a"):
        MailboxFrame.build(OperationId.INVOKE, 1, params)


@pytest.mark.parametrize("argument", ["params", "gp"])
def test_build_names_a_params_or_gp_that_is_not_iterable(argument):
    with pytest.raises(InvalidFrame, match=f"{argument} must be iterable"):
        MailboxFrame.build(OperationId.INVOKE, 1, **{argument: 5})


def test_memref_bounds_validation():
    ok = MailboxFrame.build(OperationId.INVOKE, 1,
                            [(ParamKind.MEMREF, SHM_WINDOW_SIZE - 8, 8)])
    ok.validate()
    with pytest.raises(InvalidFrame):
        MailboxFrame.build(OperationId.INVOKE, 1,
                           [(ParamKind.MEMREF, SHM_WINDOW_SIZE - 8, 9)])
    # offset + length must not wrap modulo 2^32
    with pytest.raises(InvalidFrame):
        MailboxFrame.build(OperationId.INVOKE, 1,
                           [(ParamKind.MEMREF, 0xFFFFFFFF, 2)])


def test_decode_rejects_bad_operation_and_word_count():
    with pytest.raises(InvalidFrame):
        decode_frame(words_to_bytes((9,) + (0,) * 11))
    with pytest.raises(InvalidFrame):
        decode_frame(words_to_bytes((1,) * 11))
    with pytest.raises(InvalidFrame):
        decode_frame(words_to_bytes((1,) * 13))


def test_reply_round_trip():
    reply = ReplyFrame(ReturnCode.ERROR_SHORT_BUFFER, 3,
                       pack_param_types([ParamKind.MEMREF]),
                       (0, 16, 0, 0, 0, 0, 0, 0), 5)
    decoded = decode_reply(encode_reply(reply))
    assert decoded.code is ReturnCode.ERROR_SHORT_BUFFER
    assert decoded.session_id == 3
    assert decoded.gp[0:2] == (0, 16)


def test_error_for_code_maps_every_failure():
    for code in ReturnCode:
        if code is ReturnCode.SUCCESS:
            continue
        err = error_for_code(code, "x")
        assert err.code is code


def test_image_round_trip_and_caps():
    ta_uuid = uuid_mod.UUID(int=77)
    image = TAImage(ta_uuid, 3, b"payload here")
    raw = encode_image(image)
    assert raw[:4] == b"TEOD"
    assert len(raw) == IMAGE_HEADER_SIZE + 12
    back = decode_image(raw)
    assert back.uuid == ta_uuid and back.ta_kind == 3
    assert back.payload == b"payload here"
    with pytest.raises(ImageSizeError):
        encode_image(TAImage(ta_uuid, 1,
                             bytes(MAX_IMAGE_SIZE - IMAGE_HEADER_SIZE + 1)))
    with pytest.raises(ImageSizeError):
        decode_image(raw + bytes(MAX_IMAGE_SIZE))


def test_an_image_is_a_frozen_record_that_compares_by_field():
    ta_uuid = uuid_mod.UUID(int=77)
    image = TAImage(ta_uuid, 3, b"payload here")
    assert decode_image(encode_image(image)) == image
    twin = TAImage(uuid=ta_uuid, ta_kind=3, payload=b"payload here")
    assert twin == image and hash(twin) == hash(image)
    assert image != TAImage(ta_uuid, 3) and TAImage(ta_uuid, 3).payload == b""
    assert image.size == IMAGE_HEADER_SIZE + 12
    for name in ("uuid", "ta_kind", "payload", "extra"):
        with pytest.raises(AttributeError):
            setattr(image, name, None)
    assert image == (ta_uuid, 3, b"payload here")


def test_image_prefix_tolerates_trailing_zero_fill():
    ta_uuid = uuid_mod.UUID(int=5)
    raw = encode_image(TAImage(ta_uuid, 1, b"xy"))
    padded = raw + bytes(100)
    image, consumed = decode_image_prefix(padded)
    assert consumed == len(raw)
    assert image.payload == b"xy"


def test_image_bad_magic_version_length():
    ta_uuid = uuid_mod.UUID(int=5)
    raw = bytearray(encode_image(TAImage(ta_uuid, 1, b"xy")))
    for mutate, exc in (
            (lambda b: b"XXXX" + bytes(b[4:]), ImageFormatError),
            (lambda b: bytes(b[:4]) + b"\x02\x00\x00\x00" + bytes(b[8:]),
             ImageFormatError),
            (lambda b: bytes(b[:28]) + struct.pack("<I", 10 ** 6) + bytes(b[32:]),
             (ImageFormatError, ImageSizeError))):
        with pytest.raises(exc):
            decode_image(mutate(raw))


def _random_frame(rng):
    kinds, triples = [], []
    for _ in range(4):
        kind = rng.choice(ALL_KINDS)
        if kind is ParamKind.MEMREF:
            offset = rng.randrange(0, SHM_WINDOW_SIZE)
            length = rng.randrange(0, SHM_WINDOW_SIZE - offset + 1)
            triples.append((kind, offset, length))
        elif kind is ParamKind.NONE:
            triples.append((kind, 0, 0))
        else:
            triples.append((kind, rng.getrandbits(32), rng.getrandbits(32)))
        kinds.append(kind)
    return MailboxFrame.build(
        rng.choice((OperationId.OPEN, OperationId.INVOKE, OperationId.CLOSE)),
        rng.getrandbits(32), triples, cmd_id=rng.getrandbits(32))


def test_random_frame_round_trip_property():
    rng = random.Random(0xF00D)
    for _ in range(2000):
        frame = _random_frame(rng)
        frame.validate()
        raw = encode_frame(frame)
        back = decode_frame(raw)
        assert back == frame
        assert encode_frame(back) == raw


def test_rejects_oversized_words():
    with pytest.raises(InvalidFrame):
        MailboxFrame.build(OperationId.OPEN, 2 ** 32, [])
    with pytest.raises(InvalidFrame):
        MailboxFrame.build(OperationId.OPEN, 0, [(ParamKind.VALUE_IN,
                                                  2 ** 32, 0)])


def test_gp_word_count_fixed():
    frame = MailboxFrame.build(OperationId.OPEN, 0)
    assert len(frame.gp) == GP_WORDS


# Words that are not 32-bit: out of range, or not an int at all.
BAD_WORDS = (-1, 2 ** 32, 1.0, 1.5, "7", None)


def _request_words():
    frame = MailboxFrame.build(
        OperationId.INVOKE, 7,
        [(ParamKind.VALUE_IN, 1, 2), (ParamKind.MEMREF, 16, 32)], cmd_id=4)
    return (frame.operation, frame.session_id, frame.param_type, *frame.gp,
            frame.cmd_id)


def _reply_words():
    return (ReturnCode.SUCCESS, 7,
            pack_param_types([ParamKind.VALUE_INOUT, ParamKind.MEMREF]),
            3, 4, 16, 32, 0, 0, 0, 0, 4)


def _fields(words):
    """The five fields of a frame with these twelve words, as the named
    tuple constructors take them: no word is checked."""
    return words[0], words[1], words[2], tuple(words[3:11]), words[11]


# Each mailbox direction, named by its reader: writer, reader, frame type
# and the words of a well-formed frame.
_DIRECTIONS = {
    "decode_frame": (encode_frame, decode_frame, MailboxFrame,
                     _request_words),
    "decode_reply": (encode_reply, decode_reply, ReplyFrame, _reply_words),
}


@pytest.mark.parametrize("bad", BAD_WORDS, ids=repr)
@pytest.mark.parametrize("position", range(MAILBOX_WORDS))
@pytest.mark.parametrize("direction", _DIRECTIONS)
def test_decoders_reject_a_bad_word_anywhere(direction, position, bad):
    """A word that is not 32-bit never reaches the decoder of its
    direction: the writer's pack refuses it, naming the word, and the
    decoder takes nothing but the 48 bytes a pack makes."""
    encode, decode, frame, words = _DIRECTIONS[direction]
    words = list(words())
    assert decode(encode(frame(*_fields(words)))) == frame(*_fields(words))
    words[position] = bad
    with pytest.raises(InvalidFrame, match=f"word{position} "):
        encode(frame(*_fields(words)))
    with pytest.raises(InvalidFrame):
        decode(words)


@pytest.mark.parametrize("param_type", [0x4, 0x60, 0xF000, 0x10000,
                                        0xFFFFFFFF], ids=hex)
def test_decode_frame_rejects_a_32_bit_param_type_that_is_no_kind(
        param_type):
    words = list(_request_words())
    words[2] = param_type
    raw = words_to_bytes(words)
    assert len(raw) == MAILBOX_BYTES
    with pytest.raises(InvalidFrame, match="param_type|parameter"):
        decode_frame(raw)


class _Index:
    """Not an int, but struct packs it through __index__."""

    def __index__(self):
        return 1


class _Small(IntEnum):
    ONE = 1


def test_word_checks_take_int_subclasses_but_not_index_objects():
    """`build` takes an int subclass but not an `__index__` object. The
    writers pack what struct packs: an int subclass as its value, and an
    `__index__` object as its index, so the reader gets a 32-bit word
    either way."""
    for encode, decode, frame, words in _DIRECTIONS.values():
        for position in (1, 3, 11):
            plain = list(words())
            plain[position] = 1
            for word in (_Small.ONE, True, _Index()):
                packed = list(plain)
                packed[position] = word
                raw = encode(frame(*_fields(packed)))
                assert raw == encode(frame(*_fields(plain)))
                assert struct.unpack("<12I", raw)[position] == 1
                assert decode(raw) == frame(*_fields(plain))
    with pytest.raises(InvalidFrame, match="gp2 "):
        MailboxFrame.build(OperationId.INVOKE, 1, gp=[0, 0, _Index()])
    with pytest.raises(InvalidFrame, match="cmd_id "):
        MailboxFrame.build(OperationId.INVOKE, 1, cmd_id=_Index())
    assert MailboxFrame.build(OperationId.INVOKE, _Small.ONE,
                              gp=[True], cmd_id=_Small.ONE).cmd_id == 1


def _reference_kinds(word):
    """The nibble loop: four kinds, or None when the word is not valid."""
    if word & ~0xFFFF:
        return None
    kinds = []
    for i in range(PARAM_SLOTS):
        nibble = (word >> (4 * i)) & 0xF
        if nibble not in {int(kind) for kind in ParamKind}:
            return None
        kinds.append(ParamKind(nibble))
    return tuple(kinds)


def test_unpack_param_types_matches_the_nibble_loop_on_every_word():
    valid = 0
    for word in (*range(0x10000), 0x10000, 0xFFFFFFFF):
        expected = _reference_kinds(word)
        if expected is None:
            try:
                unpack_param_types(word)
            except InvalidFrame:
                continue
            pytest.fail(f"param_type {word:#x} was accepted")
        kinds = unpack_param_types(word)
        assert len(kinds) == PARAM_SLOTS, hex(word)
        assert all(got is want for got, want in zip(kinds, expected)), hex(word)
        assert pack_param_types(expected) == word
        valid += 1
    assert valid == len(ParamKind) ** PARAM_SLOTS
    assert unpack_param_types(True) == (ParamKind.VALUE_IN,) + (
        ParamKind.NONE,) * 3
    for bad in (1.0, 0.0, "1", None):
        with pytest.raises(InvalidFrame):
            unpack_param_types(bad)


def test_a_kind_that_is_not_a_member_or_an_exact_int_is_refused():
    """The kinds table is keyed on tuples, where 1.0 == True == VALUE_IN:
    neither `pack_param_types` nor `build` may take such a kind for one."""
    for bad in (1.0, 1.5, True, _Small.ONE, "1"):
        for kinds in ([bad], [bad, 0, 0, 0], [ParamKind.NONE, bad]):
            with pytest.raises(InvalidFrame, match="not a ParamKind or an int"):
                pack_param_types(kinds)
        with pytest.raises(InvalidFrame, match="not a ParamKind or an int"):
            MailboxFrame.build(OperationId.INVOKE, 1, [(bad, 5, 6)])
        with pytest.raises(InvalidFrame, match="not a ParamKind or an int"):
            MailboxFrame.build(OperationId.INVOKE, 1, [bad], gp=(5, 6))
    assert pack_param_types([1, 0, 0, 0]) == 1
    assert pack_param_types([1, 5]) == pack_param_types(
        [ParamKind.VALUE_IN, ParamKind.MEMREF]) == 0x51
    assert MailboxFrame.build(
        OperationId.INVOKE, 1, [(1, 5, 6)]).param_type == 1


def _frames():
    request = MailboxFrame.build(
        OperationId.INVOKE, 7, [(ParamKind.MEMREF, 16, 32)], cmd_id=4)
    return request, decode_reply(encode_reply(_fields(_reply_words())))


FIELDS = ("session_id", "param_type", "gp", "cmd_id")


def test_frames_are_immutable():
    request, reply = _frames()
    for frame, first in ((request, "operation"), (reply, "code")):
        for field in (first, *FIELDS):
            before = getattr(frame, field)
            with pytest.raises(AttributeError):
                setattr(frame, field, 0)
            assert getattr(frame, field) == before


def test_frames_compare_by_value_across_the_codec():
    request, reply = _frames()
    assert decode_frame(encode_frame(request)) == request
    assert decode_reply(encode_reply(reply)) == reply


@pytest.mark.parametrize("accept", [
    decode_frame, decode_reply,
    lambda words: EnclaveRuntime(0, None, Turnstile()).deliver(words)],
    ids=["decode_frame", "decode_reply", "deliver"])
def test_a_frame_object_is_not_mailbox_words(accept):
    # A frame holds five fields; the mailbox takes the 48 bytes that
    # encode_frame / encode_reply pack of it, and nothing else: not 0, 47
    # or 49 bytes, the twelve words unpacked, or a str. The core is never
    # booted, so deliver refuses the input before it looks at anything else.
    for mailbox in (*_frames(), b"", bytes(47), bytes(49),
                    _request_words(), "x" * MAILBOX_BYTES):
        with pytest.raises(InvalidFrame, match="48 bytes"):
            accept(mailbox)
