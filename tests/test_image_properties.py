"""Property checks at the one check of an image: the header parser
and the manager's load. On any bytes, the parser either refuses them with
an image error or returns a header that re-encodes to the bytes it
covers, and the manager either loads them or refuses them with no slot
touched."""

import struct
import uuid as uuid_mod

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, seed, settings, strategies as st

from teefab.enclave import TA_KIND_ECHO, TA_KIND_INCREMENT, ta_factory
from teefab.protocol import (
    IMAGE_HEADER_SIZE,
    MAX_IMAGE_SIZE,
    WORD_MASK,
    ImageFormatError,
    ImageSizeError,
    TAImage,
    decode_image,
    decode_image_header,
    encode_image,
)

TA_KIND_UNREGISTERED = 209
STRANGER = uuid_mod.UUID(int=0x5EED, version=4)
# Where the 32-byte header keeps the uuid and payload_len.
UUID_FIELD = slice(8, 24)
PAYLOAD_LEN_FIELD = slice(28, 32)


@st.composite
def staged_bytes(draw):
    """Raw bytes now and then; otherwise an image of a registered or an
    unregistered kind, whole or broken in one place."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=96))
    kind = draw(st.sampled_from(
        (TA_KIND_INCREMENT, TA_KIND_ECHO, TA_KIND_UNREGISTERED)))
    ta_uuid = uuid_mod.UUID(bytes=draw(st.binary(min_size=16, max_size=16)))
    raw = bytearray(encode_image(
        TAImage(ta_uuid, kind, draw(st.binary(max_size=96)))))
    flaw = draw(st.sampled_from(
        ("none", "byte", "cut", "extend", "payload_len", "oversize")))
    if flaw == "byte":
        raw[draw(st.integers(0, len(raw) - 1))] = draw(st.integers(0, 255))
    elif flaw == "cut":
        del raw[draw(st.integers(0, len(raw) - 1)):]
    elif flaw == "extend":
        raw += draw(st.binary(min_size=1, max_size=32))
    elif flaw == "payload_len":
        raw[PAYLOAD_LEN_FIELD] = struct.pack("<I", draw(st.one_of(
            st.integers(0, 128), st.integers(0, WORD_MASK))))
    elif flaw == "oversize":
        # A buffer past the cap, its payload_len around the largest that fits.
        last = MAX_IMAGE_SIZE - IMAGE_HEADER_SIZE
        raw[PAYLOAD_LEN_FIELD] = struct.pack(
            "<I", draw(st.integers(last - 1, last + 1)))
        raw += bytes(MAX_IMAGE_SIZE)
    return bytes(raw)


@seed(0x7EEFAB)
@settings(database=None, deadline=None, max_examples=300)
@given(buf=staged_bytes())
def test_header_parse_refuses_or_covers_bytes_that_re_encode(buf):
    try:
        uuid_bytes, ta_kind, total = decode_image_header(buf)
    except (ImageFormatError, ImageSizeError):
        return
    assert total <= min(len(buf), MAX_IMAGE_SIZE)
    image = TAImage(uuid_mod.UUID(bytes=uuid_bytes), ta_kind,
                    buf[IMAGE_HEADER_SIZE:total])
    assert encode_image(image) == bytes(buf[:total])


@seed(0x7EEFAB)
@settings(database=None, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(staged=staged_bytes(), stranger=st.booleans())
def test_manager_loads_staged_bytes_or_refuses_them_untouched(
        fabric, staged, stranger):
    """Opened under the uuid in the bytes, or under another one."""
    if stranger or len(staged) < UUID_FIELD.stop:
        ta_uuid = STRANGER
    else:
        ta_uuid = uuid_mod.UUID(bytes=staged[UUID_FIELD])
    loads = fabric.load_count
    try:
        slot, fresh = fabric.manager_open(ta_uuid, staged)
    except (ImageFormatError, ImageSizeError):
        assert fabric.load_count == loads
        assert all(row["state"] == "FREE" for row in fabric.slot_snapshot())
    else:
        # Only a whole image of the uuid opened and of a registered kind.
        image = decode_image(staged)
        assert image.uuid == ta_uuid and ta_factory(image.ta_kind)
        assert fresh and fabric.load_count == loads + 1
        assert fabric.loaded_tas == {ta_uuid: slot}
        fabric.release_pending(slot)
        assert fabric.slot_snapshot()[slot]["state"] == "FREE"
