"""Property checks at four more trust boundaries: the core's frame decode,
the framing of a sealed blob, the wallet's record parse and the staging
allocator. At each, any input either decodes to a value that re-encodes
to itself or raises the boundary's one typed error; the allocator places
each block where a first-fit interval model says it goes."""

import struct
import uuid as uuid_mod

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, seed, settings, strategies as st

from teefab.fabric import CmRegion
from teefab.internal_api.storage import (
    DeviceKey,
    SealedStorage,
    TamperedObjectError,
)
from teefab.protocol import (
    CM_ALIGNMENT,
    MAILBOX_BYTES,
    SHM_WINDOW_SIZE,
    WORD_MASK,
    InvalidFrame,
    OutOfMemoryError,
    decode_frame,
    encode_frame,
)
from teefab.wallet.ta import _CHILD_ENTRY, CHILD_TABLE_CAP, _parse_record

MEMREF = 5
VALID_KINDS = (0, 1, 2, 3, MEMREF)
_SETTINGS = dict(database=None, deadline=None)


# --- decode_frame: 48 mailbox bytes from the REE ------------------------------

def _acceptable(mailbox):
    """The model of a well-formed request: 48 bytes, read as twelve
    little-endian 32-bit words, with a known operation, four known kinds
    and every memref inside the window."""
    operation, _sid, param_type, *gp, _cmd = struct.unpack("<12I", mailbox)
    kinds = [(param_type >> (4 * i)) & 0xF for i in range(4)]
    return (operation in (1, 2, 3) and not param_type >> 16
            and all(kind in VALID_KINDS for kind in kinds)
            and all(gp[2 * i] + gp[2 * i + 1] <= SHM_WINDOW_SIZE
                    for i, kind in enumerate(kinds) if kind == MEMREF))


word = st.integers(0, WORD_MASK)


@st.composite
def mailbox_requests(draw):
    """The 48 bytes of a request that is well formed but for at most one
    flaw: an unknown operation or kind, or the upper bits of param_type
    set. Memrefs end at, inside or one byte past the window's edge, or
    start anywhere."""
    kinds = draw(st.lists(st.sampled_from(VALID_KINDS + (MEMREF,) * 3),
                          min_size=4, max_size=4))
    gp = []
    for kind in kinds:
        offset = draw(st.one_of(st.integers(0, SHM_WINDOW_SIZE), word))
        room = SHM_WINDOW_SIZE - offset
        if kind != MEMREF or room < 0:
            gp += [offset, draw(word)]
        else:
            gp += [offset, draw(st.one_of(st.integers(0, min(room, 64)),
                                          st.sampled_from((room, room + 1))))]
    words = [draw(st.sampled_from((1, 2, 3))), draw(word),
             sum(kind << (4 * i) for i, kind in enumerate(kinds)), *gp,
             draw(word)]
    flaw = draw(st.sampled_from(
        ("none", "none", "operation", "kind", "upper")))
    if flaw == "operation":
        words[0] = draw(st.sampled_from((0, 4, WORD_MASK)))
    elif flaw == "kind":
        shift = 4 * draw(st.integers(0, 3))
        words[2] = words[2] & ~(0xF << shift) \
            | draw(st.sampled_from((4, 6, 15))) << shift
    elif flaw == "upper":
        words[2] |= draw(st.sampled_from((1 << 16, 1 << 31)))
    return struct.pack("<12I", *words)


@seed(0x7EEFAB)
@settings(max_examples=200, **_SETTINGS)
@given(mailbox=st.one_of(st.binary(min_size=MAILBOX_BYTES,
                                   max_size=MAILBOX_BYTES), mailbox_requests()))
def test_decode_frame_refuses_or_re_encodes_exactly_the_model(mailbox):
    try:
        frame = decode_frame(mailbox)
    except InvalidFrame:
        assert not _acceptable(mailbox)
    else:
        assert _acceptable(mailbox)
        assert encode_frame(frame) == mailbox
        assert decode_frame(encode_frame(frame)) == frame


# --- SealedStorage.get: the framing of a sealed blob ------------------------

OWNER = uuid_mod.UUID(int=0x5EA1, version=4)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    storage = SealedStorage(tmp_path_factory.mktemp("sealed"),
                            DeviceKey.from_seed("properties"))
    return storage, storage.sealer(OWNER)


flaws = st.one_of(
    st.just(("none",)),
    st.tuples(st.just("flip"), st.integers(0, 2**16), st.integers(1, 255)),
    st.tuples(st.just("cut"), st.integers(0, 2**16)),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=8)))


@seed(0x7EEFAB)
@settings(max_examples=200, **_SETTINGS)
@given(payload=st.binary(max_size=48),
       object_id=st.binary(min_size=1, max_size=8), flaw=flaws)
def test_a_sealed_blob_opens_only_as_it_was_sealed(store, payload, object_id,
                                                  flaw):
    """Every one-byte flip, truncation or extension of a sealed blob is
    refused with TamperedObjectError; the blob as sealed opens."""
    storage, cipher = store
    storage.put(OWNER, object_id, payload, cipher)
    path = storage._path(OWNER, object_id)
    blob = bytearray(path.read_bytes())
    if flaw[0] == "flip":
        blob[flaw[1] % len(blob)] ^= flaw[2]
    elif flaw[0] == "cut":
        del blob[flaw[1] % len(blob):]
    elif flaw[0] == "extend":
        blob += flaw[1]
    path.write_bytes(bytes(blob))
    if flaw[0] == "none":
        assert storage.get(OWNER, object_id, cipher) == payload
    else:
        with pytest.raises(TamperedObjectError):
            storage.get(OWNER, object_id, cipher)


# --- wallet/ta.py _parse_record: the unsealed record ------------------------

MASTER_BYTES = 112


def _entry(index):
    """A child entry; the parse reads its point and key as opaque bytes."""
    return _CHILD_ENTRY.pack(index, bytes([index & 0xFF]) * 33,
                             bytes([~index & 0xFF]) * (_CHILD_ENTRY.size - 37))


@st.composite
def record_blobs(draw):
    """(blob, canonical): a master and a child table in any order, with
    repeats and indices past the cap, then maybe cut or extended;
    canonical when it is what the TA seals."""
    if draw(st.integers(0, 5)) == 0:
        return draw(st.binary(max_size=2 * MASTER_BYTES)), False
    if draw(st.booleans()):
        indices = draw(st.lists(st.integers(0, CHILD_TABLE_CAP + 1),
                                max_size=4))
    else:
        indices = list(range(draw(st.integers(CHILD_TABLE_CAP - 1,
                                              CHILD_TABLE_CAP + 1))))
    blob = draw(st.binary(min_size=MASTER_BYTES, max_size=MASTER_BYTES)) \
        + b"".join(_entry(index) for index in indices)
    canonical = indices == sorted(set(indices)) and all(
        index < CHILD_TABLE_CAP for index in indices)
    cut = draw(st.one_of(st.none(), st.integers(0, len(blob) - 1),
                         st.binary(min_size=1, max_size=4)))
    if cut is None:
        return blob, canonical
    return (blob + cut if isinstance(cut, bytes) else blob[:cut]), False


@seed(0x7EEFAB)
@settings(max_examples=150, **_SETTINGS)
@given(drawn=record_blobs())
def test_a_record_parses_to_what_re_encodes_to_it_or_is_refused(drawn):
    blob, canonical = drawn
    try:
        master_sk, chain_code, salt, pin_digest, children = \
            _parse_record(blob)
    except ValueError:
        assert not canonical
        return
    assert len(children) <= CHILD_TABLE_CAP
    assert b"".join((master_sk, chain_code, salt, pin_digest, *(
        _CHILD_ENTRY.pack(index, *children[index])
        for index in sorted(children)))) == blob


# --- CmRegion.alloc / free against an interval model ------------------------

def _first_fit(live, span, capacity):
    """The lowest aligned offset where span bytes fit beside the live
    blocks, or None."""
    for start in range(0, capacity, CM_ALIGNMENT):
        if start + span <= capacity and all(
                start + span <= offset or offset + size <= start
                for offset, size in live.items()):
            return start
    return None


sizes = st.one_of(st.integers(-1, 2), st.integers(CM_ALIGNMENT - 2,
                                                  CM_ALIGNMENT + 2),
                  st.integers(0, 300))


@seed(0x7EEFAB)
@settings(max_examples=150, **_SETTINGS)
@given(capacity=st.sampled_from((512, 1000, 1024)),
       ops=st.lists(st.one_of(st.tuples(st.just("alloc"), sizes),
                              st.tuples(st.just("free"), st.integers(0, 20))),
                    max_size=30))
def test_cm_region_places_blocks_where_the_interval_model_does(capacity,
                                                                ops):
    """Blocks never overlap and never pass the capacity, a zero-size block
    stakes out one byte, and a free releases exactly a live block."""
    region = CmRegion(capacity)
    live = {}
    for op, arg in ops:
        if op == "alloc":
            want = _first_fit(live, max(arg, 1), capacity) if arg >= 0 \
                else None
            try:
                got = region.alloc(arg)
            except OutOfMemoryError:
                assert want is None
            else:
                assert got == want
                live[got] = max(arg, 1)
            continue
        offset = sorted(live)[arg] if arg < len(live) else arg * CM_ALIGNMENT
        try:
            region.free(offset)
        except OutOfMemoryError:
            assert offset not in live
        else:
            del live[offset]
