"""Property check at the window's grants, against a byte model. A memref
is a TA's only path into the window: through it, a TA reads exactly the
bytes of the slice its request's words grant, and writes only there, or
is refused with AccessDeniedError."""

import uuid as uuid_mod

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, seed, settings, strategies as st

from teefab.enclave import (
    TA_KIND_ECHO,
    EnclaveRuntime,
    TaParams,
    ta_factory,
)
from teefab.fabric import Turnstile
from teefab.protocol import (
    SHM_WINDOW_SIZE,
    WORD_MASK,
    AccessDeniedError,
    ParamKind,
)

NONE, MEMREF = ParamKind.NONE, ParamKind.MEMREF


def _fits(offset, length, size):
    return 0 <= offset and 0 <= length and offset + length <= size


@st.composite
def memref_requests(draw):
    """A memref's words as `decode_frame` lets them through (the slice in
    the window), the length word the TA may report before it asks for the
    memref, and accesses at and around the slice's edges."""
    length = draw(st.integers(0, 40))
    offset = draw(st.one_of(st.integers(0, 64),
                            st.just(SHM_WINDOW_SIZE - length)))
    reported = draw(st.one_of(st.none(), st.integers(0, 80),
                              st.just(WORD_MASK)))
    around = st.integers(-2, length + 2)
    accesses = draw(st.lists(st.tuples(
        around, st.one_of(st.none(), around), st.booleans()),
        min_size=1, max_size=6))
    return offset, length, reported, accesses


@seed(0x7EEFAB)
@settings(database=None, deadline=None, max_examples=120)
@given(request=memref_requests())
def test_a_memref_reads_exactly_its_slice_or_refuses(request):
    offset, length, reported, accesses = request
    core = EnclaveRuntime(0, None, Turnstile())
    core.deassert_reset(uuid_mod.UUID(int=1), TA_KIND_ECHO, 0,
                        ta_factory(TA_KIND_ECHO))
    model = bytearray((i * 7 + 3) % 251 for i in range(SHM_WINDOW_SIZE))
    core.window.write(0, model)
    params = TaParams((MEMREF, NONE, NONE, NONE),
                      (offset, length) + (0,) * 6, core)
    if reported is not None:
        params.set_memref_length(0, reported)
    ref = params.memref(0)
    assert ref.length == length
    for serial, (at, size, write) in enumerate(accesses):
        if write:
            size = max(size or 0, 0)
            data = bytes([0x80 + serial]) * size
            try:
                ref.write(data, at)
            except AccessDeniedError:
                assert not _fits(at, size, length)
            else:
                assert _fits(at, size, length)
                model[offset + at:offset + at + size] = data
            continue
        wanted = length - at if size is None else size
        try:
            got = ref.read(at, size)
        except AccessDeniedError:
            assert not _fits(at, wanted, length)
        else:
            assert _fits(at, wanted, length)
            assert got == model[offset + at:offset + at + wanted]
    assert core.window.read(0, SHM_WINDOW_SIZE) == model
