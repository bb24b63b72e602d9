"""Model-based check of the slot lifecycle: random sequences of opens,
invokes, faults, closes, teardowns and bare retains on a two-slot fabric,
compared after every step with a model of which TA each slot hosts. A
faulting invoke always ends its load."""

import shutil
import tempfile

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    consumes,
    invariant,
    multiple,
    rule,
)

from conftest import make_image
from teefab.client_api import Context, Direction, Operation, Value
from teefab.config import SimConfig
from teefab.enclave import IncrementTa, register_ta_kind
from teefab.fabric import Fabric
from teefab.protocol import (
    SHM_WINDOW_SIZE,
    TCM_SIZE,
    AccessDeniedError,
    OutOfEnclavesError,
    ReturnCode,
)

TA_KIND_FAULTY_INCREMENT = 253
CMD_FAULT = 1
SLOTS = 2


class FaultyIncrementTa(IncrementTa):
    """The increment TA, plus a command that faults."""

    def invoke_command(self, session, cmd_id, params):
        if cmd_id == CMD_FAULT:
            raise RuntimeError("fault on request")
        super().invoke_command(session, cmd_id, params)


register_ta_kind(TA_KIND_FAULTY_INCREMENT, FaultyIncrementTa)

# Three TAs contend for two slots; the payload leaves residue to scrub.
TAS = [make_image(TA_KIND_FAULTY_INCREMENT, tag=tag, payload=b"\xa5" * 600)
       for tag in range(3)]
ta_index = st.integers(0, len(TAS) - 1)


class SlotLifecycle(RuleBasedStateMachine):
    """The model: `hosted` maps a slot to the uuid it hosts, and `live`
    maps each session whose load is still there to its slot. A session
    whose load went away stays in the bundle as a stale handle."""

    sessions = Bundle("sessions")

    def __init__(self):
        super().__init__()
        self.storage = tempfile.mkdtemp(prefix="teefab-model-")
        self.fabric = Fabric(SimConfig(
            enclave_count=SLOTS, storage_dir=self.storage, rng_seed=7))
        self.context = Context(self.fabric)
        self.hosted = {}
        self.live = {}

    def teardown(self):
        self.context.close()
        self.fabric.shutdown()
        shutil.rmtree(self.storage, ignore_errors=True)

    def _expected_slot(self, ta_uuid):
        """(slot, cold) an open of ta_uuid gets, or None when full."""
        for slot, hosted in self.hosted.items():
            if hosted == ta_uuid:
                return slot, False
        free = [slot for slot in range(SLOTS) if slot not in self.hosted]
        return (free[0], True) if free else None

    def _end_load(self, slot):
        """The model's side of a scrub: the slot and its sessions go."""
        self.hosted.pop(slot, None)
        for session in [s for s, at in self.live.items() if at == slot]:
            del self.live[session]

    @rule(target=sessions, ta=ta_index)
    def open(self, ta):
        ta_uuid, image = TAS[ta]
        expected = self._expected_slot(ta_uuid)
        if expected is None:
            with pytest.raises(OutOfEnclavesError):
                self.context.open_session(ta_uuid, image)
            return multiple()
        session = self.context.open_session(ta_uuid, image)
        assert session.slot_index == expected[0]
        self.hosted[session.slot_index] = ta_uuid
        self.live[session] = session.slot_index
        return session

    @rule(session=sessions, value=st.integers(0, 2**32 - 1))
    def invoke(self, session, value):
        operation = Operation(Value(Direction.INOUT, value))
        if session not in self.live:
            with pytest.raises(AccessDeniedError):
                session.invoke_command(0, operation)
            return
        # Leave residue in the window for the scrub to clear.
        self.fabric.shm_write(session.slot_index, 0, b"\x5a" * 64)
        result = session.invoke_command(0, operation)
        assert result.value(0) == ((value + 1) & 0xFFFFFFFF, 0)

    @rule(session=sessions)
    def faulting_invoke(self, session):
        if session not in self.live:
            with pytest.raises(AccessDeniedError):
                session.invoke_command(CMD_FAULT)
            return
        reply = session.invoke_command(CMD_FAULT)
        assert reply.code is ReturnCode.ERROR_GENERIC
        self._end_load(session.slot_index)

    @rule(session=consumes(sessions))
    def close(self, session):
        session.close()
        assert not session.is_open
        slot = self.live.pop(session, None)
        if slot is not None and slot not in self.live.values():
            del self.hosted[slot]

    @rule(slot=st.integers(0, SLOTS - 1))
    def manager_close(self, slot):
        self.fabric.manager_close(slot)
        self._end_load(slot)

    @rule(ta=ta_index)
    def retain_then_release(self, ta):
        """A bare manager_open whose retain no OPEN follows."""
        ta_uuid, image = TAS[ta]
        expected = self._expected_slot(ta_uuid)
        if expected is None:
            with pytest.raises(OutOfEnclavesError):
                self.fabric.manager_open(ta_uuid, image)
            return
        assert self.fabric.manager_open(ta_uuid, image) == expected
        self.fabric.release_pending(expected[0])

    @invariant()
    def slots_match_the_model(self):
        self.fabric.audit()
        assert self.fabric.loaded_tas == {
            ta_uuid: slot for slot, ta_uuid in self.hosted.items()}
        for slot, row in enumerate(self.fabric.slot_snapshot()):
            if row["state"] == "FREE":
                runtime = self.fabric.slot_runtime(slot)
                assert runtime.tcm.read(0, TCM_SIZE) == bytes(TCM_SIZE)
                assert runtime.window.read(0, SHM_WINDOW_SIZE) == \
                    bytes(SHM_WINDOW_SIZE)


TestSlotLifecycle = SlotLifecycle.TestCase
TestSlotLifecycle.settings = settings(
    derandomize=True, database=None, deadline=None, max_examples=50,
    stateful_step_count=30, suppress_health_check=[HealthCheck.too_slow])
