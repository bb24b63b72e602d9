"""Latency bench: five fabric scenarios timed against deterministic cost floors."""

from __future__ import annotations

import statistics
import tempfile
import uuid as uuid_mod
from contextlib import ExitStack
from time import thread_time_ns
from types import SimpleNamespace

from .client_api import Context, Direction, Operation, Value
from .config import SimConfig
from .enclave import TA_KIND_INCREMENT, TA_KIND_SHMEM16
from .fabric import Fabric
from .protocol import IMAGE_HEADER_SIZE, MAX_IMAGE_SIZE, TAImage, encode_image

DEFAULT_REPETITIONS = 100
DEFAULT_NS_PER_BYTE = 1000
DEFAULT_NS_PER_OP = 50000

COLD_OVER_WARM_FLOOR = 10.0
SHM_OVER_RAW_FLOOR = 1.0

_COLD_UUID = uuid_mod.UUID("beac0000-0000-4000-8000-000000000000")
_INC_UUID = uuid_mod.UUID("beac0000-0001-4000-8000-000000000001")
_SHM_UUID = uuid_mod.UUID("beac0000-0002-4000-8000-000000000002")


class ScenarioResult(SimpleNamespace):
    """Raw samples for one scenario."""

    def __init__(self, name, samples_ns=None):
        super().__init__(name=name, samples_ns=[] if samples_ns is None
                         else samples_ns)

    @property
    def count(self):
        return len(self.samples_ns)

    @property
    def mean_ns(self):
        return statistics.fmean(self.samples_ns)

    @property
    def min_ns(self):
        return min(self.samples_ns)

    @property
    def max_ns(self):
        return max(self.samples_ns)


class BenchReport(SimpleNamespace):
    """All scenario results plus the two headline ratios."""

    def __init__(self, results, repetitions):
        super().__init__(results=results, repetitions=repetitions)

    @property
    def cold_over_warm(self):
        return (self.results["cold_open"].mean_ns
                / self.results["warm_open"].mean_ns)

    @property
    def shm_over_raw(self):
        return (self.results["invoke_shm"].mean_ns
                / self.results["invoke_raw"].mean_ns)

    def machine_lines(self):
        """Stable key=value lines for scripted consumption."""
        lines = []
        for result in self.results.values():
            lines.append(
                f"scenario={result.name} n={result.count} "
                f"mean_ns={result.mean_ns:.0f} min_ns={result.min_ns} "
                f"max_ns={result.max_ns}")
        lines.append(f"ratio=cold_over_warm value={self.cold_over_warm:.2f} "
                     f"floor={COLD_OVER_WARM_FLOOR}")
        lines.append(f"ratio=shm_over_raw value={self.shm_over_raw:.2f} "
                     f"floor={SHM_OVER_RAW_FLOOR}")
        return lines

    def render_text(self):
        """Human-readable table followed by the machine lines."""
        out = [f"latency bench, {self.repetitions} repetitions per scenario",
               "",
               f"{'scenario':<12} {'mean':>12} {'min':>12} {'max':>12}"]
        for result in self.results.values():
            out.append(f"{result.name:<12} {_fmt(result.mean_ns):>12} "
                       f"{_fmt(result.min_ns):>12} {_fmt(result.max_ns):>12}")
        out += ["",
                f"cold/warm open ratio: {self.cold_over_warm:.1f} "
                f"(floor {COLD_OVER_WARM_FLOOR:.0f})",
                f"shm/raw invoke ratio: {self.shm_over_raw:.2f} "
                f"(floor {SHM_OVER_RAW_FLOOR:.0f})",
                ""]
        out += self.machine_lines()
        return "\n".join(out)


def _fmt(ns):
    if ns >= 1_000_000:
        return f"{ns / 1_000_000:.2f} ms"
    return f"{ns / 1000:.1f} us"


def _timed(samples, call):
    """Run call, adding the CPU time it took on this thread to samples:
    while the thread waits descheduled, that clock stands still."""
    start = thread_time_ns()
    value = call()
    samples.append(thread_time_ns() - start)
    return value


def run_bench(repetitions=DEFAULT_REPETITIONS,
              per_byte_ns=DEFAULT_NS_PER_BYTE,
              per_op_ns=DEFAULT_NS_PER_OP,
              seed=0,
              storage_dir=None):
    """Run all five scenarios on a private fabric; returns a BenchReport.
    Without a storage_dir, sealed storage lives in a temporary directory
    that is removed when the run ends."""
    if repetitions < 1:
        raise ValueError(f"repetitions must be at least 1, got {repetitions}")
    # Full-size image so a cold load moves a realistic amount of data.
    cold_image = encode_image(TAImage(
        _COLD_UUID, TA_KIND_INCREMENT,
        bytes(MAX_IMAGE_SIZE - IMAGE_HEADER_SIZE)))
    inc_image = encode_image(TAImage(_INC_UUID, TA_KIND_INCREMENT))
    shm_image = encode_image(TAImage(_SHM_UUID, TA_KIND_SHMEM16))
    results = {}
    with ExitStack() as cleanup:
        if not storage_dir:
            storage_dir = cleanup.enter_context(
                tempfile.TemporaryDirectory(prefix="teefab-bench-"))
        fabric = Fabric(SimConfig(
            enclave_count=2, storage_dir=storage_dir, rng_seed=seed,
            dma_ns_per_byte=per_byte_ns, dma_ns_per_op=per_op_ns))
        cleanup.callback(fabric.shutdown)
        with Context(fabric) as context:
            results["cold_open"] = _bench_cold_open(
                fabric, context, cold_image, repetitions)
            results["warm_open"] = _bench_warm_open(
                fabric, context, cold_image, repetitions)
            results["invoke_raw"], results["invoke_shm"] = _bench_invokes(
                fabric, context, inc_image, shm_image, repetitions)
            results["close"] = _bench_close(
                fabric, context, cold_image, repetitions)
    return BenchReport(results=results, repetitions=repetitions)


def _bench_cold_open(fabric, context, image, repetitions):
    result = ScenarioResult("cold_open")
    for _ in range(repetitions):
        loads_before = fabric.load_count
        session = _timed(result.samples_ns,
                         lambda: context.open_session(_COLD_UUID, image))
        if fabric.load_count != loads_before + 1:
            raise AssertionError("cold open must run the loader exactly once")
        session.close()
        fabric.wait_idle()
    return result


def _bench_warm_open(fabric, context, image, repetitions):
    result = ScenarioResult("warm_open")
    with context.open_session(_COLD_UUID, image):
        loads_before = fabric.load_count
        for _ in range(repetitions):
            session = _timed(result.samples_ns,
                             lambda: context.open_session(_COLD_UUID, image))
            session.close()
        if fabric.load_count != loads_before:
            raise AssertionError("warm opens must never run the loader")
    fabric.wait_idle()
    return result


def _bench_invokes(fabric, context, inc_image, shm_image, repetitions):
    """invoke_raw and invoke_shm, sample by sample in turn, the order
    swapped on each round, so that host noise falls on both alike."""
    raw = ScenarioResult("invoke_raw")
    shm = ScenarioResult("invoke_shm")
    with context.open_session(_INC_UUID, inc_image) as counter, \
            context.open_session(_SHM_UUID, shm_image) as filler:
        block = filler.allocate_shared_memory(16, Direction.OUT)

        def invoke_raw(value):
            reply = _timed(raw.samples_ns, lambda: counter.invoke_command(
                0, Operation(Value(Direction.INOUT, value))))
            if reply.value(0)[0] != value + 1:
                raise AssertionError("increment reply is wrong")

        def invoke_shm(_value):
            reply = _timed(shm.samples_ns,
                           lambda: filler.invoke_command(0, Operation(block)))
            if not reply.success or block.read() != bytes(range(16)):
                raise AssertionError("shared-memory reply is wrong")

        for value in range(repetitions):
            steps = (invoke_raw, invoke_shm) if value % 2 else \
                (invoke_shm, invoke_raw)
            for step in steps:
                step(value)
    fabric.wait_idle()
    return raw, shm


def _bench_close(fabric, context, image, repetitions):
    result = ScenarioResult("close")
    with context.open_session(_COLD_UUID, image):
        for _ in range(repetitions):
            session = context.open_session(_COLD_UUID, image)
            _timed(result.samples_ns, session.close)
    fabric.wait_idle()
    return result
