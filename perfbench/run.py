"""teefab benchmark: seeded closed-loop workloads through the public API.

    python3 perfbench/run.py --workload invoke_stream --seed 1 \
        --seconds 21 --trace 0

Run it from a repository checkout: the package is imported from
`src/teefab` next to this directory, and scratch state (sealed storage)
lives under `.bench_tmp/` in the checkout and is removed on exit.

A run starts WORKERS fresh worker processes one after another. Each one
imports teefab, sets the workload up, and measures it for an equal share
of `--seconds`. The run reports medians over all workers' windows. Speed
differs more between processes than within one (memory layout, hash
seed), so one process per run would carry that offset into every figure.

The timed phase boots the fabric with zero DMA prices, so host time is
pure software time. Modeled DMA time is priced afterwards from a counting
wrapper around `fabric.delay` at the `teefab.bench` default prices.

Host time is reported in reference seconds: each worker's times are
rescaled by the host speed that bursts of `reference.work` measured
between its cycles (see reference.py). The `#` line before the result
gives each phase's host speed, so raw host time can be recovered.

`--trace 0` reports the end-to-end metrics; `--trace 1` runs half the time
untraced and half with span wrappers installed and reports per-layer
metrics. The last line of standard output is one JSON object; the exit
code is 0 only when every reply and every lifecycle check was correct.
"""

import argparse
import heapq
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from array import array
from pathlib import Path
from time import monotonic, perf_counter_ns, process_time_ns

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKERS = 3
SETUPS = 3                                  # per worker
# Latency and throughput are medians over windows of at least this many
# consecutive completed ops, the fewest that leave ten samples beyond the
# p99. A window holds whole cycles of every client, so that each holds the
# same mix of op kinds.
WINDOW_OPS = 1000
JOIN_GRACE_S = 60
RUN_TIMEOUT_S = 170                         # all workers together
WORKLOAD_NAMES = ("invoke_stream", "session_churn", "wallet_rounds")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("ok_ops_ratio", "ratio"),
    ("modeled_us_per_op", "sim_us"),
    ("peak_rss_mb", "MB"),
)

# (name, unit): the per-op mean of a layer's self time unless the name
# says otherwise; see README.md for each definition.
PER_LAYER = (
    ("client_api.invoke.self_us", "us"),
    ("client_api.open.self_us", "us"),
    ("client_api.close.self_us", "us"),
    ("protocol.validate.calls_per_op", "count"),
    ("protocol.validate.us", "us"),
    ("protocol.codec.us", "us"),
    ("fabric.comm_dispatch.self_us", "us"),
    ("fabric.shm_copy.us", "us"),
    ("fabric.shm_copy.bytes_per_op", "bytes"),
    ("fabric.manager_open.cold_us", "us"),
    ("fabric.manager_open.warm_us", "us"),
    ("fabric.cold_open_ratio", "ratio"),
    ("fabric.refused_per_open", "ratio"),
    ("fabric.dma.ops_per_op", "count"),
    ("fabric.dma.bytes_per_op", "bytes"),
    ("fabric.events_per_op", "count"),
    ("enclave.deliver.self_us", "us"),
    ("enclave.ta_body.us", "us"),
    ("enclave.window_gate.us", "us"),
    ("enclave.load_image.us", "us"),
    ("enclave.load_image.calls_per_op", "count"),
    ("enclave.assert_reset.us", "us"),
    ("enclave.assert_reset.calls_per_op", "count"),
    ("enclave.deassert_reset.us", "us"),
    ("enclave.zeroize.us", "us"),
    ("internal_api.crypto.sign_us", "us"),
    ("internal_api.crypto.pubkey_us", "us"),
    ("internal_api.storage.get_us", "us"),
    ("internal_api.storage.put_us", "us"),
    ("internal_api.storage.exists_us", "us"),
    ("wallet.hd.derive_us", "us"),
    ("wallet.mnemonic.seed_us", "us"),
    ("wallet.client.self_us", "us"),
    ("trace.op_us", "us"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", action="append", default=[],
                        metavar="TARGET=US",
                        help="add US reference microseconds of work to one "
                             "entry point (sensitivity self-test only)")
    parser.add_argument("--worker-dir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


class Outcome:
    """What one client thread did in a timed phase, on the process clock."""

    def __init__(self):
        self.ends = array("q")              # completion of each op, ns
        self.latencies = array("q")         # call to return, ns
        self.failed = 0
        self.cycles = 0
        self.end_ns = 0                     # process clock at the last op
        self.end_s = 0.0                    # wall time at the last op
        self.rss_kb = None
        self.errors = []


class Phase:
    """Outcome of one closed-loop timed phase, over all client threads."""

    def __init__(self, start_ns, outcomes, errors, speeds):
        self.start_ns = start_ns            # process clock at the start
        self.outcomes = outcomes
        self.speeds = speeds                # reference.speed() per cycle
        self.errors = errors + [e for o in outcomes for e in o.errors]
        self.failed = sum(o.failed for o in outcomes)
        self.ops = sum(len(o.latencies) for o in outcomes)
        self.wall_s = max((o.end_s for o in outcomes), default=0.0)
        self.cpu_s = (max((o.end_ns for o in outcomes), default=start_ns)
                      - start_ns) / 1e9
        marks = [o.rss_kb for o in outcomes if o.rss_kb is not None]
        self.rss_kb = max(marks) if len(marks) == len(outcomes) else None

    def windows(self, cycle_ops):
        """(ops_per_s, p50_ns, p99_ns) of each whole window, in order of
        completion; a phase shorter than one window is one window.
        `cycle_ops` is the op count of one cycle of every client."""
        size = min(math.ceil(WINDOW_OPS / cycle_ops) * cycle_ops, self.ops)
        out = []
        chunk = []
        window_start = self.start_ns
        for end, latency in heapq.merge(
                *(zip(o.ends, o.latencies) for o in self.outcomes)):
            chunk.append(latency)
            if len(chunk) == size:
                chunk.sort()
                out.append((size * 1e9 / (end - window_start),
                            _quantile(chunk, 0.50), _quantile(chunk, 0.99)))
                window_start = end
                chunk = []
        return out


def drive(workload, seconds, tracer=None):
    """Every client thread repeats its seeded cycle until the deadline.

    Ops are timed on the process CPU clock, not the wall clock. The process
    is pinned to one CPU and always has a runnable thread, so that clock
    runs at wall speed except while the hypervisor hands the CPU to another
    guest. Those stalls (2-30 ms, several a second on a shared host) would
    otherwise decide the p99 of a 5 ms wallet op.

    After each cycle the clients wait for one another, and one of them
    times a reference burst while the others wait and no request is in
    flight. The clock is checked there too. Op completion times leave the
    bursts out.
    """
    threads = workload.threads
    start_barrier = threading.Barrier(threads + 1)
    outcomes = [Outcome() for _ in range(threads)]
    speeds = []
    paused_ns = [0]                         # process clock spent in bursts
    stop = [False]
    start_wall_ns = perf_counter_ns()
    deadline_ns = start_wall_ns + int(seconds * 1e9)
    start_ns = process_time_ns()

    def between_cycles():
        begin = process_time_ns()
        speeds.append(reference.speed())
        paused_ns[0] += process_time_ns() - begin
        stop[0] = perf_counter_ns() >= deadline_ns

    cycle_barrier = threading.Barrier(threads, action=between_cycles)

    def client(thread):
        outcome = outcomes[thread]
        start_barrier.wait()
        try:
            cycle = workload.cycles[thread]
            op, check, prepare = workload.op, workload.check, workload.prepare
            while not stop[0]:
                for spec in cycle:
                    prepare(thread, spec)
                    begin = process_time_ns()
                    try:
                        if tracer is None:
                            reply = op(thread, spec)
                        else:
                            reply = tracer.op(lambda: op(thread, spec))
                        ok = True
                    except Exception as exc:  # a refused op is a failed op
                        ok = False
                        outcome.errors.append(f"{spec[0]}: {exc!r}")
                    end = process_time_ns()
                    outcome.ends.append(end - paused_ns[0])
                    outcome.latencies.append(end - begin)
                    if not (ok and check(thread, spec, reply)):
                        outcome.failed += 1
                outcome.cycles += 1
                if outcome.cycles == workload.rss_cycles:
                    outcome.rss_kb = resource.getrusage(
                        resource.RUSAGE_SELF).ru_maxrss
                cycle_barrier.wait()
        except Exception as exc:
            cycle_barrier.abort()           # release the other clients
            outcome.errors.append(f"client {thread} stopped: {exc!r}")
        outcome.end_ns = process_time_ns() - paused_ns[0]
        outcome.end_s = (perf_counter_ns() - start_wall_ns) / 1e9

    clients = [threading.Thread(target=client, args=(t,), daemon=True,
                                name=f"bench-client-{t}")
               for t in range(threads)]
    for thread in clients:
        thread.start()
    start_barrier.wait()
    errors = []
    for index, thread in enumerate(clients):
        thread.join(seconds + JOIN_GRACE_S)
        if thread.is_alive():
            errors.append(f"client {index} did not finish")
    phase = Phase(start_ns, outcomes, errors, speeds)
    phase.failed += workload.verify()
    return phase


def _quantile(sorted_values, q):
    """Nearest-rank quantile of an already sorted list."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


def set_up(workload_cls, seed, run_dir, import_s):
    """Boot, stage, open and warm up SETUPS times; keep the last one.

    Returns the workload and the median set-up time, import included, in
    reference seconds: each set-up is rescaled by a burst timed just
    before it.
    """
    durations = []
    workload = None
    for attempt in range(SETUPS):
        if workload is not None:
            workload.shutdown()
        speed = reference.speed(4 * reference.BURST_UNITS)
        start = process_time_ns()
        workload = workload_cls(seed, str(Path(run_dir) / f"store{attempt}"))
        try:
            workload.setup()
        except BaseException:
            workload.shutdown()
            raise
        durations.append(
            (import_s + (process_time_ns() - start) / 1e9) * speed)
    return workload, statistics.median(durations)


def timed_phase(workload, seconds, counter, tracer=None):
    """One phase plus its exact-count check, as a JSON-ready summary."""
    fabric = workload.fabric
    counter.reset()
    loads_before = fabric.load_count
    phase = drive(workload, seconds, tracer)
    loads = fabric.load_count - loads_before
    expected = sum(outcome.cycles * workload.loads_per_cycle(thread)
                   for thread, outcome in enumerate(phase.outcomes))
    if loads != expected:
        phase.errors.append(f"{loads} cold loads, expected exactly {expected}")
    rss_kb = phase.rss_kb
    if rss_kb is None:                      # too short to reach the mark
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops": phase.ops, "failed": phase.failed, "errors": phase.errors,
        "cycles": sum(o.cycles for o in phase.outcomes),
        "windows": phase.windows(sum(map(len, workload.cycles)))
        if phase.ops else [],
        "wall_s": phase.wall_s, "cpu_s": phase.cpu_s,
        "dma_ops": counter.ops, "dma_bytes": counter.bytes, "rss_kb": rss_kb,
        # A phase that failed before its first burst is reported as is.
        "speed": statistics.median(phase.speeds) if phase.speeds else 1.0,
    }


def worker(args, import_s):
    """One worker process: set up, measure, check; prints raw results."""
    import tracing
    import workloads

    workload, setup_s = set_up(workloads.WORKLOADS[args.workload], args.seed,
                               args.worker_dir, import_s)
    patcher = tracing.Patcher()
    result = {"setup_s": setup_s, "phases": []}
    try:
        counter = tracing.CountingDelay(workload.fabric.delay)
        workload.fabric.delay = counter
        for spec in args.inject:
            target, _, cost_us = spec.partition("=")
            tracing.inject(patcher, target, float(cost_us))
        if args.trace:
            result["phases"].append(
                timed_phase(workload, args.seconds / 2, counter))
            tracer = tracing.Tracer()
            tracing.install(tracer, patcher)
            events_before = len(workload.fabric.events())
            result["phases"].append(
                timed_phase(workload, args.seconds / 2, counter, tracer))
            self_ns, calls, tally, in_op_ns, op_ns = tracer.totals()
            speed = result["phases"][-1]["speed"]
            result["trace"] = {
                "self_ns": {k: ns * speed for k, ns in self_ns.items()},
                "calls": calls, "tally": tally,
                "in_op_ns": in_op_ns * speed, "op_ns": op_ns * speed,
                "events": len(workload.fabric.events()) - events_before}
        else:
            result["phases"].append(
                timed_phase(workload, args.seconds, counter))
        patcher.restore()
        result["lifecycle_errors"] = workload.lifecycle_errors()
    finally:
        patcher.restore()
        workload.shutdown()
    print(json.dumps(result))


def run_workers(args, run_dir):
    """Run WORKERS worker processes in turn; returns (results, errors)."""
    results, errors = [], []
    deadline = monotonic() + RUN_TIMEOUT_S
    for index in range(WORKERS):
        worker_dir = tempfile.mkdtemp(prefix=f"w{index}-", dir=run_dir)
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds / WORKERS),
                   "--trace", str(args.trace), "--worker-dir", worker_dir]
        for spec in args.inject:
            command += ["--inject", spec]
        # A fixed hash seed per (seed, worker) makes a run's layouts repeat.
        env = dict(os.environ,
                   PYTHONHASHSEED=str((args.seed * WORKERS + index) % 2**32))
        try:
            proc = subprocess.run(command, cwd=ROOT, env=env,
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, deadline - monotonic()))
        except subprocess.TimeoutExpired:
            errors.append(f"worker {index} overran the run's time limit")
            break
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            errors.append(f"worker {index} exited with {proc.returncode}")
            continue
        results.append(json.loads(lines[-1]))
    return results, errors


def end_to_end(results, prices):
    ns_per_op, ns_per_byte = prices
    phases = [r["phases"][0] for r in results]
    windows = [(rate / p["speed"], p50 * p["speed"], p99 * p["speed"])
               for p in phases for rate, p50, p99 in p["windows"]]
    ops = sum(p["ops"] for p in phases)
    modeled_ns = (sum(p["dma_ops"] for p in phases) * ns_per_op
                  + sum(p["dma_bytes"] for p in phases) * ns_per_byte)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "ops_per_s": statistics.median(w[0] for w in windows),
        "op_p50_us": statistics.median(w[1] for w in windows) / 1000,
        "op_p99_us": statistics.median(w[2] for w in windows) / 1000,
        "ok_ops_ratio": (ops - sum(p["failed"] for p in phases)) / ops,
        "modeled_us_per_op": modeled_ns / ops / 1000,
        "peak_rss_mb": statistics.median(p["rss_kb"] for p in phases) / 1024,
    }


def per_layer(results):
    import tracing

    self_ns, calls, tally = ({}, {}, {})
    for r in results:
        for merged, part in ((self_ns, r["trace"]["self_ns"]),
                             (calls, r["trace"]["calls"]),
                             (tally, r["trace"]["tally"])):
            for layer, value in part.items():
                merged[layer] = merged.get(layer, 0) + value

    def total(key, phase=1):
        return sum(r["phases"][phase][key] for r in results)

    def reference_s(phase):
        return sum(r["phases"][phase]["cpu_s"] * r["phases"][phase]["speed"]
                   for r in results)

    def trace_total(key):
        return sum(r["trace"][key] for r in results)

    ops = total("ops")

    def us(layer):
        return self_ns.get(layer, 0) / ops / 1000

    def per_call_us(layer):
        return self_ns[layer] / calls[layer] / 1000 if calls.get(layer) \
            else 0.0

    def per_op(layer):
        return calls.get(layer, 0) / ops

    opens = sum(calls.get(layer, 0) for layer in (
        tracing.OPEN_COLD, tracing.OPEN_WARM, tracing.OPEN_REFUSED))
    untraced_rate = total("ops", 0) / reference_s(0)
    return {
        "client_api.invoke.self_us": us("client_api.invoke"),
        "client_api.open.self_us": us("client_api.open"),
        "client_api.close.self_us": us("client_api.close"),
        "protocol.validate.calls_per_op": per_op("protocol.validate"),
        "protocol.validate.us": us("protocol.validate"),
        "protocol.codec.us": us("protocol.codec"),
        "fabric.comm_dispatch.self_us": us("fabric.comm_dispatch"),
        "fabric.shm_copy.us": us("fabric.shm_copy"),
        "fabric.shm_copy.bytes_per_op": tally.get("fabric.shm_copy", 0) / ops,
        "fabric.manager_open.cold_us": per_call_us(tracing.OPEN_COLD),
        "fabric.manager_open.warm_us": per_call_us(tracing.OPEN_WARM),
        "fabric.cold_open_ratio":
            calls.get(tracing.OPEN_COLD, 0) / opens if opens else 0.0,
        "fabric.refused_per_open":
            calls.get(tracing.OPEN_REFUSED, 0) / opens if opens else 0.0,
        "fabric.dma.ops_per_op": total("dma_ops") / ops,
        "fabric.dma.bytes_per_op": total("dma_bytes") / ops,
        "fabric.events_per_op": trace_total("events") / ops,
        "enclave.deliver.self_us": us(tracing.DELIVER),
        "enclave.ta_body.us": us("enclave.ta_body"),
        "enclave.window_gate.us": us("enclave.window_gate"),
        "enclave.load_image.us": us("enclave.load_image"),
        "enclave.load_image.calls_per_op": per_op("enclave.load_image"),
        "enclave.assert_reset.us": us("enclave.assert_reset"),
        "enclave.assert_reset.calls_per_op": per_op("enclave.assert_reset"),
        "enclave.deassert_reset.us": us("enclave.deassert_reset"),
        "enclave.zeroize.us": us("enclave.zeroize"),
        "internal_api.crypto.sign_us": us("internal_api.crypto.sign"),
        "internal_api.crypto.pubkey_us": us("internal_api.crypto.pubkey"),
        "internal_api.storage.get_us": us("internal_api.storage.get"),
        "internal_api.storage.put_us": us("internal_api.storage.put"),
        "internal_api.storage.exists_us": us("internal_api.storage.exists"),
        "wallet.hd.derive_us": us("wallet.hd.derive"),
        "wallet.mnemonic.seed_us": us("wallet.mnemonic.seed"),
        "wallet.client.self_us": us("wallet.client"),
        "trace.op_us": trace_total("op_ns") / ops / 1000,
        "trace.coverage": trace_total("in_op_ns") / trace_total("op_ns"),
        "trace.overhead": (ops / reference_s(1)) / untraced_rate,
    }


def report(args, results, errors):
    """Aggregate the workers' results and print the final JSON line."""
    from teefab.bench import DEFAULT_NS_PER_BYTE, DEFAULT_NS_PER_OP

    prices = (DEFAULT_NS_PER_OP, DEFAULT_NS_PER_BYTE)
    phases = [p for r in results for p in r["phases"]]
    errors = errors + [e for p in phases for e in p["errors"]]
    errors += [e for r in results for e in r["lifecycle_errors"]]
    attempted = sum(p["ops"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    metrics = {}
    if len(results) < WORKERS or not all(p["ops"] for p in phases):
        errors.append("a worker failed or a timed phase completed no op")
    elif args.trace:
        metrics = per_layer(results)
    else:
        metrics = end_to_end(results, prices)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    for error in errors[:20]:
        print(f"error: {error}", file=sys.stderr)
    correct = failed == 0 and not errors
    speeds = ",".join(f"{p['speed']:.3f}" for p in phases)
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"workers={len(results)} ops={attempted} "
          f"cycles={sum(p['cycles'] for p in phases)} "
          f"wall_s={sum(p['wall_s'] for p in phases):.3f} "
          f"process_clock_s={sum(p['cpu_s'] for p in phases):.3f} "
          f"host_speed={speeds} "
          f"reference_units_per_s={reference.UNITS_PER_S} "
          f"dma_price_ns_per_op={prices[0]} "
          f"dma_price_ns_per_byte={prices[1]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def pin_to_one_cpu():
    """Run every thread of this process on one CPU.

    The interpreter lock lets one Python thread run at a time, so pinning
    costs the simulator no parallelism it could use. Unpinned, each lock
    hand-off between client and enclave threads can cross CPUs, and on a
    shared 2-vCPU host that made throughput swing by 2x and p99 by 5x
    between runs of the same code. Threads and worker processes inherit
    the mask, so this must run before any of them starts.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None):
    args = _parse_args(argv)
    pin_to_one_cpu()
    if not (ROOT / "src" / "teefab" / "__init__.py").is_file():
        print(f"error: no teefab sources under {ROOT / 'src'}; run from a "
              f"repository checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    start = process_time_ns()
    import teefab

    import_s = (process_time_ns() - start) / 1e9
    if Path(teefab.__file__).resolve().parent != ROOT / "src" / "teefab":
        print(f"error: imported teefab from {teefab.__file__}",
              file=sys.stderr)
        return 2
    if args.worker_dir:
        worker(args, import_s)
        return 0
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        return report(args, *run_workers(args, run_dir))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
