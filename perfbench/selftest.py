"""Self-test of the benchmark itself: does it measure, and does it repeat?

    python3 perfbench/selftest.py [--seconds 12] [--pairs 3]

Run from a repository checkout. Four checks, each printed with its
numbers; the exit code is 0 only when all pass.

1. contract: BENCHMARK.json names exactly the metrics run.py prints, and
   run.py exits non-zero without a result where there is no teefab source.
2. pass-through: the DMA counter forwards every charge to the real
   DelayModel, which still busy-waits its priced cost.
3. determinism: two runs of one seed give identical exact counts.
4. sensitivity: reference work injected into one public entry point slows
   the workload that leans on it by about cost x calls-per-op in reference
   time per op (1 / ops_per_s), and leaves a workload that bypasses it
   within the benchmark's bounds. Base and injected runs alternate, and
   the medians of `--pairs` runs are compared.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

EXACT_TRACED = ("fabric.dma.ops_per_op", "fabric.dma.bytes_per_op",
                "fabric.cold_open_ratio", "protocol.validate.calls_per_op",
                "enclave.load_image.calls_per_op")

# (entry point, injected µs, leaning workload, its exact calls per op,
#  bypass workload, its exact calls per op)
SENSITIVITY = (
    ("deliver", 100, "invoke_stream", 1.0, "wallet_rounds", 3.0),
    ("manager_open", 500, "session_churn", 1.0, "invoke_stream", 0.0),
    ("ecdsa_sign", 5000, "wallet_rounds", 0.4, "session_churn", 0.0),
)
# The leaning workload's measured slowdown must land within this factor
# range of the prediction; host noise on this class of machine is ~10%.
PREDICTION_RANGE = (0.5, 1.5)


def bench(workload, seed, seconds, trace=0, inject=()):
    """One run.py process; returns (exit code, parsed result or None)."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    for target, cost_us in inject:
        command += ["--inject", f"{target}={cost_us}"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=seconds + 170)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def values(result):
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def check_contract():
    sys.path.insert(0, str(HERE))
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for key, printed in (("end_to_end", run.END_TO_END),
                         ("per_layer", run.PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in spec[key]]
        if declared != list(printed):
            problems.append(f"{key} in BENCHMARK.json differs from run.py")
    if sorted(w["name"] for w in spec["workloads"]) != \
            sorted(run.WORKLOAD_NAMES):
        problems.append("workload names differ from run.py")
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload",
             "invoke_stream", "--seed", "1", "--seconds", "1", "--trace",
             "0"], cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("run.py succeeded or printed a result without a "
                        "teefab source tree")
    print(f"contract: bare directory exit={proc.returncode}, "
          f"stderr={proc.stderr.strip()!r}")
    return problems


def check_pass_through():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from teefab.fabric import DelayModel
    import tracing

    counter = tracing.CountingDelay(DelayModel(per_byte_ns=1000,
                                               per_op_ns=50_000))
    start = perf_counter_ns()
    for nbytes in (48, 4096, 48):
        counter.charge(nbytes)
    elapsed = perf_counter_ns() - start
    priced = 3 * 50_000 + (48 + 4096 + 48) * 1000
    print(f"pass-through: counted {counter.ops} ops {counter.bytes} B, "
          f"priced {priced} ns, waited {elapsed} ns")
    problems = []
    if (counter.ops, counter.bytes) != (3, 4192):
        problems.append("counter missed a charge")
    if elapsed < priced:
        problems.append("the real DelayModel did not wait its price")
    return problems


def check_determinism(seconds):
    problems = []
    for workload in ("invoke_stream", "session_churn", "wallet_rounds"):
        seen = []
        for _ in range(2):
            code0, plain = bench(workload, 11, seconds)
            code1, traced = bench(workload, 11, seconds, trace=1)
            if code0 or code1:
                problems.append(f"{workload}: run failed")
                break
            counts = {"modeled_us_per_op":
                      values(plain)["modeled_us_per_op"]}
            counts.update({k: values(traced)[k] for k in EXACT_TRACED})
            seen.append(counts)
        print(f"determinism {workload}: {seen}")
        if len(seen) == 2 and seen[0] != seen[1]:
            problems.append(f"{workload}: exact counts differ: {seen}")
    return problems


def us_per_op(result):
    return 1e6 / values(result)["ops_per_s"]


def check_sensitivity(seconds, pairs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {}                               # (workload, target) -> results
    jobs = [(workload, None, 0) for workload in
            ("invoke_stream", "session_churn", "wallet_rounds")]
    jobs += [(workload, target, cost_us)
             for target, cost_us, leaning, _lc, bypass, _bc in SENSITIVITY
             for workload in (leaning, bypass)]
    for pair in range(pairs):
        for workload, target, cost_us in (jobs if pair % 2 == 0
                                          else reversed(jobs)):
            inject = () if target is None else ((target, cost_us),)
            code, result = bench(workload, 100 + pair, seconds, inject=inject)
            if code or result is None:
                raise RuntimeError(f"{workload} with {inject} failed")
            runs.setdefault((workload, target), []).append(result)

    def median(workload, target, metric):
        return statistics.median(
            metric(r) for r in runs[(workload, target)])

    problems = []
    report = []
    for target, cost_us, leaning, leaning_calls, bypass, bypass_calls \
            in SENSITIVITY:
        base = median(leaning, None, us_per_op)
        slowed = median(leaning, target, us_per_op)
        predicted = cost_us * leaning_calls
        ratio = (slowed - base) / predicted
        row = {"target": target, "cost_us": cost_us,
               "leaning": leaning, "base_us_per_op": base,
               "injected_us_per_op": slowed,
               "runs_us_per_op": [[us_per_op(r) for r in runs[key]]
                                  for key in ((leaning, None),
                                              (leaning, target))],
               "predicted_delta_us": predicted,
               "measured_over_predicted": ratio, "bypass": bypass,
               "bypass_calls_per_op": bypass_calls}
        if not PREDICTION_RANGE[0] <= ratio <= PREDICTION_RANGE[1]:
            problems.append(f"{target}: {leaning} moved {ratio:.2f}x the "
                            f"prediction")
        for metric, worse in (("ops_per_s", lambda b, i: (b - i) / b),
                              ("op_p50_us", lambda b, i: (i - b) / b),
                              ("op_p99_us", lambda b, i: (i - b) / b)):
            b = median(bypass, None, lambda r: values(r)[metric])
            i = median(bypass, target, lambda r: values(r)[metric])
            row[f"bypass_{metric}_worse_by"] = worse(b, i)
            if worse(b, i) > bounds[metric]:
                problems.append(f"{target}: {bypass} {metric} worse by "
                                f"{worse(b, i):.3f} > bound {bounds[metric]}")
        report.append(row)
        print("sensitivity:", json.dumps(row))
    return problems, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--pairs", type=int, default=3,
                        help="base/injected run pairs; 0 skips check 4")
    args = parser.parse_args(argv)
    problems = check_contract() + check_pass_through()
    problems += check_determinism(min(args.seconds, 3))
    report = []
    if args.pairs:
        more, report = check_sensitivity(args.seconds, args.pairs)
        problems += more
    for problem in problems:
        print(f"FAIL: {problem}")
    print(json.dumps({"passed": not problems, "sensitivity": report}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
