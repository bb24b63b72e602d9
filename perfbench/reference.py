"""Host-speed reference: a fixed unit of interpreter and big-integer work.

The shared 2-vCPU host these figures were taken on ran up to 1.8x faster
than usual for seconds at a time. Such a spell moves every figure of a
run, and a 10-run set that mixed slow and fast runs spread by 0.3-0.45
(IQR over median). A burst of this work, timed between slices of
`invoke_stream`, followed those spells: over 9 minutes of 3 s bins its
rate correlated at 0.92 with the workload's throughput, and dividing by
it cut the bins' spread from 0.18 to 0.07. A pure interpreter kernel
(objects, dicts, bytes) correlated as well but overshot fast spells by
20% and more, so this one uses 256-bit modular arithmetic, which the
wallet's curve code also spends its time on.

`run.py` reports host time rescaled to UNITS_PER_S: a time in "reference
µs" is what it would have taken on a host that runs UNITS_PER_S units of
`work` a second, about this host's usual speed.
"""

from time import thread_time_ns

UNITS_PER_S = 150_000
BURST_UNITS = 1000                          # 6.7 ms at reference speed
_P = 2**256 - 2**32 - 977                   # the secp256k1 field prime
_START = (0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
          3)


def work(units):
    """Run `units` fixed units of work; returns a value so none is skipped."""
    x, y = _START
    for _ in range(units):
        for _ in range(4):
            x = (x * x + y) % _P
            y = (y * x) % _P
    return x


def speed(units=BURST_UNITS):
    """This host's speed now, relative to UNITS_PER_S (above 1 is faster).

    The burst is timed on the calling thread's CPU clock, so neither
    hypervisor steal nor another thread of this process taking the
    interpreter lock counts against the host.
    """
    start = thread_time_ns()
    work(units)
    return units * 1e9 / (thread_time_ns() - start) / UNITS_PER_S
