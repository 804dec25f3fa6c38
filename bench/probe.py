"""Host-speed probe, run beside the executions on the same CPU.

Usage: python3 probe.py CPU OUT

Every 100 ms it times one fixed pure-Python loop (about 0.5 ms) and keeps the
(start, end) CLOCK_MONOTONIC ns pair in memory; on SIGTERM it writes them
to OUT as JSON and exits. On a host whose cores are shared with other
tenants, the loop's duration tracks how fast the CPU is running the
execution beside it, so dividing an execution's time by the loop's median
duration during it cancels most of the host's speed swings.
"""
from __future__ import annotations

import json
import os
import signal
import sys
import time

PERIOD_S = 0.1
LOOP_ITERATIONS = 10_000


def reference_loop() -> int:
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i
    return total


def main(cpu: int, out: str) -> int:
    os.sched_setaffinity(0, {cpu})
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    samples = []
    while not stop:
        time.sleep(PERIOD_S)
        start = time.monotonic_ns()
        reference_loop()
        samples.append((start, time.monotonic_ns()))
    with open(out, "w") as fh:
        json.dump(samples, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), sys.argv[2]))
