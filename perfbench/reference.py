"""Fixed reference work, timed just before each op to gauge the host's speed.

    python3 perfbench/reference.py THREADS

It imports numpy and scipy.optimize, as every speiserdim call does at
start-up, then runs a fixed complex-array loop on each of THREADS threads, as
the renders do, and a fixed pure-Python loop.  Each thread runs THREADS times
ARRAY_ROUNDS rounds: on two threads the array loop then takes most of the
time, as the renders take most of a sweep, and steal on either CPU stretches
it as it stretches a render, which waits for its slowest thread.

It uses nothing from speiserdim: a change to the program leaves its time as it
was, while a host that runs slower for a minute slows it as it slows the op
next to it.
"""
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.optimize  # noqa: F401

ARRAY_ROUNDS = 600
PYTHON_STEPS = 1_500_000


def array_loop(rounds: int) -> complex:
    z = np.linspace(-2.0, 2.0, 1 << 14) * (1.0 + 0.5j)
    acc = 0j
    for _ in range(rounds):
        w = z * z + 0.3
        w = np.where(np.abs(w) > 1.0, 1.0 / w, w)
        acc += np.exp(-w).sum()
    return acc


def main(threads: int) -> None:
    with ThreadPoolExecutor(threads) as pool:
        list(pool.map(array_loop, [ARRAY_ROUNDS * threads] * threads))
    total = 0
    for i in range(PYTHON_STEPS):
        total += i % 7


if __name__ == "__main__":
    main(int(sys.argv[1]))
