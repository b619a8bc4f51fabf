"""A fixed piece of work that measures the machine's speed, not the program's.

The machine's speed drifts by up to a factor of two over minutes on a
shared host, and everything slows together: this probe, set-up and the
passes.  The work is equal parts interpreter loop, small numpy and RNG
calls as in a trial, and 64x64 matrix products.  The products are small
enough that BLAS keeps each on one thread: the probe then leaves no BLAS
threads spinning to slow the next pass, and the idle-spinning BLAS threads
a pass leaves behind in the worker take the other core instead of the
probe's time (with a threaded product they slowed the probe by half).

It runs in its own interpreter, started before the measuring worker imports
``mumimo`` and with the environment the worker had then, so nothing the
program does to its own process (thread settings, imports, allocator) can
change the probe.  Protocol: the script prints ``ready`` once its inputs are
built, then for each line read from standard input runs the work once and
prints the elapsed seconds; it exits at end of input.
"""

import sys
import time

import numpy as np


def make_inputs():
    rng = np.random.default_rng(0x9E0B)
    small = rng.standard_normal((16, 8)) + 1j * rng.standard_normal((16, 8))
    block = rng.standard_normal((64, 64))
    return small, block


def work(small, block):
    acc = 0
    for i in range(150_000):
        acc += i * i
    gram = small.conj().T @ small + np.eye(8)
    for k in range(30):
        x = np.random.default_rng(k).standard_normal((16, 500))
        np.linalg.solve(gram, small.conj().T @ x)
    for _ in range(900):
        block @ block


def main():
    small, block = make_inputs()
    print("ready", flush=True)
    for _ in sys.stdin:
        start = time.perf_counter()
        work(small, block)
        print(repr(time.perf_counter() - start), flush=True)


if __name__ == "__main__":
    main()
