"""Fixed calibration kernel: how fast this machine runs twoadic-shaped code right now.

The benchmark runs on a few cores of a shared host whose speed drifts by a
quarter or more over minutes, as neighbours come and go; that drift moves a
whole run's wall times together. Every child interpreter of a run (see
worker.py) times this kernel once it is done, and run.py scales wall times by
NOMINAL_S / (mean kernel time of the run), so the reported times read as
seconds on a host running at the kernel's nominal speed.

The kernel never changes with the program under test: it is a frozen copy
of the shapes that dominate the workloads, on fixed inputs: Berlekamp-Massey
over packed ints, the shift/xor/popcount loop of the brute autocorrelation,
and a plain interpreter loop standing for construction and number theory.
Changing it or NOMINAL_S changes every reported time; do it only in a change
to the benchmark that re-measures its baseline.
"""

from __future__ import annotations

import random
import time

NOMINAL_S = 0.35  # about its mean time on a 2-vCPU x86-64 host, CPython 3.11

_RNG = random.Random(1)
_BM_BITS = [_RNG.getrandbits(1) for _ in range(40000)]
_AC_PERIOD = 20000
_AC_VALUE = _RNG.getrandbits(_AC_PERIOD)
_LOOP_N = 1_000_000


def _berlekamp_massey(bits) -> int:
    c, prev, lc, gap, seen = 1, 1, 0, 1, 0
    for n, bit in enumerate(bits):
        d = bit ^ (((c >> 1) & seen).bit_count() & 1)
        if d == 0:
            gap += 1
        elif 2 * lc <= n:
            c, prev = c ^ (prev << gap), c
            lc = n + 1 - lc
            gap = 1
        else:
            c ^= prev << gap
            gap += 1
        seen = (seen << 1) | bit
    return lc


def _autocorrelation_sum(v: int, n: int) -> int:
    mask = (1 << n) - 1
    return sum((v ^ (((v >> tau) | (v << (n - tau))) & mask)).bit_count()
               for tau in range(1, n))


def _loop(n: int) -> int:
    x = 0
    for i in range(n):
        x += i * i
    return x


def kernel_s() -> float:
    """Seconds the kernel takes now."""
    start = time.perf_counter()
    _berlekamp_massey(_BM_BITS)
    _autocorrelation_sum(_AC_VALUE, _AC_PERIOD)
    _loop(_LOOP_N)
    return time.perf_counter() - start
