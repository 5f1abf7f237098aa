"""Contention-adjusted timing.

On a shared host the same pure-Python work runs at two speeds that differ by
up to 2x, in episodes from a fraction of a second to minutes, and process
CPU time inflates with wall time, so neither clock can tell the episodes
apart.  The benchmark therefore times a fixed reference loop before and
after each job and scales the job's wall time by REFERENCE_S over the mean
of the two loop times.  Slowdowns from the host cancel out; changes in
censtab do not, since the loop never calls it.  Raw wall times are printed
alongside.
"""

from __future__ import annotations

import random
from fractions import Fraction
from time import perf_counter

# Uncontended time of `reference_work` on the machine the bounds were set on
# (x86-64, 2 vCPUs, Python 3.11.7); adjusted times read as seconds there.
REFERENCE_S = 0.00090


_P = 1000003
_N = 16
_TABLE = {
    (i, j): ((i * j + 1) % _N, Fraction(i - j or 1, i % 5 + 1))
    for i in range(_N)
    for j in range(_N)
    if (i + 2 * j) % 3 == 0
}
_M = 18
_rng = random.Random(0)
_ROWS = [[_rng.randrange(_P) for _ in range(_M)] for _ in range(_M)]


def reference_work():
    """About a millisecond of interpreter work shaped like censtab's own.

    A sparse product with Fraction coefficients over a dict table, then a
    row reduction of int rows modulo a prime: the two kinds of inner loop
    censtab runs, in about equal shares.  Under contention Fraction code
    slows down more than int code; with both, the loop slows down as much as
    the benchmark's jobs do, over Q and over GF(p) alike (within 3%).
    """
    x = [Fraction(i % 7 - 3, i % 3 + 1) for i in range(_N)]
    acc = {}
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(x):
                entry = _TABLE.get((i, j))
                if entry and yj:
                    k, c = entry
                    acc[k] = acc.get(k, 0) + xi * yj * c
    rows = [r[:] for r in _ROWS]
    for c in range(_M):
        piv = rows[c][c]
        if piv:
            inv = pow(piv, -1, _P)
            prow = [v * inv % _P for v in rows[c]]
            for r in range(c + 1, _M):
                f = rows[r][c]
                if f:
                    rows[r] = [(a - f * b) % _P for a, b in zip(rows[r], prow)]
    return acc, rows


def _reference_time():
    t = perf_counter()
    reference_work()
    return perf_counter() - t


class Clock:
    """Speed factors for consecutive intervals, one reference loop apiece."""

    def __init__(self):
        self.last = _reference_time()

    def factor(self):
        """Multiplier for the interval since the last reference loop.

        REFERENCE_S over the mean of the reference times at the interval's
        two ends; the next interval starts now.
        """
        now = _reference_time()
        f = 2 * REFERENCE_S / (self.last + now)
        self.last = now
        return f
