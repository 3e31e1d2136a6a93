"""The yardstick: fixed work, timed between operations, that gauges the machine.

The benchmark runs on a shared host whose speed drifts: while other guests
load it, the same work takes up to two and a half times as long, in spells
that last from milliseconds to minutes.  Within a spell execution itself is slower (the
process's CPU time grows with its wall time), so no choice of passes inside
one run removes it: a run that falls in a spell reads slow throughout.

So a timed pass also runs the yardstick: before an operation (never inside
one), whenever INTERVAL_S has passed since it last ran, it is timed REPEAT
times, and once more when the pass ends.  Each operation's time is then
scaled by REFERENCE_S over the mean of the two yardstick samplings around
it, the last one before it and the first one after it: the seconds the
operation would have taken on a machine on which the yardstick takes
REFERENCE_S, the speed of the 2-vCPU guest the benchmark was built on when
quiet.  A spell slows the yardstick and the library alike, so the scaled
times hold still while the raw ones move; run.py prints both.

The yardstick is plain exact arithmetic of the kinds the library spends its
time in: row reduction of big integers modulo 2**130 and Fraction sums.
It imports nothing from pstrata, so no change to the library changes it.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.0045  # one yardstick run on the quiet reference machine
INTERVAL_S = 0.2  # at most one sampling per this much time
REPEAT = 4  # yardstick runs per sampling

_MOD = 2**130
_rng = random.Random(7)
_ROWS = tuple(tuple(_rng.randrange(_MOD) for _ in range(16)) for _ in range(48))
_FRACTIONS = tuple(Fraction(_rng.randrange(1, 10**6), _rng.randrange(1, 64))
                   for _ in range(300))
clock = time.perf_counter


def work():
    """Echelonize a fixed 48x16 matrix modulo 2**130, then sum fractions."""
    rows = [list(r) for r in _ROWS]
    rank = 0
    for col in range(16):
        # pivot: the entry of least 2-adic valuation in this column
        best = None
        for k, r in enumerate(rows):
            x = r[col] % _MOD
            if x:
                v = (x & -x).bit_length() - 1
                if best is None or v < best[0]:
                    best = (v, k)
        if best is None:
            continue
        v, k = best
        piv = rows.pop(k)
        inv = pow(piv[col] >> v, -1, _MOD)
        for r in rows:
            f = ((r[col] >> v) * inv) % _MOD
            if f:
                for j in range(col, 16):
                    r[j] = (r[j] - f * piv[j]) % _MOD
        rank += 1
    acc = Fraction(0)
    for q in _FRACTIONS:
        acc += q * 3 // 7 - q / 11
    return rank, acc


class Yardstick:
    """Yardstick samplings of the current pass."""

    def __init__(self):
        self.samplings = []  # mean seconds of the REPEAT runs of each sampling
        self._last = None

    def start_pass(self):
        self.samplings = []
        self._last = None

    def sample(self):
        times = []
        for _ in range(REPEAT):
            t0 = clock()
            work()
            times.append(clock() - t0)
        self.samplings.append(statistics.fmean(times))
        self._last = clock()

    def between_ops(self) -> int:
        """Sample unless the last sampling was less than INTERVAL_S ago.

        Returns the index of the last sampling, the one before the next
        operation.
        """
        if self._last is None or clock() - self._last >= INTERVAL_S:
            self.sample()
        return len(self.samplings) - 1

    def mean(self) -> float:
        return statistics.fmean(self.samplings)

    def scale_after(self, k: int) -> float:
        """Reference seconds per second measured between samplings k and k + 1."""
        return REFERENCE_S / ((self.samplings[k] + self.samplings[k + 1]) / 2)
