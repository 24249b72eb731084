"""Machine-speed calibration for the timed metrics.

The machine this benchmark was written on changes speed by up to 1.8x,
for seconds to minutes at a time, as other tenants come and go.  Raw
wall times from runs minutes apart therefore spread by a quarter or
more.  Just before and just after each block of timed work, with the
program idle, `speed_s()` times a fixed micro pass over and over and
takes the mean.  The block's seconds are scaled by NOMINAL_S / the mean
of those two means, so a scaled time reads as seconds on the machine in
a state where one micro pass takes NOMINAL_S.  The machine flips between
a fast and a slow state within a fraction of a second, so the mean,
which weighs the two states by the time spent in each, tracks it better
than the median, which jumps from one state to the other.  For the same
reason a measurement is noisy when short: each one lasts a tenth of the
block it follows, so that long operations, which hide more of the
machine's changes between two measurements, get longer measurements.

The micro pass is interpreted Python arithmetic, the work that dominates
stlinfer's operations today.  Of the passes tried (this one, numpy calls
on short arrays, both mixed, a pass over an 8 MB array, and a small
network-like pooling loop), it tracked train and eval operations best.
It does not use stlinfer and never runs inside a timed block.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

NOMINAL_S = 8.0e-5
# Timed work per block, at least.
BLOCK_S = 1.0
# Seconds of micro passes per measurement: SHARE of the block before it,
# at least MIN_S; FIRST_S before the first block.
SHARE = 0.1
MIN_S = 0.2
FIRST_S = 0.5


def micro_pass_s() -> float:
    """Seconds one micro pass takes now."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(600):
        acc += (i * 0.5) % 7.0
    return perf_counter() - t0


def speed_s(seconds: float) -> float:
    """Mean seconds of a micro pass, over passes run for `seconds`."""
    was_enabled = gc.isenabled()
    gc.disable()  # a collection of the program's objects must not slow the passes
    try:
        passes = []
        end = perf_counter() + seconds
        while perf_counter() < end:
            passes.append(micro_pass_s())
        return statistics.fmean(passes)
    finally:
        if was_enabled:
            gc.enable()


class Bracket:
    """Machine speed around blocks of consecutive timed intervals.

    Call `add(seconds)` after each interval; it returns the interval's
    index.  Once the open block holds BLOCK_S of timed work, the speed is
    measured and the block closes; the measurement after one block is the
    one before the next.  `close()` closes the last block.  Then
    `factors[index]` scales that interval's seconds.  Blocks keep the
    measurements' cost bounded when operations get fast: today every
    train or eval operation is longer than BLOCK_S and is a block of its
    own, while set-up repetitions share blocks of two or three.
    """

    def __init__(self):
        self.speeds = [speed_s(FIRST_S)]
        self.factors: list = []
        self._open: list = []  # seconds of the intervals in the open block

    def add(self, seconds: float) -> int:
        self._open.append(seconds)
        self.factors.append(None)
        if sum(self._open) >= BLOCK_S:
            self.close()
        return len(self.factors) - 1

    def close(self) -> None:
        if not self._open:
            return
        self.speeds.append(speed_s(max(MIN_S, SHARE * sum(self._open))))
        factor = NOMINAL_S / statistics.fmean(self.speeds[-2:])
        self.factors[-len(self._open) :] = [factor] * len(self._open)
        self._open = []
