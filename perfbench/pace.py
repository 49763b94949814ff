"""Pacing: timings corrected for how fast the CPU runs at the moment.

A shared machine changes speed by a half or more, for seconds to tens of
minutes at a time.  A fixed kernel -- sums of ints of a few thousand
digits, touching no schreier code -- is timed right before every op and
once after the last.  Each op's timing is then given at the reference
speed, the speed at which the kernel takes NOMINAL_S:

    paced = raw * (NOMINAL_S / kernel) ** EXPONENT

The kernel slows down more than the workloads do when the machine does,
so the correction is partial.  EXPONENT is the slope of log(op time) on
log(kernel time), each op against its own median, over minutes of each
workload's ops run back to back on a shared 2-vCPU Xeon VM at 2.1 GHz
under CPython 3.11 (see README.md).  A change to the program
moves the op's time but not the kernel's, so it shows in full; a slow
period moves both, and mostly cancels.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# The reference speed: the kernel takes about this long on a 2.1 GHz Xeon
# under CPython 3.11 in a quiet period.
NOMINAL_S = 0.002
WINDOW = 2  # an op's pace is the median of the kernels this many steps either side
# The slopes measured were 0.69-0.81 (term), 0.57 (sequence), 0.41-0.60
# (verify) and 0.45-0.60 (cli); one exponent serves them all.
EXPONENT = 0.6

_A = 7**8000  # 6761 digits
_B = 3**15000  # 7158 digits


def kernel() -> float:
    """Seconds for a fixed run of big-int additions on the current CPU."""
    start = perf_counter()
    a, b, c = _A, _B, 0
    for _ in range(1300):
        c = a + b + c
        a, b = b, c
    return perf_counter() - start


def paced(raw_s: list[float], kernel_s: list[float]) -> list[float]:
    """Each raw timing at the reference speed.

    kernel_s[i] was timed just before op i, and kernel_s[-1] after the
    last op, so len(kernel_s) == len(raw_s) + 1.  Op i's pace is the
    median of the kernels within WINDOW steps of the pair around it,
    which keeps one disturbed kernel timing from moving an op.
    """
    if len(kernel_s) != len(raw_s) + 1:
        raise ValueError("one kernel timing before every op and one after the last")
    out = []
    for i, raw in enumerate(raw_s):
        near = kernel_s[max(0, i - WINDOW + 1): i + WINDOW + 1]
        out.append(raw * (NOMINAL_S / statistics.median(near)) ** EXPONENT)
    return out
