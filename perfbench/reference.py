"""A fixed reference loop that measures how fast the machine runs right now.

On a shared virtual machine the CPU time of the same work drifts by up to a
factor of two, in phases from under a second to minutes long, and the drift
moves a tdacsim job and this loop together. The benchmark runs the loop
right before every job and scales the job's time by
``REFERENCE_S / loop time``, the loop time being the median over the nine
jobs around it. A scaled time is the time the job would take on a machine
where the loop takes ``REFERENCE_S``.

The loop mixes a tight interpreter loop with small numpy calls and a few
calls into the benchmark's own oracle (a transfer curve, a leaky waveform,
number formatting). The tight part slows less than tdacsim's short jobs in
a slow phase of the machine and the oracle part slows more; together they
track both short and long jobs within a few percent. The loop never calls
tdacsim, so a change to the program moves the scaled times in full.
"""

from __future__ import annotations

import math
from time import thread_time

import numpy as np

import oracle

# a round figure inside the range of the loop's time (0.7-1.6 ms) on the
# 2-vCPU Xeon virtual machine the bounds were set on
REFERENCE_S = 0.001

# set-up is scaled the same way, by a fresh interpreter that imports numpy
# alone (probe.py reference); 0.1 s is inside that import's CPU time
# (0.09-0.16 s) on the same machine
REFERENCE_IMPORT_S = 0.1

_W = np.ones(64)
_T = np.linspace(0.0, 8.0, 64)


def loop():
    acc = 0.0
    d = {}
    for i in range(1500):
        acc += math.exp(-i * 1e-3) * (i & 7)
        d[i & 63] = acc
    a = np.arange(64.0)
    for _ in range(60):
        a = np.exp(-a * 1e-3) * float(a @ _W) * 1e-6 + a
    curve = oracle.transfer_curve(6, 0.7, 1.0)
    dnl, _, _ = oracle.linearity(curve)
    wave = oracle.leaky_voltage("1011001", 0.7, 0.5, 1.0, 1.0, 0.1, _T)
    text = ",".join(f"{x:.17g}" for x in wave[:24])
    return acc + float(a[-1]) + dnl + len(text) + oracle.max_overflow_exponent("1101100111", 0.3, 0.5, 1.0)


def timed():
    """CPU seconds of one run of the loop in the calling thread."""
    t0 = thread_time()
    loop()
    return thread_time() - t0
