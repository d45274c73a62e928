"""A fixed reference workload that measures how fast the host runs right now.

Shared hosts change speed by up to half again within a minute, as
neighbours load the same cores, and a 20-second run can fall wholly in a
fast or a slow spell.  The probe does a few milliseconds of the kinds of
work todkit does (pure-Python float loops, Fraction arithmetic and small
numpy calls), so its time tracks the host's speed for todkit's code.  A
timing is corrected by the factor REFERENCE_S / probe time measured next
to it, which turns it into seconds on a host where the probe takes
REFERENCE_S.  The probe is the benchmark's own code and never changes
with the program under test.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

# Roughly the probe's time per repetition on a 2-vCPU Intel Xeon
# (Sapphire Rapids, KVM) in a quiet spell, Python 3.11.7, numpy 2.4.6, so
# that corrected times read close to wall-clock times there.
REFERENCE_S = 0.0018
# Repetitions per probe.  Contention comes in bursts of milliseconds, so a
# single repetition samples it too thinly to correct a one-second command.
REPS = 6

_A = [1.0 + k * 1e-3 for k in range(15)]
_B = [2.0 - k * 1e-3 for k in range(15)]
_PLAN = [[(p, (k - p) % 15, 1 + p % 3) for p in range(k + 1)]
         for k in range(15)]
_M = np.eye(4) * 1.5


def probe():
    """Mean seconds per repetition of the reference workload, now."""
    start = time.perf_counter()
    for _ in range(REPS):
        _reference()
    return (time.perf_counter() - start) / REPS


def _reference():
    for _ in range(40):
        out = []
        for terms in _PLAN:
            s = 0.0
            for pa, pb, w in terms:
                s += w * _A[pa] * _B[pb]
            out.append(s)
    f = Fraction(1, 3)
    for k in range(200):
        f = f * Fraction(k + 1, k + 2) + Fraction(1, 7)
    for _ in range(60):
        np.linalg.inv(_M)
        np.einsum("ab,bc,cd->ad", _M, _M, _M)
