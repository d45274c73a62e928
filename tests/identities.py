"""Closed-form quantities that only the tests use.

Each reads library data and computes what the library itself never
needs: the axis limit of W on a rod, the jump of the axis constant F
across a nut, and the top-form pairing of two two-forms.
"""

from __future__ import annotations

from todkit.errors import RodDataError
from todkit.harmonic import axis_profile


def axis_w(prof, zeta):
    """Axis limit of W on a rod with nonzero slope, from an AxisProfile."""
    i = prof.rod_index(zeta)
    fp = prof.slopes[i]
    f = prof.f(zeta)
    return (f + f * f * prof.gpp(zeta) / (2 * fp * fp)) / prof.rods.c


def f_jump(rods, i):
    """Jump F_i - F_{i-1} across nut i from the axis data alone.

    Both adjacent slopes must be nonzero; use rods.zero_slope_jump across
    a zero-slope rod.
    """
    prof = axis_profile(rods)
    if not 1 <= i <= rods.n:
        raise RodDataError(f"nut index {i} out of range")
    sl_lo, sl_hi = prof.slopes[i - 1], prof.slopes[i]
    if sl_lo == 0 or sl_hi == 0:
        raise RodDataError(f"nut {i} touches a zero-slope rod")
    f_i = prof.values[i - 1]
    return f_i * f_i * (1 / sl_hi - 1 / sl_lo) / rods.c


def wedge_pairing(om, eta):
    """Top-form coefficient of om ^ eta in the chart basis."""
    P = om.values()
    Q = eta.values()
    return float(
        P[0, 1] * Q[2, 3] - P[0, 2] * Q[1, 3] + P[0, 3] * Q[1, 2]
        + P[1, 2] * Q[0, 3] - P[1, 3] * Q[0, 2] + P[2, 3] * Q[0, 1]
    )
