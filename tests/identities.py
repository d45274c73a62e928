"""Closed-form quantities that only the tests use.

Each reads library data and computes what the library itself never
needs: the rod index of an axis point and the O(1) axis term g of V with
its second derivative, the axis limit of W on a rod, the jumps of the
axis constant F across a nut and across a zero-slope rod, the
top-form pairing of two two-forms, the Hodge dual of a two-form on a
curvature pack, and the jets of exp and artanh.
"""

from __future__ import annotations

import math
from itertools import permutations

import numpy as np

from todkit import jets
from todkit.errors import DomainError, RodDataError
from todkit.jets import Jet2


def rod_index(prof, zeta):
    """Index of the rod of an AxisProfile that holds the axis point zeta."""
    k = 0
    for z in prof.rods.zs:
        if zeta > z:
            k += 1
    return k


def axis_g(prof, zeta):
    """The O(1) axis term g of V = f log rho^2 + g (away from nuts); float only."""
    total = 0.0
    for z, a in zip(prof.rods.zs, prof.rods.weights):
        s = abs(float(zeta) - float(z))
        total += float(a) * (2 * s - s * math.log(4 * s * s))
    return total


def axis_gpp(prof, zeta):
    """g'' = axis limit of V_zetazeta = -sum 2 a_i / |zeta - z_i|."""
    return -sum(2 * a / abs(zeta - z) for a, z in zip(prof.rods.weights, prof.rods.zs))


def axis_w(prof, zeta):
    """Axis limit of W on a rod with nonzero slope, from an AxisProfile."""
    i = rod_index(prof, zeta)
    fp = prof.slopes[i]
    f = prof.f(zeta)
    return (f + f * f * axis_gpp(prof, zeta) / (2 * fp * fp)) / prof.rods.c


def f_jump(rods, i):
    """Jump F_i - F_{i-1} across nut i from the axis data alone.

    Both adjacent slopes must be nonzero; use zero_slope_jump across a
    zero-slope rod.
    """
    prof = rods.profile
    if not 1 <= i <= rods.n:
        raise RodDataError(f"nut index {i} out of range")
    sl_lo, sl_hi = prof.slopes[i - 1], prof.slopes[i]
    if sl_lo == 0 or sl_hi == 0:
        raise RodDataError(f"nut {i} touches a zero-slope rod")
    f_i = prof.values[i - 1]
    return f_i * f_i * (1 / sl_hi - 1 / sl_lo) / rods.c


def zero_slope_jump(rods, i):
    """Jump F_{i+1} - F_{i-1} across the zero-slope rod i."""
    prof = rods.profile
    if not 1 <= i <= rods.n - 1 or prof.slopes[i] != 0:
        raise RodDataError(f"rod {i} is not an interior zero-slope rod")
    f_i = prof.values[i - 1]
    gap = rods.zs[i] - rods.zs[i - 1]
    sl_lo, sl_hi = prof.slopes[i - 1], prof.slopes[i + 1]
    return -(2 * f_i * gap - f_i * f_i * (1 / sl_hi - 1 / sl_lo)) / rods.c


def wedge_pairing(om, eta):
    """Top-form coefficient of om ^ eta in the chart basis."""
    P = om.values()
    Q = eta.values()
    return float(
        P[0, 1] * Q[2, 3] - P[0, 2] * Q[1, 3] + P[0, 3] * Q[1, 2]
        + P[1, 2] * Q[0, 3] - P[1, 3] * Q[0, 2] + P[2, 3] * Q[0, 1]
    )


# the Levi-Civita symbol: the sign of each permutation of (0, 1, 2, 3)
_EPS4 = np.zeros((4, 4, 4, 4))
for _p in permutations(range(4)):
    _EPS4[_p] = (-1) ** sum(_p[i] > _p[j] for i in range(4) for j in range(i + 1, 4))


def volume_form(pack):
    """epsilon_abcd of a curvature pack, with the chart orientation folded in."""
    return np.multiply.outer(pack.orientation * pack.sqrtg, _EPS4)


def hodge_star(pack, two_form):
    """Dual of an antisymmetric (0,2) component array."""
    up = np.einsum("...ac,...bd,...cd->...ab", pack.ginv, pack.ginv, two_form)
    return 0.5 * np.einsum("...abcd,...cd->...ab", volume_form(pack), up)


def exp(jet):
    """Jet of exp at a single point."""
    v = math.exp(jet.value)
    return jets.compose(jet, [v] * (jet.order + 1))


def artanh(jet):
    """Jet of artanh as half the log ratio; the value must lie in (-1, 1)."""
    v = jet.value
    if not -1 < v < 1:
        raise DomainError("artanh", v)
    one = Jet2.const(1, jet.order)
    return (jets.log(one + jet) - jets.log(one - jet)) * 0.5
