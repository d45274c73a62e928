"""The metric fields summed nut by nut and pair by pair.

Reference for ``tod.tod_fields``, which evaluates every nut in one array
pass over a leading nut axis and sums that axis (and the nut pairs) in
the same order: each nut here gets its own jet operations, in nut order,
and the pair sums loop over i < j, so the two must agree bit for bit.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from todkit import harmonic, jets
from todkit.errors import AxisEvaluationError
from todkit.jets import Jet2


def halflog_ratio(r, z, zeta):
    """Jet of artanh(zeta/R) = (1/2) log((R+zeta)/(R-zeta)), branch-stable.

    Evaluated as sign * log((R + sign * zeta)/r), sign the sign of zeta
    (+1 at zeta = 0), per point for an array zeta.
    """
    R = jets.sqrt(r * r + z * z)
    if type(zeta) is np.ndarray:
        sign = np.where(zeta >= 0, 1.0, -1.0)
    else:
        sign = 1.0 if zeta >= 0 else -1.0
    return jets.log((R + z * sign) / r) * sign, R


def nut_terms(rods, rho, zeta, order):
    """Per-nut (a_i, s_i, artanh(s_i/R_i), R_i) jets, s_i = zeta - z_i, in nut order.

    The one per-nut evaluation; it needs rho > 0 at every point.
    """
    rho = harmonic._coordinate(rho)
    bad = harmonic._first_nonpositive(rho)
    if bad is not None:
        raise AxisEvaluationError(f"per-nut jets need rho > 0, got {bad}")
    r = Jet2.seed(rho, 0, order)
    zeta = harmonic._coordinate(zeta)
    terms = []
    for z_i, a_i in rods.floats.nuts:
        shift = zeta - z_i
        s = Jet2.seed(shift, 1, order)
        at, R = halflog_ratio(r, s, shift)
        terms.append((a_i, s, at, R))
    return terms


# float arithmetic overflows silently; on point arrays numpy would warn
# where the per-point call does not
@np.errstate(over="ignore", invalid="ignore")
def tod_fields(rods, rho, zeta, order=4, check_interior=True):
    """Metric fields W, e^2nu, F, Ward coordinates z, x and the per-nut
    jets artanh(s_i/R_i) (a list in nut order), as attributes.

    rho and zeta may be float arrays of one shape: the jets then carry one
    coefficient per point, each bit-identical to that point's own call.
    """
    if check_interior:
        rods.interior_check(rho, zeta)
    rho = harmonic._coordinate(rho)
    zeta = harmonic._coordinate(zeta)
    c, gamma, nuts = rods.floats
    terms = nut_terms(rods, rho, zeta, order)
    A = Jet2.const(0.0, order)
    B = Jet2.const(0.0, order)
    C = Jet2.const(0.0, order)
    T = Jet2.const(0.0, order)
    # A^2 C / den + x rho^2 - H resummed over pairs: the terms of order
    # R^2 cancel exactly, leaving gap-squared weighted sums (with P) that
    # keep full relative precision in the far field
    P = Jet2.const(0.0, order)
    for a_i, s, at, R in terms:
        A = A + a_i * R
        B = B + a_i / R
        C = C + a_i * (s / R)
        T = T + a_i * at
        P = P + a_i * s * R
    K = Jet2.const(0.0, order)
    M = Jet2.const(0.0, order)
    for i, (a_i, s_i, _, R_i) in enumerate(terms):
        for j in range(i + 1, len(terms)):
            a_j, s_j, _, R_j = terms[j]
            gap = nuts[j][0] - nuts[i][0]
            pair = (a_i * a_j * gap * gap) / (R_i * R_j)
            K = K - pair
            M = M + pair * (s_i + s_j)
    r = Jet2.seed(rho, 0, order)
    den = B * B * (r * r) + C * C
    W = (A / c) * K / den
    e2nu = A * K * (1.0 / c)
    F = -(A * M + P * K + gamma * den) / den / c
    return SimpleNamespace(W=W, e2nu=e2nu, F=F, z=A, x=T, artanh=[at for _, _, at, _ in terms],
                           rods=rods, point=(rho, zeta), terms=terms)

