"""Axis structure: rod vectors, conical limits, junction compatibility.

Each rod carries the Killing vector that degenerates on it, normalized
so the transverse metric closes with period 2 pi.  In (d_tau, d_y)
components these are

    v_i = (-f'_i F_i, f'_i)        on rods with nonzero slope,
    v_i = (f_i^2 / c, 0)           on zero-slope rods,

with F_i the rod constant of the twist field and f_i the constant value
of the axis profile.  Per rod the conical limit equals one for any rod
data; what can fail, and what the classification turns on, is the
integer compatibility of consecutive vectors at the junctions.  Exact
rod data gives exact vectors, and the integrality tests then run with
tolerance zero on the same code path as float data.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import jets, tod
from .errors import RodDataError


@dataclass(frozen=True)
class JunctionReport:
    """Solution of v_{j-1} = level v_j - sign v_{j+1} at middle rod j.

    distance is how far the solution is from an integer level with sign
    +-1, exact for exact data, and inf on a singular basis or for a NaN
    sign.
    """

    middle: int
    level: object
    sign: object
    distance: object
    ok: bool
    singular: bool = False


@dataclass(frozen=True)
class ConicalReport:
    rod: int
    zeta: float
    limit: float
    heights: tuple
    values: tuple


@dataclass(frozen=True)
class AsymptoticClass:
    """Lens label of the asymptotic lattice in the normalized basis."""

    p: int
    q: int
    matrix: tuple
    images: tuple

    @property
    def label(self):
        return f"L({self.p},{self.q})"


def express_in_basis(target, a, b):
    """Coefficients (alpha, beta) with target = alpha a + beta b.

    Exact over Fractions; raises RodDataError when a, b are collinear.
    """
    det = a[0] * b[1] - a[1] * b[0]
    if det == 0:
        raise RodDataError("basis vectors are collinear")
    alpha = (target[0] * b[1] - target[1] * b[0]) / det
    beta = (a[0] * target[1] - a[1] * target[0]) / det
    return alpha, beta


def int_distance(value):
    """|value - round(value)|, and inf for a value that is not finite."""
    if isinstance(value, float) and not math.isfinite(value):
        return math.inf
    return abs(value - round(value))


def gl2z_compatibility(rods, tol=1e-9):
    """Junction reports for middle rods j = 1 .. n-1.

    A junction is compatible when v_{j-1} + eps v_{j+1} = l v_j has an
    integer level l and eps in {-1, +1}, that is when its distance is at
    most tol (0 on exact data); the solved real values are reported
    either way.
    """
    vecs = rods.vectors
    tol = tol * rods.slack
    reports = []
    for j in range(1, rods.n):
        try:
            alpha, beta = express_in_basis(vecs[j - 1], vecs[j], vecs[j + 1])
        except RodDataError:
            reports.append(JunctionReport(j, None, None, math.inf, False, singular=True))
            continue
        eps = -beta
        sign_gap = min(abs(eps - 1), abs(eps + 1))
        # a NaN sign reads inf, as a level that is not finite does
        distance = max(int_distance(alpha), sign_gap if sign_gap == sign_gap else math.inf)
        reports.append(JunctionReport(j, alpha, eps, distance, distance <= tol))
    return tuple(reports)


# sample heights per rod, halving from the top one
_LEVELS = 7


def _heights(rods):
    """The sample heights h = rho^2 of every rod: H, H/2, ... with
    H = 0.04 min_gap^2."""
    top = 4e-2 * rods.min_gap ** 2
    return tuple(top * 0.5 ** k for k in range(_LEVELS))


def conical_points(rods):
    """The (rho, zeta) arrays conical_check samples, rod by rod: rho =
    sqrt(h) for each height h, above one point of the rod (its middle,
    or one span beyond the end nut of a semi-infinite rod)."""
    zetas = [float(rods.profile._rod_point(i)) for i in range(len(rods.vectors))]
    return (np.tile([math.sqrt(h) for h in _heights(rods)], len(zetas)),
            np.repeat(zetas, _LEVELS))


@np.errstate(over="ignore", invalid="ignore")
def conical_check(rods, fields=None):
    """Extrapolated conical limits of all n+1 rods, in rod order; one means
    no defect.

    The quotient e^{-2nu} (S_rho^2 + S_zeta^2) / (4 S) with S the squared
    length of the rod vector is sampled at conical_points, on h = rho^2 =
    H, H/2, ... with H = 0.04 min_gap^2, and extrapolated to the axis by
    Neville's scheme; the quotient is analytic in h so the extrapolation
    converges fast.
    Heights relative to the nut spacing make the limit independent of
    the homothety scale of the rod data.  fields are the order-1 fields
    at conical_points, or None for one tod_fields pass over them here.
    The quotient's powers and division go through ``jets.libm``; each
    sample keeps the bits, and each failing point the error, of its own
    per-point evaluation.
    """
    if fields is None:
        fields = tod.tod_fields(rods, *conical_points(rods), order=1)
    heights = _heights(rods)
    g = tod.tod_metric(fields)
    v0, v1 = (np.repeat([float(v[k]) for v in rods.vectors], _LEVELS) for k in (0, 1))
    # jets on the left: an array on the left would map over the jet
    S = g.entry(0, 0) * (v0 * v0) + g.entry(0, 1) * (2 * v0 * v1) \
        + g.entry(1, 1) * (v1 * v1)
    # libm's pow and the float division, which raise where numpy warns
    num = jets.libm(pow, S.partial(1, 0), 2) + jets.libm(pow, S.partial(0, 1), 2)
    values = jets.libm(operator.truediv, num, 4.0 * S.value * fields.e2nu.value).tolist()
    rows = [tuple(values[k:k + _LEVELS]) for k in range(0, len(values), _LEVELS)]
    return tuple(ConicalReport(rod=i, zeta=float(fields.point[1][i * _LEVELS]),
                               limit=_neville_zero(heights, row), heights=heights, values=row)
                 for i, row in enumerate(rows))


def _neville_zero(hs, ys):
    """Neville extrapolation of samples (h, y) to h = 0."""
    t = list(ys)
    n = len(t)
    for m in range(1, n):
        for k in range(n - m):
            t[k] = (hs[k + m] * t[k] - hs[k] * t[k + 1]) / (hs[k + m] - hs[k])
    return t[0]


def asymptotic_class(rods):
    """Lens label read off in the basis normalized by the two end rods.

    The unique GL(2, Z) matrix sending v_0 to (0, 1) and v_1 to (1, 0)
    is applied to every rod vector; the label is p = |first component|
    of the image of v_n and q = (-second component) mod p.
    """
    vecs = rods.vectors
    if len(vecs) < 3:
        raise RodDataError("need at least two nuts for an asymptotic label")
    v0, v1 = vecs[0], vecs[1]
    det = v0[0] * v1[1] - v0[1] * v1[0]
    if det == 0:
        raise RodDataError("end rod vectors are collinear")
    minv = ((v1[1] / det, -v1[0] / det), (-v0[1] / det, v0[0] / det))
    M = (minv[1], minv[0])
    entries = [M[0][0], M[0][1], M[1][0], M[1][1]]
    images = []
    for v in vecs:
        images.append((M[0][0] * v[0] + M[0][1] * v[1],
                       M[1][0] * v[0] + M[1][1] * v[1]))
        entries.extend(images[-1])
    tol = 1e-9 * rods.slack
    if not all(int_distance(e) <= tol for e in entries):
        raise RodDataError("normalized lattice data is not integral")
    M = tuple(tuple(round(x) for x in row) for row in M)
    images = [tuple(round(x) for x in im) for im in images]
    p_raw, q_raw = images[-1]
    p = abs(p_raw)
    if p == 0:
        raise RodDataError("leading image component vanishes")
    return AsymptoticClass(p=p, q=(-q_raw) % p, matrix=M, images=tuple(images))

