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
from .harmonic import axis_profile


@dataclass(frozen=True)
class JunctionReport:
    """Solution of v_{j-1} = level v_j - sign v_{j+1} at middle rod j."""

    middle: int
    level: object
    sign: object
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


@dataclass(frozen=True)
class RodStructure:
    rods: object
    profile: object
    vectors: tuple
    f_constants: tuple
    adjacent_dets: tuple
    junctions: tuple


def rod_vectors(rods):
    """Period vectors of all n+1 rods, in exact arithmetic for exact rod
    data; computed once per RodData."""
    return rods.vectors


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


def _near_int(value, tol):
    return abs(value - round(value)) <= tol


def gl2z_compatibility(rods, tol=1e-9):
    """Junction reports for middle rods j = 1 .. n-1.

    A junction is compatible when v_{j-1} + eps v_{j+1} = l v_j has an
    integer level l and eps in {-1, +1}; the solved real values are
    reported either way.
    """
    vecs = rod_vectors(rods)
    tol = tol * rods.slack
    reports = []
    for j in range(1, rods.n):
        try:
            alpha, beta = express_in_basis(vecs[j - 1], vecs[j], vecs[j + 1])
        except RodDataError:
            reports.append(JunctionReport(middle=j, level=None, sign=None,
                                          ok=False, singular=True))
            continue
        eps = -beta
        ok = _near_int(alpha, tol) and min(abs(eps - 1), abs(eps + 1)) <= tol
        reports.append(JunctionReport(middle=j, level=alpha, sign=eps, ok=ok))
    return tuple(reports)


# sample heights per rod, halving from the top one
_LEVELS = 7


@np.errstate(over="ignore", invalid="ignore")
def conical_check(rods):
    """Extrapolated conical limits of all n+1 rods, in rod order; one means
    no defect.

    The quotient e^{-2nu} (S_rho^2 + S_zeta^2) / (4 S) with S the squared
    length of the rod vector is sampled above one point of each rod (its
    middle, or one span beyond the end nut of a semi-infinite rod) on
    h = rho^2 = H, H/2, ... with H = 0.04 min_gap^2 and extrapolated to
    the axis by Neville's scheme; the quotient is analytic in h so the
    extrapolation converges fast.
    Heights relative to the nut spacing make the limit independent of
    the homothety scale of the rod data.  All rods x levels points are
    evaluated in one array pass, and the quotient's powers and division
    go through ``jets.libm``; each sample keeps the bits, and each
    failing point the error, of its own per-point evaluation.
    """
    prof = axis_profile(rods)
    vecs = rod_vectors(rods)
    zetas = [float(prof._rod_point(i)) for i in range(len(vecs))]
    top = 4e-2 * rods.min_gap ** 2
    heights = tuple(top * 0.5 ** k for k in range(_LEVELS))
    f = tod.tod_fields(rods, np.tile([math.sqrt(h) for h in heights], len(vecs)),
                       np.repeat(zetas, _LEVELS), order=1)
    g = tod.tod_metric(f)
    v0, v1 = (np.repeat([float(v[k]) for v in vecs], _LEVELS) for k in (0, 1))
    # jets on the left: an array on the left would map over the jet
    S = g.entry(0, 0) * (v0 * v0) + g.entry(0, 1) * (2 * v0 * v1) \
        + g.entry(1, 1) * (v1 * v1)
    # libm's pow and the float division, which raise where numpy warns
    num = jets.libm(pow, S.partial(1, 0), 2) + jets.libm(pow, S.partial(0, 1), 2)
    values = jets.libm(operator.truediv, num, 4.0 * S.value * f.e2nu.value).tolist()
    rows = [tuple(values[k:k + _LEVELS]) for k in range(0, len(values), _LEVELS)]
    return tuple(ConicalReport(rod=i, zeta=zeta, limit=_neville_zero(heights, row),
                               heights=heights, values=row)
                 for i, (zeta, row) in enumerate(zip(zetas, rows)))


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
    vecs = rod_vectors(rods)
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
    if not all(_near_int(e, tol) for e in entries):
        raise RodDataError("normalized lattice data is not integral")
    M = tuple(tuple(round(x) for x in row) for row in M)
    images = [tuple(round(x) for x in im) for im in images]
    p_raw, q_raw = images[-1]
    p = abs(p_raw)
    if p == 0:
        raise RodDataError("leading image component vanishes")
    return AsymptoticClass(p=p, q=(-q_raw) % p, matrix=M, images=tuple(images))


def rod_structure(rods):
    """Bundle of the axis data: vectors, constants, dets, junctions."""
    prof = axis_profile(rods)
    vecs = rod_vectors(rods)
    f_consts = tuple(
        prof.f_constant(i) if prof.slopes[i] != 0 else None
        for i in range(len(vecs))
    )
    dets = tuple(
        vecs[i][0] * vecs[i + 1][1] - vecs[i][1] * vecs[i + 1][0]
        for i in range(len(vecs) - 1)
    )
    return RodStructure(rods=rods, profile=prof, vectors=vecs,
                        f_constants=f_consts, adjacent_dets=dets,
                        junctions=gl2z_compatibility(rods))
