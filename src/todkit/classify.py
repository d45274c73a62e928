"""Exact classification of admissible rod structures with cone ends.

Rod data with end slopes -1 and +1 is regular only if every junction
satisfies v_{j-1} + v_{j+1} = l_j v_j with integer l_j and the conical
limit closes on every rod.  Working over exact rationals, the slope
component of the junction relation and the value relation

    a_{j+1} f_{j+1}^2 = a_j f_j^2

pin each slope sign pattern down to a small set of integer levels, and
every branch except one ends in a contradiction:

  * a junction triple of slopes all negative (or all positive) needs
    l_j >= 2 by the slope ordering but l_j < 2 by the value relation;
  * a zero-slope rod next to a monotone pair needs f^2 (1 - l_j) > 0
    with l_j >= 2;
  * for n >= 4 the first junction forces the slope after it positive
    and the last junction forces the slope before it negative, which
    cannot both hold;
  * the n = 3 mixed pattern forces levels (1, 1) and then the end
    vectors are opposite, incompatible with cone ends;
  * nonzero middle slope at n = 2 forces level 0 and opposite ends.

What survives is the n = 2 family with a zero-slope middle rod: weights
(1/2, 1/2), level 2, asymptotic lattice L(2, 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import rods as rodsmod
from . import tod
from .errors import LevelBoundError, RodDataError
from .harmonic import RodData

F = Fraction


@dataclass(frozen=True)
class SlopeData:
    """Exact axis data: slopes per rod, values and gaps, junction levels."""

    n: int
    slopes: tuple
    values: tuple
    gaps: tuple
    levels: tuple
    signs: tuple


@dataclass(frozen=True)
class JunctionResiduals:
    middle: int
    level: int
    residual1: Fraction
    residual2: Fraction
    gap_residual: Fraction | None
    sign_ok: bool

    @property
    def ok(self):
        gap_ok = self.gap_residual is None or self.gap_residual == 0
        return (self.residual1 == 0 and self.residual2 == 0 and gap_ok
                and self.sign_ok)


@dataclass(frozen=True)
class Branch:
    n: int
    pattern: tuple
    status: str
    junction: int | None
    certificate: str
    details: dict


@dataclass(frozen=True)
class ClassificationResult:
    n_max: int
    l_bound: int
    asymptotics: str
    branches: tuple
    survivors: tuple


def slope_data(rods):
    """Exact junction data extracted from rod data.

    Values are converted to Fractions, so exact verdicts need exact
    input; float input is classified by its exact binary values.
    """
    prof = rods.profile
    slopes = tuple(F(s) for s in prof.slopes)
    values = tuple(F(v) for v in prof.values)
    gaps = tuple(F(rods.zs[i]) - F(rods.zs[i - 1]) for i in range(1, rods.n))
    levels = []
    for j in range(1, rods.n):
        if slopes[j] == 0:
            levels.append(2 * slopes[j + 1] * gaps[j - 1] / values[j - 1] - 2)
        else:
            levels.append((slopes[j - 1] + slopes[j + 1]) / slopes[j])
    signs = tuple(None if rep.singular else F(rep.sign)
                  for rep in rodsmod.gl2z_compatibility(rods))
    return SlopeData(n=rods.n, slopes=slopes, values=values, gaps=gaps,
                     levels=tuple(levels), signs=signs)


def regularity_residuals(data):
    """Exact defect of every junction against the integer conditions.

    residual1 is the slope component of the junction relation with the
    level rounded to the nearest integer, residual2 the value relation,
    and gap_residual the closing condition of a zero-slope middle rod.
    """
    out = []
    for j in range(1, data.n):
        level = round(data.levels[j - 1])
        residual1 = data.slopes[j - 1] + data.slopes[j + 1] - level * data.slopes[j]
        residual2 = data.values[j] ** 2 - data.values[j - 1] ** 2 * (
            (data.slopes[j] - data.slopes[j - 1])
            / (data.slopes[j + 1] - data.slopes[j])
        )
        gap_residual = None
        if data.slopes[j] == 0:
            gap_residual = data.gaps[j - 1] - (2 + level) * data.values[j - 1] / (
                2 * data.slopes[j + 1]
            )
        sign = data.signs[j - 1]
        out.append(JunctionResiduals(
            middle=j, level=level, residual1=residual1, residual2=residual2,
            gap_residual=gap_residual, sign_ok=(sign == 1)))
    return tuple(out)


def lattice_images(levels, signs=None):
    """Integer rod-vector images propagated from the normalized end basis.

    Starts from (0, 1), (1, 0) and applies v_{j+1} = sign (l_j v_j -
    v_{j-1}) across each junction.
    """
    if signs is None:
        signs = (1,) * len(levels)
    images = [(0, 1), (1, 0)]
    for level, sign in zip(levels, signs):
        if int(level) != level or sign not in (1, -1):
            raise RodDataError("lattice propagation needs integer data")
        level = int(level)
        prev, cur = images[-2], images[-1]
        images.append((sign * (level * cur[0] - prev[0]),
                       sign * (level * cur[1] - prev[1])))
    return tuple(images)


def admissible_family_member(gap=F(1, 2), c=None):
    """Exact rod data of the surviving family, centered at the origin.

    The canonical c = -gap^2/4 makes the adjacent lattice determinants
    unimodular; any other negative c is the same metric up to homothety.
    """
    gap = F(gap)
    if not gap > 0:
        raise RodDataError("gap must be positive")
    if c is None:
        c = -(gap * gap) / 4
    return RodData(c=F(c), zs=(-gap / 2, gap / 2), weights=(F(1, 2), F(1, 2)))


def verify_n1_degenerate(rods=None):
    """Certificate that single-nut data has identically vanishing W.

    The resummed numerator of W is a sum over nut pairs and is empty for
    one nut, so W is exactly zero on the whole 6x6 grid, jets included.
    """
    if rods is None:
        rods = RodData(c=F(-1, 4), zs=(F(0),), weights=(F(1),))
    if rods.n != 1:
        raise RodDataError("certificate applies to single-nut data")
    # zeta on [-2, 2] about the nut, whatever its position
    points = [(0.1 * 2.0 ** i, float(rods.zs[0]) + (-2.0 + 4.0 * k / 5))
              for i in range(6) for k in range(6)]
    rho, zeta = np.array(points).T
    W = tod.tod_fields(rods, rho, zeta).W
    worst = max(float(np.max(np.abs(v))) for v in W.c)
    return {"degenerate": worst == 0.0, "max_abs_w_jet": worst, "points": 36}


def _sign_patterns(n):
    """Nondecreasing interior slope sign patterns with at most one zero."""
    out = []
    for neg in range(n):
        pos = n - 1 - neg
        out.append((-1,) * neg + (1,) * pos)
        if pos >= 1:
            out.append((-1,) * neg + (0,) + (1,) * (pos - 1))
    return out


_PINCH_NEG = ("slopes of the junction triple are all negative, so the "
              "integer level is at least 2 by the slope ordering, while the "
              "value relation with positive gaps forces it below 2")
_PINCH_POS = ("slopes of the junction triple are all positive, so the "
              "integer level is at least 2 by the slope ordering, while the "
              "value relation with positive gaps forces it below 2")
_ZERO_RIGHT = ("a zero-slope rod after a negative pair needs "
               "f^2 (1 - l) > 0 with integer l >= 2, which is impossible")
_ZERO_LEFT = ("a zero-slope rod before a positive pair needs "
              "f^2 (1 - l) > 0 with integer l >= 2, which is impossible")


def _classify_n2(pattern):
    sign = pattern[0]
    if sign == 0:
        level = 2
        details = {
            "weights": (F(1, 2), F(1, 2)),
            "level": level,
            "value_identity": "f_1 = gap/2 from the forced equal weights",
            "gap_equation": "gap = (2 + l) f_1 / 2, hence l = 2",
            "lattice": lattice_images((level,)),
            "lens": (2, 1),
            "moduli": "gap scale and translation; c < 0 is a homothety gauge",
        }
        return Branch(n=2, pattern=pattern, status="admissible", junction=1,
                      certificate="zero middle slope forces weights (1/2, 1/2) "
                                  "and level 2 with asymptotic lattice L(2,1)",
                      details=details)
    return Branch(n=2, pattern=pattern, status="rejected", junction=1,
                  certificate="end slopes cancel, so the junction level is 0 "
                              "and the end vectors are opposite",
                  details={"level": 0, "ends": "v_0 = -v_2"})


def _classify_n3(pattern, asymptotics):
    branches = []
    if pattern == (-1, -1):
        branches.append(Branch(3, pattern, "rejected", 1, _PINCH_NEG,
                               {"triple": "(-1, f'_1, f'_2) all negative"}))
    elif pattern == (-1, 0):
        branches.append(Branch(3, pattern, "rejected", 1, _ZERO_RIGHT,
                               {"level": "f'_0/f'_1 >= 2"}))
    elif pattern == (0, 1):
        branches.append(Branch(
            3, pattern, "rejected", 1,
            "a zero middle slope needs the neighbor slopes opposite, "
            "forcing f'_2 = 1 and breaking strict slope monotonicity",
            {"forced": "f'_2 = -f'_0 = 1 = f'_3"}))
    elif pattern == (1, 1):
        branches.append(Branch(3, pattern, "rejected", 2, _PINCH_POS,
                               {"triple": "(f'_2, f'_3, 1) all positive"}))
    elif pattern == (-1, 1):
        details = {
            "levels": "l_1 p = 1 - q and l_2 q = 1 - p with p = -f'_1, q = f'_2",
            "l1_ge_2": "gives 2p + q <= 1, but the value relation with "
                       "positive gaps needs the middle weight largest, "
                       "2p + q > 1",
            "l2_ge_2": "gives p + 2q <= 1 against p + 2q > 1, the mirror pinch",
            "forced_levels": (1, 1),
            "lattice": lattice_images((1, 1)),
            "ends": "image of v_3 is (0, -1) = -image of v_0",
        }
        branches.append(Branch(
            3, pattern, "rejected", None,
            "both levels are forced to 1 and then the end vectors are "
            "opposite, incompatible with cone ends", details))
        if asymptotics == "af":
            branches.append(Branch(
                3, pattern, "informational", None,
                "with planar ends the level (1, 1) lattice closes up; this "
                "is the three-nut toric instanton with those asymptotics",
                {"lattice": lattice_images((1, 1))}))
    return branches


def _classify_large(n, pattern):
    if pattern[0] == 0:
        return Branch(n, pattern, "rejected", 1,
                      "a zero slope on the first interior rod forces "
                      "f'_2 = 1, breaking strict slope monotonicity",
                      {"forced": "f'_2 = -f'_0 = 1"})
    if pattern[1] == -1:
        return Branch(n, pattern, "rejected", 1, _PINCH_NEG,
                      {"triple": "(f'_0, f'_1, f'_2) all negative"})
    if pattern[1] == 0:
        return Branch(n, pattern, "rejected", 1, _ZERO_RIGHT,
                      {"level": "f'_0/f'_1 >= 2"})
    if pattern[-1] == 0:
        return Branch(n, pattern, "rejected", n - 1,
                      "a zero slope on the last interior rod forces "
                      "f'_{n-2} = -1, breaking strict slope monotonicity",
                      {"forced": f"f'_{n - 2} = -f'_{n} = -1"})
    if pattern[-2] == 0:
        return Branch(n, pattern, "rejected", n - 1, _ZERO_LEFT,
                      {"level": "f'_n/f'_{n-1} >= 2"})
    return Branch(n, pattern, "rejected", n - 1, _PINCH_POS,
                  {"triple": f"(f'_{n - 2}, f'_{n - 1}, f'_{n}) all positive",
                   "two_end_lemma": "junction 1 needs the slope after it "
                                    "positive and junction n-1 needs the "
                                    "slope before it negative; from n = 4 "
                                    "on these overlap and clash"})


def search_admissible(n_max=6, l_bound=12, asymptotics="ale"):
    """Walk every nut count and slope sign pattern; collect certificates.

    The level bound is a safety check on the surviving family only; no
    level enumeration happens anywhere.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if asymptotics not in ("ale", "af"):
        raise ValueError(f"unknown asymptotics {asymptotics!r}")
    branches = []
    for n in range(1, n_max + 1):
        if n == 1:
            cert = verify_n1_degenerate()
            branches.append(Branch(
                1, (), "rejected", None,
                "single-nut data has identically vanishing W: the pair sum "
                "in the resummed numerator is empty", cert))
            continue
        for pattern in _sign_patterns(n):
            if n == 2:
                branches.append(_classify_n2(pattern))
            elif n == 3:
                branches.extend(_classify_n3(pattern, asymptotics))
            else:
                branches.append(_classify_large(n, pattern))
    survivors = tuple(b for b in branches if b.status == "admissible")
    for b in survivors:
        if b.details["level"] > l_bound:
            raise LevelBoundError(b.details["level"], l_bound)
    return ClassificationResult(n_max=n_max, l_bound=l_bound,
                                asymptotics=asymptotics,
                                branches=tuple(branches), survivors=survivors)
