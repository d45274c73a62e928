"""Axisymmetric harmonic potentials generated by rod data.

The basic blocks are the single-nut potentials

    V0(rho, zeta) = 2 R - zeta log((R + zeta)/(R - zeta)),  R^2 = rho^2 + zeta^2
    H0(rho, zeta) = zeta R + (rho^2 / 2) log((R + zeta)/(R - zeta))

with V = sum_i a_i V0(rho, zeta - z_i) and H the conjugate potential
(H_rho = -rho V_zeta, H_zeta = rho V_rho) plus a gauge constant.  The
log ratio is always evaluated as 2 artanh(zeta/R) through the
cancellation-free branch log((R + |zeta|)/rho), so jets stay accurate
both near the axis and far out.

Every field at a point is a sum over the same per-nut jets R_i and
artanh(s_i/R_i), s_i = zeta - z_i.  ``_nut_terms`` is the one place that
evaluates R_i (``_radius``), and ``_artanh`` the one place that
evaluates artanh(s_i/R_i) from those terms, for the potentials and the
Ward coordinate x only: all nuts in one array pass, as jets whose
coefficient arrays carry a leading nut axis, shape (n, *points).
``_nut_sums`` sums that axis in nut order, bit for bit as a loop over
the nuts would: over a point set as one np.add.reduce whose point axes
run inside the nut axis, so that numpy adds whole nut rows one after the
other, and for a single point, where numpy would sum the nut axis
pairwise, by that loop.  ``tod.tod_fields`` keeps the per-nut jets in its
``TodFields``, which holds the Ward coordinates z and x (the latter
summed on first read); ``potentials`` reads V and H off those fields,
and ``toda_residual`` inverts (z, x) there.  The nut-pair weights
a_i a_j (z_j - z_i)^2 behind K, M, the standard cone and the third
moment are one table, ``RodData.pairs``.  ``tod.tod_fields`` and
``RodData.interior_check`` take rho and zeta either as numbers or as
float arrays of one shape, one entry per point; a single point is the
one-point case of the same arrays, and its jets come back with float
coefficients.  See ``jets`` for how array jets round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Context
from functools import cache, cached_property
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import jets
from .errors import AxisEvaluationError, NutProximityError, RodDataError
from .jets import Jet2

_EXACT = (int, Fraction)


def tolerance_slack(values):
    """0 if every value is exact (int or Fraction), else 1: the factor on
    every tolerance a data object applies, so exact data gets tolerance 0."""
    return 0 if all(isinstance(v, _EXACT) for v in values) else 1


def _rational(v):
    """An int (not a bool) as a Fraction; anything else unchanged."""
    return Fraction(v) if isinstance(v, int) and not isinstance(v, bool) else v


def _coordinate(x):
    """A point coordinate as a float, or a point set as a float64 array."""
    return x.astype(float, copy=False) if type(x) is np.ndarray else float(x)


def _exact_text(q):
    """An exact number to 6 significant digits, for messages."""
    q = Fraction(q)
    return f"{Context(prec=6).divide(q.numerator, q.denominator).normalize():g}"


def _first_nonpositive(x):
    """The first value of x that is not > 0 (an array in C order), or None."""
    if type(x) is not np.ndarray:
        return None if x > 0 else x
    bad = ~(x > 0)
    return float(x.flat[bad.argmax()]) if bad.any() else None


# ---------------------------------------------------------------------------
# rod data


class FloatRods(NamedTuple):
    """Float copies of rod data for the per-point code."""

    c: float
    gauge: float      # the resolved H gauge constant
    nuts: tuple       # (z_i, a_i) pairs in nut order


class NutPairs(NamedTuple):
    """The nut pairs i < j and their float weights a_i a_j (z_j - z_i)^2."""

    i: np.ndarray
    j: np.ndarray
    w: np.ndarray


@cache
def _pair_indices(n):
    """The index arrays of the pairs i < j of n nuts, in the order of a
    loop over i, then j (np.triu_indices); kept per n, since rod data is
    built once per command."""
    return np.triu_indices(n, 1)


@dataclass(frozen=True)
class RodData:
    """Nut positions, weights, the constant c < 0, and the H gauge.

    gauge is either a number (the additive constant of H) or the string
    'symmetric', which picks the constant making the two semi-infinite
    axis constants satisfy F_first = -F_last.  mode 'ale' enforces
    sum(a_i) = 1; 'general' drops that one check (used e.g. to probe that
    the Toda identity holds for any harmonic V).  Every number, and the
    nut span, must be finite within the float range of the per-point view; an
    int is stored as a Fraction, and slack is 0 when all are exact (see
    tolerance_slack).
    """

    c: object
    zs: tuple
    weights: tuple
    gauge: object = "symmetric"
    mode: str = "ale"
    slack: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # int inputs are stored as Fractions, so that exact data stays
        # exact through every division (rod vectors, axis constants)
        object.__setattr__(self, "zs", tuple(map(_rational, self.zs)))
        object.__setattr__(self, "weights", tuple(map(_rational, self.weights)))
        if self.mode not in ("ale", "general"):
            raise RodDataError(f"unknown mode {self.mode!r}")
        if len(self.zs) == 0:
            raise RodDataError("need at least one nut")
        if len(self.zs) != len(self.weights):
            raise RodDataError("nut and weight counts differ")
        numbers = (self.c, *self.zs, *self.weights)
        if self.gauge != "symmetric":
            numbers += (self.gauge,)
        for v in numbers:
            try:
                finite = math.isfinite(v)
            except OverflowError:
                # exact, and beyond the float range of the per-point view
                raise RodDataError(f"rod data must be finite as a float, got {_exact_text(v)}")
            if not finite:
                raise RodDataError(f"rod data must be finite, got {v!r}")
        object.__setattr__(self, "slack", tolerance_slack(numbers))
        if not self.c < 0:
            raise RodDataError(f"c must be negative, got {self.c!r}")
        for za, zb in zip(self.zs, self.zs[1:]):
            if not za < zb:
                raise RodDataError("nut positions must be strictly increasing")
        # every length scale of the per-point code is a float of the span;
        # float() of the exact span overflows where the float subtraction does
        span = Fraction(self.zs[-1]) - Fraction(self.zs[0])
        try:
            float(span)
        except OverflowError:
            raise RodDataError("rod data must be finite as a float, got a nut span "
                               f"of {_exact_text(span)}")
        for a in self.weights:
            if not a > 0:
                raise RodDataError("weights must be positive")
        if self.mode == "ale":
            total = jets.ordered_sum(self.weights)
            if not abs(total - 1) <= 1e-12 * self.slack:
                raise RodDataError(f"ALE data needs weights summing to 1, got {total}")
        # c and gauge after the checks, whose messages show the input
        object.__setattr__(self, "c", _rational(self.c))
        object.__setattr__(self, "gauge", _rational(self.gauge))

    @property
    def n(self):
        return len(self.zs)

    @property
    def span(self):
        return self.zs[-1] - self.zs[0]

    @cached_property
    def scale(self):
        s = float(self.span)
        return s if s > 0 else 1.0

    @cached_property
    def min_gap(self):
        if self.n < 2:
            return self.scale
        return float(min(zb - za for za, zb in zip(self.zs, self.zs[1:])))

    @cached_property
    def gauge_constant(self):
        """The resolved H gauge constant, computed once by gauge_value."""
        return gauge_value(self)

    @cached_property
    def profile(self):
        """Slopes and nut values of f plus the resolved H gauge constant,
        computed once."""
        return AxisProfile(self, *_slopes_values(self), self.gauge_constant)

    @cached_property
    def vectors(self):
        """The period vectors of the n + 1 rods, computed once from the
        axis profile; exact for exact rod data."""
        prof = self.profile
        vecs = []
        for i, slope in enumerate(prof.slopes):
            if slope == 0:
                value = prof.values[i - 1 if i > 0 else 0]
                vecs.append((value * value / self.c, slope))
            else:
                vecs.append((-slope * prof.f_constant(i), slope))
        return tuple(vecs)

    @cached_property
    def floats(self):
        """c, the resolved gauge and the nuts converted to float once.

        Per-point code reads only this view; the exact paths (axis
        profiles, rod vectors, classification) keep the exact values.
        """
        return FloatRods(float(self.c), float(self.gauge_constant),
                         tuple((float(z), float(a))
                               for z, a in zip(self.zs, self.weights)))

    @cached_property
    def nut_center(self):
        """The float weighted nut centre zbar = sum a_i z_i / sum a_i, where
        the far-field polar chart is centred."""
        nuts = self.floats.nuts
        return (jets.ordered_sum(a * z for z, a in nuts)
                / jets.ordered_sum(a for _, a in nuts))

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")
    def pairs(self):
        """The NutPairs table, computed once: the weights w = a_i a_j gap
        gap, gap = z_j - z_i, from the float view, which K, M, the standard
        cone and the third moment read.  Like float arithmetic, a weight
        overflows silently to inf."""
        i, j = _pair_indices(self.n)
        zs, weights = np.array(self.floats.nuts).T
        gap = zs[j] - zs[i]
        return NutPairs(i, j, weights[i] * weights[j] * gap * gap)

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")
    def third_moment(self):
        """The float centred third moment of the nuts,
        sum_{i<j} a_i a_j (z_j - z_i)^2 (z_i + z_j - 2 zbar), summed in
        pair order from 0.0."""
        i, j, w = self.pairs
        zs = np.array([z for z, _ in self.floats.nuts])
        return float(jets.ordered_sum((w * (zs[i] + zs[j] - 2.0 * self.nut_center)).tolist()))

    @property
    def is_exact(self):
        return self.slack == 0

    def _interior_limits(self):
        """rho_min = 1e-8 of the scale, and the nut ball radius: 1e-6 of
        the smallest nut gap (of the scale for one nut)."""
        return 1e-8 * self.scale, 1e-6 * (self.min_gap if self.n > 1 else self.scale)

    def interior_check(self, rho, zeta):
        """Reject points on the axis, below rho_min, or inside a nut
        exclusion ball (see _interior_limits).

        math.hypot measures the distance to a nut.  Point arrays raise at
        their first failing point in C order, with the message that point
        gives on its own; interior_mask screens them.  Either coordinate
        may be a number when the other is an array.
        """
        if type(rho) is np.ndarray or type(zeta) is np.ndarray:
            # a number partners every point of an array
            rho, zeta = (x.astype(float, copy=False) for x in np.broadcast_arrays(rho, zeta))
            bad = ~self.interior_mask(rho, zeta)
            if bad.any():
                k = bad.argmax()
                self.interior_check(float(rho.flat[k]), float(zeta.flat[k]))
            return
        rho_min, r_nut = self._interior_limits()
        if not rho > 0:
            raise AxisEvaluationError(f"rho = {rho} is not interior")
        if rho < rho_min:
            raise AxisEvaluationError(f"rho = {rho} below rho_min = {rho_min}")
        for k, (z, _) in enumerate(self.floats.nuts):
            if math.hypot(float(rho), float(zeta) - z) < r_nut:
                raise NutProximityError(
                    f"point within {r_nut} of nut at z = {self.zs[k]}")

    def interior_mask(self, rho, zeta):
        """Whether each point of the float arrays rho and zeta, of one
        shape, passes interior_check.

        np.hypot screens the points, and math.hypot decides only those
        near a ball: the two are each within an ulp of the true distance
        (subnormals included), and the screen's margin is wider than both
        errors.
        """
        rho_min, r_nut = self._interior_limits()
        zs = np.array([z for z, _ in self.floats.nuts]).reshape((-1,) + (1,) * rho.ndim)
        with np.errstate(over="ignore"):
            s = zeta - zs
            near = np.hypot(rho, s) < r_nut * (1 + 2.0 ** -49) + 2.0 ** -1072
        if near.any():
            where = near.nonzero()
            near[where] = jets.libm(math.hypot, np.broadcast_to(rho, s.shape)[where],
                                    s[where]) < r_nut
        return (rho > 0) & ~(rho < rho_min) & ~near.any(axis=0)


# ---------------------------------------------------------------------------
# per-nut jets, the potentials and the Ward coordinates


def _radius(rr, s):
    """The jet of R = sqrt(rho^2 + s^2) from the jets rr of rho^2 and s."""
    return jets.sqrt(rr + s * s)


def _artanh(rho, s, R):
    """Jets of artanh(s/R) = (1/2) log((R+s)/(R-s)) from the per-nut jets
    s and R at the points rho, branch-stable.

    Evaluated as sign * log((R + sign * s)/rho), sign the sign of s
    (+1 at s = 0) at each entry of s's value.  Every operation is
    elementwise, so any gather of the nuts or points gets the entries'
    bits.
    """
    sign = np.where(s.value >= 0, 1.0, -1.0)
    return jets.log((R + s * sign) / Jet2.seed(rho, 0, s.order)) * sign


def _nut_terms(rods, rr, zeta, order):
    """The per-nut jets (a, s, R), s = zeta - z_i, over a nut axis.

    Every nut is evaluated in one array pass: the coefficient arrays of
    s and R have shape (n, *points), row i holding nut i, and a is the
    weight column of shape (n, 1, ...), which broadcasts against them.
    A single point is the case points = ().  The one per-nut
    evaluation, for tod.tod_fields, whose points (floats or float
    arrays, see _coordinate) have passed RodData.interior_check; rr is
    the jet of rho^2 there, the square of the rho seed.
    _artanh gives the per-nut artanh(s/R) from these terms where V, H or
    x is read.
    """
    zs, weights = np.array(rods.floats.nuts).T
    column = (-1,) + (1,) * max(np.ndim(rr.value), np.ndim(zeta))
    s = Jet2.seed(zeta - zs.reshape(column), 1, order)
    return weights.reshape(column), s, _radius(rr, s)


def _nut_sums(summands, starts=None):
    """Each jet of summands summed over its leading nut axis, in nut order.

    The jets share one order and value shape.  Jet k's value term starts
    from starts[k] (default 0.0) and every other coefficient from 0.0,
    and the nut rows are added one after the other, so each coefficient
    has the bits of the loop ``acc = start; for row in rows: acc = acc + row``.
    One C-ordered array of shape (summands * coefficients, n, *points)
    holds every coefficient of every summand, and np.add.reduce adds its
    nut axis from 0.0; given starts, they go into nut row 0 first (0.0
    elsewhere) and the sum runs from -0.0, which leaves every first term
    as it is.  With the point axes inside the nut axis, numpy's inner
    loop runs over the points of one nut row, and the rows are added in
    nut order.  Where a nut row holds a single value, or the array is
    not C-ordered, the nut axis would be numpy's inner loop, which sums
    pairwise in other bits; a single point therefore keeps the loop over
    the nuts.  Over a point set the sums keep their arrays; for a single
    point they are floats.
    """
    shape = np.shape(summands[0].value)
    ncoef = len(summands[0].c)
    rows = np.array([c if np.shape(c) == shape else np.broadcast_to(c, shape)
                     for jet in summands for c in jet.c], dtype=float)
    start = 0.0
    if starts is not None:
        head = np.zeros((len(rows),) + (1,) * len(shape[1:]))
        head[::ncoef] = np.reshape(starts, head[::ncoef].shape)
        rows[:, 0] += head
        start = -0.0
    if rows[0, 0].size > 1:
        total = list(np.add.reduce(rows, axis=1, initial=start))
    else:
        total = rows[:, 0] + start
        for i in range(1, shape[0]):
            total += rows[:, i]
        total = total.tolist() if total.ndim == 1 else list(total)
    return [jets._jet(summands[0].order, total[k:k + ncoef])
            for k in range(0, len(total), ncoef)]


# float arithmetic overflows silently; on arrays numpy would warn
@np.errstate(over="ignore", invalid="ignore")
def potentials(fields):
    """Jets of V and its conjugate H at the order and points of a tod.TodFields.

    V = sum a_i V0(rho, s_i) and H = gauge + sum a_i H0(rho, s_i), summed
    in nut order from the per-nut terms and the rho^2 jet rr the fields
    hold, so no nut is evaluated twice.
    """
    a, s, R = fields.terms
    at = fields.artanh
    return _nut_sums([(2 * R - 2 * s * at) * a, (s * R + fields.rr * at) * a],
                     starts=(0.0, fields.rods.floats.gauge))


@np.errstate(over="ignore", invalid="ignore")
def toda_residual(fields):
    """Residual u_xx + (e^u)_zz for u = 2 log rho as a function of (z, x),
    with rho(z, x) from the closed-form order-2 inverse in jets.invert_map.

    fields is a tod.TodFields of order at least 2, at a point or a point
    set (one residual per point); only its Ward coordinates z, x and its
    points are read.
    """
    P, _ = jets.invert_map(fields.z, fields.x, *fields.point)
    u = 2 * jets.log(P)
    e_u = P * P
    return u.partial(0, 2) + e_u.partial(2, 0)


# ---------------------------------------------------------------------------
# axis data


@dataclass(frozen=True)
class AxisProfile:
    """Axis expansion data: V = f log rho^2 + g + O(rho^2).

    slopes[i] is f' on the open rod I_i (I_0 and I_n semi-infinite),
    values[i] = f(z_{i+1}); gauge is the resolved H constant.
    """

    rods: RodData
    slopes: tuple
    values: tuple
    gauge: object = field(repr=False, default=0)

    def f(self, zeta):
        return jets.ordered_sum(a * abs(zeta - z)
                                for a, z in zip(self.rods.weights, self.rods.zs))

    def h(self, zeta):
        """Axis limit of H: sum a_i s_i |s_i| + gauge."""
        return jets.ordered_sum(a * (zeta - z) * abs(zeta - z)
                                for a, z in zip(self.rods.weights, self.rods.zs)) + self.gauge

    def f_constant(self, i, zeta=None):
        """The constant F_i = -(H(0,.) - f^2/f'_i)/c on a rod with slope != 0."""
        fp = self.slopes[i]
        if fp == 0:
            raise ZeroDivisionError(f"rod {i} has zero slope; F is not defined this way")
        if zeta is None:
            zeta = self._rod_point(i)
        f = self.f(zeta)
        return -(self.h(zeta) - f * f / fp) / self.rods.c

    def _rod_point(self, i):
        zs = self.rods.zs
        pad = self.rods.span if self.rods.n > 1 else 1
        pad = pad if pad > 0 else 1
        if i == 0:
            return zs[0] - pad
        if i == len(zs):
            return zs[-1] + pad
        num = zs[i - 1] + zs[i]
        return num / 2


def gauge_value(rods):
    """Resolve the H gauge constant; 'symmetric' balances the end rods."""
    if rods.gauge != "symmetric":
        return rods.gauge
    zero_gauge = AxisProfile(rods, *_slopes_values(rods), gauge=0)
    n = rods.n
    f_first = zero_gauge.f_constant(0)
    f_last = zero_gauge.f_constant(n)
    return rods.c * (f_first + f_last) / 2


def _slopes_values(rods):
    total = jets.ordered_sum(rods.weights)
    slopes = []
    acc = 0
    for a in rods.weights:
        slopes.append(2 * acc - total)
        acc += a
    slopes.append(total)
    values = tuple(
        jets.ordered_sum(a * abs(zn - z) for a, z in zip(rods.weights, rods.zs))
        for zn in rods.zs
    )
    return tuple(slopes), values
