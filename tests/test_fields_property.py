"""Property test: the nut-axis fields against the nut-by-nut reference.

``tod.tod_fields`` evaluates every nut in one array pass and sums the
nut axis and the nut pairs in loop order; ``reference_fields.tod_fields``
gives each nut and each pair its own jet operations.  On random rod data
(1 to 24 nuts, float and exact) and point sets near the axis, near
nuts, far out and exactly at nut heights, every coefficient of W, e2nu,
F, z and x, and of V and H, must carry the reference's bits.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import reference_fields
import reference_potentials
from todkit import harmonic, jets, tod
from todkit.harmonic import RodData
from todkit.jets import Jet2

# no explain phase: it imports libcst, which raises a DeprecationWarning
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=20,
                    phases=(Phase.explicit, Phase.generate, Phase.shrink))

FIELDS = ("W", "e2nu", "F", "z", "x")


def _rods(exact, gaps, weights, start, c, power):
    """ALE rod data from positive gaps and weights, scaled by 10^power."""
    num = Fraction if exact else float
    unit = num(10) ** power
    zs = [num(start) * unit]
    for g in gaps:
        zs.append(zs[-1] + num(g) * unit)
    total = sum(num(w) for w in weights)
    return RodData(c=-num(c) * unit * unit, zs=tuple(zs),
                   weights=tuple(num(w) / total for w in weights))


@st.composite
def rod_data(draw):
    n = draw(st.integers(1, 24))
    exact = draw(st.booleans())
    value = (st.fractions(Fraction(1, 5), 2, max_denominator=40) if exact
             else st.floats(0.2, 2.0))
    return _rods(exact,
                 draw(st.lists(value, min_size=n - 1, max_size=n - 1)),
                 draw(st.lists(value, min_size=n, max_size=n)),
                 draw(st.integers(-5, 5)), draw(value), draw(st.integers(-2, 2)))


def _point(rods, kind, u, v, k):
    """One interior point of the given kind from draws u, v in [0, 1]."""
    scale, gap = rods.scale, rods.min_gap
    z_k = float(rods.zs[k % rods.n])
    theta = 0.05 + v * (math.pi - 0.1)
    if kind == "axis":
        # rho down to 1e-6 scale, anywhere along the nuts
        lo = float(rods.zs[0]) - 0.5 * scale
        return scale * 10 ** (-6 + 5 * u), lo + v * 2 * scale
    if kind == "nut":
        d = gap * 10 ** (-4 + 3.5 * u)
        return d * math.sin(theta), z_k + d * math.cos(theta)
    if kind == "far":
        r = scale * 10 ** (1 + 2 * u)
        return r * math.sin(theta), z_k + r * math.cos(theta)
    # exactly at a nut height
    return gap * 10 ** (-3 + 3 * u), z_k


points = st.lists(st.tuples(st.sampled_from(("axis", "nut", "far", "height")),
                            st.floats(0, 1), st.floats(0, 1), st.integers(0, 23)),
                  min_size=1, max_size=4)


def _same_bits(got, want, k=None):
    assert len(got.c) == len(want.c)
    for g, w in zip(got.c, want.c):
        if k is not None:
            g, w = g[k], w[k]
        assert float(g).hex() == float(w).hex()


EVERY_KIND = [("axis", 0.0, 0.3, 0), ("nut", 0.5, 0.5, 3), ("far", 1.0, 0.7, 5),
              ("height", 0.2, 0.0, 23)]


@SETTINGS
@given(rods=rod_data(), picks=points, order=st.integers(0, 4))
@example(rods=_rods(True, [Fraction(1, 3)] * 23, [Fraction(k + 1, 7) for k in range(24)],
                    -4, Fraction(3, 2), 0), picks=EVERY_KIND, order=2)
@example(rods=_rods(False, [0.7] * 23, [1.0 + 0.01 * k for k in range(24)], 2, 0.9, -2),
         picks=EVERY_KIND, order=1)
@example(rods=_rods(True, [], [1], 0, Fraction(1, 4), 0), picks=EVERY_KIND, order=4)
# the paper's two-nut chart at its mirror plane zeta = 0, where the zeta
# derivatives of the pair sums vanish exactly and keep a zero sign
@example(rods=_rods(True, [Fraction(1, 2)], [1, 1], Fraction(-1, 4), Fraction(1, 16), 0),
         picks=[("axis", 0.8, 0.5, 0)], order=3)
def test_fields_match_nut_by_nut_reference(rods, picks, order):
    rho, zeta = (np.array(x) for x in zip(*(_point(rods, *p) for p in picks)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = tod.tod_fields(rods, rho, zeta, order)
        V, H = harmonic.potentials(got)
        one = tod.tod_fields(rods, float(rho[0]), float(zeta[0]), order)
        one_vh = harmonic.potentials(one)
    want = reference_fields.tod_fields(rods, rho, zeta, order)
    want_one = reference_fields.tod_fields(rods, float(rho[0]), float(zeta[0]), order)
    for name in FIELDS:
        for k in range(len(rho)):
            _same_bits(getattr(got, name), getattr(want, name), k)
        # one point is the one-point case of the same code, with floats
        assert all(type(c) is float for c in getattr(one, name).c)
        _same_bits(getattr(one, name), getattr(want_one, name))
    for k in range(len(rho)):
        r, z = float(rho[k]), float(zeta[k])
        ref = (reference_potentials.build_v(rods, r, z, order),
               reference_potentials.build_h(rods, r, z, order))
        for jet, w in zip((V, H), ref):
            _same_bits(jet.at(k), w)
        if k == 0:
            for jet, w in zip(one_vh, ref):
                _same_bits(jet, w)


def test_nut_sums_keep_the_zero_signs_of_the_loop():
    # all -0.0 nut columns: the loop from +0.0 gives +0.0, and from a -0.0
    # start (a gauge) -0.0
    column = Jet2(1, [np.array([-0.0, -0.0, -0.0])] * 3)
    for starts in (None, (0.0,), (-0.0,)):
        (total,) = harmonic._nut_sums([column], starts=starts)
        for k, c in enumerate(total.c):
            loop = starts[0] if starts and k == 0 else 0.0
            for row in column.c[k].tolist():
                loop = loop + row
            assert c.hex() == loop.hex()


# ---------------------------------------------------------------------------
# _nut_sums against the loop it replaces


def loop_nut_sums(summands, starts=None):
    """The reference: each coefficient of each summand summed over its
    nut axis by ``acc = start; for row in rows: acc = acc + row``."""
    sums = []
    for k, jet in enumerate(summands):
        shape = np.shape(jet.value)
        coefficients = []
        for m, c in enumerate(jet.c):
            acc = starts[k] if starts is not None and m == 0 else 0.0
            for row in np.broadcast_to(np.asarray(c, dtype=float), shape):
                acc = acc + (float(row) if row.ndim == 0 else row)
            coefficients.append(acc)
        sums.append(coefficients)
    return sums


# a single value per nut row, one point, k points, a 2x3 point grid
SUM_SHAPES = st.one_of(st.just(()), st.just((1,)),
                       st.integers(2, 7).map(lambda k: (k,)), st.just((2, 3)))
SUM_START = st.one_of(st.sampled_from([0.0, -0.0, math.inf]),
                      st.floats(-1e6, 1e6, allow_subnormal=False))


@st.composite
def nut_summands(draw):
    """Jets over a nut axis whose coefficients are full arrays, weight
    columns that broadcast over the points, or numbers; some coefficients
    are -0.0 at every nut, and the values span 2^-40 to 2^40, so that the
    order of the additions shows in the bits."""
    points = draw(SUM_SHAPES)
    n = draw(st.sampled_from([1, 2, 8, 9, 120]))
    order = draw(st.integers(0, 2))
    count = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (n,) + points
    summands = []
    for _ in range(count):
        c = []
        for _ in range(len(jets._pairs(order))):
            form = draw(st.sampled_from(["full", "full", "column", "number", "-0.0"]))
            if form == "number":
                c.append(draw(st.sampled_from([0, 0.0, -0.0])))
                continue
            size = shape if form == "full" else (n,) + (1,) * len(points)
            values = rng.standard_normal(size) * np.exp2(rng.integers(-40, 41, size))
            c.append(np.full(size, -0.0) if form == "-0.0" else values)
        # the value term always carries the full nut axis
        c[0] = np.broadcast_to(np.asarray(c[0], dtype=float), shape).copy()
        summands.append(Jet2(order, c))
    starts = draw(st.none() | st.tuples(*[SUM_START] * count))
    return summands, starts


@settings(SETTINGS, max_examples=300)
@given(nut_summands())
# more than eight nuts, one value per nut row: numpy would sum pairwise
@example(([Jet2(0, [np.exp2(np.arange(9.0)) * (-1.0) ** np.arange(9) + 0.1])], None))
# a -0.0 start over -0.0 columns: an +0.0 start would drop its sign
@example(([Jet2(1, [np.full((9, 2, 3), -0.0)] * 3)], (-0.0,)))
def test_nut_sums_equal_the_loop(case):
    summands, starts = case
    got = harmonic._nut_sums(summands, starts=starts)
    want = loop_nut_sums(summands, starts)
    for jet, coefficients in zip(got, want):
        assert jet.order == summands[0].order
        for g, w in zip(jet.c, coefficients):
            assert np.shape(g) == np.shape(w)
            assert type(g) is type(w)
            assert [float(x).hex() for x in np.ravel(g)] == [float(x).hex() for x in np.ravel(w)]
