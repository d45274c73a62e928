"""Property test: a slice of a wider, higher-order pass is the slice's own pass.

A ``verify --suite all`` run evaluates the points of its suites once:
``tod_fields`` and ``tod_metric`` over the union, and ``curvature_pack``
over the points that need curvature, and each suite reads its points out
with ``TodFields.take``, ``JetMatrix.take`` and ``CurvaturePack.take``.
``verify`` evaluates at order 2, the highest its checks read, and the
point-by-point reference suites at orders 3 and 4; their reports agree
because a truncated jet carries the bits of the lower-order call.  On
random rod data (2 to 24 nuts) and point sets near the axis, near nuts,
far out and at nut heights, the order-4 fields truncated to order 3 or 2
and taken at a subset of the points must carry the bits of the
lower-order call on that subset, per-nut terms included; so must the
metric's values and derivatives, and the pack taken at the subset must
be the subset's own pack.
"""

from fractions import Fraction

import numpy as np
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from test_fields_property import FIELDS, _point, _rods, rod_data
from todkit import curvature, tod
from todkit.errors import TodkitError

# no explain phase: it imports libcst, which raises a DeprecationWarning
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=20,
                    phases=(Phase.explicit, Phase.generate, Phase.shrink))

PACK = ("g", "ginv", "dg", "gamma", "riemann", "ricci", "scalar", "weyl", "sqrtg")


def _same(got, want):
    """Same shape and the same bits in every entry."""
    assert np.shape(got) == np.shape(want)
    assert [v.hex() for v in np.asarray(got, dtype=float).ravel().tolist()] == \
        [v.hex() for v in np.asarray(want, dtype=float).ravel().tolist()]


# the sizes of a --suite all run's evaluation: 37 points, of which the
# curvature suite reads the first 20 and the cky suite the last 12
UNION = [(("axis", "nut", "far", "height")[k % 4], k / 37, (k * 7 % 37) / 37, k)
         for k in range(37)]
CURVATURE_AND_CKY = [True] * 20 + [False] * 5 + [True] * 12 + [False] * 3
FIELDS_SUITE = [True] * 25 + [False] * 15


def _same_jet(got, want):
    assert got.order == want.order and len(got.c) == len(want.c)
    for g, w in zip(got.c, want.c):
        _same(g, w)


@SETTINGS
@given(rods=rod_data().filter(lambda rods: rods.n > 1),
       picks=st.lists(st.tuples(st.sampled_from(("axis", "nut", "far", "height")),
                                st.floats(0, 1), st.floats(0, 1), st.integers(0, 23)),
                      min_size=1, max_size=40),
       keep=st.lists(st.booleans(), min_size=40, max_size=40))
@example(rods=_rods(True, [Fraction(1, 2)], [1, 1], Fraction(-1, 4), Fraction(1, 16), 0),
         picks=UNION, keep=CURVATURE_AND_CKY)
@example(rods=_rods(False, [0.7] * 15, [1.0 + 0.03 * k for k in range(16)], -5, 0.9, 0),
         picks=UNION, keep=FIELDS_SUITE)
@example(rods=_rods(True, [Fraction(1, 3)] * 23, [Fraction(k + 1, 7) for k in range(24)],
                    -4, Fraction(3, 2), 0), picks=UNION, keep=CURVATURE_AND_CKY)
def test_slices_match_their_own_calls(rods, picks, keep):
    rho, zeta = (np.array(x) for x in zip(*(_point(rods, *p) for p in picks)))
    index = np.flatnonzero(keep[:len(rho)])
    if not index.size:
        index = np.arange(len(rho))
    # pyproject.toml makes a numpy warning a test failure; raised here
    # instead, an input on which numpy would warn is no example
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        try:
            fields = tod.tod_fields(rods, rho, zeta, order=4)
        except (TodkitError, ArithmeticError):
            return
        try:
            metric = tod.tod_metric(fields)
            pack = curvature.curvature_pack(metric)
        except (TodkitError, ArithmeticError, np.linalg.LinAlgError):
            metric = pack = None
    # truncated to order 3, as the reference suites read it, and to the
    # order 2 of verify
    for order in (3, 2):
        own = tod.tod_fields(rods, rho[index], zeta[index], order=order)
        got = fields.take(index, order)
        for name in FIELDS:
            _same_jet(getattr(got, name), getattr(own, name))
        for p, q in zip(got.point, own.point):
            _same(p, q)
        _same(got.terms[0], own.terms[0])
        for p, q in zip(got.terms[1:], own.terms[1:]):
            _same_jet(p, q)
        if metric is None:
            continue
        own_metric = tod.tod_metric(own)
        got_metric = metric.take(index, order)
        assert got_metric.order == order
        for accessor in ("values", "d1", "d2"):
            _same(getattr(got_metric, accessor)(), getattr(own_metric, accessor)())
        own_pack = curvature.curvature_pack(own_metric)
        # the pack taken from the whole set's, and the pack of the order-4
        # metric taken at the subset
        for got_pack in (pack.take(index), curvature.curvature_pack(metric.take(index, 4))):
            for name in PACK:
                _same(getattr(got_pack, name), getattr(own_pack, name))
            for p, q in zip(got_pack.base, own_pack.base):
                _same(p, q)
