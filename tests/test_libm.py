"""jets.libm: an array gets, entry by entry, the bits and the exceptions
of the float calls; so do the array paths that call it less."""

from __future__ import annotations

import math
import operator
import warnings

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from todkit import jets
from todkit.errors import NutProximityError
from todkit.harmonic import RodData

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=300,
                    phases=(Phase.explicit, Phase.generate, Phase.shrink))

# signed zeros, subnormals, the normal range's ends, values whose powers
# under- or overflow, and the non-finite values
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-160, 1e-100,
           1.0, -1.0, 1e100, 1e160, 1e154, 1.3407807929942596e154, 709.78, 710.0,
           1.7976931348623157e308, -1.7976931348623157e308,
           math.inf, -math.inf, math.nan)
numbers = st.one_of(st.sampled_from(SPECIAL), st.floats(), st.floats(-800.0, 800.0))

# (name, function, fixed trailing args, drawn trailing args, entry filter)
FUNCTIONS = [
    ("log", math.log, (), 0, None),
    ("sqrt", math.sqrt, (), 0, None),
    ("exp", math.exp, (), 0, None),
    ("hypot", math.hypot, (), 1, None),
    *[(f"pow{k}", pow, (k,), 0, None) for k in (1, 2, 3, 4)],
    # a negative base would make a complex power, which is no float
    ("pow0.25", pow, (0.25,), 0, abs),
    ("truediv", operator.truediv, (), 1, None),
]
SHAPES = (None, (), (1,), (4,), (2, 3))


def drawn_value(data, shape, keep):
    """A float for shape None, else a float64 array of that shape."""
    size = 1 if shape is None else math.prod(shape)
    values = [data.draw(numbers) for _ in range(size)]
    if keep is not None:
        values = [keep(v) for v in values]
    return values[0] if shape is None else np.array(values, dtype=float).reshape(shape)


def per_entry(f, x, args):
    """The float calls in C order: a list of results, or the first exception."""
    if type(x) is not np.ndarray:
        return [f(x, *args)]
    columns = [a.ravel().tolist() if type(a) is np.ndarray else [a] * x.size
               for a in args]
    return [f(v, *row) for v, *row in zip(x.ravel().tolist(), *columns)]


@SETTINGS
@given(st.sampled_from(FUNCTIONS), st.sampled_from(SHAPES), st.data())
def test_libm_equals_the_float_calls(function, shape, data):
    _, f, fixed, drawn, keep = function
    x = drawn_value(data, shape, keep)
    # a drawn argument is a number, or an array of x's shape
    arg_shapes = [None if shape is None or data.draw(st.booleans()) else shape
                  for _ in range(drawn)]
    args = (*(drawn_value(data, s, None) for s in arg_shapes), *fixed)
    try:
        want = per_entry(f, x, args)
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            jets.libm(f, x, *args)
        assert str(got.value) == str(exc)
        return
    got = jets.libm(f, x, *args)
    if shape is None:
        assert type(got) is float
        values = [got]
    else:
        assert type(got) is np.ndarray and got.dtype == np.float64
        assert got.shape == shape
        values = got.ravel().tolist()
    # float.hex tells -0.0 from 0.0 and keeps every bit (NaN included)
    assert [v.hex() for v in values] == [v.hex() for v in want]


@pytest.mark.parametrize("f, x, args, exc, message", [
    (pow, [1.0, 1e300, 1e-300, 1e300], (2,), OverflowError,
     "(34, 'Numerical result out of range')"),
    (operator.truediv, [1.0, 2.0, 3.0], (np.array([1.0, 0.0, 0.0]),),
     ZeroDivisionError, "float division by zero"),
    (math.log, [[1.0, 2.0], [-0.0, -1.0]], (), ValueError, "math domain error"),
    (math.exp, [[1.0, 1e3], [-0.0, -1.0]], (), OverflowError, "math range error"),
])
def test_first_raising_entry(f, x, args, exc, message):
    with pytest.raises(exc) as got:
        jets.libm(f, np.array(x), *args)
    assert str(got.value) == message



# ---------------------------------------------------------------------------
# the array paths that call libm less: jets.sqrt takes np.sqrt's value,
# the first power of jets.log and jets.sqrt is v itself, and
# RodData.interior_check screens with np.hypot


def assert_same_outcome(batch_call, point_calls):
    """batch_call() raises what the first raising point call raises, or
    returns what the point calls return, one per point."""
    try:
        want = [call() for call in point_calls]
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            batch_call()
        assert str(got.value) == str(exc)
        return None, None
    return batch_call(), want


@SETTINGS
@given(st.sampled_from([jets.sqrt, jets.log]), st.integers(0, 4),
       st.sampled_from([(), (1,), (4,), (2, 3)]), st.data())
def test_log_sqrt_arrays_equal_the_float_jets(func, order, shape, data):
    jet = jets.Jet2(order, [drawn_value(data, shape, None)
                            for _ in range(len(jets._pairs(order)))])
    points = list(np.ndindex(shape))

    def batch_call():
        # the float semantics the callers evaluate under
        with np.errstate(over="ignore", invalid="ignore"):
            return func(jet)

    got, want = assert_same_outcome(batch_call, [lambda k=k: func(jet.at(k)) for k in points])
    for k, point in zip(points, want or ()):
        assert [float(c).hex() for c in got.at(k).c] == [float(c).hex() for c in point.c]


# a power that underflows to zero and one that overflows, in both orders:
# the array raises what the first failing entry in C order raises
@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("values", [
    [1.0, 1e-200, 1e200], [1.0, 1e200, 1e-200],
    [[2.0, 1e-110], [1e110, 3.0]], [[2.0, 1e110], [1e-110, 3.0]],
    [[1e-110, 1e110]], [[1e110, 1e-110]], [0.5, 1e-200], [0.5, 1e200],
])
def test_powers_fail_at_the_first_failing_entry(order, values):
    def divisor_powers(x):
        # one float's powers: pow raises on overflow, and a power that
        # underflows to zero raises as the division by it would
        powers = [x] + [pow(x, k) for k in range(2, order + 1)]
        if powers[-1] == 0:
            raise ZeroDivisionError("float division by zero")
        return powers

    v = np.array(values)
    got, want = assert_same_outcome(
        lambda: jets._powers(v, order),
        [lambda x=x: divisor_powers(x) for x in v.ravel().tolist()])
    for k, point in enumerate(want or ()):
        assert [float(p.flat[k]).hex() for p in got] == [p.hex() for p in point]


def boundary_rods(scale):
    """Two nuts at -+scale; the nut ball radius is then 2e-6 * scale."""
    return RodData(c=-1.0, zs=(-scale, scale), weights=(0.5, 0.5))


def boundary_point(rods, k, angle, nut):
    """A point k ulps of the ball radius from a nut, in direction angle."""
    r_nut = 1e-6 * rods.min_gap
    d = r_nut + k * math.ulp(r_nut)
    return d * math.cos(angle), rods.floats.nuts[nut][0] + d * math.sin(angle)


SCALES = (1.0, 1e-310, 1e307)   # unit, subnormal ball radius, near overflow
ANGLES = (0.0, 0.3, -0.7, 1.2, -1.5)
# coordinates near the float range's end: the distances overflow
FAR = ((1.7e308, 1.7e308), (1.7e308, -1.7e308), (1e-300, 1.7e308), (1e308, 0.0))


def interior_outcome(rods, points):
    """The array call agrees with the point loop, and numpy stays silent."""
    rho, zeta = (np.array(x) for x in zip(*points))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert_same_outcome(lambda: rods.interior_check(rho, zeta),
                            [lambda p=p: rods.interior_check(*p) for p in points])
    assert caught == []


@SETTINGS
@given(st.sampled_from(SCALES), st.data())
def test_interior_check_arrays_equal_the_point_loop(scale, data):
    rods = boundary_rods(scale)
    near = st.builds(lambda k, angle, nut: boundary_point(rods, k, angle, nut),
                     st.integers(-8, 8), st.sampled_from(ANGLES), st.integers(0, 1))
    points = data.draw(st.lists(st.one_of(near, st.sampled_from(FAR)), min_size=1, max_size=6))
    interior_outcome(rods, points)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("k", [0, 1, 2, 4])
def test_point_just_outside_a_ball_does_not_hide_a_later_one(scale, k):
    # a point a few ulps outside the ball passes, whatever the np.hypot
    # screen says of it; the next point, inside, fails the array
    rods = boundary_rods(scale)
    outside, inside = boundary_point(rods, k, 0.0, 0), boundary_point(rods, -1, 0.0, 1)
    rods.interior_check(*outside)
    with pytest.raises(NutProximityError):
        rods.interior_check(*inside)
    interior_outcome(rods, [outside, inside])
    with pytest.raises(NutProximityError):
        rods.interior_check(*(np.array(x) for x in zip(outside, inside)))
