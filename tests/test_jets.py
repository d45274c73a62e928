"""Jet arithmetic against closed forms and the finite-difference oracle."""

from __future__ import annotations

import functools
import math
import operator
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from todkit import jets
from todkit.errors import DomainError, InversionError, SingularPointError
from todkit.jets import Jet2

from fd import check_jet_against_fd
from identities import artanh, exp


def sample_field(rho, zeta, order=4):
    """A representative composite field exercising every elementary op."""
    r = Jet2.seed(rho, 0, order)
    z = Jet2.seed(zeta, 1, order)
    R = jets.sqrt(r * r + z * z)
    return 2 * R - z * jets.log((R + z) / (R - z)) + exp(z / R) / (1 + r * r)


def sample_value(rho, zeta):
    R = math.sqrt(rho ** 2 + zeta ** 2)
    return 2 * R - zeta * math.log((R + zeta) / (R - zeta)) + math.exp(zeta / R) / (1 + rho ** 2)


# ---------------------------------------------------------------------------


class TestRingOps:
    """Leibniz arithmetic on raw-partial storage."""

    def test_mul_matches_polynomial(self):
        # (x + 2y)^2 expanded by hand: raw partials of x^2 + 4xy + 4y^2
        x = Jet2.seed(3.0, 0, 2)
        y = Jet2.seed(-1.0, 1, 2)
        p = (x + 2 * y) * (x + 2 * y)
        assert p.value == 1.0
        assert p.partial(1, 0) == 2 * 3.0 + 4 * (-1.0)
        assert p.partial(0, 1) == 4 * 3.0 + 8 * (-1.0)
        assert p.partial(2, 0) == 2.0
        assert p.partial(1, 1) == 4.0
        assert p.partial(0, 2) == 8.0

    def test_div_roundtrip(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = Jet2(4, list(rng.standard_normal(15)))
            b = Jet2(4, list(rng.standard_normal(15)))
            b.c[0] += 3.0  # keep the divisor away from zero
            r = (a / b) * b
            assert max(abs(u - v) for u, v in zip(r.c, a.c)) < 1e-12

    def test_div_by_zero_value(self):
        a = Jet2.const(1.0, 2)
        b = Jet2.seed(0.0, 0, 2)
        with pytest.raises(SingularPointError):
            a / b

    def test_partial_above_the_order(self):
        x = Jet2.seed(3.0, 0, 1)
        assert x.partial(1, 0) == 1
        with pytest.raises(ValueError, match=r"^order-1 jet has no partial \(2, 0\)$"):
            x.partial(2, 0)

    def test_pow(self):
        x = Jet2.seed(2.0, 0, 3)
        assert abs((x ** 5).value - 32.0) < 1e-12
        assert abs((x ** 5).partial(1, 0) - 80.0) < 1e-12


def plan_mul(a, b):
    """Reference: the accumulating plan loop behind both forms of the product."""
    out = []
    for terms in jets._mul_plan(a.order):
        s = 0
        for pa, pb, w in terms:
            s = s + w * a.c[pa] * b.c[pb]
        out.append(s)
    return out


def plan_div(f, g):
    """Reference: the accumulating plan loop behind the generated quotient."""
    h = [0] * len(f.c)
    plan = jets._mul_plan(f.order)
    for k in range(len(f.c)):
        s = 0
        for ph, pg, w in plan[k]:
            if ph != k:
                s = s + w * h[ph] * g.c[pg]
        h[k] = (f.c[k] - s) / g.c[0]
    return h


def assert_identical(got, want):
    """Same type and value per coefficient, and the same sign on zeros;
    an array also has the same shape and dtype, and NaN where want has.

    A NaN's sign bit is left out: it follows which operand the hardware
    propagates, numpy's vector loops do not fix that order between array
    sizes, and no output shows it.
    """
    assert len(got) == len(want)
    for u, v in zip(got, want):
        assert type(u) is type(v)
        if isinstance(v, np.ndarray):
            assert (u.shape, u.dtype) == (v.shape, v.dtype)
            assert np.array_equal(u, v, equal_nan=True)
            real = ~np.isnan(v)
            assert np.array_equal(np.signbit(u[real]), np.signbit(v[real]))
        elif v == v:
            assert u == v
            if isinstance(v, float):
                assert math.copysign(1.0, u) == math.copysign(1.0, v)
        else:
            assert u != u


SPECIALS = (-0.0, 0.0, math.inf, -math.inf, math.nan)


def special_array(shape, rng):
    """Normal draws with -0.0, 0.0, +-inf and NaN at a few entries."""
    x = rng.standard_normal(shape)
    flat = x.reshape(-1)
    for v, k in zip(SPECIALS, rng.integers(0, flat.size, len(SPECIALS))):
        if rng.random() < 0.5:
            flat[k] = v
    return x


def random_coefficients(kind, n, rng):
    if kind == "float":
        return [float(x) for x in rng.standard_normal(n)]
    if kind == "float64":
        return list(rng.standard_normal(n))
    if kind == "points":
        return [special_array(19, rng) for _ in range(n)]
    if kind == "mixed":
        # an array value term, then what Jet2.const, Jet2.seed and
        # compose's delta hold: numbers of each type and arrays
        numbers = [0, 1, 2, -0.0, 0.5, math.inf, math.nan, np.float64(-1.5)]
        return [special_array(19, rng)] + [
            special_array(19, rng) if rng.random() < 0.5
            else numbers[rng.integers(len(numbers))] for _ in range(n - 1)]
    return [Fraction(int(p), int(q))
            for p, q in zip(rng.integers(-9, 10, n), rng.integers(1, 10, n))]


def operand_pairs(kind, order, rng):
    """Pairs (a, b) of jets to multiply and divide, of the given kind."""
    n = len(jets._pairs(order))
    if kind == "nuts":
        # a nut column (n, 1) against a nut-by-point array (n, points)
        column = Jet2(order, [special_array((3, 1), rng) for _ in range(n)])
        rows = Jet2(order, [special_array((3, 7), rng) for _ in range(n)])
        return [(column, rows), (rows, column)]
    a = Jet2(order, random_coefficients(kind, n, rng))
    b = Jet2(order, random_coefficients(kind, n, rng))
    if kind == "points":
        # and one point: the coefficient axis stays numpy's inner loop
        one = Jet2(order, [special_array(1, rng) for _ in range(n)])
        return [(a, b), (b, a), (one, one)]
    if kind != "mixed":
        return [(a, b), (b, a)]
    # the value term a number: delta against a jet, and against a constant
    delta = Jet2(order, [0] + b.c[1:])
    const = Jet2(order, [1.5] + [0] * (n - 1))
    return [(a, b), (b, a), (a, delta), (delta, a), (const, delta)]


class TestKernels:
    """Both forms of the product, and the quotient, round exactly as the
    plan loops."""

    @pytest.mark.parametrize("kind", ["float", "float64", "fraction", "points",
                                      "nuts", "mixed"])
    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4, 5, 6])
    @np.errstate(over="ignore", invalid="ignore")
    def test_bit_identical_to_plan_loops(self, order, kind):
        rng = np.random.default_rng(order * 10 + len(kind))
        for _ in range(10):
            for a, b in operand_pairs(kind, order, rng):
                assert_identical((a * b).c, plan_mul(a, b))
                g = Jet2(order, list(b.c))
                g.c[0] = abs(g.c[0]) + 1
                assert_identical((a / g).c, plan_div(a, g))

    def test_selection(self):
        # the gathered product serves order 3 and up where a value term is
        # a float64 array of the whole product shape
        def straight(a, b):
            raise LookupError

        def form(x, y):
            try:
                jets._gathered_mul(x.order, straight, x.c, y.c)
            except LookupError:
                return "straight"
            return "gathered"

        def seed(n, order=4):
            return Jet2.seed(np.linspace(1.0, 2.0, n), 0, order)

        points = seed(36)
        # coefficients with a leading unit axis past the value terms
        unit_axis = (points, Jet2(4, [np.ones(36)] + [np.ones((1, 36))] * 14))
        gathered = [(points, points), (points, Jet2.const(0.0, 4)),
                    (Jet2.const(1.5, 4), points), (points, Jet2(4, [0] + points.c[1:])),
                    (seed(300, 3), seed(300, 3)), (seed(1000), seed(1000)),
                    (Jet2(4, [np.ones((3, 1))] * 15), Jet2(4, [np.ones((3, 5))] * 15))]
        straight_ = [(Jet2.seed(1.0, 0, 4), Jet2.seed(2.0, 1, 4)),
                     # two number value terms, as compose2's powers have
                     (Jet2.const(1, 4), Jet2(4, [0] + points.c[1:])),
                     # value terms whose shapes hold neither the other
                     (Jet2(4, [np.ones((3, 1))] * 15), Jet2(4, [np.ones((1, 5))] * 15)),
                     # a coefficient wider than the value terms
                     (points, Jet2(4, [1.0] + [np.ones((2, 36))] * 14)),
                     unit_axis,
                     (points, Jet2(4, [np.ones(36, int)] * 15)),
                     # float64 with float32 arrays: numpy would upcast the stack
                     (points, Jet2(4, [np.ones(36)] * 14 + [np.ones(36, np.float32)])),
                     (points, Jet2(4, [Fraction(1, 3)] * 15)),
                     (Jet2(4, [np.float64(2.0)] * 15), Jet2(4, [np.array(1.0)] * 15))]
        assert [form(x, y) for x, y in gathered] == ["gathered"] * len(gathered)
        assert [form(x, y) for x, y in straight_] == ["straight"] * len(straight_)
        assert_identical((unit_axis[0] * unit_axis[1]).c, plan_mul(*unit_axis))
        # orders 0-2 keep the generated product alone
        assert [isinstance(jets._KERNELS[k][0], functools.partial)
                for k in range(5)] == [False, False, False, True, True]

    def test_signed_zeros(self):
        a = Jet2(2, [-0.0, 1.0, -0.0, 0.5, -0.0, 2.0])
        b = Jet2(2, [1.5, -0.0, 0.0, -2.0, 0.0, -0.0])
        for x, y in ((a, b), (b, a), (a, a)):
            assert_identical((x * y).c, plan_mul(x, y))
        quotient = (a / b).c
        assert_identical(quotient, plan_div(a, b))
        # the loops' leading 0 + turns a lone -0.0 product into +0.0, while
        # a -0.0 numerator divides to -0.0: both signs occur
        assert math.copysign(1.0, (a * b).c[0]) == 1.0
        assert math.copysign(1.0, quotient[0]) == -1.0

    def test_kernels_are_built_on_first_use(self):
        # float jets and order-2 arrays build no gather table; an order-4
        # array product builds order 4's alone
        probe = ("import numpy as np, todkit.jets as j; "
                 "assert not j._KERNELS and not j._GATHERS; "
                 "x = j.Jet2.seed(1.0, 0, 3); x * x; "
                 "assert list(j._KERNELS) == [3] and not j._GATHERS; "
                 "y = j.Jet2.seed(np.ones(5), 0, 2); y * y; assert not j._GATHERS; "
                 "z = j.Jet2.seed(np.ones(5), 0, 4); z * z; "
                 "assert list(j._KERNELS) == [3, 2, 4] and list(j._GATHERS) == [4]")
        src = str(Path(jets.__file__).resolve().parents[1])
        subprocess.run([sys.executable, "-c", probe], check=True, timeout=60,
                       env={**os.environ, "PYTHONPATH": src})


class TestOperandContract:
    """Exact-type fast paths keep the behaviour of the general path."""

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                    operator.truediv])
    def test_order_mismatch(self, op):
        low = Jet2.seed(1.5, 0, 2)
        high = Jet2.seed(2.5, 1, 3)
        for x, y in ((low, high), (high, low)):
            with pytest.raises(ValueError):
                op(x, y)

    def test_zero_value_divisor(self):
        zero = Jet2.seed(0.0, 0, 3)
        for numerator in (Jet2.const(1.0, 3), 1.0, 2):
            with pytest.raises(SingularPointError):
                numerator / zero

    def test_foreign_operands(self):
        x = Jet2.seed(1.0, 0, 2)
        with pytest.raises(TypeError):
            x * "x"
        with pytest.raises(TypeError):
            x + [1]

    def test_fraction_operands_raise(self):
        # jets are float: an exact scalar is converted before it meets a jet
        x = Jet2.seed(0.5, 0, 2)
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            for left, right in ((x, Fraction(1, 3)), (Fraction(1, 3), x)):
                with pytest.raises(TypeError):
                    op(left, right)

    @pytest.mark.parametrize("scalar", [np.float64(-1.25), 0.75, -0.0, 3])
    def test_scalar_operands(self, scalar):
        # a scalar acts as the constant jet it used to be promoted to
        a = Jet2(3, [1.0, -0.0, 2.0, 0.5, 0.0, 1.0, -3.0, 0.25, -0.0, 4.0])
        const = Jet2.const(scalar, 3).c
        assert_identical((a + scalar).c, [x + y for x, y in zip(a.c, const)])
        assert_identical((a - scalar).c, [x - y for x, y in zip(a.c, const)])
        assert_identical((a * scalar).c, [x * scalar for x in a.c])
        # numpy hands the reflected operations a Python float
        left = float(scalar) if isinstance(scalar, np.floating) else scalar
        const = Jet2.const(left, 3).c
        assert_identical((scalar + a).c, [x + y for x, y in zip(a.c, const)])
        assert_identical((scalar - a).c, [y - x for x, y in zip(a.c, const)])
        assert_identical((scalar * a).c, [x * left for x in a.c])
        assert_identical((scalar / a).c, plan_div(Jet2.const(left, 3), a))
        if scalar != 0:
            assert_identical((a / scalar).c, [x / scalar for x in a.c])


def point_of(jet, k):
    """The scalar jet of point k of an array jet."""
    return Jet2(jet.order, [c[k] if isinstance(c, np.ndarray) else c for c in jet.c])


def assert_point_bits(batch, point, k):
    """Coefficient k of the batch jet has the bits of the point jet's."""
    for b, p in zip(batch.c, point.c):
        got = b[k] if isinstance(b, np.ndarray) else b
        assert float(got).hex() == float(p).hex()


class TestArrayCoefficients:
    """A float64 array coefficient is a per-point scalar; each point keeps its bits."""

    POINTS = 64

    def random_batch(self, order, rng):
        n = len(jets._pairs(order))
        coeffs = [rng.standard_normal(self.POINTS) for _ in range(n)]
        for c in coeffs:
            c[rng.integers(0, self.POINTS, 4)] = -0.0
        return Jet2(order, coeffs)

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4, 5, 6])
    def test_ring_ops_pointwise(self, order):
        rng = np.random.default_rng(40 + order)
        a, b = self.random_batch(order, rng), self.random_batch(order, rng)
        b.c[0] = np.abs(b.c[0]) + 1
        field = rng.standard_normal(self.POINTS)
        ops = [lambda x, y, f: x + y, lambda x, y, f: x - y,
               lambda x, y, f: x * y, lambda x, y, f: x / y,
               lambda x, y, f: 2.5 - x, lambda x, y, f: 1.5 / y,
               lambda x, y, f: -x * 0.5, lambda x, y, f: x * f + f,
               lambda x, y, f: x / f, lambda x, y, f: x ** 3]
        for op in ops:
            batch = op(a, b, field)
            for k in range(self.POINTS):
                point = op(point_of(a, k), point_of(b, k), float(field[k]))
                assert_point_bits(batch, point, k)

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("func", [jets.log, jets.sqrt])
    def test_log_sqrt_pointwise(self, func, order):
        rng = np.random.default_rng(50 + order)
        a = self.random_batch(order, rng)
        a.c[0] = np.exp(rng.uniform(-30, 30, self.POINTS))
        batch = func(a)
        for k in range(self.POINTS):
            assert_point_bits(batch, func(point_of(a, k)), k)

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("func", [jets.sin, jets.cos])
    def test_sin_cos_pointwise(self, func, order):
        # the value and derivative terms are libm's sin and cos entry by
        # entry, so far arguments keep their bits too
        rng = np.random.default_rng(70 + order)
        a = self.random_batch(order, rng)
        a.c[0] = rng.uniform(-1, 1, self.POINTS) * 10.0 ** rng.integers(-3, 7, self.POINTS)
        batch = func(a)
        for k in range(self.POINTS):
            point = func(Jet2(order, [float(c[k]) for c in a.c]))
            assert all(type(c) is float for c in point.c)
            assert_point_bits(batch, point, k)

    @pytest.mark.parametrize("order", [3, 4])
    @pytest.mark.parametrize("func", [jets.log, jets.sqrt])
    def test_log_sqrt_value_terms_are_float_formulas(self, func, order):
        # the value-term derivatives as float arithmetic on one point,
        # with Python's (libm's) pow: numpy's power differs from it in
        # the last bit on about 5 % of cubes and fourth powers
        def log_terms(v):
            return [math.log(v)] + [(-1) ** (k - 1) * math.factorial(k - 1) / v ** k
                                    for k in range(1, order + 1)]

        def sqrt_terms(v):
            s, coef, d = math.sqrt(v), 0.5, [math.sqrt(v)]
            for k in range(1, order + 1):
                d.append(coef * s / v ** k)
                coef *= 0.5 - k
            return d

        terms = log_terms if func is jets.log else sqrt_terms
        rng = np.random.default_rng(60 + order)
        a = self.random_batch(order, rng)
        a.c[0] = np.exp(rng.uniform(-30, 30, self.POINTS))
        batch = func(a)
        for k in range(self.POINTS):
            point = Jet2(order, [float(c[k]) for c in a.c])
            want = jets.compose(point, terms(point.value))
            assert_point_bits(batch, want, k)
            assert_point_bits(func(point), want, 0)

    def test_zero_divisor_anywhere(self):
        one = Jet2.const(1.0, 2)
        for zero in (0.0, -0.0):
            g = Jet2.seed(np.array([1.0, zero, 2.0]), 0, 2)
            for numerator in (one, 1.0, Jet2.seed(np.ones(3), 1, 2)):
                with pytest.raises(SingularPointError):
                    numerator / g
            with pytest.raises(ZeroDivisionError):
                one / np.array([1.0, zero])

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("func", [jets.log, jets.sqrt])
    def test_failing_power_anywhere(self, func, order):
        # a point's float division by a power that underflows to zero
        # raises, and one that overflows raises in the power; an array
        # raises what its first failing point raises alone
        for values in ([0.5, 1e-200, 1e200], [0.5, 1e200, 1e-200]):
            for v in values:
                try:
                    func(Jet2.seed(v, 0, order))
                except ArithmeticError as exc:
                    first = exc
                    break
            with pytest.raises(type(first)) as batch:
                func(Jet2.seed(np.array(values), 0, order))
            assert str(batch.value) == str(first)
        with pytest.raises(ZeroDivisionError, match="^float division by zero$"):
            func(Jet2.seed(1e-200, 0, order))

    @pytest.mark.parametrize("func", [jets.log, jets.sqrt])
    def test_domain_anywhere(self, func):
        for bad in (0.0, -0.0, -2.0):
            x = Jet2.seed(np.array([1.0, 3.0, bad, -5.0]), 0, 3)
            with pytest.raises(DomainError) as err:
                func(x)
            assert err.value.value == bad   # the first bad point

    def test_nan_is_not_a_domain_error(self):
        # a float NaN passes the v <= 0 test; so does a NaN point
        x = Jet2.seed(np.array([float("nan"), 4.0]), 0, 1)
        assert jets.sqrt(x).c[0][1] == 2.0
        assert math.isnan(jets.log(x).c[0][0])


class TestElementary:
    """Elementary functions against hand-derived values."""

    def test_log_derivs(self):
        x = Jet2.seed(2.0, 0, 4)
        l = jets.log(x)
        assert abs(l.value - math.log(2)) < 1e-15
        assert abs(l.partial(1, 0) - 0.5) < 1e-15
        assert abs(l.partial(2, 0) + 0.25) < 1e-15
        assert abs(l.partial(3, 0) - 2 / 8) < 1e-15
        assert abs(l.partial(4, 0) + 6 / 16) < 1e-15

    def test_sqrt_squares_back(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = Jet2(4, list(rng.standard_normal(15)))
            a.c[0] = abs(a.c[0]) + 1.0
            s = jets.sqrt(a)
            r = s * s
            assert max(abs(u - v) for u, v in zip(r.c, a.c)) < 1e-10

    def test_exp_log_inverse(self):
        a = Jet2.seed(1.5, 0, 4) + Jet2.seed(0.0, 1, 4) * 0.7
        r = jets.log(exp(a))
        assert max(abs(u - v) for u, v in zip(r.c, a.c)) < 1e-12

    def test_trig_identity(self):
        r = Jet2.seed(0.3, 0, 4)
        t = Jet2.seed(1.1, 1, 4)
        s, c = jets.sin(r + t), jets.cos(r + t)
        one = s * s + c * c
        assert abs(one.value - 1.0) < 1e-14
        assert all(abs(v) < 1e-13 for v in one.c[1:])

    def test_artanh_log_form(self):
        x = Jet2.seed(0.5, 0, 3)
        a = artanh(x)
        assert abs(a.value - math.atanh(0.5)) < 1e-15
        assert abs(a.partial(1, 0) - 1 / 0.75) < 1e-13

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            jets.log(Jet2.const(-1.0, 2))
        with pytest.raises(DomainError):
            jets.sqrt(Jet2.const(0.0, 2))
        with pytest.raises(DomainError):
            artanh(Jet2.const(1.0, 2))


class TestAgainstFiniteDifferences:
    """The oracle check: jets vs central stencils, 20 random points."""

    def test_composite_field(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(20):
            rho = float(rng.uniform(0.5, 3.0))
            zeta = float(rng.uniform(0.2, 2.0))
            jet = sample_field(rho, zeta)
            worst = max(worst, check_jet_against_fd(jet, sample_value, rho, zeta))
        assert worst < 1e-6

    def test_quotient_field(self):
        def val(x, y):
            return (x * x - y) / (x + y * y + 2.0)

        rng = np.random.default_rng(5)
        for _ in range(20):
            x0 = float(rng.uniform(-1, 1))
            y0 = float(rng.uniform(-1, 1))
            x = Jet2.seed(x0, 0, 2)
            y = Jet2.seed(y0, 1, 2)
            jet = (x * x - y) / (x + y * y + 2.0 + 0 * x)
            assert check_jet_against_fd(jet, val, x0, y0) < 1e-6


class TestComposition:
    """Bivariate composition and jet-map inversion."""

    def test_compose2_affine(self):
        F = Jet2.seed(1.0, 0, 3) * Jet2.seed(2.0, 1, 3)  # F = xy at (1, 2)
        P = Jet2.seed(1.0, 0, 3)
        Q = Jet2.seed(2.0, 1, 3)
        r = jets.compose2(F, P, Q)
        assert max(abs(u - v) for u, v in zip(r.c, F.c)) < 1e-14

    def test_invert_polar(self):
        # (rho, zeta) -> (R, angle-like): invert and check by composition
        rho0, zeta0 = 1.3, 0.4
        r = Jet2.seed(rho0, 0, 4)
        z = Jet2.seed(zeta0, 1, 4)
        Z = jets.sqrt(r * r + z * z)
        X = artanh(z / Z)
        P, Q = jets.invert_map(Z, X, rho0, zeta0)
        assert abs(P.value - rho0) < 1e-12
        assert abs(Q.value - zeta0) < 1e-12
        # first-order block must be the inverse Jacobian
        J = np.array([[Z.partial(1, 0), Z.partial(0, 1)],
                      [X.partial(1, 0), X.partial(0, 1)]])
        Jinv = np.linalg.inv(J)
        got = np.array([[P.partial(1, 0), P.partial(0, 1)],
                        [Q.partial(1, 0), Q.partial(0, 1)]])
        assert np.allclose(got, Jinv, rtol=1e-10, atol=1e-12)

    def test_invert_second_order_against_fd(self):
        # second derivatives of the inverse map agree with stencils of a
        # numerically-inverted forward map
        rho0, zeta0 = 0.9, -0.3

        def forward(rho, zeta):
            R = math.sqrt(rho * rho + zeta * zeta)
            return R, math.atanh(zeta / R)

        def inverse(zv, xv):
            # Newton on floats, seeded near the base point
            rho, zeta = rho0, zeta0
            for _ in range(60):
                Zv, Xv = forward(rho, zeta)
                R = math.sqrt(rho * rho + zeta * zeta)
                dZ = [rho / R, zeta / R]
                dX = [-zeta / (rho * R), 1.0 / R]
                det = dZ[0] * dX[1] - dZ[1] * dX[0]
                dz, dx = Zv - zv, Xv - xv
                rho -= (dz * dX[1] - dZ[1] * dx) / det
                zeta -= (dZ[0] * dx - dz * dX[0]) / det
            return rho, zeta

        r = Jet2.seed(rho0, 0, 4)
        z = Jet2.seed(zeta0, 1, 4)
        Zj = jets.sqrt(r * r + z * z)
        Xj = artanh(z / Zj)
        P, Q = jets.invert_map(Zj, Xj, rho0, zeta0)
        z0, x0 = Zj.value, Xj.value
        assert check_jet_against_fd(P.truncate(2), lambda a, b: inverse(a, b)[0], z0, x0) < 1e-5
        assert check_jet_against_fd(Q.truncate(2), lambda a, b: inverse(a, b)[1], z0, x0) < 1e-5

    def test_invert_singular_jacobian(self):
        r = Jet2.seed(1.3, 0, 2)
        z = Jet2.seed(0.4, 1, 2)
        Z = jets.sqrt(r * r + z * z)
        with pytest.raises(InversionError):
            jets.invert_map(Z, Z, 1.3, 0.4)

    def test_invert_needs_order_two(self):
        Z = Jet2.seed(1.3, 0, 1)
        X = Jet2.seed(0.4, 1, 1)
        with pytest.raises(ValueError):
            jets.invert_map(Z, X, 1.3, 0.4)
