"""Truncated bivariate Taylor jets.

A ``Jet2`` carries the raw partial derivatives of a scalar field of two
variables at a point, up to a fixed total order.  Raw means the entry at
``(i, j)`` is ``d^{i+j} f / dx^i dy^j`` itself, not divided by factorials,
so arithmetic uses Leibniz rules with binomial weights.  Coefficients are
floats: a scalar operand of ``+ - * /`` must be an ``int``, a ``float`` or
a float array, and any other type, ``fractions.Fraction`` included, raises
``TypeError`` on either side.  Exact arithmetic stays with the rod data,
the axis profiles, the rod vectors, the classification and the ``pd``
roots; ``pd_metric`` converts exact coefficients to float before it builds
jets.  ``invert_map`` is closed-form at order 2.

Coefficients may also be float64 arrays over a set of points, so that one
pass of the same kernels evaluates a whole point set (vectorised Taylor
propagation); an array is then a per-point scalar too.  The arrays may
carry more axes, such as the leading nut axis of the per-nut jets in
``harmonic``: every operation is elementwise, and ``Jet2.at`` picks one
entry (a point, or a gather of nuts) out of every coefficient.
Elementwise ``+``, ``-``, ``*``, ``/`` and ``np.sqrt`` round exactly as
the float operations do (IEEE 754 requires a correctly rounded square
root), so every entry gets the bits it would get alone, and ``sqrt``
takes its value term from ``np.sqrt``.  numpy's vectorised ``log`` and
``power`` may differ from libm in the last bit depending on CPU features,
and ``x * x`` differs from ``pow(x, 2.0)`` on a few random inputs in ten
thousand, so ``log`` takes its value term, and ``log`` and ``sqrt`` the
powers ``v ** k`` with k >= 2 in their derivatives, from ``libm``, the one
place that calls a float function entry by entry over an array; the first
power is ``v`` itself, which ``pow(v, 1)`` is exactly.  ``sin`` and
``cos`` take their values from ``libm`` too; the rest of their derivative
terms is array arithmetic.  A quotient, ``log`` or ``sqrt`` rejects the
whole set where a loop over its entries would first fail: at a zero
divisor (a power that underflows to zero included) or a non-positive
argument.  The top power ``v ** order`` they divide by comes from
``libm(pow, ...)``, which runs no Python-defined function per entry;
only where ``pow`` overflows does ``_powers`` check entry by entry which
failure comes first.  Where float arithmetic overflows silently to inf
or NaN, numpy warns; ``tod.tod_fields``, ``harmonic.potentials`` and
``harmonic.toda_residual`` evaluate under ``np.errstate`` to keep the float
behaviour.  Keep the jet on the left of an array operand: ``ndarray op
Jet2`` is numpy's elementwise operation over the jet, not a jet
operation.

Products of two jets take one of two forms of the Leibniz plan, each
built the first time its order needs it (never at import), and both
bit-identical, signed zeros included, to an accumulating loop over the
plan, which tests/test_jets.py keeps as the reference for both.  The
straight-line kernels, one ``mul`` and one ``div`` per order, spell out
every coefficient as the plan's sum in the plan's term order, with the
plan's ``(w * a) * b`` grouping (a weight of 1 left out, which is exact)
and a leading ``0 +``.  The gathered product forms all ``(w * a) * b``
terms of all coefficients in one gather from padded index and weight
tables, and sums them in plan order with one ``np.add.reduce`` from 0.0.
It costs a few numpy calls whatever the order, where the straight-line
``mul`` costs a few per term, so it serves order 3 and up when a value
term is a float64 array and every coefficient is a float, an int or a
float64 array that broadcasts to that value term's shape.  Everything
else keeps the straight-line ``mul``: orders 0-2, coefficient lists
with no array (floats, ``np.float64``, ``Fraction``) and other dtypes.
Measured at 36 points, an order-4 product takes about 30 us gathered and 75 us
straight-line, order 3 about 21 and 35 us; at order 2 the straight-line
one already about ties (14 against 15 us), and at order 1 it wins (5
against 12 us).  Quotients keep the straight-line ``div`` at every order.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np

from .errors import DomainError, InversionError, SingularPointError

# ---------------------------------------------------------------------------
# index bookkeeping, precomputed per order

_PAIRS = {}     # order -> tuple of (i, j) with i + j <= order, graded order
_POS = {}       # order -> dict mapping (i, j) -> flat position
_MUL_PLAN = {}  # order -> per-position list of (posA, posB, binomial weight)


def _pairs(order):
    if order not in _PAIRS:
        ps = [(i, j) for t in range(order + 1) for i in range(t, -1, -1)
              for j in (t - i,)]
        _PAIRS[order] = tuple(ps)
        _POS[order] = {p: k for k, p in enumerate(ps)}
    return _PAIRS[order]


def _mul_plan(order):
    if order not in _MUL_PLAN:
        pairs = _pairs(order)
        pos = _POS[order]
        plan = []
        for (i, j) in pairs:
            terms = []
            for p in range(i + 1):
                for q in range(j + 1):
                    w = math.comb(i, p) * math.comb(j, q)
                    terms.append((pos[(p, q)], pos[(i - p, j - q)], w))
            plan.append(terms)
        _MUL_PLAN[order] = plan
    return _MUL_PLAN[order]


def _kernel_source(order):
    """Source of the straight-line Leibniz product and quotient at an order.

    Every coefficient is the plan's sum in the plan's term order, written
    ``0 + w * a * b + ...`` so that it rounds exactly as the accumulating
    loop ``s = 0; s += w * a * b`` does, signed zeros included.  A weight
    of 1 is left out: multiplying by the integer 1 is exact.
    """
    plan = _mul_plan(order)
    n = len(plan)

    def unpack(v):
        return "    " + "".join(f"{v}{k}, " for k in range(n)) + f"= {v}"

    def total(terms):
        parts = [f"{x}{i} * {y}{j}" if w == 1 else f"{w} * {x}{i} * {y}{j}"
                 for x, i, y, j, w in terms]
        return " + ".join(["0"] + parts)

    lines = ["def mul(a, b):", unpack("a"), unpack("b"), "    return ["]
    lines += [f"        {total(('a', pa, 'b', pb, w) for pa, pb, w in terms)},"
              for terms in plan]
    lines += ["    ]", "", "def div(f, g):", unpack("f"), unpack("g")]
    for k, terms in enumerate(plan):
        # the (k, slot-0) term holds the unknown h[k] with weight 1; every
        # other term only uses slots computed before
        known = total(("h", ph, "g", pg, w) for ph, pg, w in terms if ph != k)
        lines.append(f"    h{k} = (f{k} - ({known})) / g0")
    lines.append("    return [" + ", ".join(f"h{k}" for k in range(n)) + "]")
    return "\n".join(lines) + "\n"


class _Kernels(dict):
    """order -> (mul, div) on coefficient lists, generated on first use.

    From order _GATHER_ORDER on, mul tries the gathered product first.
    """

    def __missing__(self, order):
        namespace = {}
        exec(compile(_kernel_source(order), f"<jet kernels, order {order}>", "exec"),
             namespace)
        mul = namespace["mul"]
        if order >= _GATHER_ORDER:
            mul = functools.partial(_gathered_mul, order, mul)
        self[order] = kernels = (mul, namespace["div"])
        return kernels


class _Gathers(dict):
    """order -> the Leibniz plan as padded (terms, coefficients) tables.

    Column k lists coefficient k's terms in plan order: the positions in
    a and b and the weight.  Where a column has fewer terms than the
    longest, its slots read (0, 0, 1) and are listed in pad.
    """

    def __missing__(self, order):
        plan = _mul_plan(order)
        shape = (max(map(len, plan)), len(plan))
        pa, pb = np.zeros(shape, np.intp), np.zeros(shape, np.intp)
        w, used = np.ones(shape), np.zeros(shape, bool)
        for k, terms in enumerate(plan):
            for t, (i, j, weight) in enumerate(terms):
                pa[t, k], pb[t, k], w[t, k], used[t, k] = i, j, weight, True
        self[order] = tables = (pa, pb, w, np.nonzero(~used))
        return tables


_GATHER_ORDER = 3  # the gathered product is the faster one from here on
_KERNELS = _Kernels()
_GATHERS = _Gathers()


def _rows(c, shape):
    """The coefficients c as one float64 array of shape (len(c), *shape),
    or None unless each is an int, a float or a float64 array that
    broadcasts to shape."""
    rows = np.zeros((len(c),) + shape)
    for k, v in enumerate(c):
        if type(v) is np.ndarray:
            # numpy would drop the leading unit axes of a wider array
            if v.dtype != np.float64 or v.ndim > len(shape):
                return None
        elif type(v) is int:
            if not v:
                continue
        elif not isinstance(v, float):
            return None
        try:
            rows[k] = v
        except ValueError:  # v does not broadcast to shape
            return None
    return rows


def _product_shape(a0, b0):
    """The shape every coefficient of the product takes: that of a value
    term which is an array and holds the other's shape; None if neither
    does."""
    if type(a0) is not np.ndarray:
        return b0.shape if type(b0) is np.ndarray and b0.ndim else None
    if type(b0) is not np.ndarray or b0.shape == a0.shape:
        return a0.shape if a0.ndim else None
    try:
        shape = np.broadcast_shapes(a0.shape, b0.shape)
    except ValueError:
        return None
    return shape if shape in (a0.shape, b0.shape) else None


def _gathered_mul(order, straight, a, b):
    """The Leibniz product as two gathers, two products and one sum.

    Every term ``(w * a) * b`` of every coefficient is formed at once
    from the _GATHERS tables, the pad slots are set to -0.0, and one
    np.add.reduce from 0.0 sums the term axis.  The coefficient and
    point axes lie inside the term axis, so numpy's inner loop runs over
    them and adds the terms in plan order: each coefficient has the bits
    of the straight-line ``0 + w * a * b + ...``, signed zeros included,
    and adding -0.0 changes no sum.  A value term that is a float64
    array of the product's whole shape makes every straight-line
    coefficient an array of that shape, as the gathered sum gives them;
    other operands run the straight-line product.
    """
    shape = _product_shape(a[0], b[0])
    if shape is None:
        return straight(a, b)
    A, B = _rows(a, shape), _rows(b, shape)
    if A is None or B is None:
        return straight(a, b)
    pa, pb, w, pad = _GATHERS[order]
    terms = A[pa]
    terms *= w.reshape(w.shape + (1,) * len(shape))
    terms *= B[pb]
    terms[pad] = -0.0
    return list(np.add.reduce(terms, axis=0, initial=0.0))


_SCALARS = (int, float, np.ndarray)


class Jet2:
    """Jet of a two-variable scalar field at a point."""

    __slots__ = ("order", "c")

    def __init__(self, order, coeffs):
        self.order = order
        self.c = list(coeffs)
        if len(self.c) != len(_pairs(order)):
            raise ValueError("coefficient count does not match order")

    # -- constructors -------------------------------------------------------

    @classmethod
    def const(cls, value, order):
        c = [0] * len(_pairs(order))
        c[0] = value
        return _jet(order, c)

    @classmethod
    def seed(cls, value, var, order):
        """Jet of the coordinate function x (var 0) or y (var 1)."""
        c = [0] * len(_pairs(order))
        c[0] = value
        if order >= 1:
            c[_POS[order][(1, 0) if var == 0 else (0, 1)]] = 1
        return _jet(order, c)

    @classmethod
    def from_partials(cls, partials, order):
        """Build from a mapping (i, j) -> raw partial derivative."""
        c = [0] * len(_pairs(order))
        pos = _POS[order]
        for key, val in partials.items():
            c[pos[key]] = val
        return cls(order, c)

    # -- access -------------------------------------------------------------

    @property
    def value(self):
        return self.c[0]

    def partial(self, i, j):
        """Raw partial derivative d^{i+j} f / dx^i dy^j; ValueError above
        the jet's order."""
        try:
            return self.c[_POS[self.order][(i, j)]]
        except KeyError:
            raise ValueError(f"order-{self.order} jet has no partial ({i}, {j})") from None

    def at(self, index):
        """The jet at one index of its coefficient arrays.

        Scalar coefficients stay as they are, and an entry that comes out
        a scalar is a float, so the jet of one point of a point set is the
        jet that point's own evaluation gives.
        """
        c = []
        for v in self.c:
            if type(v) is np.ndarray:
                v = v[index]
                if type(v) is not np.ndarray or not v.ndim:
                    v = float(v)
            c.append(v)
        return _jet(self.order, c)

    def truncate(self, order):
        if order > self.order:
            raise ValueError("cannot truncate upward")
        return _jet(order, self.c[: len(_pairs(order))])

    def derivative(self, var):
        """Jet of the partial derivative with respect to var, one order lower."""
        if self.order == 0:
            raise ValueError("order-0 jet has no derivative data")
        out = self.order - 1
        pos = _POS[self.order]
        c = []
        for (i, j) in _pairs(out):
            key = (i + 1, j) if var == 0 else (i, j + 1)
            c.append(self.c[pos[key]])
        return _jet(out, c)

    def __repr__(self):
        return f"Jet2(order={self.order}, value={self.c[0]!r})"

    # -- ring operations ----------------------------------------------------
    #
    # Exact-type checks for jets and floats come first: they are nearly
    # every operand.

    def _coerce(self, other):
        """Coefficients of other as a jet of this order; None for other types."""
        if isinstance(other, Jet2):
            if other.order != self.order:
                raise ValueError("jet order mismatch")
            return other.c
        if type(other) is float or isinstance(other, _SCALARS):
            c = [0] * len(self.c)
            c[0] = other
            return c
        return None

    def __add__(self, other):
        if type(other) is Jet2 and other.order == self.order:
            o = other.c
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        return _jet(self.order, [a + b for a, b in zip(self.c, o)])

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is Jet2 and other.order == self.order:
            o = other.c
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        return _jet(self.order, [a - b for a, b in zip(self.c, o)])

    def __rsub__(self, other):
        if type(other) is Jet2 and other.order == self.order:
            o = other.c
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        return _jet(self.order, [b - a for a, b in zip(self.c, o)])

    def __neg__(self):
        return _jet(self.order, [-a for a in self.c])

    def __mul__(self, other):
        if type(other) is Jet2 and other.order == self.order:
            return _jet(self.order, _KERNELS[self.order][0](self.c, other.c))
        if type(other) is float or isinstance(other, _SCALARS):
            return _jet(self.order, [a * other for a in self.c])
        self._coerce(other)  # raises on a jet of another order
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is Jet2 and other.order == self.order:
            return _jet(self.order, _quotient(self.order, self.c, other.c))
        if type(other) is float or isinstance(other, _SCALARS):
            if type(other) is np.ndarray and not other.all():
                # a float coefficient list raises here; numpy would warn
                raise ZeroDivisionError("float division by zero")
            return _jet(self.order, [a / other for a in self.c])
        self._coerce(other)  # raises on a jet of another order
        return NotImplemented

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _jet(self.order, _quotient(self.order, o, self.c))

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = Jet2.const(1, self.order)
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out


_new = object.__new__


def _jet(order, c):
    """A Jet2 around a fresh coefficient list known to fit the order."""
    jet = _new(Jet2)
    jet.order = order
    jet.c = c
    return jet


def _quotient(order, f, g):
    g0 = g[0]
    if g0 == 0 if type(g0) is not np.ndarray else not g0.all():
        raise SingularPointError("division by jet with zero value term")
    return _KERNELS[order][1](f, g)


# ---------------------------------------------------------------------------
# composition with univariate functions

def compose(jet, derivs):
    """Jet of F(f) given the values [F(f0), F'(f0), ..., F^(order)(f0)].

    Horner evaluation of the truncated Taylor series of F around the value
    term; the jet multiplications carry all the chain-rule combinatorics.
    """
    n = jet.order
    delta = _jet(n, list(jet.c))
    delta.c[0] = 0
    acc = Jet2.const(derivs[n] / math.factorial(n), n)
    for k in range(n - 1, -1, -1):
        acc = acc * delta + derivs[k] / math.factorial(k)
    return acc


def libm(f, x, *args):
    """f(x, *args) with the bits and exceptions of one float call, entry
    by entry over an array x.

    For a float x this is the call itself.  For a float array x, f runs on
    each entry as a Python float, in C order, and the results come back
    as a float64 array of x's shape; each of args is a number or an array
    of x's shape.  numpy's vectorised log, exp, pow and hypot can round
    differently from libm in the last bit, and return inf or 0 with a
    warning where the float call raises, so an array path that must give
    every entry its own call's bits goes through here; so does a float
    division that must raise on a zero divisor (operator.truediv), where
    numpy's returns inf or NaN.  The first entry that raises raises its
    own exception.
    """
    if type(x) is not np.ndarray:
        return f(x, *args)
    rest = [a.ravel().tolist() if type(a) is np.ndarray else itertools.repeat(a)
            for a in args]
    return np.fromiter(map(f, x.ravel().tolist(), *rest), float, x.size).reshape(x.shape)


def ordered_sum(terms):
    """The terms added left to right from 0, as the builtin sum adds them
    up to Python 3.11.

    From 3.12 on, sum adds floats with compensation, in other bits, so a
    point alone would no longer get the bits of the same point in an
    array; todkit sums through here instead.
    """
    return functools.reduce(operator.add, terms, 0)


def _divisor_power(x, k):
    p = pow(x, k)
    if p == 0:
        raise ZeroDivisionError("float division by zero")
    return p


def _powers(v, order):
    """[v ** 1, ..., v ** order] with libm's bits, to divide by; v is
    positive (or NaN) at every entry.

    The first power is v itself, since pow(v, 1) is v exactly.  A higher
    power that underflows to zero raises as the float division by it
    does.  An entry's powers over- or underflow monotonically in k, so
    the top power, made first, raises the error of the first entry in C
    order that a loop over the entries would stop at.  libm's pow makes
    it, and one test over the array finds a zero; only where pow raises
    an overflow does the per-entry check run, since an earlier entry may
    underflow to zero and so fail first.
    """
    if order == 0:
        return []
    if order == 1:
        return [v]
    try:
        top = libm(pow, v, order)
    except OverflowError:
        top = libm(_divisor_power, v, order)
    if not np.all(top):
        raise ZeroDivisionError("float division by zero")
    return [v] + [libm(pow, v, k) for k in range(2, order)] + [top]


def _positive_value(func, jet):
    """The value term, which must be positive.

    An array fails where a loop over its entries in C order would: at
    the first entry with v <= 0 (NaN passes, as it does for a float),
    unless an earlier entry's powers up to the jet's order fail first.
    """
    v = jet.value
    if type(v) is not np.ndarray:
        if v <= 0:
            raise DomainError(func, v)
    else:
        bad = v <= 0
        if bad.any():
            k = bad.argmax()
            _powers(v.ravel()[:k], jet.order)
            raise DomainError(func, float(v.flat[k]))
    return v


def log(jet):
    v = _positive_value("log", jet)
    return compose(jet, [libm(math.log, v)] + [
        (-1) ** (k - 1) * math.factorial(k - 1) / p
        for k, p in enumerate(_powers(v, jet.order), 1)])


def sqrt(jet):
    v = _positive_value("sqrt", jet)
    # IEEE 754 rounds sqrt correctly, so numpy's has libm's bits
    s = np.sqrt(v, out=np.empty(v.shape)) if type(v) is np.ndarray else math.sqrt(v)
    d = [s]
    coef = 0.5
    for k, p in enumerate(_powers(v, jet.order), 1):
        d.append(coef * s / p)
        coef *= 0.5 - k
    return compose(jet, d)


def _sine(jet, shift):
    """The jet of sin (shift 0) or cos (shift 1): the k-th derivative of
    sin is cycle[k % 4], and cos's is sin's one step on."""
    s, c = libm(math.sin, jet.value), libm(math.cos, jet.value)
    cycle = [s, c, -s, -c]
    return compose(jet, [cycle[(k + shift) % 4] for k in range(jet.order + 1)])


def sin(jet):
    return _sine(jet, 0)


def cos(jet):
    return _sine(jet, 1)


# ---------------------------------------------------------------------------
# bivariate composition and map inversion

def compose2(F, P, Q):
    """Jet of F(P, Q) for jets P, Q in new variables.

    F is a jet at (a, b); P and Q must have value terms a and b.  The
    result is the truncated Taylor sum over F's partials with the raw
    coefficients divided back into Taylor form.
    """
    n = F.order
    if P.order != n or Q.order != n:
        raise ValueError("jet order mismatch in composition")
    dP = _jet(n, list(P.c))
    dP.c[0] = 0
    dQ = _jet(n, list(Q.c))
    dQ.c[0] = 0
    # powers of dP and dQ up to the order; dP^i dQ^j vanishes for i+j > n
    pows_p = [Jet2.const(1, n)]
    pows_q = [Jet2.const(1, n)]
    for _ in range(n):
        pows_p.append(pows_p[-1] * dP)
        pows_q.append(pows_q[-1] * dQ)
    acc = Jet2.const(0, n)
    for (i, j) in _pairs(n):
        coeff = F.partial(i, j)
        if coeff == 0:
            continue
        term = pows_p[i] * pows_q[j] * (coeff / (math.factorial(i) * math.factorial(j)))
        acc = acc + term
    return acc


def invert_map(Z, X, rho0, zeta0):
    """Invert the jet map (rho, zeta) -> (Z, X) around a base point, to order 2.

    Z and X are jets of order at least 2 at (rho0, zeta0), which may be
    a point set: every point is inverted in the same array pass, and a
    singular Jacobian at any point raises.  Returns order-2 jets (P, Q) of
    rho and zeta in the image variables.  By the inverse
    function theorem their first derivatives are K = J^-1, J the Jacobian
    of (Z, X), and their second derivatives are
    -K[a, b] H_b[k, l] K[k, i] K[l, j] with H_b the Hessian of Z or X.
    """
    if Z.order < 2 or X.order < 2:
        raise ValueError("map inversion needs jets of order at least 2")
    a, b = Z.partial(1, 0), Z.partial(0, 1)
    c, d = X.partial(1, 0), X.partial(0, 1)
    det = a * d - b * c
    if np.any(det == 0):
        raise InversionError(math.inf, "singular Jacobian in invert_map")
    K = ((d / det, -b / det), (-c / det, a / det))

    def pulled(F, i, j):
        # H_F[k, l] K[k, i] K[l, j]; the Hessian entry (k, l) is the raw
        # partial with 2 - k - l derivatives in rho and k + l in zeta
        return ordered_sum(F.partial(2 - k - l, k + l) * K[k][i] * K[l][j]
                           for k in (0, 1) for l in (0, 1))

    def inverse(value, ka, kb):
        partials = {(0, 0): value, (1, 0): ka, (0, 1): kb}
        for i, j in ((0, 0), (0, 1), (1, 1)):
            partials[(2 - i - j, i + j)] = -(ka * pulled(Z, i, j) + kb * pulled(X, i, j))
        return Jet2.from_partials(partials, 2)

    return inverse(rho0, *K[0]), inverse(zeta0, *K[1])
