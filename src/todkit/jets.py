"""Truncated bivariate Taylor jets.

A ``Jet2`` carries the raw partial derivatives of a scalar field of two
variables at a point, up to a fixed total order.  Raw means the entry at
``(i, j)`` is ``d^{i+j} f / dx^i dy^j`` itself, not divided by factorials,
so arithmetic uses Leibniz rules with binomial weights.  Coefficients may
be floats or ``fractions.Fraction`` (ring operations only); classification
builds no ``Fraction`` jets, and ``Fraction`` scalars reach jets only through
exact ``PdParams`` coefficients in ``pd_metric``.  ``invert_map`` is
closed-form at order 2.
"""

from __future__ import annotations

import math
from fractions import Fraction

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
        return cls(order, c)

    @classmethod
    def seed(cls, value, var, order):
        """Jet of the coordinate function x (var 0) or y (var 1)."""
        c = [0] * len(_pairs(order))
        c[0] = value
        if order >= 1:
            c[_POS[order][(1, 0) if var == 0 else (0, 1)]] = 1
        return cls(order, c)

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
        """Raw partial derivative d^{i+j} f / dx^i dy^j."""
        return self.c[_POS[self.order][(i, j)]]

    def partials(self):
        return {p: v for p, v in zip(_pairs(self.order), self.c)}

    def truncate(self, order):
        if order > self.order:
            raise ValueError("cannot truncate upward")
        return Jet2(order, self.c[: len(_pairs(order))])

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
        return Jet2(out, c)

    def __repr__(self):
        return f"Jet2(order={self.order}, value={self.c[0]!r})"

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet2):
            if other.order != self.order:
                raise ValueError("jet order mismatch")
            return other
        if isinstance(other, (int, float, Fraction)):
            return Jet2.const(other, self.order)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet2(self.order, [a + b for a, b in zip(self.c, o.c)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet2(self.order, [a - b for a, b in zip(self.c, o.c)])

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet2(self.order, [b - a for a, b in zip(self.c, o.c)])

    def __neg__(self):
        return Jet2(self.order, [-a for a in self.c])

    def __mul__(self, other):
        if isinstance(other, (int, float, Fraction)):
            return Jet2(self.order, [a * other for a in self.c])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.c, o.c
        out = []
        for terms in _mul_plan(self.order):
            s = 0
            for pa, pb, w in terms:
                s += w * a[pa] * b[pb]
            out.append(s)
        return Jet2(self.order, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float, Fraction)):
            return Jet2(self.order, [a / other for a in self.c])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.c[0] == 0:
            raise SingularPointError("division by jet with zero value term")
        f, g = self.c, o.c
        h = [0] * len(f)
        plan = _mul_plan(self.order)
        for k in range(len(f)):
            # Leibniz sum for (h*g) at slot k; the (k, slot-0) term holds the
            # unknown h[k] with weight 1, everything earlier is already known.
            s = 0
            for ph, pg, w in plan[k]:
                if ph != k:
                    s += w * h[ph] * g[pg]
            h[k] = (f[k] - s) / g[0]
        return Jet2(self.order, h)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

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


# ---------------------------------------------------------------------------
# composition with univariate functions

def compose(jet, derivs):
    """Jet of F(f) given the values [F(f0), F'(f0), ..., F^(order)(f0)].

    Horner evaluation of the truncated Taylor series of F around the value
    term; the jet multiplications carry all the chain-rule combinatorics.
    """
    n = jet.order
    delta = Jet2(n, list(jet.c))
    delta.c[0] = 0
    acc = Jet2.const(derivs[n] / math.factorial(n), n)
    for k in range(n - 1, -1, -1):
        acc = acc * delta + derivs[k] / math.factorial(k)
    return acc


def exp(jet):
    v = math.exp(jet.value)
    return compose(jet, [v] * (jet.order + 1))


def log(jet):
    v = jet.value
    if v <= 0:
        raise DomainError("log", v)
    d = [math.log(v)]
    for k in range(1, jet.order + 1):
        d.append((-1) ** (k - 1) * math.factorial(k - 1) / v ** k)
    return compose(jet, d)


def sqrt(jet):
    v = jet.value
    if v <= 0:
        raise DomainError("sqrt", v)
    s = math.sqrt(v)
    d = [s]
    coef = 0.5
    power = 1
    for k in range(1, jet.order + 1):
        d.append(coef * s / v ** power)
        coef *= 0.5 - k
        power += 1
    return compose(jet, d)


def sin(jet):
    v = jet.value
    cycle = [math.sin(v), math.cos(v), -math.sin(v), -math.cos(v)]
    return compose(jet, [cycle[k % 4] for k in range(jet.order + 1)])


def cos(jet):
    v = jet.value
    cycle = [math.cos(v), -math.sin(v), -math.cos(v), math.sin(v)]
    return compose(jet, [cycle[k % 4] for k in range(jet.order + 1)])


def artanh(jet):
    v = jet.value
    if not -1 < v < 1:
        raise DomainError("artanh", v)
    one = Jet2.const(1, jet.order)
    return (log(one + jet) - log(one - jet)) * 0.5


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
    dP = Jet2(n, list(P.c))
    dP.c[0] = 0
    dQ = Jet2(n, list(Q.c))
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

    Z and X are jets of order at least 2 at (rho0, zeta0).  Returns order-2
    jets (P, Q) of rho and zeta in the image variables.  By the inverse
    function theorem their first derivatives are K = J^-1, J the Jacobian
    of (Z, X), and their second derivatives are
    -K[a, b] H_b[k, l] K[k, i] K[l, j] with H_b the Hessian of Z or X.
    """
    if Z.order < 2 or X.order < 2:
        raise ValueError("map inversion needs jets of order at least 2")
    a, b = Z.partial(1, 0), Z.partial(0, 1)
    c, d = X.partial(1, 0), X.partial(0, 1)
    det = a * d - b * c
    if det == 0:
        raise InversionError(math.inf, "singular Jacobian in invert_map")
    K = ((d / det, -b / det), (-c / det, a / det))

    def pulled(F, i, j):
        # H_F[k, l] K[k, i] K[l, j]; the Hessian entry (k, l) is the raw
        # partial with 2 - k - l derivatives in rho and k + l in zeta
        return sum(F.partial(2 - k - l, k + l) * K[k][i] * K[l][j]
                   for k in (0, 1) for l in (0, 1))

    def inverse(value, ka, kb):
        partials = {(0, 0): value, (1, 0): ka, (0, 1): kb}
        for i, j in ((0, 0), (0, 1), (1, 1)):
            partials[(2 - i - j, i + j)] = -(ka * pulled(Z, i, j) + kb * pulled(X, i, j))
        return Jet2.from_partials(partials, 2)

    return inverse(rho0, *K[0]), inverse(zeta0, *K[1])
