"""Quartic-root family in a two-parameter orthotoric chart.

The chart is (tau, phi, p, q) with structure function

    F(x) = a0 x^4 + a3 x^3 + a2 x^2 + a1 x + a0,

four real roots p1 < p2 < p3 < p4 whose product is one, and a0 > 0.
P = F(p) is positive on (p2, p3) and Q = F(q) negative on (p1, p2); the
metric lives on the open rectangle p in (p2, p3), q in (p1, p2) and
needs 1 - p^2 q^2 > 0 there.  The axis is the rectangle boundary with
rod vectors at the four edges; the corner (p2, p2) is the asymptotic
end.  Regularity of the three finite corners is two lattice relations

    l3 = -eps l1 + m l2,   l4 = -epsbar l2 + n l3

with integer m, n and eps = epsbar = 1.  The solved coefficients obey

    m / (eps epsbar) = (p3^2 - p2^2)/(1 - p2^2 p3^2)
    n eps            = (p1^2 - p2^2)/(1 - p1^2 p2^2)

and the scans certify that no root pattern meets all the conditions.
One kernel, _regularity_rows, decides corner regularity for a whole
root array: float roots as float64 rows, exact (int or Fraction) roots
as object rows, which keep exact vectors and coefficients and make
every tolerance of the checks zero.  pd_regularity is its row 0 and
pd_scan its blocks of sampled rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import jets
from .errors import CertificateError, DomainError, RodDataError, SignatureError
from .harmonic import tolerance_slack
from .jets import Jet2
from .tod import JetMatrix


def _det2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _roots_text(roots):
    return "(" + ", ".join(str(r) for r in roots) + ")"


@dataclass(frozen=True)
class PdParams:
    """Root data of the structure function, roots increasing, product one,
    no double root (F' nonzero at every root); slack (see
    harmonic.tolerance_slack) makes exact roots compare exactly."""

    roots: tuple
    a0: object = 1
    slack: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.roots) != 4:
            raise RodDataError("four roots required")
        if not all(self.roots[i] < self.roots[i + 1] for i in range(3)):
            raise RodDataError("roots must be strictly increasing")
        if not self.a0 > 0:
            raise RodDataError("leading coefficient must be positive")
        object.__setattr__(self, "slack", tolerance_slack((*self.roots, self.a0)))
        prod = self.roots[0] * self.roots[1] * self.roots[2] * self.roots[3]
        if not abs(prod - 1) <= 1e-8 * self.slack:
            raise RodDataError("root product must be one")
        if _double_root([self.quartic_prime(x) for x in self.roots[:3]]):
            raise _double_root_error(self.roots, _roots_text(self.roots))

    @classmethod
    def normalized(cls, roots):
        prod = abs(roots[0] * roots[1] * roots[2] * roots[3])
        scale = prod ** 0.25
        return cls(roots=tuple(sorted(r / scale for r in roots)))

    @property
    def is_exact(self):
        return self.slack == 0

    @property
    def coefficients(self):
        """(a0, a1, a2, a3); the constant term equals a0 by the root product."""
        return _coefficients(self.a0, *self.roots)

    @property
    def selfdual(self):
        a0, a1, _, a3 = self.coefficients
        return abs(a3 - a1) <= self.slack * 1e-12 * max(1.0, abs(a3), abs(a1), a0)

    @property
    def flat(self):
        a0, a1, _, a3 = self.coefficients
        return max(abs(a3), abs(a1)) <= self.slack * 1e-12 * max(1.0, a0)

    def quartic(self, x):
        return _quartic(self.coefficients, x)

    def quartic_prime(self, x):
        return _quartic_prime(self.coefficients, x)


# The formulas below use operators only, so each takes exact or float
# scalars as well as float64 or object root columns (one entry per root
# set).

def _coefficients(a0, p1, p2, p3, p4):
    a3 = -a0 * (p1 + p2 + p3 + p4)
    a2 = a0 * (p1 * p2 + p1 * p3 + p1 * p4 + p2 * p3 + p2 * p4 + p3 * p4)
    a1 = -a0 * (p1 * p2 * p3 + p1 * p2 * p4 + p1 * p3 * p4 + p2 * p3 * p4)
    return (a0, a1, a2, a3)


def _quartic(a, x):
    """F(x) by Horner's rule from the coefficients (a0, a1, a2, a3)."""
    return (((x * a[0] + a[3]) * x + a[2]) * x + a[1]) * x + a[0]


def _quartic_prime(a, x):
    a0, a1, a2, a3 = a
    return ((x * 4 * a0 + 3 * a3) * x + 2 * a2) * x + a1


def _double_root(slopes):
    """Whether F' is exactly zero at p1, p2 or p3, given F' there: a double
    root, where the rod vectors are undefined."""
    return (slopes[0] == 0) | (slopes[1] == 0) | (slopes[2] == 0)


def _double_root_error(roots, where):
    k = int(np.argmin(np.diff(roots)))
    return RodDataError(f"p{k + 1} and p{k + 2} form a double root for roots {where}")


def _rod_vectors(p1, p2, p3, dq1, dp2, dp3):
    """The four rod vectors from the roots and F' at p1, p2 and p3."""
    l1 = (2 * p2 * p2 / dp2, 2 / dp2)
    l2 = (2 / dq1, 2 * p1 * p1 / dq1)
    l3 = (2 * p3 * p3 / dp3, 2 / dp3)
    l4 = (2 / dp2, 2 * p2 * p2 / dp2)
    return (l1, l2, l3, l4)


def _solve(la, lb, lc, d):
    """(e, k) with lc = -e la + k lb, given d = det(la, lb) != 0."""
    return -_det2(lc, lb) / d, _det2(la, lc) / d


def _closed_forms(p1, p2, p3):
    """(numerator, denominator) of m / (eps epsbar) and of n eps."""
    return ((p3 * p3 - p2 * p2, 1 - p2 * p2 * p3 * p3),
            (p1 * p1 - p2 * p2, 1 - p1 * p1 * p2 * p2))


def pd_metric(params, p, q, order=4):
    """Metric jets at an interior point of the (p, q) rectangle; exact
    coefficients are converted to float once, since jets are float."""
    r1, r2, r3, _ = (float(r) for r in params.roots)
    p = float(p)
    q = float(q)
    if not r2 < p < r3:
        raise DomainError("pd_metric", p, "p must lie between the middle roots")
    if not r1 < q < r2:
        raise DomainError("pd_metric", q, "q must lie between the lower roots")
    pj = Jet2.seed(p, 0, order)
    qj = Jet2.seed(q, 1, order)
    coefficients = tuple(float(a) for a in params.coefficients)
    P = _quartic(coefficients, pj)
    Q = _quartic(coefficients, qj)
    if not P.value > 0 or not Q.value < 0:
        raise DomainError("pd_metric", (p, q), "structure function signs")
    one = Jet2.const(1.0, order)
    pq = pj * qj
    rect = one - pq * pq
    if not rect.value > 0:
        raise SignatureError("metric needs 1 - p^2 q^2 > 0")
    diff = pj - qj
    den = diff * diff * rect
    g_tt = (P * qj ** 4 - Q) / den
    g_ff = (P - Q * pj ** 4) / den
    g_tf = (Q * pj * pj - P * qj * qj) / den
    g_pp = rect / (diff * diff * P)
    g_qq = rect / (diff * diff * Q) * (-1.0)
    zero = Jet2.const(0.0, order)
    comp = (
        (g_tt, g_tf, zero, zero),
        (g_tf, g_ff, zero, zero),
        (zero, zero, g_pp, zero),
        (zero, zero, zero, g_qq),
    )
    return JetMatrix.stack(("tau", "phi", "p", "q"), comp, (p, q))


def pd_rod_vectors(params):
    """2 pi normalized vanishing combinations on the four boundary edges.

    Order along the boundary: l1 on p = p2, l2 on q = p1, l3 on p = p3,
    l4 on q = p2.  Exact root data gives exact vectors.
    """
    p1, p2, p3, _ = params.roots
    return _rod_vectors(p1, p2, p3, *map(params.quartic_prime, (p1, p2, p3)))


@dataclass(frozen=True)
class PdRegularity:
    vectors: tuple
    eps: object
    epsbar: object
    m_raw: object
    n_raw: object
    m: object
    n: object
    collinear_12: bool
    collinear_34: bool
    end_det: object
    ok: bool


def pd_regularity(params):
    """Solve both corner relations and cross-check the closed forms.

    Collinear basis pairs leave the affected relation unsolved (None);
    either way the data fails unless eps = epsbar = 1 with integer m, n.
    The values are row 0 of _regularity_rows, read back as Python floats
    and bools, or exact values for exact roots.  A solved coefficient off
    its closed form raises CertificateError (PdParams already rejects a
    double root).
    """
    rows = np.array([params.roots])  # float64 for float roots, else object
    reg, faults = _regularity_rows(rows, params.a0, params.slack)
    for bad, error in faults:
        if bad[0]:
            raise error(0, _roots_text(params.roots))

    def _read(x):
        if isinstance(x, tuple):
            return tuple(map(_read, x))
        x = x.tolist()[0]
        return None if x != x else x  # NaN: the relation is unsolved
    return PdRegularity(**{name: _read(x) for name, x in vars(reg).items()})


def selfdual_roots(case, u, v):
    """Reciprocal-pair root sets: case a is (u, v, 1/v, 1/u) with
    0 < u < v < 1, case b is (u, 1/u, v, 1/v) with u < -1 and 0 < v < 1."""
    if case == "a":
        if not 0 < u < v < 1:
            raise RodDataError("case a needs 0 < u < v < 1")
        return (u, v, 1 / v, 1 / u)
    if case == "b":
        if not u < -1 or not 0 < v < 1:
            raise RodDataError("case b needs u < -1 and 0 < v < 1")
        return (u, 1 / u, v, 1 / v)
    raise RodDataError(f"unknown self-dual case {case!r}")


def pd_selfdual_check(params):
    """Certificates for palindromic root sets: one rod pair is exactly
    opposite and the surviving corner coefficient cannot reach one; both
    identities must hold to 1e-10."""
    if not params.selfdual:
        raise RodDataError("root set is not palindromic")
    p1, p2, p3, _ = params.roots
    reg = pd_regularity(params)
    out = {"flat": params.flat, "regular": reg.ok}

    def _ratio(num, den):
        return num / den if abs(den) > params.slack * 1e-12 else None

    if p1 > 0:
        # case a: p3 = 1/p2, p4 = 1/p1
        ratio = -params.quartic_prime(p2) / params.quartic_prime(p3)
        pair_residual = abs(float(ratio - p2 * p2))
        den = 1 - p1 * p1 * p2 * p2
        eps_closed = _ratio(p2 * p2 - p1 * p1, den)
        out.update({
            "case": "a",
            "opposite_pair": (3, 4),
            "pair_identity_residual": pair_residual,
            "collinear": reg.collinear_34,
            "eps": reg.eps,
            "eps_closed": eps_closed,
            "eps_gap": _ratio((1 - p2 * p2) * (1 + p1 * p1), den),
        })
        name, solved, closed = "eps", reg.eps, eps_closed
    else:
        # case b: p2 = 1/p1, p4 = 1/p3
        ratio = -params.quartic_prime(p1) / params.quartic_prime(p2)
        pair_residual = abs(float(ratio - p1 * p1))
        den = 1 - p1 * p1 * p3 * p3
        epsbar_closed = _ratio(p1 * p1 - p3 * p3, den)
        out.update({
            "case": "b",
            "opposite_pair": (1, 2),
            "pair_identity_residual": pair_residual,
            "collinear": reg.collinear_12,
            "epsbar": reg.epsbar,
            "epsbar_closed": epsbar_closed,
            "epsbar_gap": _ratio((p1 * p1 - 1) * (1 + p3 * p3), den),
        })
        name, solved, closed = "epsbar", reg.epsbar, epsbar_closed
    where = f"case {out['case']}, roots {_roots_text(params.roots)}"
    if not pair_residual <= 1e-10:
        raise CertificateError(f"{where}: opposite-pair identity residual "
                               f"{pair_residual:.3e} exceeds 1e-10")
    if closed is not None and solved is not None \
            and not abs(float(solved - closed)) <= 1e-10:
        raise CertificateError(f"{where}: {name} = {solved} disagrees with its "
                               f"closed form {closed}")
    return out


def _regularity_rows(roots, a0=1, slack=1):
    """Corner regularity of every row of a (k, 4) root array in one pass.

    The one implementation of the regularity conditions, for pd_scan's
    float64 blocks (tolerance slack one) and for pd_regularity's single
    row, which is object dtype when a root is exact (Fraction): the same
    operators then stay exact, and slack zero makes every tolerance zero.
    Returns a PdRegularity whose fields are arrays over the rows, NaN
    where a relation is unsolved (pd_regularity's None), and the faults:
    (mask, error) pairs in the order pd_regularity raises them, where
    error(i, where) builds the exception of row i with roots text where.
    A fault is a double root (F' exactly zero at p1, p2 or p3, so the rod
    vectors are undefined) or a solved coefficient that disagrees with
    its closed form.
    """
    p1, p2, p3, p4 = roots.T

    def _rint(x):
        # np.rint has no object loop; floor(x + 1/2) is a nearest integer too
        return (2 * x + 1) // 2 if x.dtype == object else np.rint(x)

    # float rows with a double root divide by zero; a fault flags them
    with np.errstate(all="ignore"):
        a = _coefficients(a0, p1, p2, p3, p4)
        slopes = [_quartic_prime(a, x) for x in (p1, p2, p3)]
        vecs = _rod_vectors(p1, p2, p3, *slopes)
        l1, l2, l3, l4 = vecs
        scale = np.max(np.abs(vecs), axis=(0, 1))
        d12, d23, d34 = _det2(l1, l2), _det2(l2, l3), _det2(l3, l4)
        c12, c23, c34 = (np.abs(d) <= slack * 1e-14 * scale * scale
                         for d in (d12, d23, d34))

        def _close(x, y, rtol):
            return np.abs(x - y) <= slack * rtol * np.maximum(1.0, np.abs(y))

        # rows where a quotient is undefined divide by NaN: that gives the
        # NaN of an unsolved value, and exact rows never divide by zero
        def _ratio(num, den):
            defined = np.abs(den) > slack * 1e-12 * np.maximum(1.0, np.abs(num))
            return num / np.where(defined, den, np.nan), defined

        def _certify(name, checked, solved, closed):
            def error(i, where):
                return CertificateError(
                    f"{name} = {solved.tolist()[i]} disagrees with its closed form "
                    f"{closed.tolist()[i]} for roots {where}")
            return checked & ~_close(solved, closed, 1e-8), error

        eps, m_raw = _solve(l1, l2, l3, np.where(c12, np.nan, d12))
        epsbar, n_raw = _solve(l2, l3, l4, np.where(c23, np.nan, d23))
        # the closed forms lose meaning exactly where the relation basis
        # degenerates (reciprocal root pairs)
        m_form, n_form = _closed_forms(p1, p2, p3)
        m, m_defined = _ratio(*m_form)
        n, n_defined = _ratio(*n_form)
        # a NaN (unsolved) eps or epsbar fails every comparison below; only
        # the n check, which fails on a mismatch, needs the collinear masks
        ee = eps * epsbar
        checks_m = m_defined & ~c34 & (np.abs(ee.astype(float, copy=False)) > 1e-12)
        m_solved = m_raw / np.where(checks_m, ee, np.nan)
        faults = ((_double_root(slopes),
                   lambda i, where: _double_root_error(roots[i].tolist(), where)),
                  _certify("m / (eps epsbar)", checks_m, m_solved, m),
                  _certify("n eps", n_defined & ~c12 & ~c23, n_raw * eps, n))
        ok = _close(eps, 1, 1e-9) & _close(epsbar, 1, 1e-9) \
            & _close(_rint(m_raw), m_raw, 1e-9) & _close(_rint(n_raw), n_raw, 1e-9)
        reg = PdRegularity(vectors=vecs, eps=eps, epsbar=epsbar, m_raw=m_raw, n_raw=n_raw,
                           m=m, n=n, collinear_12=c12, collinear_34=c34,
                           end_det=_det2(l4, l1), ok=ok)
    return reg, faults


_SIGNS = {"i": (1, 1, 1, 1), "ii": (-1, -1, 1, 1), "iii": (-1, -1, -1, -1)}


def _draw_roots(case, rng, k):
    """k sampling attempts in stream order: a (k, 4) root array and the
    mask of attempts that respect the rectangle and do not degenerate."""
    if case in _SIGNS:
        mags = np.exp(rng.uniform(math.log(0.05), math.log(20.0), size=(k, 4)))
        vals = np.sort(mags * np.array(_SIGNS[case]), axis=1)
        prod = np.abs(vals[:, 0] * vals[:, 1] * vals[:, 2] * vals[:, 3])
        # libm's pow: the array np.power differs in the last bit
        roots = vals / jets.libm(pow, prod, 0.25)[:, None]
        keep = ~(np.min(np.diff(roots, axis=1), axis=1) < 1e-3)
        if case != "iii":
            # all-negative quadruples never pass this filter; they are
            # kept and rejected through their corner certificate instead
            r = np.abs(roots)
            keep &= ~(np.maximum(r[:, 1], r[:, 2]) * np.maximum(r[:, 0], r[:, 1]) >= 1)
        return roots, keep
    if case == "a":
        u, v = np.sort(np.exp(rng.uniform(math.log(0.05), math.log(0.95), size=(k, 2))),
                       axis=1).T
        keep = ~((v - u < 1e-3) | (1 / v - v < 1e-3))
        return np.stack([u, v, 1 / v, 1 / u], axis=1), keep
    # case b: math.exp, since np.exp differs from it in the last bit
    lo = np.array([math.log(1.05), math.log(0.02)])
    hi = np.array([math.log(20.0), math.log(0.95)])
    draws = lo + (hi - lo) * rng.random((k, 2))
    u, v = jets.libm(math.exp, draws.T)
    u = -u
    keep = ~((np.abs(u) * v >= 1 - 1e-6) | (v - 1 / u < 1e-3) | (1 / v - v < 1e-3))
    return np.stack([u, 1 / u, v, 1 / v], axis=1), keep


def _corner_cut_off(reg, roots):
    # sorted negative roots with product one force |p1 p2| > 1, so the
    # curvature bound crosses the rectangle and cuts off the corner
    # fixed point before any lattice count applies
    p1, p2, p3 = roots[:, 0], roots[:, 1], roots[:, 2]
    return (p3 * p3 < p2 * p2) & (p2 * p2 < p1 * p1) & (p1 * p1 * p2 * p2 > 1)


# scan case -> (rejection certificate, the rows where it holds)
_CERTIFICATES = {
    "i": ("n strictly between -1 and 0",
          lambda reg, roots: (-1 < reg.n) & (reg.n < 0)),
    "ii": ("epsbar exceeds 1", lambda reg, roots: reg.epsbar > 1),
    "iii": ("curvature bound inside the rectangle, corner cut off", _corner_cut_off),
    "a": ("rods 3 and 4 opposite, eps below 1",
          lambda reg, roots: reg.collinear_34 & (0 < reg.eps) & (reg.eps < 1)),
    "b": ("rods 1 and 2 opposite, epsbar exceeds 1",
          lambda reg, roots: reg.collinear_12 & (reg.epsbar > 1)),
}

# Attempts drawn and certified per array pass: bounds the scan's memory
# whatever the sample count.
_BLOCK = 2048


@dataclass(frozen=True)
class PdScanResult:
    case: str
    samples: int
    attempts: int
    admissible: int
    certificates: dict
    seed: int


def pd_scan(case, samples=1000, seed=7):
    """Sample root sets of one sign pattern and count regular ones.

    Every accepted sample must carry its rejection certificate: the
    noninteger corner coefficient for positive roots, epsbar > 1 for a
    negative lower pair, the curvature bound cutting off the corner for
    all-negative roots, and the opposite rod pair with eps (or epsbar)
    away from one in the palindromic cases.

    Attempts are drawn in blocks of _BLOCK and certified as arrays, row
    by row equal to drawing and certifying one attempt at a time.  The
    blocks consume the Generator exactly as per-attempt draws would:
    ``uniform(size=(k, 4))`` (k, 2 in case a) is k draws of 4 (or 2)
    values, and case b's alternating scalar draws are the columns of
    ``lo + (hi - lo) * random((k, 2))``.  Where numpy's array functions
    round differently from the scalar ones (``prod ** 0.25``, and case
    b's ``math.exp``), ``jets.libm`` gives each row libm's bits.
    Attempts are counted up to the one that completes the requested
    samples, at most 200 * samples + 1000.  A sample that breaks PdParams, the closed
    forms or its certificate raises the error pd_regularity raises on
    it, for the first such sample in draw order.
    """
    if case not in _CERTIFICATES:
        raise RodDataError(f"unknown scan case {case!r}")
    cert, holds = _CERTIFICATES[case]
    rng = np.random.default_rng(seed)
    admissible = 0
    certified = 0
    attempts = 0
    limit = 200 * samples + 1000
    while admissible + certified < samples:
        if attempts == limit:
            raise RodDataError("sampling failed to reach the requested count")
        k = min(_BLOCK, limit - attempts)
        roots, keep = _draw_roots(case, rng, k)
        rows = np.flatnonzero(keep)[:samples - admissible - certified]
        done = admissible + certified + len(rows) == samples
        attempts += int(rows[-1]) + 1 if done else k
        roots = roots[rows]
        reg, faults = _regularity_rows(roots)
        p1, p2, p3, p4 = roots.T
        params_ok = (p1 < p2) & (p2 < p3) & (p3 < p4) \
            & (np.abs(p1 * p2 * p3 * p4 - 1) <= 1e-8)
        failed = ~params_ok | ~(reg.ok | holds(reg, roots))
        failed |= np.any([bad for bad, _ in faults], axis=0)
        if failed.any():
            bad = tuple(roots[failed.argmax()].tolist())
            # PdParams raises its own or the double-root error, pd_regularity
            # the closed-form one
            pd_regularity(PdParams(roots=bad))
            raise CertificateError(f"case {case}, roots {_roots_text(bad)}: certificate "
                                   f"'{cert}' does not hold")
        regular = int(np.count_nonzero(reg.ok))
        admissible += regular
        certified += len(rows) - regular
    certificates = {cert: certified} if certified else {}
    return PdScanResult(case=case, samples=samples, attempts=attempts,
                        admissible=admissible, certificates=certificates,
                        seed=seed)


def pd_ale_limit(params, r, theta, c_pd=1.0):
    """Compare the corner chart at one point against the flat Hopf model.

    The corner substitution p = p2 + c cos^2(theta/2)/(2 r^2), q = p2 -
    c sin^2(theta/2)/(2 r^2) with tau, phi combined through P'(p2)
    matches

        s [dr^2 + (r^2/4)((dpsi + cos theta dphit)^2 + dtheta^2
                          + sin^2 theta dphit^2)]

    with s = 8 (1 - p2^4)/(c P'(p2)) to leading order.  The raw
    substitution leaves a first correction of relative size r^-2 that
    is a pure change of chart: shifting

        r     -> r - (alpha + beta) cos(theta)/(4 r)
        theta -> theta + (alpha + 2 beta) sin(theta)/(4 r^2)

    with alpha = c F''(p2)/(2 F'(p2)) and beta = 2 c p2^3/(1 - p2^4)
    cancels that correction in every component, so the deviation
    measured in an orthonormal frame of the model falls off like r^-4.
    The report carries the frame deviation, the model scale, and the
    radial component of the pulled back metric as a direct prefactor
    measurement.
    """
    if c_pd == 0:
        raise DomainError("pd_ale_limit", c_pd, "corner constant must be nonzero")
    if not 0 < theta < math.pi:
        raise DomainError("pd_ale_limit", theta, "polar angle must avoid the axis")
    p2 = float(params.roots[1])
    dp2 = float(params.quartic_prime(p2))
    a0, a1, a2, a3 = [float(x) for x in params.coefficients]
    ddp2 = 12.0 * a0 * p2 * p2 + 6.0 * a3 * p2 + 2.0 * a2
    scale = 8.0 * (1.0 - p2 ** 4) / (c_pd * dp2)
    if not scale > 0:
        raise DomainError("pd_ale_limit", scale, "corner scale must be positive")
    alpha = c_pd * ddp2 / (2.0 * dp2)
    beta = 2.0 * c_pd * p2 ** 3 / (1.0 - p2 ** 4)
    rj = Jet2.seed(float(r), 0, 2)
    tj = Jet2.seed(float(theta), 1, 2)
    rs = rj - jets.cos(tj) * ((alpha + beta) / 4.0) / rj
    ts = tj + jets.sin(tj) * ((alpha + 2.0 * beta) / 4.0) / (rj * rj)
    half = ts * 0.5
    p = jets.cos(half) * jets.cos(half) * (c_pd / 2.0) / (rs * rs) + p2
    q = jets.sin(half) * jets.sin(half) * (-c_pd / 2.0) / (rs * rs) + p2
    g_old = pd_metric(params, p.value, q.value, order=1).values()
    a = (1.0 + p2 * p2) / dp2
    b = (1.0 - p2 * p2) / dp2
    jac = np.zeros((4, 4))
    jac[0, 0] = a
    jac[0, 1] = -b
    jac[1, 0] = a
    jac[1, 1] = b
    jac[2, 2] = p.partial(1, 0)
    jac[2, 3] = p.partial(0, 1)
    jac[3, 2] = q.partial(1, 0)
    jac[3, 3] = q.partial(0, 1)
    g_new = jac.T @ g_old @ jac
    model = np.zeros((4, 4))
    model[0, 0] = scale * r * r / 4.0
    model[0, 1] = model[1, 0] = scale * r * r * math.cos(theta) / 4.0
    model[1, 1] = scale * r * r / 4.0
    model[2, 2] = scale
    model[3, 3] = scale * r * r / 4.0
    frame = np.linalg.cholesky(model)
    dev = np.linalg.solve(frame, np.linalg.solve(frame, g_new).T).T - np.eye(4)
    return {"scale": scale, "deviation": float(np.linalg.norm(dev)),
            "scale_measured": float(g_new[2, 2]), "base": (p.value, q.value)}
