"""Metric and fundamental form in Weyl-Papapetrou form from rod data.

With A = sum a_i R_i, B = sum a_i / R_i, C = sum a_i s_i / R_i (s_i the
shifted heights) and D = B^2 rho^2 + C^2, the metric fields are

    W     = (A / c) K / D
    e^2nu = A K / c
    F     = -(A M + P K + gauge D) / (c D)
    K     = - sum_{i<j} a_i a_j (z_j - z_i)^2 / (R_i R_j)
    M     =   sum_{i<j} a_i a_j (z_j - z_i)^2 (s_i + s_j) / (R_i R_j)
    P     =   sum_i a_i s_i R_i

which are the standard quotient expressions in V-derivatives with the
cancelling numerators resummed into the gap-squared weighted pair sums
K and M (F literally reads (A^2 C / D + x rho^2 - H) / c before the
resummation).  The resummed forms are exact (tests compare them against
the literal quotients) and keep full relative precision far from the
nuts, where the literal numerators lose all their digits; they also
make W == 0 manifest for single-nut data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import harmonic, jets
from .errors import AxisEvaluationError, DegenerateMetricError, DomainError
from .harmonic import RodData
from .jets import Jet2


@dataclass(frozen=True)
class TodFields:
    """Jets of the metric fields at a point or a point set.

    point is (rho, zeta) as floats, or as float arrays of one shape whose
    entries are the points; every jet then carries one coefficient array
    over the set.  terms are the per-nut jets the fields were summed from
    (see harmonic._nut_terms).  The fields fix the metric (tod_metric), the
    potentials V and H (harmonic.potentials), the Toda identity
    (harmonic.toda_residual) and the fundamental form, so checks at a
    point read one TodFields instead of evaluating their own.
    """

    W: Jet2
    e2nu: Jet2
    F: Jet2
    z: Jet2
    x: Jet2
    rods: RodData = field(repr=False, default=None)
    point: tuple = None
    terms: list = field(repr=False, default=None)


@dataclass(frozen=True)
class JetMatrix:
    """A 4x4 matrix of jets in the two essential coordinates.

    comp holds metric components, two-form components, or coframe rows
    (row a, chart column m), indexed by the chart ordering in coords; the
    first two directions are Killing directions, so all derivatives are
    taken with respect to the trailing pair.  orientation is the sign of
    the chart volume form relative to the convention in which the
    fundamental form squares to a positive top form; only metrics use it.
    """

    coords: tuple
    comp: list
    base: tuple
    orientation: int = 1

    @property
    def order(self):
        return self.comp[0][0].order

    def _partials(self, i, j):
        return np.array([[e.partial(i, j) for e in row] for row in self.comp], dtype=float)

    def values(self):
        return self._partials(0, 0)

    def d1(self):
        """First derivatives, shape (2, 4, 4), essential directions only."""
        return np.array([self._partials(1, 0), self._partials(0, 1)])

    def d2(self):
        """Second derivatives, shape (2, 2, 4, 4)."""
        mixed = self._partials(1, 1)
        return np.array([[self._partials(2, 0), mixed], [mixed, self._partials(0, 2)]])


# ---------------------------------------------------------------------------


# float arithmetic overflows silently; on point arrays numpy would warn
# where the per-point call does not
@np.errstate(over="ignore", invalid="ignore")
def tod_fields(rods, rho, zeta, order=4, check_interior=True):
    """Metric fields W, e^2nu, F and Ward coordinates z, x as jets.

    rho and zeta may be float arrays of one shape: the jets then carry one
    coefficient per point, each bit-identical to that point's own call.
    """
    if check_interior:
        rods.interior_check(rho, zeta)
    rho = harmonic._coordinate(rho)
    zeta = harmonic._coordinate(zeta)
    c, gamma, nuts = rods.floats
    terms = harmonic._nut_terms(rods, rho, zeta, order)
    A = Jet2.const(0.0, order)
    B = Jet2.const(0.0, order)
    C = Jet2.const(0.0, order)
    T = Jet2.const(0.0, order)
    # A^2 C / den + x rho^2 - H resummed over pairs: the terms of order
    # R^2 cancel exactly, leaving gap-squared weighted sums (with P) that
    # keep full relative precision in the far field
    P = Jet2.const(0.0, order)
    for a_i, s, at, R in terms:
        A = A + a_i * R
        B = B + a_i / R
        C = C + a_i * (s / R)
        T = T + a_i * at
        P = P + a_i * s * R
    K = Jet2.const(0.0, order)
    M = Jet2.const(0.0, order)
    for i, (a_i, s_i, _, R_i) in enumerate(terms):
        for j in range(i + 1, len(terms)):
            a_j, s_j, _, R_j = terms[j]
            gap = nuts[j][0] - nuts[i][0]
            pair = (a_i * a_j * gap * gap) / (R_i * R_j)
            K = K - pair
            M = M + pair * (s_i + s_j)
    r = Jet2.seed(rho, 0, order)
    den = B * B * (r * r) + C * C
    W = (A / c) * K / den
    e2nu = A * K * (1.0 / c)
    F = -(A * M + P * K + gamma * den) / den / c
    return TodFields(W=W, e2nu=e2nu, F=F, z=A, x=T, rods=rods,
                     point=(rho, zeta), terms=terms)


# the float semantics of tod_fields, on point sets too
@np.errstate(over="ignore", invalid="ignore")
def tod_metric(fields):
    """Assemble the metric jets from the fields, at their order.

    Needs W > 0 and e^2nu > 0; on a point set each check raises at its
    first failing point, with the message that point gives on its own.
    """
    W, F, e2nu = fields.W, fields.F, fields.e2nu
    for name, jet in (("W", W), ("e^2nu", e2nu)):
        bad = harmonic._first_nonpositive(jet.value)
        if bad is not None:
            raise DegenerateMetricError(f"{name} = {bad} is not positive")
    r = Jet2.seed(fields.point[0], 0, W.order)
    zero = Jet2.const(0.0, W.order)
    g_tt = 1 / W
    g_ty = F / W
    g_yy = W * (r * r) + F * F / W
    comp = [
        [g_tt, g_ty, zero, zero],
        [g_ty, g_yy, zero, zero],
        [zero, zero, e2nu, zero],
        [zero, zero, zero, e2nu],
    ]
    return JetMatrix(coords=("tau", "y", "rho", "zeta"), comp=comp,
                     base=fields.point, orientation=1)


def fundamental_form(fields, order=None):
    """The two-form (dtau + F dy) ^ dz + W rho^2 dx ^ dy as jets.

    Entries come out one order below the fields because they carry first
    derivatives of the Ward coordinates.
    """
    m = fields.z.order - 1 if order is None else order
    z_r = fields.z.derivative(0).truncate(m)
    z_z = fields.z.derivative(1).truncate(m)
    x_r = fields.x.derivative(0).truncate(m)
    x_z = fields.x.derivative(1).truncate(m)
    W = fields.W.truncate(m)
    F = fields.F.truncate(m)
    rho = fields.point[0]
    r = Jet2.seed(rho, 0, m)
    rr = r * r
    w_tr = z_r
    w_tz = z_z
    w_yr = F * z_r - W * rr * x_r
    w_yz = F * z_z - W * rr * x_z
    zero = Jet2.const(0.0, m)
    comp = [
        [zero, zero, w_tr, w_tz],
        [zero, zero, w_yr, w_yz],
        [-w_tr, -w_yr, zero, zero],
        [-w_tz, -w_yz, zero, zero],
    ]
    return JetMatrix(coords=("tau", "y", "rho", "zeta"), comp=comp, base=fields.point)


# ---------------------------------------------------------------------------
# the closed-form benchmark metric


def eh_rod_data(a=1.0):
    """Rod data of the benchmark two-nut metric with bolt parameter a."""
    q = a * a / 4
    return RodData(c=-(a ** 4) / 16, zs=(-q, q), weights=(0.5, 0.5))


def eh_closed_form(a, r, theta):
    """Closed-form benchmark metric order-2 jets in the chart (tau, phi, r, theta).

    g = f (r^2/4)(dtau + cos t dphi)^2 + dr^2/f + (r^2/4)(dt^2 + sin^2 t dphi^2)
    with f = 1 - (a/r)^4.  The chart is negatively oriented relative to
    the Weyl-Papapetrou convention, recorded in the orientation field.
    """
    if not r > a:
        raise DomainError("eh_closed_form", r, f"r = {r} not outside the bolt radius {a}")
    rj = Jet2.seed(float(r), 0, 2)
    tj = Jet2.seed(float(theta), 1, 2)
    f = 1 - (Jet2.const(float(a), 2) / rj) ** 4
    quarter = rj * rj * 0.25
    ct = jets.cos(tj)
    st = jets.sin(tj)
    g_tt = f * quarter
    g_tp = f * quarter * ct
    g_pp = f * quarter * ct * ct + quarter * st * st
    g_rr = 1 / f
    g_hh = quarter
    zero = Jet2.const(0.0, 2)
    comp = [
        [g_tt, g_tp, zero, zero],
        [g_tp, g_pp, zero, zero],
        [zero, zero, g_rr, zero],
        [zero, zero, zero, g_hh],
    ]
    return JetMatrix(coords=("tau", "phi", "r", "theta"), comp=comp,
                     base=(float(r), float(theta)), orientation=-1)


def eh_coords(a, r, theta, order=2):
    """Jets of (rho, zeta) as functions of (r, theta) for the benchmark.

    rho = sqrt(r^4 - a^4) sin(theta)/4, zeta = r^2 cos(theta)/4.
    """
    if not r > a:
        raise DomainError("eh_coords", r, f"r = {r} not outside the bolt radius {a}")
    if not 0 < theta < math.pi:
        raise AxisEvaluationError(f"theta = {theta} is on the axis")
    rj = Jet2.seed(float(r), 0, order)
    tj = Jet2.seed(float(theta), 1, order)
    root = jets.sqrt(rj ** 4 - a ** 4)
    rho = root * jets.sin(tj) * 0.25
    zeta = rj * rj * jets.cos(tj) * 0.25
    return rho, zeta


def rescale(rods, alpha):
    """The homothety action on rod data: c -> alpha c, z_i -> alpha z_i.

    Weights are untouched; a numeric H gauge scales as alpha^2 with the
    conjugate potential.
    """
    if not alpha > 0:
        raise DomainError("rescale", alpha, "scale factor must be positive")
    gauge = rods.gauge
    if gauge != "symmetric":
        gauge = gauge * alpha * alpha
    return RodData(
        c=rods.c * alpha,
        zs=tuple(z * alpha for z in rods.zs),
        weights=rods.weights,
        gauge=gauge,
        mode=rods.mode,
    )
