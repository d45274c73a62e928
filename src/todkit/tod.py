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

All nuts are evaluated in one array pass over a leading nut axis (see
harmonic._nut_terms).  The nut sums A, B, C and P add that axis in nut
order.  K and M read the nut-pair table RodData.pairs, computed once per
rod data: the pairs i < j as index arrays from np.triu_indices (the
order of a loop over i, then j) and their weights a_i a_j (z_j - z_i)^2.
They run one product R_i R_j and one quotient over all pairs, then add
the pair axis in that order.  None of them needs the Ward coordinate
x = sum a_i artanh(s_i/R_i), whose per-nut logs are the dearest
per-entry work of the pass, so TodFields sums it, the same way, only
when a check first reads it (the potentials, the Toda residual and the
fundamental form do; the metric, the conical check, build and the
single-nut certificate do not).  Every coefficient thus has the bits of
the nut-by-nut loop, which tests/reference_fields.py keeps as the
reference.
"""

from __future__ import annotations

import functools
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
    over the set.  terms are the per-nut jets (a, s, R) the fields were
    summed from, over a leading nut axis: their coefficient arrays have
    shape (n, *points) (see harmonic._nut_terms).  The fields fix the
    metric (tod_metric), the potentials V and H (harmonic.potentials),
    the Toda identity (harmonic.toda_residual) and the fundamental form,
    so checks at a point read one TodFields instead of evaluating their
    own.  Only the last three read the Ward coordinate x and the per-nut
    jets artanh(s/R) it sums, so those are computed from the terms on
    first read and kept; a slice (at) computes its own, from its terms,
    if something reads them.  Every operation is elementwise over the
    points, so either way they have the bits of one pass.
    """

    W: Jet2
    e2nu: Jet2
    F: Jet2
    z: Jet2
    rods: RodData = field(repr=False, default=None)
    point: tuple = None
    terms: tuple = field(repr=False, default=None)

    @functools.cached_property
    @np.errstate(over="ignore", invalid="ignore")
    def artanh(self):
        """The per-nut jets artanh(s/R), with the nut axis of the terms."""
        _, s, R = self.terms
        return harmonic._artanh(self.point[0], s, R)

    @functools.cached_property
    @np.errstate(over="ignore", invalid="ignore")
    def x(self):
        """The Ward coordinate x = sum a_i artanh(s_i/R_i), in nut order."""
        return harmonic._nut_sums([self.artanh * self.terms[0]])[0]

    def at(self, part):
        """The fields of the points that the slice part of a
        one-dimensional point set selects, as that set's values."""
        # the weight column a of the terms broadcasts over any points
        return TodFields(*(f.at(part) for f in (self.W, self.e2nu, self.F, self.z)),
                         self.rods, tuple(p[part] for p in self.point),
                         (self.terms[0], *(t.at((slice(None), part)) for t in self.terms[1:])))


@dataclass(frozen=True)
class JetMatrix:
    """A 4x4 matrix of jets in the two essential coordinates, held as one jet.

    The coefficients of jet are arrays of shape (*points, 4, 4), plain 4x4
    arrays for a single point: metric components, two-form components, or
    coframe rows (row a, chart column m), indexed by the chart ordering in
    coords.  The first two directions are Killing directions, so all
    derivatives are taken with respect to the trailing pair.  orientation
    is the sign of the chart volume form relative to the convention in
    which the fundamental form squares to a positive top form; only
    metrics use it.  stack builds the matrix from a 4x4 list of entry
    jets, and entry reads one back; the accessors return arrays with the
    point axes in front of the matrix axes.
    """

    coords: tuple
    jet: Jet2
    base: tuple
    orientation: int = 1

    @classmethod
    def stack(cls, coords, rows, base, orientation=1):
        """The matrix of a 4x4 list of entry jets of one order.

        The entries' coefficient arrays share the point shape, and scalar
        coefficients broadcast; stacking copies every value as it is.
        """
        entries = [e for row in rows for e in row]
        c = []
        for k in range(len(entries[0].c)):
            values = [e.c[k] for e in entries]
            shape = next((v.shape for v in values if type(v) is np.ndarray), ())
            out = np.empty(shape + (16,))
            for m, v in enumerate(values):
                out[..., m] = v
            c.append(out.reshape(shape + (4, 4)))
        return cls(coords, jets._jet(entries[0].order, c), base, orientation)

    def entry(self, a, b):
        """The jet of entry (a, b)."""
        return self.jet.at((..., a, b))

    def values(self):
        """Values, shape (*points, 4, 4)."""
        return self.jet.partial(0, 0)

    def d1(self):
        """First derivatives, shape (*points, 2, 4, 4), essential
        directions only."""
        return np.stack([self.jet.partial(1, 0), self.jet.partial(0, 1)], axis=-3)

    def d2(self):
        """Second derivatives, shape (*points, 2, 2, 4, 4)."""
        mixed = self.jet.partial(1, 1)
        return np.stack([np.stack([self.jet.partial(2, 0), mixed], axis=-3),
                         np.stack([mixed, self.jet.partial(0, 2)], axis=-3)], axis=-4)


# ---------------------------------------------------------------------------


# float arithmetic overflows silently; on point arrays numpy would warn
# where the per-point call does not
@np.errstate(over="ignore", invalid="ignore")
def tod_fields(rods, rho, zeta, order=4):
    """Metric fields W, e^2nu, F and the Ward coordinate z as jets; the
    Ward coordinate x follows on first read (TodFields.x).

    rho and zeta may be float arrays of one shape, or an array and a
    number that partners each of its points: the jets then carry one
    coefficient per point, each bit-identical to that point's own call.
    Every point must pass rods.interior_check.
    """
    rods.interior_check(rho, zeta)
    rho = harmonic._coordinate(rho)
    zeta = harmonic._coordinate(zeta)
    c, gamma, _ = rods.floats
    terms = harmonic._nut_terms(rods, rho, zeta, order)
    a, s, R = terms
    # A^2 C / den + x rho^2 - H resummed over pairs: the terms of order
    # R^2 cancel exactly, leaving gap-squared weighted sums (with P) that
    # keep full relative precision in the far field
    A, B, C, P = harmonic._nut_sums(
        [R * a, Jet2.const(a, order) / R, (s / R) * a, (s * a) * R])
    if rods.n > 1:
        i, j, w = rods.pairs
        pair = Jet2.const(w.reshape((-1,) + a.shape[1:]), order) / (R.at(i) * R.at(j))
        # K = 0 - pair_0 - pair_1 - ...: rounding is symmetric in sign, so
        # that is the pair sum negated, and 0.0 - keeps an exact zero +0.0
        # (summed apart from M, so that fewer pair-sized arrays are alive)
        K = 0.0 - harmonic._nut_sums([pair])[0]
        M = harmonic._nut_sums([pair * (s.at(i) + s.at(j))])[0]
    else:
        K = Jet2.const(0.0, order)
        M = Jet2.const(0.0, order)
    r = Jet2.seed(rho, 0, order)
    den = B * B * (r * r) + C * C
    W = (A / c) * K / den
    e2nu = A * K * (1.0 / c)
    F = -(A * M + P * K + gamma * den) / den / c
    return TodFields(W=W, e2nu=e2nu, F=F, z=A, rods=rods, point=(rho, zeta), terms=terms)


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
    return JetMatrix.stack(("tau", "y", "rho", "zeta"), comp, fields.point)


def fundamental_form(fields):
    """The two-form (dtau + F dy) ^ dz + W rho^2 dx ^ dy as jets.

    Entries come out one order below the fields because they carry first
    derivatives of the Ward coordinates.
    """
    m = fields.z.order - 1
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
    return JetMatrix.stack(("tau", "y", "rho", "zeta"), comp, fields.point)


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
    return JetMatrix.stack(("tau", "phi", "r", "theta"), comp,
                           (float(r), float(theta)), orientation=-1)


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
