"""Conformal Killing-Yano family of the flat model and the rod-metric candidate.

The flat model is R^4 in the Hopf chart (psi, phi, r, theta) with the
orthonormal coframe

    e^0 = (r/2)(dpsi + cos t dphi),  e^1 = dr,
    e^2 = (r/2) dt,                  e^3 = (r sin t / 2) dphi.

The torus-invariant solutions of the conformal Killing-Yano equation form
the two-parameter family

    Z = k1 r^2 (-cos t w1 + sin t w3) + k2 w1

in the self-dual basis w1, w2, w3 built from the coframe; k1 = 0 gives the
parallel member.  On a rod metric the candidate is z times the fundamental
form, its norm is 2z exactly, and far from the nuts it approaches a
member of the flat family at the rate r^-2, which cky_decay_check measures
by a log-log fit in the asymptotic chart rho = r^2 sin t / 4,
zeta = r^2 cos t / 4.

The flat functions take r, theta (and the family constants) as numbers
or as float arrays over a point set; flat_metric and flat_cky take the
coframe flat_coframe builds there, and come out at its order.  A
tod.JetMatrix is one jet whose coefficients are (*points, 4, 4) arrays:
the coframe is stacked once from its entry jets, one jet product gives
the metric's products e^a_i e^a_j and another the six wedges' products
e^a_i e^b_j, and the metric and the wedges are sums and differences of
their slices; the candidate is one product of z with the fundamental
form.  Every entry runs the jet operations its scalar jet would, so
each point keeps its bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import harmonic, jets, tod
from .errors import DomainError, RodDataError
from .jets import Jet2
from .tod import JetMatrix

CHART = ("psi", "phi", "r", "theta")


@dataclass(frozen=True)
class FlatCkyParams:
    """Constants of the flat family; the zero member is excluded.

    k1 and k2 may be float arrays of one shape, one member per point.
    """

    k1: float
    k2: float

    def __post_init__(self):
        if np.any((np.asarray(self.k1) == 0) & (np.asarray(self.k2) == 0)):
            raise RodDataError("family constants must not both vanish")


# float arithmetic overflows silently; on point arrays numpy would warn
# where each point's own call does not
@np.errstate(over="ignore", invalid="ignore")
def flat_coframe(r, theta, order=2):
    """Hopf coframe jets at interior points of the flat model.

    A point set fails at its first point with r <= 0 or theta outside
    (0, pi), with the message that point gives alone.
    """
    r_all, theta_all = np.broadcast_arrays(r, theta)
    bad = ~(r_all > 0) | ~((0 < theta_all) & (theta_all < math.pi))
    if bad.any():
        k = bad.argmax()
        if not r_all.flat[k] > 0:
            raise DomainError("flat_coframe", float(r_all.flat[k]), "radius must be positive")
        raise DomainError("flat_coframe", float(theta_all.flat[k]),
                          "polar angle must avoid the axis")
    r, theta = harmonic._coordinate(r), harmonic._coordinate(theta)
    rj = Jet2.seed(r, 0, order)
    tj = Jet2.seed(theta, 1, order)
    half = rj * 0.5
    zero = Jet2.const(0.0, order)
    one = Jet2.const(1.0, order)
    rows = [
        [half, half * jets.cos(tj), zero, zero],
        [zero, zero, one, zero],
        [zero, zero, zero, half],
        [zero, half * jets.sin(tj), zero, zero],
    ]
    return JetMatrix.stack(CHART, rows, (r, theta))


def _each(jet, f):
    """jet with f applied to every coefficient, taken as a float array."""
    return jets._jet(jet.order, [f(np.asarray(c, dtype=float)) for c in jet.c])


@np.errstate(over="ignore", invalid="ignore")
def flat_metric(coframe):
    """Flat metric jets assembled from the coframe, at its order;
    positively oriented.

    g_ij = 0 + e^0_i e^0_j + ... + e^3_i e^3_j, summed over the coframe
    index in order.
    """
    e = coframe.jet
    products = _each(e, lambda c: c[..., :, :, None]) * _each(e, lambda c: c[..., :, None, :])
    g = Jet2.const(0.0, e.order)
    for a in range(4):
        g = g + _each(products, lambda c: c[..., a, :, :])
    return JetMatrix(CHART, g, coframe.base, orientation=1)


# the coframe index pairs (a, b) of the wedges e^a ^ e^b that
# selfdual_basis adds pairwise, in the order it reads them
_WEDGES = ((0, 1), (2, 3), (1, 2), (0, 3), (1, 3), (0, 2))


@np.errstate(over="ignore", invalid="ignore")
def selfdual_basis(coframe):
    """The three self-dual two-forms of the coframe, norm squared 4 each.

    The six wedges they add come out of one product pass over the
    coframe: (e^a ^ e^b)_ij = e^a_i e^b_j - e^a_j e^b_i.
    """
    e = coframe.jet
    first, second = zip(*_WEDGES)
    products = (_each(e, lambda c: c[..., first, :, None])
                * _each(e, lambda c: c[..., second, None, :]))
    wedges = products - _each(products, lambda c: np.swapaxes(c, -1, -2))

    def combine(m, sign):
        pair = _each(wedges, lambda c: c[..., m, :, :]) \
            + _each(wedges, lambda c: c[..., m + 1, :, :]) * sign
        return JetMatrix(coframe.coords, pair, coframe.base)

    return combine(0, 1), combine(2, 1), combine(4, -1)


@np.errstate(over="ignore", invalid="ignore")
def flat_cky(params, coframe):
    """The family member at the points of a flat coframe, as a two-form
    jet at the coframe's order."""
    w1, _, w3 = selfdual_basis(coframe)
    order = coframe.jet.order
    rj = Jet2.seed(coframe.base[0], 0, order)
    tj = Jet2.seed(coframe.base[1], 1, order)
    rr = rj * rj
    k1 = harmonic._coordinate(params.k1)
    a1 = Jet2.const(harmonic._coordinate(params.k2), order) - rr * k1 * jets.cos(tj)
    a3 = rr * k1 * jets.sin(tj)
    form = (_each(a1, lambda c: c[..., None, None]) * w1.jet
            + _each(a3, lambda c: c[..., None, None]) * w3.jet)
    return JetMatrix(CHART, form, coframe.base)


@np.errstate(over="ignore", invalid="ignore")
def flat_norm_squared(params, r, theta):
    """|Z|^2 of the family member, in closed form."""
    k1, k2 = harmonic._coordinate(params.k1), harmonic._coordinate(params.k2)
    return 4.0 * (k1 * k1 * jets.libm(pow, r, 4) + k2 * k2
                  - 2.0 * k1 * k2 * r * r * jets.libm(math.cos, theta))


@np.errstate(over="ignore", invalid="ignore")
def tod_cky_candidate(fields):
    """z times the fundamental form; |Z|^2 = 4 z^2 by the norm identity.

    Like the form, which carries first derivatives of the Ward
    coordinates, the candidate comes out one order below the fields, over
    their points in one pass: cky_residual's order-1 candidate needs
    order-2 fields.
    """
    om = tod.fundamental_form(fields)
    z = fields.z.truncate(om.jet.order)
    return JetMatrix(om.coords, _each(z, lambda c: c[..., None, None]) * om.jet, om.base)


def _frame_components(fields, radii, theta, st, ct):
    """Candidate two-form at each radius, in the flat-model orthonormal frame.

    The asymptotic chart is psi = tau, phi = y, rho = r^2 sin t / 4,
    zeta = center + r^2 cos t / 4, centered at the weighted nut center so
    the metric approaches the model at the fast rate; the chart Jacobian
    pushes the candidate onto the model chart and the coframe matrix then
    strips the r growth so that components of different slots can be
    compared on an equal footing.  This identification converges to the
    flat metric but has negative Jacobian determinant, so the self-dual
    candidate lands on the image of the displayed family under the fiber
    swap psi <-> phi, an orientation-reversing isometry of the model; the
    matching in cky_decay_check reads the family constants off the swapped
    slots.  fields are the order-1 fields at the chart points of radii,
    one point per radius; the frames come back as one (n, 4, 4) array.
    """
    r = np.asarray(radii)
    Z = tod_cky_candidate(fields).values()
    jac = np.zeros(r.shape + (4, 4))
    jac[..., 0, 0] = 1.0
    jac[..., 1, 1] = 1.0
    jac[..., 2, 2] = r * st / 2.0
    jac[..., 2, 3] = r * r * ct / 4.0
    jac[..., 3, 2] = r * ct / 2.0
    jac[..., 3, 3] = -r * r * st / 4.0
    Zv = np.swapaxes(jac, -1, -2) @ Z @ jac
    Et = np.swapaxes(flat_coframe(r, theta, order=0).values(), -1, -2)
    X = np.linalg.solve(Et, Zv)
    return np.swapaxes(np.linalg.solve(Et, np.swapaxes(X, -1, -2)), -1, -2)


def cky_decay_check(rods, radii, theta=1.0):
    """Decay of the candidate toward the matched flat family member.

    The member is matched at the largest radius from the two self-dual
    frame slots that carry k1 and k2, and the deviation from it is fitted
    against r on a log-log scale; the contract is an exponent near -2.

    The asymptotic chart is the polar chart centered at the weighted nut
    center.  That explicit chart matches the flat model at the fast rate
    only when two conditions hold: c = -sum_{i<j} a_i a_j (z_j - z_i)^2,
    the normalization giving the model its standard cone angles, and a
    vanishing centered third moment sum_{i<j} a_i a_j (z_j - z_i)^2
    (z_i + z_j - 2 zbar), which every reflection-symmetric configuration
    satisfies.  A nonzero third moment leaves an order-one chart term in
    the frame components (the corrected chart exists but is not
    constructed here); the report then carries chart_limited = True and
    the exponent measures the chart, not the tensor.  Single-nut data has
    no fundamental form to compare (W vanishes identically) and raises
    RodDataError.
    """
    if rods.n == 1:
        raise RodDataError("decay fit needs at least two nuts")
    radii = [float(r) for r in radii]
    if len(radii) < 2:
        raise RodDataError("decay fit needs at least two radii")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise RodDataError("radii must be strictly increasing")
    if not radii[0] > 0:
        raise DomainError("cky_decay_check", radii[0], "radii must be positive")
    if not 0 < theta < math.pi:
        raise DomainError("cky_decay_check", theta, "polar angle must avoid the axis")
    st, ct = math.sin(theta), math.cos(theta)
    center = rods.nut_center
    # every radius in one pass, on the chart points rho = r^2 sin t / 4,
    # zeta = center + r^2 cos t / 4
    rr = np.multiply(radii, radii)
    fields = tod.tod_fields(rods, rr * st / 4.0, center + rr * ct / 4.0, order=1)
    frames = _frame_components(fields, radii, theta, st, ct)
    tail = frames[-1]
    r_max = radii[-1]
    # the swap image of the member (k1, k2) occupies the slots
    # (e0^e1 - e2^e3) with weight k2 cos t - k1 r^2 and
    # (e1^e3 + e0^e2) with weight -k2 sin t
    slot_a = 0.5 * (tail[0, 1] - tail[2, 3])
    slot_b = 0.5 * (tail[1, 3] + tail[0, 2])
    k2 = -slot_b / st
    k1 = (k2 * ct - slot_a) / (r_max * r_max)
    devs, rels = [], []
    for r, Zf in zip(radii, frames):
        b_a = k2 * ct - k1 * r * r
        b_b = -k2 * st
        model = np.zeros((4, 4))
        model[0, 1] = b_a
        model[2, 3] = -b_a
        model[1, 3] = b_b
        model[0, 2] = b_b
        model = model - model.T
        dev = float(np.linalg.norm(Zf - model))
        scale = float(np.linalg.norm(Zf))
        devs.append(dev)
        rels.append(dev / scale if scale > 0 else dev)
    degenerate = max(rels) < 1e-12 or min(devs) == 0.0
    if degenerate:
        exponent = None
    else:
        exponent = float(np.polyfit(np.log(radii), np.log(devs), 1)[0])
    return {
        "radii": tuple(radii), "theta": theta, "k1": float(k1), "k2": float(k2),
        "deviations": tuple(devs), "relative_deviations": tuple(rels),
        "exponent": exponent, "degenerate": bool(degenerate),
        "chart_limited": chart_limited(rods),
    }


def chart_limited(rods):
    """Whether the centred third moment (RodData.third_moment) is nonzero,
    so that the polar chart is not the fast-rate chart.

    The moment scales as length^3, so it is compared with 1e-12 span^3,
    span = RodData.scale, multiplied out since a float power can raise
    OverflowError; an infinite or NaN moment reads False.
    """
    span = rods.scale
    return abs(rods.third_moment) > 1e-12 * span * span * span
