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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import jets, tod
from .errors import DomainError, RodDataError
from .jets import Jet2
from .tod import JetMatrix

CHART = ("psi", "phi", "r", "theta")


@dataclass(frozen=True)
class FlatCkyParams:
    """Constants of the flat family; the zero member is excluded."""

    k1: float
    k2: float

    def __post_init__(self):
        if self.k1 == 0 and self.k2 == 0:
            raise RodDataError("family constants must not both vanish")


def flat_coframe(r, theta, order=2):
    """Hopf coframe jets at an interior point of the flat model."""
    if not r > 0:
        raise DomainError("flat_coframe", r, "radius must be positive")
    if not 0 < theta < math.pi:
        raise DomainError("flat_coframe", theta, "polar angle must avoid the axis")
    rj = Jet2.seed(float(r), 0, order)
    tj = Jet2.seed(float(theta), 1, order)
    half = rj * 0.5
    zero = Jet2.const(0.0, order)
    one = Jet2.const(1.0, order)
    rows = [
        [half, half * jets.cos(tj), zero, zero],
        [zero, zero, one, zero],
        [zero, zero, zero, half],
        [zero, half * jets.sin(tj), zero, zero],
    ]
    return JetMatrix(coords=CHART, comp=rows, base=(float(r), float(theta)))


def flat_metric(r, theta):
    """Flat metric order-2 jets assembled from the coframe; positively oriented."""
    cf = flat_coframe(r, theta, 2)
    comp = [
        [sum((cf.comp[a][i] * cf.comp[a][j] for a in range(4)),
             Jet2.const(0.0, 2)) for j in range(4)]
        for i in range(4)
    ]
    return JetMatrix(coords=CHART, comp=comp, base=cf.base, orientation=1)


def wedge(u, v):
    """Componentwise wedge of two coframe rows of jets."""
    return [[u[i] * v[j] - u[j] * v[i] for j in range(4)] for i in range(4)]


def wedge_pairing(om, eta):
    """Top-form coefficient of om ^ eta in the chart basis."""
    P = om.values()
    Q = eta.values()
    return float(
        P[0, 1] * Q[2, 3] - P[0, 2] * Q[1, 3] + P[0, 3] * Q[1, 2]
        + P[1, 2] * Q[0, 3] - P[1, 3] * Q[0, 2] + P[2, 3] * Q[0, 1]
    )


def selfdual_basis(coframe):
    """The three self-dual two-forms of the coframe, norm squared 4 each."""
    e = coframe.comp

    def combine(m, n, sign):
        comp = [[m[i][j] + sign * n[i][j] for j in range(4)] for i in range(4)]
        return JetMatrix(coords=coframe.coords, comp=comp, base=coframe.base)

    w1 = combine(wedge(e[0], e[1]), wedge(e[2], e[3]), 1)
    w2 = combine(wedge(e[1], e[2]), wedge(e[0], e[3]), 1)
    w3 = combine(wedge(e[1], e[3]), wedge(e[0], e[2]), -1)
    return w1, w2, w3


def flat_cky(params, r, theta, order=2):
    """The family member at one point of the flat model, as a two-form jet."""
    cf = flat_coframe(r, theta, order)
    w1, _, w3 = selfdual_basis(cf)
    rj = Jet2.seed(float(r), 0, order)
    tj = Jet2.seed(float(theta), 1, order)
    rr = rj * rj
    a1 = Jet2.const(float(params.k2), order) - float(params.k1) * rr * jets.cos(tj)
    a3 = float(params.k1) * rr * jets.sin(tj)
    comp = [
        [a1 * w1.comp[i][j] + a3 * w3.comp[i][j] for j in range(4)]
        for i in range(4)
    ]
    return JetMatrix(coords=CHART, comp=comp, base=cf.base)


def flat_norm_squared(params, r, theta):
    """|Z|^2 of the family member, in closed form."""
    k1, k2 = float(params.k1), float(params.k2)
    return 4.0 * (k1 * k1 * r ** 4 + k2 * k2
                  - 2.0 * k1 * k2 * r * r * math.cos(theta))


def tod_cky_candidate(fields, order=2):
    """z times the fundamental form; |Z|^2 = 4 z^2 by the norm identity.

    fields is a tod.TodFields of order at least order + 1, since the form
    carries first derivatives of the Ward coordinates; the candidate
    comes out at order.
    """
    z = fields.z.truncate(order)
    om = tod.fundamental_form(fields, order=order)
    comp = [[z * c for c in row] for row in om.comp]
    return JetMatrix(coords=om.coords, comp=comp, base=om.base)


def _frame_components(rods, r, theta, st, ct, center):
    """Candidate two-form at radius r, in the flat-model orthonormal frame.

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
    slots.
    """
    rho = r * r * st / 4.0
    zeta = center + r * r * ct / 4.0
    Z = tod_cky_candidate(tod.tod_fields(rods, rho, zeta, order=1), order=0).values()
    jac = np.zeros((4, 4))
    jac[0, 0] = 1.0
    jac[1, 1] = 1.0
    jac[2, 2] = r * st / 2.0
    jac[2, 3] = r * r * ct / 4.0
    jac[3, 2] = r * ct / 2.0
    jac[3, 3] = -r * r * st / 4.0
    Zv = jac.T @ Z @ jac
    E = flat_coframe(r, theta, order=0).values()
    X = np.linalg.solve(E.T, Zv)
    return np.linalg.solve(E.T, X.T).T


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
    no fundamental form to compare (W vanishes identically), so only the
    norm identity |Z| = 2z is checked there, which the family reproduces
    exactly, and the fit is flagged degenerate.
    """
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
    total = sum(float(a) for a in rods.weights)
    center = sum(float(a) * float(z) for a, z in zip(rods.weights, rods.zs)) / total
    moment = 0.0
    for i in range(len(rods.zs)):
        for j in range(i + 1, len(rods.zs)):
            gap = float(rods.zs[j]) - float(rods.zs[i])
            pair = float(rods.weights[i]) * float(rods.weights[j]) * gap * gap
            moment += pair * (float(rods.zs[i]) + float(rods.zs[j]) - 2.0 * center)

    if len(rods.zs) == 1:
        # one nut: in the centered chart z = a r^2 / 4 exactly, and the
        # member with k1 = -a/4, k2 = 0 has the same norm to rounding
        a1w = float(rods.weights[0])
        k1, k2 = -a1w / 4.0, 0.0
        params = FlatCkyParams(k1=k1, k2=k2)
        devs, rels = [], []
        for r in radii:
            rho = r * r * st / 4.0
            zeta = center + r * r * ct / 4.0
            zval = tod.tod_fields(rods, rho, zeta, order=0).z.value
            model = math.sqrt(flat_norm_squared(params, r, theta))
            devs.append(abs(2.0 * zval - model))
            rels.append(devs[-1] / model)
        return {
            "radii": tuple(radii), "theta": theta, "k1": k1, "k2": k2,
            "deviations": tuple(devs), "relative_deviations": tuple(rels),
            "exponent": None, "degenerate": True, "norm_only": True,
            "chart_limited": False,
        }

    frames = [_frame_components(rods, r, theta, st, ct, center) for r in radii]
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
        "exponent": exponent, "degenerate": bool(degenerate), "norm_only": False,
        "chart_limited": abs(moment) > 1e-12,
    }
