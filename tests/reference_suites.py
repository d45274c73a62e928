"""The point-by-point verify suites.

Reference for the ``fields``, ``curvature`` and ``cky`` suites of
``todkit.cli``, which read the metric, the curvature, the Weyl split and
the Killing-Yano residuals of one point set, the 25 points of the seed,
from one array pass, ``cli._evaluate``.  Here every suite samples those
25 points itself, every point is read out of the point-set fields on its
own (``fields_at``) and goes through the layer functions alone, one
after the other, as the suites did before they took a point axis; the
reports of the two must agree byte for byte.  Each suite takes the
evaluation argument of ``cli.SUITES`` and ignores it, and the tests that
run it replace ``cli._evaluate`` by one that evaluates nothing.
``frame_components`` is the matching one-radius reference for
``cky._frame_components``.
"""

from __future__ import annotations

import math

import numpy as np

from todkit import cky, classify, curvature, harmonic, tod
from todkit.cky import FlatCkyParams
from todkit.cli import (SINGLE_NUT, _check, _decay_entry, _loc, _point_set_fields,
                        _skip, _Worst, sample_interior)
from todkit.tod import TodFields


def fields_at(fields, k):
    """The fields at point k of a one-dimensional point set: float
    coefficients and per-nut rows, as the point's own tod_fields call
    gives them."""
    a, s, artanh, R = fields.terms
    nut = (slice(None), k)
    return TodFields(W=fields.W.at(k), e2nu=fields.e2nu.at(k), F=fields.F.at(k),
                     z=fields.z.at(k), x=fields.x.at(k), rods=fields.rods,
                     point=(float(fields.point[0][k]), float(fields.point[1][k])),
                     terms=(a.reshape(-1), s.at(nut), artanh.at(nut), R.at(nut)))


def suite_fields(data, seed, tols, evaluation):
    worst = _Worst("killing_det", "harmonic_v", "conjugate_pair", "toda",
                   "norm_identity")
    if data.n == 1:
        cert = classify.verify_n1_degenerate(rods=data)
        found = "vanish" if cert["degenerate"] else "are not all zero"
        return [{
            "name": "w_identically_zero", "status": "fail",
            "measured": cert["max_abs_w_jet"], "tolerance": None,
            "location": f"W jets {found} on a grid of {cert['points']} points; "
                        "single-nut data gives a degenerate metric",
        }] + worst.checks(tols, unread=SINGLE_NUT) + [_skip("positivity", SINGLE_NUT)]

    rng = np.random.default_rng(seed)
    min_field, min_loc = math.inf, ""
    points = sample_interior(data, 25, rng)
    fields = _point_set_fields(data, points, 3)
    V, H = harmonic.potentials(fields)
    for k, (rho, zeta) in enumerate(points):
        loc = _loc(rho, zeta)
        f = fields_at(fields, k)
        gv = tod.tod_metric(f).values()
        det = gv[0, 0] * gv[1, 1] - gv[0, 1] * gv[0, 1]
        v, h = V.at(k), H.at(k)
        terms = (v.partial(2, 0), v.partial(1, 0) / rho, v.partial(0, 2))
        scale = abs(h.partial(1, 0)) + abs(h.partial(0, 1))
        om = tod.fundamental_form(f, order=1).values()
        gi = np.linalg.inv(gv)
        norm_sq = float(curvature.norm_squared(gi, om))
        worst.push(
            [loc],
            killing_det=[abs(det - rho * rho) / (rho * rho)],
            # left to right, as builtin sum adds floats only up to 3.11
            harmonic_v=[abs(0.0 + terms[0] + terms[1] + terms[2])
                        / (0.0 + abs(terms[0]) + abs(terms[1]) + abs(terms[2]))],
            conjugate_pair=[abs(h.partial(1, 0) + rho * v.partial(0, 1)) / scale],
            toda=[abs(harmonic.toda_residual(f))],
            norm_identity=[abs(norm_sq - 4.0) / 4.0])
        worst.push([loc], conjugate_pair=[abs(h.partial(0, 1)
                                              - rho * v.partial(1, 0)) / scale])
        low = min(f.W.value, f.e2nu.value)
        if low < min_field:
            min_field, min_loc = low, loc
    return worst.checks(tols) + [_check("positivity", min_field, 0.0, min_loc,
                                        good=min_field > 0.0)]


def suite_curvature(data, seed, tols, evaluation):
    worst = _Worst("ricci_ratio", "weyl_spectrum", "lambda_z3",
                   "conformal_factor")
    if data.n == 1:
        return worst.checks(tols, unread=SINGLE_NUT)
    rng = np.random.default_rng(seed)
    c = float(data.c)
    points = sample_interior(data, 25, rng)
    fields = _point_set_fields(data, points, 4)
    for k, (rho, zeta) in enumerate(points):
        loc = _loc(rho, zeta)
        f = fields_at(fields, k)
        pack = curvature.curvature_pack(tod.tod_metric(f))
        norms = curvature.invariant_norms(pack)
        ricci = norms["ricci"] / norms["riemann"]
        split = curvature.weyl_split(pack)
        lam = split.lam
        if lam is None:
            worst.push([loc], ricci_ratio=[ricci], weyl_spectrum=[math.inf])
            continue
        want = np.sort(np.array([lam, -lam / 2, -lam / 2]))
        omega = 1 / f.z.truncate(2)
        lap = curvature.scalar_laplacian(pack, omega)
        want_lap = -2 * c * omega.value ** 4
        worst.push(
            [loc], ricci_ratio=[ricci],
            weyl_spectrum=[np.max(np.abs(np.sort(split.eigs_plus) - want))
                           / abs(lam)],
            lambda_z3=[abs(lam * f.z.value ** 3 + 2 * c) / abs(2 * c)],
            conformal_factor=[abs(lap - want_lap) / abs(want_lap)])
    return worst.checks(tols, unread="no sampled point has a simple self-dual eigenvalue")


def suite_cky(data, seed, tols, evaluation):
    rng = np.random.default_rng(seed)
    flat = _Worst("flat_family_residual", "flat_norm_formula")
    for _ in range(8):
        ang = float(rng.uniform(0.0, 2.0 * math.pi))
        params = FlatCkyParams(k1=math.cos(ang), k2=math.sin(ang))
        r = float(rng.uniform(0.4, 3.0))
        theta = float(rng.uniform(0.25, math.pi - 0.25))
        pack = curvature.curvature_pack(cky.flat_metric(r, theta))
        Z = cky.flat_cky(params, r, theta)
        residual, _ = curvature.cky_residual(pack, Z)
        norm_sq = float(curvature.norm_squared(pack.ginv, Z.values()))
        want = cky.flat_norm_squared(params, r, theta)
        flat.push([f"r={r:.6g}, theta={theta:.6g}, k1={params.k1:.6g}"],
                  flat_family_residual=[residual],
                  flat_norm_formula=[abs(norm_sq - want) / max(abs(want), 1.0)])
    checks = flat.checks(tols)

    candidate = _Worst("candidate_residual", "candidate_killing")
    if data.n == 1:
        return checks + candidate.checks(tols, unread=SINGLE_NUT) + [_decay_entry(data, tols)]
    points = sample_interior(data, 25, np.random.default_rng(seed))
    fields = _point_set_fields(data, points, 3)
    for k, (rho, zeta) in enumerate(points):
        f = fields_at(fields, k)
        pack = curvature.curvature_pack(tod.tod_metric(f))
        Z = cky.tod_cky_candidate(f)
        residual, xi = curvature.cky_residual(pack, Z)
        candidate.push(
            [_loc(rho, zeta)], candidate_residual=[residual],
            candidate_killing=[max(
                float(np.max(np.abs(xi - np.array([1.0, 0, 0, 0])))),
                curvature.killing_residual(pack, xi))])
    return checks + candidate.checks(tols) + [_decay_entry(data, tols)]


SUITES = {"fields": suite_fields, "curvature": suite_curvature, "cky": suite_cky}


def frame_components(fields, r, theta, st, ct):
    """cky._frame_components at one radius; fields are that point's own."""
    Z = cky.tod_cky_candidate(fields, order=0).values()
    jac = np.zeros((4, 4))
    jac[0, 0] = 1.0
    jac[1, 1] = 1.0
    jac[2, 2] = r * st / 2.0
    jac[2, 3] = r * r * ct / 4.0
    jac[3, 2] = r * ct / 2.0
    jac[3, 3] = -r * r * st / 4.0
    Zv = jac.T @ Z @ jac
    E = cky.flat_coframe(r, theta, order=0).values()
    X = np.linalg.solve(E.T, Zv)
    return np.linalg.solve(E.T, X.T).T
