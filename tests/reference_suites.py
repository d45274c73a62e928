"""The point-by-point verify suites.

Reference for the ``fields``, ``curvature``, ``rods`` and ``cky`` suites
of ``todkit.cli``, which read the metric, the curvature, the Weyl split
and the Killing-Yano residuals of one point set, the 25 points of the
seed, from one array pass, and the conical heights and decay radii from
one shared order-1 pass, both in ``cli._evaluate``.  Here every suite
samples those 25 points itself, every point is read out of the
point-set fields on its own (``fields_at``) and goes through the layer
functions alone, one after the other, as the suites did before they took
a point axis; the conical check and the decay fit (``decay_entry``) each
evaluate their own points in their own ``tod_fields`` call.  The reports
of the two must agree byte for byte.  Each suite takes the evaluation
argument of ``cli.SUITES`` and ignores it, and the tests that run it
replace ``cli._evaluate`` by one that evaluates nothing.
``frame_components`` is the matching one-radius reference for
``cky._frame_components``.

The flat-family members are built here as ``cky`` built them before its
flat functions took a coframe: each of ``flat_metric`` and ``flat_cky``
stacks its own order-2 coframe and forms all 256 products e^a_i e^b_j
per point, and every member gets a full ``curvature_pack``.
"""

from __future__ import annotations

import math

import numpy as np

from todkit import cky, classify, curvature, harmonic, jets, rods, tod
from todkit.cky import CHART, FlatCkyParams, _each
from todkit.cli import DECAY_RADII, SINGLE_NUT, _check, _loc, _skip, _Worst, sample_interior
from todkit.errors import RodDataError, TodkitError
from todkit.jets import Jet2
from todkit.tod import JetMatrix, TodFields


def _coframe_products(coframe):
    """Every product e^a_i e^b_j of two coframe entries in one jet product:
    a jet whose coefficients are (*points, 4, 4, 4, 4) arrays, [a, b, i, j]."""
    e = coframe.jet
    return (_each(e, lambda c: c[..., :, None, :, None])
            * _each(e, lambda c: c[..., None, :, None, :]))


def flat_metric(r, theta):
    """The order-2 flat metric, summed from the diagonal slices of all
    coframe products."""
    cf = cky.flat_coframe(r, theta, 2)
    products = _coframe_products(cf)
    g = Jet2.const(0.0, 2)
    for a in range(4):
        g = g + _each(products, lambda c: c[..., a, a, :, :])
    return JetMatrix(CHART, g, cf.base, orientation=1)


def flat_cky(params, r, theta):
    """The order-2 family member, its wedges differences of slices of all
    coframe products."""
    cf = cky.flat_coframe(r, theta, 2)
    products = _coframe_products(cf)
    wedges = products - _each(products, lambda c: np.swapaxes(c, -1, -2))

    def combine(m, n, sign):
        return (_each(wedges, lambda c: c[..., m[0], m[1], :, :])
                + _each(wedges, lambda c: c[..., n[0], n[1], :, :]) * sign)

    w1, w3 = combine((0, 1), (2, 3), 1), combine((1, 3), (0, 2), -1)
    rj, tj = Jet2.seed(cf.base[0], 0, 2), Jet2.seed(cf.base[1], 1, 2)
    rr = rj * rj
    a1 = Jet2.const(params.k2, 2) - rr * params.k1 * jets.cos(tj)
    a3 = rr * params.k1 * jets.sin(tj)
    form = (_each(a1, lambda c: c[..., None, None]) * w1
            + _each(a3, lambda c: c[..., None, None]) * w3)
    return JetMatrix(CHART, form, cf.base)


def fields_at(fields, k):
    """The fields at point k of a one-dimensional point set: float
    coefficients and per-nut rows, as the point's own tod_fields call
    gives them."""
    a, s, R = fields.terms
    nut = (slice(None), k)
    return TodFields(*(f.at(k) for f in (fields.W, fields.z, fields.K, fields.M, fields.den,
                                         fields.rr)), rods=fields.rods,
                     point=(float(fields.point[0][k]), float(fields.point[1][k])),
                     terms=(a.reshape(-1), s.at(nut), R.at(nut)))


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
    fields = tod.tod_fields(data, *points.T, order=3)
    V, H = harmonic.potentials(fields)
    for k, (rho, zeta) in enumerate(points.tolist()):
        loc = _loc(rho, zeta)
        f = fields_at(fields, k)
        gv = tod.tod_metric(f).values()
        det = gv[0, 0] * gv[1, 1] - gv[0, 1] * gv[0, 1]
        v, h = V.at(k), H.at(k)
        terms = (v.partial(2, 0), v.partial(1, 0) / rho, v.partial(0, 2))
        scale = abs(h.partial(1, 0)) + abs(h.partial(0, 1))
        om = tod.fundamental_form(f).values()
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
    fields = tod.tod_fields(data, *points.T, order=4)
    for k, (rho, zeta) in enumerate(points.tolist()):
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
        pack = curvature.curvature_pack(flat_metric(r, theta))
        Z = flat_cky(params, r, theta)
        residual, _ = curvature.cky_residual(pack, Z)
        norm_sq = float(curvature.norm_squared(pack.ginv, Z.values()))
        want = cky.flat_norm_squared(params, r, theta)
        flat.push([f"r={r:.6g}, theta={theta:.6g}, k1={params.k1:.6g}"],
                  flat_family_residual=[residual],
                  flat_norm_formula=[abs(norm_sq - want) / max(abs(want), 1.0)])
    checks = flat.checks(tols)

    candidate = _Worst("candidate_residual", "candidate_killing")
    if data.n == 1:
        return checks + candidate.checks(tols, unread=SINGLE_NUT) + [decay_entry(data, tols)]
    points = sample_interior(data, 25, np.random.default_rng(seed))
    fields = tod.tod_fields(data, *points.T, order=3)
    for k, (rho, zeta) in enumerate(points.tolist()):
        f = fields_at(fields, k)
        pack = curvature.curvature_pack(tod.tod_metric(f))
        Z = cky.tod_cky_candidate(f)
        residual, xi = curvature.cky_residual(pack, Z)
        candidate.push(
            [_loc(rho, zeta)], candidate_residual=[residual],
            candidate_killing=[max(
                float(np.max(np.abs(xi - np.array([1.0, 0, 0, 0])))),
                curvature.killing_residual(pack, xi))])
    return checks + candidate.checks(tols) + [decay_entry(data, tols)]


def suite_rods(data, seed, tols, evaluation):
    junctions = _Worst("gl2z")
    reports = rods.gl2z_compatibility(data, tol=tols["gl2z"])
    junctions.push(
        [f"junction {rep.middle}" + (" (singular basis)" if rep.singular else "")
         for rep in reports],
        gl2z=[math.inf if rep.singular else
              float(max(rods.int_distance(rep.level),
                        min(abs(rep.sign - 1), abs(rep.sign + 1))))
              for rep in reports])
    checks = junctions.checks({"gl2z": tols["gl2z"] * data.slack},
                              good=all(rep.ok for rep in reports),
                              unread="no junction: single-nut data has no middle rod")
    conical = _Worst("conical")
    try:
        # the conical heights in the check's own order-1 pass
        reports = rods.conical_check(data) if data.n > 1 else ()
    except (ArithmeticError, TodkitError) as exc:
        conical.push([f"evaluation error: {exc}"], conical=[math.inf])
        reports = ()
    conical.push([f"rod {rep.rod}" for rep in reports],
                 conical=[abs(rep.limit - 1.0) for rep in reports])
    checks += conical.checks(tols, unread=SINGLE_NUT)
    try:
        label, good = rods.asymptotic_class(data).label, True
    except RodDataError as exc:
        label, good = str(exc), False
    return checks + [_check("asymptotic_class", None, None, label, good)]


def decay_entry(data, tols):
    """The decay_exponent entry, its preconditions tested inline and the
    fit's radii evaluated in the fit's own order-1 pass."""
    name = "decay_exponent"
    if data.n == 1:
        return _skip(name, SINGLE_NUT)
    c, _, nuts = data.floats
    kappa = jets.ordered_sum(a_i * a_j * (z_j - z_i) ** 2
                             for i, (z_i, a_i) in enumerate(nuts)
                             for z_j, a_j in nuts[i + 1:])
    if abs(c + kappa) > 1e-9 * kappa:
        return _skip(name, "needs c = -sum a_i a_j (z_j - z_i)^2 "
                           "(standard asymptotic cone)")
    if cky.chart_limited(data):
        return _skip(name, "nonzero centered third moment: polar chart "
                           "is not the fast-rate chart")
    report = cky.cky_decay_check(data, list(DECAY_RADII))
    if report["exponent"] is None:
        return _skip(name, "deviation at rounding level at every radius")
    return _check(name, abs(report["exponent"] + 2.0), tols[name],
                  f"r in [{DECAY_RADII[0]:g}, {DECAY_RADII[-1]:g}]")


SUITES = {"fields": suite_fields, "curvature": suite_curvature, "rods": suite_rods,
          "cky": suite_cky}


def frame_components(fields, r, theta, st, ct):
    """cky._frame_components at one radius; fields are that point's own."""
    Z = cky.tod_cky_candidate(fields).values()
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
