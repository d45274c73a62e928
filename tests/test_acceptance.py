"""Acceptance run: eleven numbered end-to-end checks.

Each test prints exactly one summary line (visible with -s):

    python3 -m pytest tests/test_acceptance.py -v -s

The checks cover the closed-form benchmark equivalence, Ricci flatness,
the one-sided Weyl structure, the exact algebraic identities, the
conformal factor equation, the slope-pattern classification, conical and
lattice regularity, the quartic-root family scans, the conformal Killing
forms, asymptotic decay rates, and a finite-difference audit of every
jet the other checks consume.
"""

import math
from fractions import Fraction as F

import numpy as np

from todkit import cky, classify, curvature, harmonic, pd, rods as rodmod, tod
from todkit.errors import TodkitError

import reference_potentials
from fd import check_jet_against_fd
from rod_fixtures import eh_rods, skew_rods

RADII = [100.0 * 100.0 ** (i / 4) for i in range(5)]


def _report(num, ok, label, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\ncriterion {num:2d} [{status}] {label}: {detail}", flush=True)
    assert ok, f"criterion {num} {label}: {detail}"


def tod_points(rng, data, count):
    """Interior samples in a moderate band around the rod span."""
    scale = data.scale
    lo = float(data.zs[0]) - 0.5 * scale
    hi = float(data.zs[-1]) + 0.5 * scale
    out = []
    while len(out) < count:
        rho = scale * 10.0 ** rng.uniform(-0.7, 0.3)
        zeta = rng.uniform(lo, hi)
        try:
            data.interior_check(rho, zeta)
        except TodkitError:
            continue
        out.append((float(rho), float(zeta)))
    return out


def pd_points(rng, params, count, margin=0.03):
    p1, p2, p3, p4 = (float(r) for r in params.roots)
    pts = []
    for _ in range(count):
        p = rng.uniform(p2 + margin * (p3 - p2), p3 - margin * (p3 - p2))
        q = rng.uniform(p1 + margin * (p2 - p1), p2 - margin * (p2 - p1))
        pts.append((float(p), float(q)))
    return pts


def tod_pack(data, rho, zeta):
    f = tod.tod_fields(data, rho, zeta, order=4)
    return f, curvature.curvature_pack(tod.tod_metric(f))


def test_criterion_01_closed_form_equivalence():
    data = eh_rods()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        r = float(rng.uniform(1.05, 4.0))
        theta = float(rng.uniform(0.1, math.pi - 0.1))
        rho, zeta = tod.eh_coords(1.0, r, theta, order=1)
        f = tod.tod_fields(data, rho.value, zeta.value, order=2)
        gv = tod.tod_metric(f).values()
        jac = np.eye(4)
        jac[2, 2], jac[2, 3] = rho.partial(1, 0), rho.partial(0, 1)
        jac[3, 2], jac[3, 3] = zeta.partial(1, 0), zeta.partial(0, 1)
        pulled = jac.T @ gv @ jac
        want = tod.eh_closed_form(1.0, r, theta).values()
        scale = np.max(np.abs(want))
        worst = max(worst, float(np.max(np.abs(pulled - want)) / scale))
    f0 = tod.tod_fields(data, math.sqrt(3.0) / 4.0, 0.0, order=0)
    spot = abs(f0.W.value - 8.0 / 3.0)
    ok = worst < 1e-10 and spot < 1e-10
    _report(1, ok, "closed-form benchmark equivalence",
            f"worst pullback deviation {worst:.2e} over 100 points, "
            f"worked-point W offset {spot:.2e}")


def test_criterion_02_ricci_flatness():
    rng = np.random.default_rng(202)
    data = eh_rods()
    worst_tod = 0.0
    for rho, zeta in tod_points(rng, data, 100):
        _, pack = tod_pack(data, rho, zeta)
        norms = curvature.invariant_norms(pack)
        worst_tod = max(worst_tod, norms["ricci"] / norms["riemann"])
    worst_pd = 0.0
    for params in (pd.PdParams(roots=(0.2, 0.4, 2.0, 6.25)),
                   pd.PdParams.normalized((0.3, 0.7, 1.6, 4.0))):
        for p, q in pd_points(rng, params, 50):
            pack = curvature.curvature_pack(pd.pd_metric(params, p, q))
            norms = curvature.invariant_norms(pack)
            worst_pd = max(worst_pd, norms["ricci"] / norms["riemann"])
    ok = worst_tod < 1e-7 and worst_pd < 1e-7
    _report(2, ok, "Ricci flatness",
            f"worst |Ric|/|Riem| {worst_tod:.2e} on 100 rod-built points, "
            f"{worst_pd:.2e} on 100 quartic-root points")


def test_criterion_03_weyl_structure():
    rng = np.random.default_rng(303)
    worst_spec = 0.0
    worst_lam = 0.0
    for data, count in ((eh_rods(), 30), (skew_rods(), 20)):
        c = float(data.c)
        for rho, zeta in tod_points(rng, data, count):
            f, pack = tod_pack(data, rho, zeta)
            split = curvature.weyl_split(pack)
            lam = split.lam
            want = np.sort(np.array([lam, -lam / 2.0, -lam / 2.0]))
            got = np.sort(split.eigs_plus)
            worst_spec = max(worst_spec,
                             float(np.max(np.abs(got - want)) / abs(lam)))
            z = f.z.value
            worst_lam = max(worst_lam, abs(lam * z ** 3 + 2 * c) / abs(2 * c))
    worst_anti = 0.0
    for case, u, v in (("a", 0.3, 0.6), ("b", -2.5, 0.7)):
        params = pd.PdParams(roots=pd.selfdual_roots(case, u, v))
        for p, q in pd_points(rng, params, 8):
            split = curvature.weyl_split(
                curvature.curvature_pack(pd.pd_metric(params, p, q)))
            worst_anti = max(worst_anti,
                             float(np.max(np.abs(split.m_minus))
                                   / np.max(np.abs(split.m_plus))))
    ok = worst_spec < 1e-7 and worst_lam < 1e-7 and worst_anti < 1e-7
    _report(3, ok, "one-sided Weyl structure",
            f"spectrum pattern dev {worst_spec:.2e}, "
            f"lam z^3 + 2c dev {worst_lam:.2e}, "
            f"anti-self-dual part {worst_anti:.2e} on self-dual roots")


def test_criterion_04_algebraic_identities():
    rng = np.random.default_rng(404)
    worst_det = 0.0
    worst_harm = 0.0
    worst_conj = 0.0
    worst_norm = 0.0
    for data in (eh_rods(), skew_rods()):
        for rho, zeta in tod_points(rng, data, 25):
            f = tod.tod_fields(data, rho, zeta, order=3)
            gv = tod.tod_metric(f).values()
            det = gv[0, 0] * gv[1, 1] - gv[0, 1] * gv[0, 1]
            worst_det = max(worst_det, abs(det - rho * rho) / (rho * rho))

            v, h = harmonic.potentials(f)
            terms = (v.partial(2, 0), v.partial(1, 0) / rho, v.partial(0, 2))
            worst_harm = max(worst_harm,
                             abs(sum(terms)) / sum(abs(t) for t in terms))
            scale = abs(h.partial(1, 0)) + abs(h.partial(0, 1))
            worst_conj = max(
                worst_conj,
                abs(h.partial(1, 0) + rho * v.partial(0, 1)) / scale,
                abs(h.partial(0, 1) - rho * v.partial(1, 0)) / scale)

            Z = cky.tod_cky_candidate(f).values()
            gi = np.linalg.inv(gv)
            norm_sq = float(np.einsum("ab,cd,ac,bd->", Z, Z, gi, gi))
            z2 = f.z.value ** 2
            worst_norm = max(worst_norm, abs(norm_sq - 4.0 * z2) / (4.0 * z2))
    worst_pdet = 0.0
    for params in (pd.PdParams(roots=(0.2, 0.4, 2.0, 6.25)),
                   pd.PdParams.normalized((0.3, 0.7, 1.6, 4.0))):
        for p, q in pd_points(rng, params, 8):
            gv = pd.pd_metric(params, p, q).values()
            det = gv[0, 0] * gv[1, 1] - gv[0, 1] * gv[0, 1]
            target = (-float(params.quartic(p)) * float(params.quartic(q))
                      / (p - q) ** 4)
            worst_pdet = max(worst_pdet, abs(det - target) / abs(target))
    ok = max(worst_det, worst_harm, worst_conj, worst_norm,
             worst_pdet) < 1e-12
    _report(4, ok, "exact algebraic identities",
            f"Killing dets {worst_det:.2e} / {worst_pdet:.2e}, "
            f"harmonicity {worst_harm:.2e}, conjugacy {worst_conj:.2e}, "
            f"two-form norm {worst_norm:.2e}")


def test_criterion_05_conformal_factor():
    rng = np.random.default_rng(505)
    data = eh_rods()
    c = float(data.c)
    worst = 0.0
    for rho, zeta in tod_points(rng, data, 100):
        f, pack = tod_pack(data, rho, zeta)
        omega = 1 / f.z.truncate(2)
        lap = curvature.scalar_laplacian(pack, omega)
        want = -2.0 * c * omega.value ** 4
        worst = max(worst, abs(lap - want) / abs(want))
    ok = worst < 1e-8
    _report(5, ok, "conformal factor equation",
            f"worst relative residual {worst:.2e} over 100 points")


def test_criterion_06_classification():
    res = classify.search_admissible(n_max=4, l_bound=12)
    survivors = res.survivors
    unique = len(survivors) == 1
    b = survivors[0] if survivors else None
    family = (unique and b.n == 2 and b.pattern == (0,)
              and b.details["level"] == 2
              and b.details["weights"] == (F(1, 2), F(1, 2))
              and b.details["lens"] == (2, 1))
    certified = all(br.certificate for br in res.branches
                    if br.status != "admissible")
    n3 = [br for br in res.branches if br.n == 3 and br.pattern == (-1, 1)]
    ends = (len(n3) == 1 and n3[0].status == "rejected"
            and "-image of v_0" in str(n3[0].details.get("ends", "")))
    n1 = [br for br in res.branches if br.n == 1]
    cert = classify.verify_n1_degenerate()
    degenerate = (len(n1) == 1 and n1[0].status == "rejected"
                  and n1[0].details.get("degenerate") is True
                  and cert["degenerate"] and cert["max_abs_w_jet"] == 0.0)
    ok = unique and family and certified and ends and degenerate
    _report(6, ok, "slope-pattern classification",
            f"{len(survivors)} admissible family among {len(res.branches)} "
            f"branches; survivor n=2 zero middle slope, level 2, weights "
            f"(1/2, 1/2); opposite-end and vanishing-W certificates present")


def test_criterion_07_conical_and_lattice():
    data = eh_rods()
    worst = 0.0
    for rep in rodmod.conical_check(data):
        worst = max(worst, abs(rep.limit - 1.0))
    vs = data.vectors
    linear = all(vs[0][k] + vs[2][k] == 2 * vs[1][k] for k in range(2))
    label = rodmod.asymptotic_class(data).label
    ok = worst < 1e-6 and linear and label == "L(2,1)"
    _report(7, ok, "conical limits and asymptotic lattice",
            f"worst |limit - 1| {worst:.2e} over 3 rods, "
            f"v_0 + v_2 = 2 v_1 {'exact' if linear else 'violated'}, "
            f"lens {label}")


def test_criterion_08_quartic_root_scan():
    counts = {}
    ok = True
    for case in ("i", "ii", "iii", "a", "b"):
        res = pd.pd_scan(case, samples=10000, seed=8)
        counts[case] = res.admissible
        ok = ok and res.admissible == 0
        ok = ok and sum(res.certificates.values()) == res.samples
        ok = ok and all(res.certificates.values())
    params = pd.PdParams(roots=(0.2, 0.4, 2.0, 6.25))
    reg = pd.pd_regularity(params)
    m, n = float(reg.m), float(reg.n)
    spot = abs(m - 32.0 / 3.0) < 1e-9 and abs(n + 0.120773) < 1e-5
    ok = ok and spot and not reg.ok
    _report(8, ok, "quartic-root family exclusion",
            f"admissible counts {counts} over 10000 samples per case; "
            f"spot closed forms m = {m:.4f}, n = {n:.6f}, not regular")


def test_criterion_09_conformal_killing_forms():
    rng = np.random.default_rng(909)
    worst_flat = 0.0
    for _ in range(8):
        phase = rng.uniform(0.0, 2.0 * math.pi)
        params = cky.FlatCkyParams(k1=math.cos(phase), k2=math.sin(phase))
        r = float(rng.uniform(0.5, 3.0))
        theta = float(rng.uniform(0.2, math.pi - 0.2))
        coframe = cky.flat_coframe(r, theta)
        pack = curvature.curvature_pack(cky.flat_metric(coframe))
        Z = cky.flat_cky(params, coframe)
        res, _ = curvature.cky_residual(pack, Z)
        worst_flat = max(worst_flat, res)
        norm_sq = float(np.einsum("ab,cd,ac,bd->", Z.values(), Z.values(),
                                  pack.ginv, pack.ginv))
        want = cky.flat_norm_squared(params, r, theta)
        worst_flat = max(worst_flat, abs(norm_sq - want) / abs(want))
    data = eh_rods()
    worst_cand = 0.0
    for rho, zeta in tod_points(rng, data, 20):
        f, pack = tod_pack(data, rho, zeta)
        Z = cky.tod_cky_candidate(f)
        res, xi = curvature.cky_residual(pack, Z)
        worst_cand = max(worst_cand, res)
        worst_cand = max(worst_cand,
                         float(np.max(np.abs(xi - np.array([1.0, 0, 0, 0])))))
        worst_cand = max(worst_cand, curvature.killing_residual(pack, xi))
    ok = worst_flat < 1e-12 and worst_cand < 1e-8
    _report(9, ok, "conformal Killing two-forms",
            f"flat family residual and norm formula {worst_flat:.2e}, "
            f"candidate residual with unit Killing direction {worst_cand:.2e}")


def test_criterion_10_asymptotic_decay():
    data = eh_rods()
    theta = 1.0
    rs = np.logspace(2.0, 4.0, 9)
    ws = []
    z_err = []
    v_ratio = []
    for r in rs:
        big_r = r * r / 4.0
        rho = big_r * math.sin(theta)
        zeta = big_r * math.cos(theta)
        f = tod.tod_fields(data, rho, zeta, order=0)
        ws.append(f.W.value)
        z_err.append(abs(f.z.value / big_r - 1.0))
        v = harmonic.potentials(f)[0].value
        v0 = reference_potentials.v0_jet(rho, zeta, order=0).value
        v_ratio.append(abs(v - v0) / math.log(big_r))
    slope = float(np.polyfit(np.log(rs), np.log(ws), 1)[0])
    report = cky.cky_decay_check(data, RADII, theta=theta)
    exponent = report["exponent"]
    ok = (abs(slope + 2.0) < 0.01 and z_err[-1] < 1e-8
          and z_err[-1] < z_err[0] and max(v_ratio) < 1e-3
          and abs(exponent + 2.0) < 0.1 and not report["chart_limited"])
    _report(10, ok, "asymptotic decay rates",
            f"W log-log slope {slope:.6f}, final |z/R - 1| {z_err[-1]:.2e}, "
            f"potential drift bound {max(v_ratio):.2e}, "
            f"two-form decay exponent {exponent:.4f}")


def test_criterion_11_finite_difference_audit():
    rng = np.random.default_rng(1111)
    worst = 0.0
    for data in (eh_rods(), skew_rods()):
        for rho, zeta in tod_points(rng, data, 8):
            f = tod.tod_fields(data, rho, zeta, order=2)
            v, h = harmonic.potentials(f)
            probes = (
                (f.W, lambda a, b, d=data:
                    tod.tod_fields(d, a, b, order=0).W.value),
                (f.F, lambda a, b, d=data:
                    tod.tod_fields(d, a, b, order=0).F.value),
                (f.e2nu, lambda a, b, d=data:
                    tod.tod_fields(d, a, b, order=0).e2nu.value),
                (f.z, lambda a, b, d=data:
                    tod.tod_fields(d, a, b, order=0).z.value),
                (v, lambda a, b, d=data: harmonic.potentials(
                    tod.tod_fields(d, a, b, order=0))[0].value),
                (h, lambda a, b, d=data: harmonic.potentials(
                    tod.tod_fields(d, a, b, order=0))[1].value),
            )
            for jet, fn in probes:
                worst = max(worst, check_jet_against_fd(jet, fn, rho, zeta))
    for _ in range(4):
        r = float(rng.uniform(1.2, 3.0))
        theta = float(rng.uniform(0.3, math.pi - 0.3))
        rho_jet, zeta_jet = tod.eh_coords(1.0, r, theta, order=2)
        worst = max(worst, check_jet_against_fd(
            rho_jet, lambda a, b: tod.eh_coords(1.0, a, b, order=0)[0].value,
            r, theta))
        worst = max(worst, check_jet_against_fd(
            zeta_jet, lambda a, b: tod.eh_coords(1.0, a, b, order=0)[1].value,
            r, theta))
    ok = worst < 1e-6
    _report(11, ok, "finite-difference jet audit",
            f"worst guarded relative deviation {worst:.2e} over 20 points")
