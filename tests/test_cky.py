"""Tests for the flat CKY family and the instanton candidate."""

import math

import numpy as np
import pytest

from identities import hodge_star, wedge_pairing
from rod_fixtures import eh_rods, skew_rods
from todkit import cky, curvature, harmonic, tod
from todkit.cky import FlatCkyParams
from todkit.errors import DomainError, RodDataError
from todkit.harmonic import RodData

WP_RHO = math.sqrt(3) / 4

RADII = [100.0 * 100.0 ** (i / 4) for i in range(5)]


def normalized(zs, weights):
    """Rod data with c set so the asymptotic cone is the standard one."""
    kap = sum(weights[i] * weights[j] * (zs[j] - zs[i]) ** 2
              for i in range(len(zs)) for j in range(i + 1, len(zs)))
    return RodData(c=-kap, zs=zs, weights=weights)


def flat_pack(r, theta):
    return curvature.curvature_pack(cky.flat_metric(cky.flat_coframe(r, theta)))


def form_norm_sq(pack, Z):
    Zv = Z.values()
    return float(np.einsum("ab,cd,ac,bd->", Zv, Zv, pack.ginv, pack.ginv))


def chart_partial(jet, axis):
    # jet axes (0, 1) sit on chart axes (2, 3); Killing directions are flat
    if axis == 2:
        return jet.partial(1, 0)
    if axis == 3:
        return jet.partial(0, 1)
    return 0.0


def exterior_derivative(form):
    out = np.zeros((4, 4, 4))
    for a in range(4):
        for b in range(4):
            for c in range(4):
                out[a, b, c] = (chart_partial(form.entry(b, c), a)
                                - chart_partial(form.entry(a, c), b)
                                + chart_partial(form.entry(a, b), c))
    return out


class TestCoframe:
    def test_metric_reconstruction(self):
        r, theta = 1.7, 0.8
        g = cky.flat_metric(cky.flat_coframe(r, theta)).values()
        st, ct = math.sin(theta), math.cos(theta)
        want = np.zeros((4, 4))
        want[0, 0] = r * r / 4
        want[1, 1] = (r * r / 4) * (ct * ct + st * st)
        want[0, 1] = want[1, 0] = (r * r / 4) * ct
        want[2, 2] = 1.0
        want[3, 3] = r * r / 4
        assert np.max(np.abs(g - want)) < 1e-14

    def test_volume_form(self):
        for r, theta in [(0.9, 1.1), (2.5, 0.4), (1.0, 2.8)]:
            det = np.linalg.det(cky.flat_coframe(r, theta).values())
            assert abs(det - r ** 3 * math.sin(theta) / 8) < 1e-13 * r ** 3

    def test_flat_curvature(self):
        for r, theta in [(0.7, 0.5), (3.1, 2.2)]:
            pack = flat_pack(r, theta)
            assert curvature.invariant_norms(pack)["riemann"] < 1e-12

    def test_axis_guards(self):
        with pytest.raises(DomainError):
            cky.flat_coframe(-1.0, 1.0)
        with pytest.raises(DomainError):
            cky.flat_coframe(1.0, 0.0)
        with pytest.raises(DomainError):
            cky.flat_coframe(1.0, math.pi)


class TestSelfdualBasis:
    def test_hodge_eigenforms(self):
        r, theta = 1.3, 0.9
        pack = flat_pack(r, theta)
        for om in cky.selfdual_basis(cky.flat_coframe(r, theta)):
            v = om.values()
            assert np.max(np.abs(hodge_star(pack, v) - v)) < 1e-12

    def test_wedge_pairing(self):
        # w1 and w3, the basis forms selfdual_basis builds
        r, theta = 0.8, 1.4
        cf = cky.flat_coframe(r, theta)
        basis = cky.selfdual_basis(cf)
        vol = np.linalg.det(cf.values())
        for i, oi in enumerate(basis):
            for j, oj in enumerate(basis):
                want = 2.0 * vol if i == j else 0.0
                got = wedge_pairing(oi, oj)
                assert abs(got - want) < 1e-12 * max(abs(vol), 1.0)

    def test_kahler_form_closed(self):
        for r, theta in [(1.1, 0.7), (2.4, 1.9)]:
            w1 = cky.selfdual_basis(cky.flat_coframe(r, theta))[0]
            assert np.max(np.abs(exterior_derivative(w1))) < 1e-12


class TestFlatFamily:
    def test_params_guard(self):
        with pytest.raises(RodDataError):
            FlatCkyParams(k1=0.0, k2=0.0)

    def test_cky_residual_on_unit_circle(self):
        rng = np.random.default_rng(11)
        for _ in range(12):
            ang = float(rng.uniform(0, 2 * math.pi))
            params = FlatCkyParams(k1=math.cos(ang), k2=math.sin(ang))
            r = float(rng.uniform(0.4, 3.0))
            theta = float(rng.uniform(0.2, math.pi - 0.2))
            pack = flat_pack(r, theta)
            Z = cky.flat_cky(params, cky.flat_coframe(r, theta))
            res, _ = curvature.cky_residual(pack, Z)
            assert res < 1e-12

    def test_parallel_member(self):
        pack = flat_pack(1.6, 1.2)
        Z = cky.flat_cky(FlatCkyParams(k1=0.0, k2=0.9), cky.flat_coframe(1.6, 1.2))
        covd = curvature.covariant_two_form_derivative(pack, Z)
        assert np.max(np.abs(covd)) < 1e-12

    def test_norm_formula(self):
        assert abs(cky.flat_norm_squared(FlatCkyParams(k1=1.0, k2=0.0), 1.0, 0.7)
                   - 4.0) < 1e-14
        rng = np.random.default_rng(5)
        for _ in range(10):
            params = FlatCkyParams(k1=float(rng.uniform(-2, 2)),
                                   k2=float(rng.uniform(0.1, 2)))
            r = float(rng.uniform(0.5, 4.0))
            theta = float(rng.uniform(0.3, math.pi - 0.3))
            pack = flat_pack(r, theta)
            Z = cky.flat_cky(params, cky.flat_coframe(r, theta))
            got = form_norm_sq(pack, Z)
            want = cky.flat_norm_squared(params, r, theta)
            assert abs(got - want) < 1e-12 * max(abs(want), 1.0)

    def test_norm_leading_behavior(self):
        # |Z0| = 2|k1| r^2 (1 + O(r^-2)) once the k2 term is subleading
        params = FlatCkyParams(k1=0.3, k2=0.7)
        devs = []
        for r in (100.0, 1000.0):
            ratio = math.sqrt(cky.flat_norm_squared(params, r, 0.9))
            devs.append(abs(ratio / (2 * abs(params.k1) * r * r) - 1.0))
        assert devs[0] < 2e-4
        assert devs[1] < 2e-6


class TestCandidate:
    def test_worked_point_norm(self):
        rods = eh_rods()
        f = tod.tod_fields(rods, WP_RHO, 0.0, order=3)
        pack = curvature.curvature_pack(tod.tod_metric(f))
        Z = cky.tod_cky_candidate(f)
        assert abs(form_norm_sq(pack, Z) - 1.0) < 1e-12

    def test_norm_identity_random_rods(self):
        rng = np.random.default_rng(23)
        for _ in range(6):
            n = int(rng.integers(2, 5))
            zs = tuple(sorted(rng.uniform(-2, 2, size=n)))
            raw = rng.uniform(0.2, 1.0, size=n)
            weights = tuple(raw / raw.sum())
            rods = RodData(c=-float(rng.uniform(0.05, 1.0)), zs=zs, weights=weights)
            for _ in range(4):
                rho = float(rng.uniform(0.3, 2.5))
                zeta = float(rng.uniform(-3, 3))
                f = tod.tod_fields(rods, rho, zeta, order=3)
                pack = curvature.curvature_pack(tod.tod_metric(f))
                Z = cky.tod_cky_candidate(f)
                got = form_norm_sq(pack, Z)
                want = 4.0 * f.z.value ** 2
                assert abs(got - want) < 1e-11 * want

    def test_conformal_factor_from_norm(self):
        rods = skew_rods()
        rho, zeta = 0.8, 0.4
        f = tod.tod_fields(rods, rho, zeta, order=3)
        pack = curvature.curvature_pack(tod.tod_metric(f))
        Z = cky.tod_cky_candidate(f)
        omega = 2.0 / math.sqrt(form_norm_sq(pack, Z))
        assert abs(omega - 1.0 / f.z.value) < 1e-13 / f.z.value

    def test_residual_and_killing_on_sampled_points(self):
        rods = eh_rods()
        rng = np.random.default_rng(3)
        count = 0
        while count < 50:
            rho = float(rng.uniform(0.2, 2.5))
            zeta = float(rng.uniform(-1.5, 1.5))
            try:
                rods.interior_check(rho, zeta)
            except Exception:
                continue
            f = tod.tod_fields(rods, rho, zeta, order=3)
            pack = curvature.curvature_pack(tod.tod_metric(f))
            Z = cky.tod_cky_candidate(f)
            res, xi = curvature.cky_residual(pack, Z)
            assert res < 1e-8
            assert np.max(np.abs(xi - np.array([1.0, 0.0, 0.0, 0.0]))) < 1e-8
            assert curvature.killing_residual(pack, xi) < 1e-8
            count += 1


class TestDecay:
    def test_eh_exponent(self):
        rep = cky.cky_decay_check(eh_rods(), RADII, theta=1.0)
        assert abs(rep["exponent"] + 2.0) < 0.1
        assert abs(rep["k1"] + 0.25) < 1e-6
        assert abs(rep["k2"]) < 1e-6
        assert not rep["degenerate"]
        assert not rep["chart_limited"]

    def test_symmetric_off_center_exponent(self):
        # reflection-symmetric rods away from the origin: the centered
        # chart still sees the fast rate
        rods = normalized((0.4, 1.0, 1.6), (0.25, 0.5, 0.25))
        rep = cky.cky_decay_check(rods, RADII, theta=1.0)
        assert abs(rep["exponent"] + 2.0) < 0.1
        assert abs(rep["k1"] + 0.25) < 1e-6
        assert not rep["chart_limited"]

    def test_skew_data_is_chart_limited(self):
        rods = normalized((-1.0, 0.2, 0.9), (0.2, 0.5, 0.3))
        rep = cky.cky_decay_check(rods, RADII, theta=1.0)
        assert rep["chart_limited"]
        assert rep["exponent"] > -1.0

    @pytest.mark.parametrize("zs, weights", [
        ((-1e154, 1e154), (0.5, 0.5)),
        ((-1e154, 0.0, 2e154), (0.2, 0.5, 0.3)),
    ], ids=["two-nut", "skew"])
    def test_far_apart_nuts_give_a_report(self, zs, weights):
        # the nut gaps square past the float range; the fit reads only
        # the third moment, never the cone sum, so it still reports
        rods = RodData(c=-1.0, zs=zs, weights=weights)
        rep = cky.cky_decay_check(rods, [1e80, 1e81])
        assert rep["chart_limited"] is cky.chart_limited(rods) is False
        assert not rep["degenerate"]

    def test_single_nut_degenerate(self):
        # W vanishes identically: there is no fundamental form to fit
        with pytest.raises(RodDataError, match="two nuts"):
            cky.cky_decay_check(RodData(c=-1.0, zs=(0.6,), weights=(1.0,)), RADII)

    @pytest.mark.parametrize("zs, weights, limited", [
        ((-1.0, 0.2, 0.9), (0.2, 0.5, 0.3), True),
        ((0.4, 1.0, 1.6), (0.25, 0.5, 0.25), False),
        ((-0.25, 0.25), (0.5, 0.5), False),
    ], ids=["skew", "symmetric", "two-nut"])
    def test_chart_limited_is_scale_invariant(self, zs, weights, limited):
        # under z -> alpha z, c -> alpha^2 c the moment scales as alpha^3
        for k in range(-40, 41):
            rods = normalized(tuple(4.0 ** k * z for z in zs), weights)
            assert cky.chart_limited(rods) is limited

    def test_input_guards(self):
        rods = eh_rods()
        with pytest.raises(RodDataError):
            cky.cky_decay_check(rods, [100.0])
        with pytest.raises(RodDataError):
            cky.cky_decay_check(rods, [100.0, 50.0])
        with pytest.raises(DomainError):
            cky.cky_decay_check(rods, [-1.0, 100.0])
        with pytest.raises(DomainError):
            cky.cky_decay_check(rods, [100.0, 200.0], theta=0.0)
