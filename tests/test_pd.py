"""Tests for the quartic-root family: metric, rod relations, scans, corner limit."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from todkit import cli, curvature, pd
from todkit.errors import CertificateError, DomainError, RodDataError, SignatureError

F = Fraction

SPOT = (0.2, 0.4, 2.0, 6.25)


def spot_exact():
    return pd.PdParams((F(1, 5), F(2, 5), F(2), F(25, 4)), a0=1)


def spot_float():
    return pd.PdParams(SPOT)


class TestParams:
    def test_root_product_guard(self):
        with pytest.raises(RodDataError):
            pd.PdParams((0.2, 0.4, 2.0, 6.0))

    def test_ordering_guard(self):
        with pytest.raises(RodDataError):
            pd.PdParams((0.4, 0.2, 2.0, 6.25))

    def test_leading_coefficient_guard(self):
        with pytest.raises(RodDataError):
            pd.PdParams(SPOT, a0=-1.0)

    def test_normalized_rescales(self):
        params = pd.PdParams.normalized((1.0, 2.0, 3.0, 4.0))
        prod = params.roots[0] * params.roots[1] * params.roots[2] * params.roots[3]
        assert abs(prod - 1.0) < 1e-12
        assert params.roots[0] < params.roots[1] < params.roots[2] < params.roots[3]

    def test_coefficients_exact(self):
        params = spot_exact()
        a0, a1, a2, a3 = params.coefficients
        assert (a0, a1, a2, a3) == (1, F(-204, 25), F(1753, 100), F(-177, 20))

    def test_quartic_vanishes_at_roots(self):
        params = spot_exact()
        for root in params.roots:
            assert params.quartic(root) == 0

    def test_quartic_prime_exact(self):
        assert spot_exact().quartic_prime(F(2, 5)) == F(234, 125)

    def test_selfdual_flags(self):
        assert not spot_exact().selfdual
        pal = pd.PdParams(pd.selfdual_roots("a", F(1, 2), F(4, 5)), a0=1)
        assert pal.selfdual and not pal.flat
        flat = pd.PdParams((F(-2), F(-1, 2), F(1, 2), F(2)), a0=1)
        assert flat.selfdual and flat.flat

    def test_rectangle_flag(self):
        assert spot_exact().rectangle_ok
        assert not pd.PdParams((F(-3), F(-1, 3), F(1, 2), F(2)), a0=1).rectangle_ok


class TestMetric:
    def test_killing_determinant_identity(self):
        params = spot_float()
        p1, p2, p3, p4 = params.roots
        for (p, q) in ((0.9, 0.3), (0.5, 0.25), (1.8, 0.21), (0.41, 0.39)):
            g = pd.pd_metric(params, p, q).values()
            det = g[0, 0] * g[1, 1] - g[0, 1] ** 2
            target = -params.quartic(p) * params.quartic(q) / (p - q) ** 4
            assert abs(det - target) <= 1e-12 * abs(target)

    def test_riemannian_signature(self):
        g = pd.pd_metric(spot_float(), 0.9, 0.3).values()
        assert np.all(np.linalg.eigvalsh(g) > 0)

    def test_domain_guards(self):
        params = spot_float()
        with pytest.raises(DomainError):
            pd.pd_metric(params, 3.0, 0.3)
        with pytest.raises(DomainError):
            pd.pd_metric(params, 0.9, 0.1)
        bad = pd.PdParams.normalized((-3.0, -1.0 / 3.0, 0.5, 2.0))
        with pytest.raises(SignatureError):
            pd.pd_metric(bad, 0.4, -2.9)

    def test_ricci_flat(self):
        for params, (p, q) in (
            (spot_float(), (0.9, 0.3)),
            (pd.PdParams.normalized((0.3, 0.7, 1.6, 4.0)), (1.0, 0.5)),
        ):
            pack = curvature.curvature_pack(pd.pd_metric(params, p, q))
            norms = curvature.invariant_norms(pack)
            assert norms["ricci"] <= 1e-10 * max(norms["riemann"], 1.0)

    def test_weyl_spectrum_both_blocks(self):
        pack = curvature.curvature_pack(pd.pd_metric(spot_float(), 0.9, 0.3))
        split = curvature.weyl_split(pack)
        for eigs in (split.eigs_plus, split.eigs_minus):
            arr = np.asarray(eigs)
            lam = arr[np.argmax(np.abs(arr))]
            expect = np.sort([lam, -lam / 2.0, -lam / 2.0])
            assert np.allclose(np.sort(arr), expect, rtol=1e-7, atol=1e-12)
            assert abs(arr.sum()) < 1e-10

    def test_selfdual_half_flat(self):
        params = pd.PdParams(pd.selfdual_roots("a", 0.5, 0.8))
        pack = curvature.curvature_pack(pd.pd_metric(params, 1.0, 0.6))
        split = curvature.weyl_split(pack)
        assert np.max(np.abs(split.eigs_minus)) < 1e-12
        assert np.max(np.abs(split.eigs_plus)) > 1e-3

    def test_flat_roots_flat_metric(self):
        params = pd.PdParams((-2.0, -0.5, 0.5, 2.0))
        pack = curvature.curvature_pack(pd.pd_metric(params, 0.2, -1.0))
        assert curvature.invariant_norms(pack)["riemann"] < 1e-12


class TestRodVectors:
    def test_exact_values(self):
        vecs = pd.pd_rod_vectors(spot_exact())
        assert vecs[0] == (F(20, 117), F(125, 117))
        assert vecs[3] == (F(125, 117), F(20, 117))
        for vec in vecs:
            assert isinstance(vec[0], Fraction)

    def test_p_and_q_edges(self):
        params = spot_exact()
        p1, p2, p3, p4 = params.roots
        l1, l2, l3, l4 = pd.pd_rod_vectors(params)
        assert l1 == (2 * p2 * p2 / params.quartic_prime(p2),
                      2 / params.quartic_prime(p2))
        assert l2 == (2 / params.quartic_prime(p1),
                      2 * p1 * p1 / params.quartic_prime(p1))


class TestRegularity:
    def test_spot_values_exact(self):
        reg = pd.pd_regularity(spot_exact())
        assert reg.m == F(32, 3)
        assert reg.n == F(-25, 207)
        assert reg.eps == F(455, 3519)
        assert reg.epsbar == F(363, 728)
        assert reg.m_raw == F(2420, 3519)
        assert reg.n_raw == F(-85, 91)
        assert not reg.ok

    def test_spot_values_float(self):
        reg = pd.pd_regularity(spot_float())
        assert abs(reg.m - 32.0 / 3.0) < 1e-10
        assert abs(reg.n + 25.0 / 207.0) < 1e-10
        assert not reg.ok

    def test_closed_forms_match_solved(self):
        params = spot_exact()
        p1, p2, p3, p4 = params.roots
        reg = pd.pd_regularity(params)
        assert reg.m_raw / (reg.eps * reg.epsbar) == (p3 * p3 - p2 * p2) / (1 - p2 * p2 * p3 * p3)
        assert reg.n_raw * reg.eps == (p1 * p1 - p2 * p2) / (1 - p1 * p1 * p2 * p2)

    def test_selfdual_a(self):
        params = pd.PdParams(pd.selfdual_roots("a", F(1, 2), F(4, 5)), a0=1)
        report = pd.pd_selfdual_check(params)
        assert report["case"] == "a"
        assert report["opposite_pair"] == (3, 4)
        assert report["collinear"]
        assert report["eps"] == F(13, 28)
        assert report["eps_closed"] == F(13, 28)
        assert report["eps_gap"] == F(15, 28)
        assert not report["regular"] and not report["flat"]

    def test_selfdual_b(self):
        params = pd.PdParams((F(-3), F(-1, 3), F(1, 2), F(2)), a0=1)
        report = pd.pd_selfdual_check(params)
        assert report["case"] == "b"
        assert report["opposite_pair"] == (1, 2)
        assert report["collinear"]
        assert report["epsbar"] == F(-7)
        assert report["epsbar_closed"] == F(-7)
        assert not report["regular"]

    def test_selfdual_flat(self):
        report = pd.pd_selfdual_check(pd.PdParams((F(-2), F(-1, 2), F(1, 2), F(2)), a0=1))
        assert report["flat"]
        assert report["epsbar"] is None
        assert report["pair_identity_residual"] == 0.0

    def test_selfdual_requires_palindromic(self):
        with pytest.raises(RodDataError):
            pd.pd_selfdual_check(spot_exact())

    def test_selfdual_float_case_a(self):
        report = pd.pd_selfdual_check(pd.PdParams(pd.selfdual_roots("a", 0.5, 0.8)))
        assert abs(report["eps"] - 13.0 / 28.0) < 1e-12
        assert not report["regular"]


class TestScans:
    @pytest.mark.parametrize("case", ["i", "ii", "iii", "a", "b"])
    def test_no_admissible_samples(self, case):
        result = pd.pd_scan(case, samples=150, seed=11)
        assert result.samples == 150
        assert result.admissible == 0
        assert sum(result.certificates.values()) == 150

    def test_case_certificates(self):
        assert "n strictly between -1 and 0" in pd.pd_scan("i", samples=40, seed=3).certificates
        assert "epsbar exceeds 1" in pd.pd_scan("ii", samples=40, seed=3).certificates
        assert "corner cut off" in "".join(pd.pd_scan("iii", samples=40, seed=3).certificates)

    def test_unknown_case(self):
        with pytest.raises(RodDataError):
            pd.pd_scan("z", samples=10)

    def test_deterministic(self):
        first = pd.pd_scan("iii", samples=30, seed=5)
        second = pd.pd_scan("iii", samples=30, seed=5)
        assert first.attempts == second.attempts

    def test_failed_certificate_is_an_error(self, monkeypatch, capsys):
        # a corner coefficient outside (-1, 0) breaks the case i certificate
        real = pd.pd_regularity

        def broken(params, tol=1e-9):
            return dataclasses.replace(real(params, tol), ok=False, n=0.5)

        monkeypatch.setattr(pd, "pd_regularity", broken)
        with pytest.raises(CertificateError):
            pd.pd_scan("i", samples=5, seed=3)
        code = cli.main(["pd", "scan", "--case", "i", "--samples", "5"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("evaluation error:")
        assert "n strictly between -1 and 0" in err


class TestCornerLimit:
    def test_deviation_small_at_hundred(self):
        report = pd.pd_ale_limit(spot_float(), 100.0, 2.0)
        assert report["deviation"] < 1e-6

    def test_fourth_order_decay(self):
        near = pd.pd_ale_limit(spot_float(), 100.0, 2.0)["deviation"]
        far = pd.pd_ale_limit(spot_float(), 200.0, 2.0)["deviation"]
        assert abs(far / near - 2.0 ** -4) < 0.1 * 2.0 ** -4

    def test_decay_slope_second_family(self):
        params = pd.PdParams.normalized((0.3, 0.7, 1.6, 4.0))
        rs = (50.0, 100.0, 200.0)
        devs = [pd.pd_ale_limit(params, r, 2.0)["deviation"] for r in rs]
        slope = np.polyfit(np.log(rs), np.log(devs), 1)[0]
        assert abs(slope + 4.0) < 0.15

    def test_prefactor_measured(self):
        report = pd.pd_ale_limit(spot_float(), 200.0, 2.0)
        p2 = spot_float().roots[1]
        target = 8.0 * (1.0 - p2 ** 4) / float(spot_float().quartic_prime(p2))
        assert abs(report["scale"] - target) < 1e-14 * abs(target)
        assert abs(report["scale_measured"] / report["scale"] - 1.0) < 1e-8

    def test_theta_sweep(self):
        for theta in (0.5, 1.5, 2.5):
            report = pd.pd_ale_limit(spot_float(), 150.0, theta)
            assert report["deviation"] < 5e-7

    def test_guards(self):
        params = spot_float()
        with pytest.raises(DomainError):
            pd.pd_ale_limit(params, 100.0, 2.0, c_pd=0.0)
        with pytest.raises(DomainError):
            pd.pd_ale_limit(params, 100.0, 0.0)
        with pytest.raises(DomainError):
            pd.pd_ale_limit(params, 100.0, 2.0, c_pd=-1.0)
        with pytest.raises(DomainError):
            pd.pd_ale_limit(params, 1.0, 0.5)
