"""Tests for the curvature pack, duality split, and derived operators."""

import dataclasses
import math

import numpy as np
import pytest

from identities import hodge_star
from rod_fixtures import eh_rods, skew_rods
from todkit import cky
from todkit import curvature as cv
from todkit import tod
from todkit.cky import FlatCkyParams
from todkit.errors import SignatureError
from todkit.jets import Jet2
from todkit.tod import JetMatrix


def cky_candidate(fields):
    om = tod.fundamental_form(fields)
    z = fields.z.truncate(om.jet.order)
    rows = [[z * om.entry(a, b) for b in range(4)] for a in range(4)]
    return JetMatrix.stack(om.coords, rows, om.base)


def tod_pack(rods, rho, zeta):
    return cv.curvature_pack(tod.tod_metric(tod.tod_fields(rods, rho, zeta, order=4)))


class TestFlat:
    def test_zero_curvature(self):
        pack = cv.curvature_pack(tod.eh_closed_form(0.0, 1.7, 0.8))
        assert np.max(np.abs(pack.riemann)) < 1e-12
        assert cv.invariant_norms(pack)["ricci"] < 1e-12

    def test_degenerate_spectrum_is_none(self):
        pack = cv.curvature_pack(tod.eh_closed_form(0.0, 1.7, 0.8))
        split = cv.weyl_split(pack)
        assert split.lam is None
        assert np.max(np.abs(split.eigs_plus)) < 1e-12

    def test_killing_directions(self):
        pack = cv.curvature_pack(tod.eh_closed_form(0.0, 1.7, 0.8))
        assert cv.killing_residual(pack, [1, 0, 0, 0]) < 1e-13
        assert cv.killing_residual(pack, [0, 1, 0, 0]) < 1e-13


class TestDualityMachinery:
    def test_bases_are_eigenforms_of_star(self):
        for metric in (tod.eh_closed_form(1.0, 1.6, 0.9),
                       tod.tod_metric(tod.tod_fields(skew_rods(), 0.7, -0.4))):
            pack = cv.curvature_pack(metric)
            plus, minus = cv.dual_bases(pack)
            for i in range(3):
                assert np.max(np.abs(hodge_star(pack, plus[i]) - plus[i])) < 1e-12
                assert np.max(np.abs(hodge_star(pack, minus[i]) + minus[i])) < 1e-12

    def test_basis_normalization(self):
        pack = tod_pack(skew_rods(), 0.7, -0.4)
        plus, minus = cv.dual_bases(pack)
        gi = pack.ginv
        for trip in (plus, minus):
            gram = np.einsum("iab,ac,bd,jcd->ij", trip, gi, gi, trip)
            assert np.max(np.abs(gram - 4 * np.eye(3))) < 1e-12

    def test_double_star_is_identity(self):
        pack = tod_pack(eh_rods(), 0.9, 0.3)
        rng = np.random.default_rng(3)
        F = rng.standard_normal((4, 4))
        F = F - F.T
        assert np.max(np.abs(hodge_star(pack, hodge_star(pack, F)) - F)) < 1e-12

    def test_signature_guards(self):
        order = 2
        flat = [[Jet2.const(float(v), order) for v in row] for row in np.eye(4)]
        bad = [row[:] for row in flat]
        bad[0][0] = Jet2.const(-1.0, order)
        with pytest.raises(SignatureError):
            cv.curvature_pack(JetMatrix.stack(("a", "b", "c", "d"), bad, (0.0, 0.0)))
        asym = [row[:] for row in flat]
        asym[0][1] = Jet2.const(0.5, order)
        with pytest.raises(SignatureError):
            cv.curvature_pack(JetMatrix.stack(("a", "b", "c", "d"), asym, (0.0, 0.0)))


class TestClosedFormBenchmark:
    grid = [(1.3, 0.7), (math.sqrt(2), math.pi / 2), (2.2, 2.4)]

    def test_ricci_flat(self):
        for r, theta in self.grid:
            pack = cv.curvature_pack(tod.eh_closed_form(1.0, r, theta))
            n = cv.invariant_norms(pack)
            assert n["ricci"] < 1e-12 * n["riemann"]

    def test_one_sided_spectrum(self):
        for r, theta in self.grid:
            pack = cv.curvature_pack(tod.eh_closed_form(1.0, r, theta))
            split = cv.weyl_split(pack)
            lam = 8.0 / r ** 6
            want = np.sort([lam, -lam / 2, -lam / 2])
            assert np.max(np.abs(split.eigs_plus - want)) < 1e-12 * lam
            assert np.max(np.abs(split.eigs_minus)) < 1e-12 * lam
            assert abs(split.lam - lam) < 1e-12 * lam

    def test_orientation_flag_matters(self):
        # with the wrong orientation the nonzero block lands on the other
        # side; this pins the chart-orientation bookkeeping
        metric = tod.eh_closed_form(1.0, 1.3, 0.7)
        flipped = dataclasses.replace(metric, orientation=1)
        split = cv.weyl_split(cv.curvature_pack(flipped))
        assert np.max(np.abs(split.eigs_plus)) < 1e-12
        assert np.max(np.abs(split.eigs_minus)) > 0.1


class TestTodPipeline:
    def test_worked_point(self):
        pack = tod_pack(eh_rods(), math.sqrt(3) / 4, 0.0)
        n = cv.invariant_norms(pack)
        assert n["ricci"] < 1e-12 * n["riemann"]
        split = cv.weyl_split(pack)
        assert abs(split.lam - 1.0) < 1e-12
        want = np.array([-0.5, -0.5, 1.0])
        assert np.max(np.abs(split.eigs_plus - want)) < 1e-12
        assert np.max(np.abs(split.eigs_minus)) < 1e-12

    @pytest.mark.parametrize("rods_fn", [eh_rods, skew_rods])
    def test_random_interior_points(self, rods_fn):
        rods = rods_fn()
        rng = np.random.default_rng(11)
        c = float(rods.c)
        for _ in range(12):
            rho = float(10 ** rng.uniform(-0.7, 0.7))
            zeta = float(rng.uniform(-2.0, 2.0))
            f = tod.tod_fields(rods, rho, zeta, order=4)
            pack = cv.curvature_pack(tod.tod_metric(f))
            n = cv.invariant_norms(pack)
            assert n["ricci"] < 1e-10 * n["riemann"]
            split = cv.weyl_split(pack)
            lam_pred = -2 * c / f.z.value ** 3
            assert split.lam is not None
            assert abs(split.lam - lam_pred) < 1e-9 * abs(lam_pred)

    def test_weyl_operator_structure(self):
        pack = tod_pack(skew_rods(), 0.7, -0.4)
        split = cv.weyl_split(pack)
        scale = cv.invariant_norms(pack)["weyl"]
        assert abs(np.trace(split.m_plus)) < 1e-12 * scale
        assert abs(np.trace(split.m_minus)) < 1e-12 * scale
        assert np.max(np.abs(split.m_plus - split.m_plus.T)) < 1e-12 * scale
        # the cross block of a tensor with Weyl symmetries vanishes
        gi = pack.ginv
        cup = np.einsum("ae,bf,efcd->abcd", gi, gi, pack.weyl)
        plus, minus = cv.dual_bases(pack)
        cross = np.einsum("iab,abcd,ce,df,jef->ij", plus, cup, gi, gi, minus) / 8.0
        assert np.max(np.abs(cross)) < 1e-12 * scale

    def test_fundamental_form_selfdual(self):
        for rods, pt in [(eh_rods(), (0.9, 0.3)), (skew_rods(), (1.6, 0.8))]:
            f = tod.tod_fields(rods, *pt)
            pack = cv.curvature_pack(tod.tod_metric(f))
            om = tod.fundamental_form(f).values()
            assert np.max(np.abs(hodge_star(pack, om) - om)) < 1e-12 * np.max(np.abs(om))


class TestScalarLaplacian:
    def test_conformal_factor_equation(self):
        # laplacian of 1/z equals -2c/z^4 for any rod data
        for rods, pts in [(eh_rods(), [(math.sqrt(3) / 4, 0.0), (1.2, 0.7)]),
                          (skew_rods(), [(0.7, -0.4), (2.1, 1.3), (0.45, 0.1)])]:
            c = float(rods.c)
            for rho, zeta in pts:
                f = tod.tod_fields(rods, rho, zeta, order=4)
                pack = cv.curvature_pack(tod.tod_metric(f))
                omega = 1 / f.z.truncate(2)
                lap = cv.scalar_laplacian(pack, omega)
                want = -2 * c * omega.value ** 4
                assert abs(lap - want) < 1e-11 * max(abs(want), 1e-6)

    def test_constant_is_harmonic(self):
        pack = tod_pack(skew_rods(), 0.7, -0.4)
        assert cv.scalar_laplacian(pack, Jet2.const(3.7, 2)) == 0.0


class TestConformalKillingYano:
    points = [(eh_rods(), (math.sqrt(3) / 4, 0.0)), (eh_rods(), (1.1, -0.6)),
              (skew_rods(), (0.7, -0.4)), (skew_rods(), (1.9, 1.2))]

    def test_candidate_solves_equation(self):
        for rods, pt in self.points:
            f = tod.tod_fields(rods, *pt, order=4)
            pack = cv.curvature_pack(tod.tod_metric(f))
            res, xi = cv.cky_residual(pack, cky_candidate(f))
            assert res < 1e-12
            assert np.max(np.abs(xi - np.array([1.0, 0, 0, 0]))) < 1e-12

    def test_xi_is_killing(self):
        for rods, pt in self.points[:2]:
            f = tod.tod_fields(rods, *pt, order=4)
            pack = cv.curvature_pack(tod.tod_metric(f))
            _, xi = cv.cky_residual(pack, cky_candidate(f))
            assert cv.killing_residual(pack, xi) < 1e-12

    def test_residuals_read_the_connection_only(self):
        # an order-1 metric's connection gives the residuals that the
        # curvature pack of the full metric gives, to the bit
        rods, pt = self.points[2]
        f = tod.tod_fields(rods, *pt, order=4)
        metric = tod.tod_metric(f)
        conn = cv.connection(dataclasses.replace(metric, jet=metric.jet.truncate(1)))
        pack = cv.curvature_pack(metric)
        res, xi = cv.cky_residual(pack, cky_candidate(f))
        got_res, got_xi = cv.cky_residual(conn, cky_candidate(f))
        assert got_res.hex() == res.hex() and np.array_equal(got_xi, xi)
        assert cv.killing_residual(conn, xi).hex() == cv.killing_residual(pack, xi).hex()

    def test_jets_below_the_order_read_raise(self):
        coframe = cky.flat_coframe(1.2, 0.8, 1)
        with pytest.raises(ValueError, match=r"^order-1 jet has no partial \(1, 1\)$"):
            cv.curvature_pack(cky.flat_metric(coframe))
        form = cky.flat_cky(FlatCkyParams(k1=0.6, k2=0.8), cky.flat_coframe(1.2, 0.8, 0))
        with pytest.raises(ValueError, match=r"^order-0 jet has no partial \(1, 0\)$"):
            cv.cky_residual(cv.connection(cky.flat_metric(coframe)), form)

    def test_wrong_scalings_fail(self):
        # omega and z^2 omega are not solutions; guards against a residual
        # that is structurally zero
        rods, pt = skew_rods(), (0.7, -0.4)
        f = tod.tod_fields(rods, *pt, order=4)
        pack = cv.curvature_pack(tod.tod_metric(f))
        om = tod.fundamental_form(f)
        res_plain, _ = cv.cky_residual(pack, om)
        z2 = (f.z * f.z).truncate(om.jet.order)
        rows = [[z2 * om.entry(a, b) for b in range(4)] for a in range(4)]
        res_sq, _ = cv.cky_residual(pack, JetMatrix.stack(om.coords, rows, om.base))
        assert res_plain > 1e-2
        assert res_sq > 1e-2


# the many-operand einsums that the staged norms replaced
REMOVED = {
    "cky_residual": lambda gi, L: np.einsum("...ad,...be,...cf,...abc,...def->...",
                                            gi, gi, gi, L, L),
    "killing_residual": lambda gi, K: np.einsum("...ac,...bd,...ab,...cd->...",
                                                gi, gi, K, K),
    "ricci": lambda gi, R: np.einsum("...ae,...bf,...ef,...ab->...", gi, gi, R, R),
    "two_form": lambda gi, Z: np.einsum("...ab,...cd,...ac,...bd->...", Z, Z, gi, gi),
}


def einsum_norms(pack):
    """Reference: the one-call contractions for the norms."""
    gi = pack.ginv

    def norm4(T):
        up = np.einsum("ae,bf,cg,dh,efgh->abcd", gi, gi, gi, gi, T)
        return float(np.sqrt(abs(np.einsum("abcd,abcd->", up, T))))

    return {"riemann": norm4(pack.riemann), "weyl": norm4(pack.weyl),
            "ricci": math.sqrt(abs(REMOVED["ricci"](gi, pack.ricci)))}


def einsum_blocks(pack):
    """Reference: the one-call five-operand contractions for the Weyl blocks."""
    gi = pack.ginv
    cup = np.einsum("ae,bf,efcd->abcd", gi, gi, pack.weyl)
    return [np.einsum("iab,abcd,ce,df,jef->ij", basis, cup, gi, gi, basis) / 8.0
            for basis in cv.dual_bases(pack)]


def tod_case(rods, rho, zeta):
    f = tod.tod_fields(rods, rho, zeta, order=4)
    return cv.curvature_pack(tod.tod_metric(f)), cky_candidate(f)


def flat_case(r, theta):
    coframe = cky.flat_coframe(r, theta)
    return (cv.curvature_pack(cky.flat_metric(coframe)),
            cky.flat_cky(FlatCkyParams(k1=0.6, k2=0.8), coframe))


CASES = {"eh": lambda: tod_case(eh_rods(), 0.9, 0.3),
         "skew": lambda: tod_case(skew_rods(), 0.7, -0.4),
         "flat": lambda: flat_case(1.3, 0.7)}


class TestContractionChains:
    """The pairwise contraction chains agree with the single einsum calls."""

    @pytest.mark.parametrize("make", list(CASES.values()), ids=list(CASES))
    def test_matches_einsum(self, make):
        pack, _ = make()
        norms = cv.invariant_norms(pack)
        for key, want in einsum_norms(pack).items():
            assert abs(norms[key] - want) <= 1e-13 * want
        split = cv.weyl_split(pack)
        plus, minus = einsum_blocks(pack)
        # both blocks are relative to the whole Weyl operator: on the
        # closed-form data the anti-self-dual block is rounding noise
        scale = max(np.max(np.abs(plus)), np.max(np.abs(minus)))
        assert np.max(np.abs(split.m_plus - plus)) <= 1e-13 * scale
        assert np.max(np.abs(split.m_minus - minus)) <= 1e-13 * scale

    @pytest.mark.parametrize("make", list(CASES.values()), ids=list(CASES))
    def test_residual_norms_match_einsum(self, make, monkeypatch):
        pack, form = make()
        staged, seen = cv.norm_squared, []

        def spy(gi, T):
            seen.append(T)
            return staged(gi, T)

        # the residual tensors the two functions build, read off their norm
        monkeypatch.setattr(cv, "norm_squared", spy)
        residual, xi = cv.cky_residual(pack, form)
        killing = cv.killing_residual(pack, xi)
        L, K = seen
        gi = pack.ginv
        for got, want in ((residual, REMOVED["cky_residual"](gi, L)),
                          (killing, REMOVED["killing_residual"](gi, K))):
            assert abs(got - math.sqrt(abs(want))) <= 1e-13 * math.sqrt(abs(want))
        Z = form.values()
        want = REMOVED["two_form"](gi, Z)
        assert abs(staged(gi, Z) - want) <= 1e-13 * abs(want)
