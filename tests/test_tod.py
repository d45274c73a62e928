"""Tests for the metric fields, metric assembly, and fundamental form."""

import math

import numpy as np
import pytest

from todkit import harmonic, tod
from todkit.errors import (
    AxisEvaluationError,
    DegenerateMetricError,
    DomainError,
    NutProximityError,
)
from todkit.harmonic import RodData
from todkit.jets import Jet2

import reference_potentials
from fd import check_jet_against_fd
from rod_fixtures import eh_rods, skew_rods

WP_RHO = math.sqrt(3) / 4


def literal_field_jets(rods, rho, zeta, order=2):
    """The quotient formulas evaluated directly from potential jets.

    Independent of the resummed route used in tod_fields: everything is
    built from the nut-by-nut reference V and H derivative jets.
    """
    V = reference_potentials.build_v(rods, rho, zeta, order + 2)
    H = reference_potentials.build_h(rods, rho, zeta, order)
    Vr = V.derivative(0)
    Vz = V.derivative(1)
    Vzz = Vz.derivative(1)
    Vrz = Vr.derivative(1)
    Vr = Vr.truncate(order)
    Vz = Vz.truncate(order)
    den = Vzz * Vzz + Vrz * Vrz
    r = Jet2.seed(float(rho), 0, order)
    c = float(rods.c)
    W = (r * Vr + Vr * Vr * Vzz / den) / (2 * c)
    e2nu = W * (r * r) * den * 0.25
    F = (r * Vr * Vr * Vrz / den - Vz * (r * r) - 2 * H) / (2 * c)
    return W, e2nu, F


def literal_values_mp(rods, rho, zeta):
    """High precision literal evaluation, numerically differentiated.

    Uses mpmath at 60 digits so the cancelling numerator of W costs
    nothing; this is the oracle for the resummed forms at large radius.
    """
    from mpmath import atanh, diff, mp, mpf, sqrt

    old = mp.dps
    mp.dps = 60
    try:
        zs = [mpf(float(z)) for z in rods.zs]
        ws = [mpf(float(a)) for a in rods.weights]
        c = mpf(float(rods.c))

        def V(r, z):
            tot = mpf(0)
            for zi, ai in zip(zs, ws):
                s = z - zi
                R = sqrt(r * r + s * s)
                tot += ai * (2 * R - 2 * s * atanh(s / R))
            return tot

        def H(r, z):
            tot = mpf(float(harmonic.gauge_value(rods)))
            for zi, ai in zip(zs, ws):
                s = z - zi
                R = sqrt(r * r + s * s)
                tot += ai * (s * R + r * r * atanh(s / R))
            return tot

        r0, z0 = mpf(float(rho)), mpf(float(zeta))
        Vr = diff(lambda r: V(r, z0), r0)
        Vz = diff(lambda z: V(r0, z), z0)
        Vzz = diff(lambda z: V(r0, z), z0, 2)
        Vrz = diff(lambda r: diff(lambda z: V(r, z), z0), r0)
        den = Vzz * Vzz + Vrz * Vrz
        W = (r0 * Vr + Vr * Vr * Vzz / den) / (2 * c)
        e2nu = W * r0 * r0 * den / 4
        F = (r0 * Vr * Vr * Vrz / den - Vz * r0 * r0 - 2 * H(r0, z0)) / (2 * c)
        return float(W), float(e2nu), float(F)
    finally:
        mp.dps = old


class TestWorkedPoint:
    def test_field_values(self):
        f = tod.tod_fields(eh_rods(), WP_RHO, 0.0)
        assert abs(f.W.value - 8 / 3) < 1e-14
        assert abs(f.e2nu.value - 2.0) < 1e-14
        assert abs(f.F.value) < 1e-14
        assert abs(f.z.value - 0.5) < 1e-15
        assert abs(f.x.value) < 1e-15

    def test_metric_values(self):
        f = tod.tod_fields(eh_rods(), WP_RHO, 0.0)
        g = tod.tod_metric(f).values()
        want = np.diag([3 / 8, 1 / 2, 2.0, 2.0])
        assert np.max(np.abs(g - want)) < 1e-14

    def test_form_values(self):
        f = tod.tod_fields(eh_rods(), WP_RHO, 0.0)
        om = tod.fundamental_form(f).values()
        want = np.zeros((4, 4))
        want[0, 2] = math.sqrt(3) / 2
        want[1, 3] = -1.0
        want -= want.T
        assert np.max(np.abs(om - want)) < 1e-14


class TestStableForms:
    points = [(0.6, 0.1), (1.4, -0.8), (0.35, 1.7), (2.2, 0.5)]

    @pytest.mark.parametrize("rods_fn", [eh_rods, skew_rods])
    def test_matches_literal_jets(self, rods_fn):
        rods = rods_fn()
        for rho, zeta in self.points:
            f = tod.tod_fields(rods, rho, zeta, order=4)
            W, e2nu, F = literal_field_jets(rods, rho, zeta, order=2)
            for stable, lit in ((f.W, W), (f.e2nu, e2nu), (f.F, F)):
                scale = max(abs(lit.value), 1.0)
                for (i, j), pl in zip(((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)),
                                      range(6)):
                    err = abs(stable.partial(i, j) - lit.partial(i, j))
                    assert err < 1e-11 * scale, (rho, zeta, (i, j), err)

    @pytest.mark.parametrize("rods_fn", [eh_rods, skew_rods])
    def test_high_precision_oracle(self, rods_fn):
        # F keeps one intrinsic far-field cancellation (two terms of size
        # R^2 with an O(1) result), so its guard scales with the terms
        rods = rods_fn()
        for rho, zeta in [(0.9, 0.3), (7.0e3, -4.0e3)]:
            f = tod.tod_fields(rods, rho, zeta, order=1)
            W, e2nu, F = literal_values_mp(rods, rho, zeta)
            assert abs(f.W.value - W) < 5e-13 * abs(W)
            assert abs(f.e2nu.value - e2nu) < 5e-13 * abs(e2nu)
            f_terms = abs(f.z.value) ** 2 / abs(float(rods.c))
            assert abs(f.F.value - F) < max(5e-13 * abs(F), 3e-15 * f_terms)

    def test_literal_floats_lose_digits_far_out(self):
        # the quotient route in double precision has no correct digits at
        # this radius; this pins down why the resummed forms exist
        rods = eh_rods()
        rho, zeta = 7.0e7, -4.0e7
        W_lit, _, _ = literal_field_jets(rods, rho, zeta, order=0)
        W_mp, _, _ = literal_values_mp(rods, rho, zeta)
        assert abs(W_lit.value - W_mp) > 0.5 * abs(W_mp)
        f = tod.tod_fields(rods, rho, zeta, order=0)
        assert abs(f.W.value - W_mp) < 1e-12 * abs(W_mp)

    def test_positive_fields(self):
        rng = np.random.default_rng(7)
        rods = skew_rods()
        for _ in range(40):
            rho = float(10 ** rng.uniform(-2, 3))
            zeta = float(rng.uniform(-4, 4))
            try:
                rods.interior_check(rho, zeta)
            except (AxisEvaluationError, NutProximityError):
                continue
            f = tod.tod_fields(rods, rho, zeta, order=0)
            assert f.W.value > 0
            assert f.e2nu.value > 0


class TestMetric:
    def test_killing_block_det_is_rho_squared(self):
        for rods, pts in [(eh_rods(), [(WP_RHO, 0.0), (1.1, 0.6)]),
                          (skew_rods(), [(0.5, -0.3), (2.4, 1.2)])]:
            for rho, zeta in pts:
                g = tod.tod_metric(tod.tod_fields(rods, rho, zeta, order=2))
                det = g.entry(0, 0) * g.entry(1, 1) - g.entry(0, 1) * g.entry(0, 1)
                rr = Jet2.seed(rho, 0, 2) ** 2
                scale = max(rho * rho, 1.0)
                for i, j in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
                    assert abs(det.partial(i, j) - rr.partial(i, j)) < 1e-12 * scale

    def test_against_finite_differences(self):
        rods = skew_rods()
        pts = [(0.45, -0.6), (0.8, 0.55), (1.6, 0.0), (2.3, -1.4), (0.6, 1.5)]
        for rho, zeta in pts:
            f = tod.tod_fields(rods, rho, zeta, order=2)
            for jet, fn in [
                (f.W, lambda r, z: tod.tod_fields(rods, r, z, order=0).W.value),
                (f.F, lambda r, z: tod.tod_fields(rods, r, z, order=0).F.value),
                (f.e2nu, lambda r, z: tod.tod_fields(rods, r, z, order=0).e2nu.value),
            ]:
                assert check_jet_against_fd(jet, fn, rho, zeta) < 1e-6

    def test_degenerate_single_nut(self):
        rods = RodData(c=-1.0, zs=(0.0,), weights=(1.0,))
        f = tod.tod_fields(rods, 1.3, 0.4)
        assert all(v == 0.0 for v in f.W.c)
        with pytest.raises(DegenerateMetricError):
            tod.tod_metric(f)

    def test_interior_guard(self):
        rods = eh_rods()
        with pytest.raises(AxisEvaluationError):
            tod.tod_fields(rods, 0.0, 0.7)
        with pytest.raises(NutProximityError):
            tod.tod_fields(rods, 1e-7, 0.25)


class TestJetMatrix:
    @pytest.mark.parametrize("shape", [(), (5,)], ids=["one-point", "point-set"])
    def test_stack_then_entry_gives_each_entry_back(self, shape):
        # sixteen different entries, so that a transposed or shuffled
        # stack shows; a constant keeps its scalar zeros, and -0.0 its sign
        rng = np.random.default_rng(3)
        rows = [[Jet2(2, [rng.standard_normal(shape) if shape else float(rng.standard_normal())
                          for _ in range(6)]) for _ in range(4)] for _ in range(4)]
        rows[2][3] = Jet2.const(-0.0, 2)
        m = tod.JetMatrix.stack(("a", "b", "c", "d"), rows, (0.0, 0.0))
        assert m.jet.order == 2
        for a in range(4):
            for b in range(4):
                got, want = m.entry(a, b), rows[a][b]
                assert got.order == want.order
                for g, w in zip(got.c, want.c):
                    assert np.shape(g) == shape
                    assert [float(x).hex() for x in np.ravel(g)] == \
                        [float(x).hex() for x in np.ravel(np.broadcast_to(w, shape))]


class TestFundamentalForm:
    def test_compatible_complex_structure(self):
        # J = g^{-1} omega squares to -1 and preserves the metric
        for rods, (rho, zeta) in [(eh_rods(), (0.9, 0.3)),
                                  (skew_rods(), (0.7, -0.4)),
                                  (skew_rods(), (1.8, 1.1))]:
            f = tod.tod_fields(rods, rho, zeta)
            g = tod.tod_metric(f).values()
            om = tod.fundamental_form(f).values()
            J = np.linalg.solve(g, om)
            assert np.max(np.abs(J @ J + np.eye(4))) < 1e-12
            assert np.max(np.abs(J.T @ g @ J - g)) < 1e-12

    def test_norm_is_four(self):
        for rods, (rho, zeta) in [(eh_rods(), (WP_RHO, 0.0)),
                                  (skew_rods(), (1.2, 0.6))]:
            f = tod.tod_fields(rods, rho, zeta)
            ginv = np.linalg.inv(tod.tod_metric(f).values())
            om = tod.fundamental_form(f).values()
            norm2 = np.einsum("ac,bd,ab,cd->", ginv, ginv, om, om)
            assert abs(norm2 - 4.0) < 1e-12

    def test_positive_pfaffian(self):
        # omega ^ omega = 2 rho e^{2nu} dtau dy drho dzeta
        for rods, (rho, zeta) in [(eh_rods(), (0.9, 0.3)),
                                  (skew_rods(), (0.7, -0.4))]:
            f = tod.tod_fields(rods, rho, zeta)
            om = tod.fundamental_form(f).values()
            pf = om[0, 1] * om[2, 3] - om[0, 2] * om[1, 3] + om[0, 3] * om[1, 2]
            assert pf > 0
            assert abs(pf - rho * f.e2nu.value) < 1e-12 * max(f.e2nu.value, 1.0)

    def test_lee_form_identity(self):
        # d omega = (2/z) dz ^ omega; only the (y, rho, zeta) component
        # is nontrivial
        for rods, (rho, zeta) in [(eh_rods(), (0.9, 0.3)),
                                  (skew_rods(), (0.7, -0.4)),
                                  (skew_rods(), (2.0, 1.1))]:
            f = tod.tod_fields(rods, rho, zeta, order=3)
            om = tod.fundamental_form(f)
            w_yr, w_yz = om.entry(1, 2), om.entry(1, 3)
            left = w_yz.partial(1, 0) - w_yr.partial(0, 1)
            z = f.z
            right = (2.0 / z.value) * (
                z.partial(1, 0) * w_yz.value - z.partial(0, 1) * w_yr.value
            )
            assert abs(left - right) < 1e-11 * max(abs(left), 1.0)

    def test_order_bookkeeping(self):
        f = tod.tod_fields(eh_rods(), 0.9, 0.3, order=4)
        om = tod.fundamental_form(f)
        assert om.jet.order == 3


class TestClosedFormBenchmark:
    grid = [(1.3, 0.7), (2.0, math.pi / 2), (1.05, 2.5), (4.0, 0.3)]

    def test_metric_equivalence(self):
        rods = eh_rods()
        for r, theta in self.grid:
            rho, zeta = tod.eh_coords(1.0, r, theta, order=1)
            f = tod.tod_fields(rods, rho.value, zeta.value)
            G = tod.tod_metric(f).values()
            J = np.eye(4)
            J[2, 2], J[2, 3] = rho.partial(1, 0), rho.partial(0, 1)
            J[3, 2], J[3, 3] = zeta.partial(1, 0), zeta.partial(0, 1)
            pulled = J.T @ G @ J
            want = tod.eh_closed_form(1.0, r, theta).values()
            scale = np.max(np.abs(want))
            assert np.max(np.abs(pulled - want)) < 1e-10 * scale

    def test_f_is_axial_cosine(self):
        rods = eh_rods()
        for r, theta in self.grid:
            rho, zeta = tod.eh_coords(1.0, r, theta, order=0)
            f = tod.tod_fields(rods, rho.value, zeta.value)
            assert abs(f.F.value - math.cos(theta)) < 1e-12
            assert abs(f.z.value - r * r / 4) < 1e-12 * r * r

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            tod.eh_closed_form(1.0, 0.9, 1.0)
        with pytest.raises(DomainError):
            tod.eh_coords(1.0, 1.0, 1.0)
        with pytest.raises(AxisEvaluationError):
            tod.eh_coords(1.0, 2.0, 0.0)

    def test_orientation_flag(self):
        assert tod.eh_closed_form(1.0, 2.0, 1.0).orientation == -1
        f = tod.tod_fields(eh_rods(), 0.9, 0.3)
        assert tod.tod_metric(f).orientation == 1


class TestRescale:
    def test_field_transformation(self):
        rods = skew_rods()
        alpha = 2.7
        scaled = tod.rescale(rods, alpha)
        for rho, zeta in [(0.7, -0.4), (1.5, 0.8)]:
            f0 = tod.tod_fields(rods, rho, zeta)
            f1 = tod.tod_fields(scaled, alpha * rho, alpha * zeta)
            assert abs(f1.W.value - f0.W.value) < 1e-12 * f0.W.value
            assert abs(f1.e2nu.value - f0.e2nu.value) < 1e-12 * f0.e2nu.value
            assert abs(f1.F.value - alpha * f0.F.value) < 1e-11 * max(abs(f0.F.value), 1)
            assert abs(f1.z.value - alpha * f0.z.value) < 1e-12 * alpha * f0.z.value
            assert abs(f1.x.value - f0.x.value) < 1e-12 * max(abs(f0.x.value), 1)

    def test_gauge_handling(self):
        rods = skew_rods(gauge=0.25)
        scaled = tod.rescale(rods, 2.0)
        assert scaled.gauge == 1.0
        assert tod.rescale(skew_rods(), 2.0).gauge == "symmetric"
        with pytest.raises(DomainError):
            tod.rescale(rods, -1.0)
