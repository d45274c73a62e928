"""Jet arithmetic against closed forms and the finite-difference oracle."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from todkit import jets
from todkit.errors import DomainError, InversionError, SingularPointError
from todkit.jets import Jet2

from fd import check_jet_against_fd


def sample_field(rho, zeta, order=4):
    """A representative composite field exercising every elementary op."""
    r = Jet2.seed(rho, 0, order)
    z = Jet2.seed(zeta, 1, order)
    R = jets.sqrt(r * r + z * z)
    return 2 * R - z * jets.log((R + z) / (R - z)) + jets.exp(z / R) / (1 + r * r)


def sample_value(rho, zeta):
    R = math.sqrt(rho ** 2 + zeta ** 2)
    return 2 * R - zeta * math.log((R + zeta) / (R - zeta)) + math.exp(zeta / R) / (1 + rho ** 2)


# ---------------------------------------------------------------------------


class TestRingOps:
    """Leibniz arithmetic on raw-partial storage."""

    def test_mul_matches_polynomial(self):
        # (x + 2y)^2 expanded by hand: raw partials of x^2 + 4xy + 4y^2
        x = Jet2.seed(3.0, 0, 2)
        y = Jet2.seed(-1.0, 1, 2)
        p = (x + 2 * y) * (x + 2 * y)
        assert p.value == 1.0
        assert p.partial(1, 0) == 2 * 3.0 + 4 * (-1.0)
        assert p.partial(0, 1) == 4 * 3.0 + 8 * (-1.0)
        assert p.partial(2, 0) == 2.0
        assert p.partial(1, 1) == 4.0
        assert p.partial(0, 2) == 8.0

    def test_div_roundtrip(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = Jet2(4, list(rng.standard_normal(15)))
            b = Jet2(4, list(rng.standard_normal(15)))
            b.c[0] += 3.0  # keep the divisor away from zero
            r = (a / b) * b
            assert max(abs(u - v) for u, v in zip(r.c, a.c)) < 1e-12

    def test_div_by_zero_value(self):
        a = Jet2.const(1.0, 2)
        b = Jet2.seed(0.0, 0, 2)
        with pytest.raises(SingularPointError):
            a / b

    def test_pow(self):
        x = Jet2.seed(2.0, 0, 3)
        assert abs((x ** 5).value - 32.0) < 1e-12
        assert abs((x ** 5).partial(1, 0) - 80.0) < 1e-12

    def test_rational_ring(self):
        # exact mode: add/sub/mul/div stay in the rationals
        x = Jet2.seed(Fraction(1, 3), 0, 2)
        y = Jet2.seed(Fraction(2, 5), 1, 2)
        w = (x * y + Fraction(1, 7)) / (x - y)
        assert isinstance(w.value, Fraction)
        assert w.value == (Fraction(2, 15) + Fraction(1, 7)) / Fraction(-1, 15)


class TestElementary:
    """Elementary functions against hand-derived values."""

    def test_log_derivs(self):
        x = Jet2.seed(2.0, 0, 4)
        l = jets.log(x)
        assert abs(l.value - math.log(2)) < 1e-15
        assert abs(l.partial(1, 0) - 0.5) < 1e-15
        assert abs(l.partial(2, 0) + 0.25) < 1e-15
        assert abs(l.partial(3, 0) - 2 / 8) < 1e-15
        assert abs(l.partial(4, 0) + 6 / 16) < 1e-15

    def test_sqrt_squares_back(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = Jet2(4, list(rng.standard_normal(15)))
            a.c[0] = abs(a.c[0]) + 1.0
            s = jets.sqrt(a)
            r = s * s
            assert max(abs(u - v) for u, v in zip(r.c, a.c)) < 1e-10

    def test_exp_log_inverse(self):
        a = Jet2.seed(1.5, 0, 4) + Jet2.seed(0.0, 1, 4) * 0.7
        r = jets.log(jets.exp(a))
        assert max(abs(u - v) for u, v in zip(r.c, a.c)) < 1e-12

    def test_trig_identity(self):
        r = Jet2.seed(0.3, 0, 4)
        t = Jet2.seed(1.1, 1, 4)
        s, c = jets.sin(r + t), jets.cos(r + t)
        one = s * s + c * c
        assert abs(one.value - 1.0) < 1e-14
        assert all(abs(v) < 1e-13 for v in one.c[1:])

    def test_artanh_log_form(self):
        x = Jet2.seed(0.5, 0, 3)
        a = jets.artanh(x)
        assert abs(a.value - math.atanh(0.5)) < 1e-15
        assert abs(a.partial(1, 0) - 1 / 0.75) < 1e-13

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            jets.log(Jet2.const(-1.0, 2))
        with pytest.raises(DomainError):
            jets.sqrt(Jet2.const(0.0, 2))
        with pytest.raises(DomainError):
            jets.artanh(Jet2.const(1.0, 2))


class TestAgainstFiniteDifferences:
    """The oracle check: jets vs central stencils, 20 random points."""

    def test_composite_field(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(20):
            rho = float(rng.uniform(0.5, 3.0))
            zeta = float(rng.uniform(0.2, 2.0))
            jet = sample_field(rho, zeta)
            worst = max(worst, check_jet_against_fd(jet, sample_value, rho, zeta))
        assert worst < 1e-6

    def test_quotient_field(self):
        def val(x, y):
            return (x * x - y) / (x + y * y + 2.0)

        rng = np.random.default_rng(5)
        for _ in range(20):
            x0 = float(rng.uniform(-1, 1))
            y0 = float(rng.uniform(-1, 1))
            x = Jet2.seed(x0, 0, 2)
            y = Jet2.seed(y0, 1, 2)
            jet = (x * x - y) / (x + y * y + 2.0 + 0 * x)
            assert check_jet_against_fd(jet, val, x0, y0) < 1e-6


class TestComposition:
    """Bivariate composition and jet-map inversion."""

    def test_compose2_affine(self):
        F = Jet2.seed(1.0, 0, 3) * Jet2.seed(2.0, 1, 3)  # F = xy at (1, 2)
        P = Jet2.seed(1.0, 0, 3)
        Q = Jet2.seed(2.0, 1, 3)
        r = jets.compose2(F, P, Q)
        assert max(abs(u - v) for u, v in zip(r.c, F.c)) < 1e-14

    def test_invert_polar(self):
        # (rho, zeta) -> (R, angle-like): invert and check by composition
        rho0, zeta0 = 1.3, 0.4
        r = Jet2.seed(rho0, 0, 4)
        z = Jet2.seed(zeta0, 1, 4)
        Z = jets.sqrt(r * r + z * z)
        X = jets.artanh(z / Z)
        P, Q = jets.invert_map(Z, X, rho0, zeta0)
        assert abs(P.value - rho0) < 1e-12
        assert abs(Q.value - zeta0) < 1e-12
        # first-order block must be the inverse Jacobian
        J = np.array([[Z.partial(1, 0), Z.partial(0, 1)],
                      [X.partial(1, 0), X.partial(0, 1)]])
        Jinv = np.linalg.inv(J)
        got = np.array([[P.partial(1, 0), P.partial(0, 1)],
                        [Q.partial(1, 0), Q.partial(0, 1)]])
        assert np.allclose(got, Jinv, rtol=1e-10, atol=1e-12)

    def test_invert_second_order_against_fd(self):
        # second derivatives of the inverse map agree with stencils of a
        # numerically-inverted forward map
        rho0, zeta0 = 0.9, -0.3

        def forward(rho, zeta):
            R = math.sqrt(rho * rho + zeta * zeta)
            return R, math.atanh(zeta / R)

        def inverse(zv, xv):
            # Newton on floats, seeded near the base point
            rho, zeta = rho0, zeta0
            for _ in range(60):
                Zv, Xv = forward(rho, zeta)
                R = math.sqrt(rho * rho + zeta * zeta)
                dZ = [rho / R, zeta / R]
                dX = [-zeta / (rho * R), 1.0 / R]
                det = dZ[0] * dX[1] - dZ[1] * dX[0]
                dz, dx = Zv - zv, Xv - xv
                rho -= (dz * dX[1] - dZ[1] * dx) / det
                zeta -= (dZ[0] * dx - dz * dX[0]) / det
            return rho, zeta

        r = Jet2.seed(rho0, 0, 4)
        z = Jet2.seed(zeta0, 1, 4)
        Zj = jets.sqrt(r * r + z * z)
        Xj = jets.artanh(z / Zj)
        P, Q = jets.invert_map(Zj, Xj, rho0, zeta0)
        z0, x0 = Zj.value, Xj.value
        assert check_jet_against_fd(P.truncate(2), lambda a, b: inverse(a, b)[0], z0, x0) < 1e-5
        assert check_jet_against_fd(Q.truncate(2), lambda a, b: inverse(a, b)[1], z0, x0) < 1e-5

    def test_invert_singular_jacobian(self):
        r = Jet2.seed(1.3, 0, 2)
        z = Jet2.seed(0.4, 1, 2)
        Z = jets.sqrt(r * r + z * z)
        with pytest.raises(InversionError):
            jets.invert_map(Z, Z, 1.3, 0.4)

    def test_invert_needs_order_two(self):
        Z = Jet2.seed(1.3, 0, 1)
        X = Jet2.seed(0.4, 1, 1)
        with pytest.raises(ValueError):
            jets.invert_map(Z, X, 1.3, 0.4)
