"""Harmonic potentials: worked values, identities, axis expansions."""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from todkit import harmonic, tod
from todkit.errors import AxisEvaluationError, NutProximityError, RodDataError
from todkit.harmonic import RodData

from fd import check_jet_against_fd
from identities import axis_g, axis_w, rod_index
from rod_fixtures import eh_rods, eh_rods_exact, skew_rods

F = Fraction


def potentials(rods, rho, zeta, order=4):
    """The V and H jets at one point, read off the fields there."""
    return harmonic.potentials(tod.tod_fields(rods, rho, zeta, order))


def v_jet(rods, rho, zeta, order=4):
    return potentials(rods, rho, zeta, order)[0]


def h_jet(rods, rho, zeta, order=4):
    return potentials(rods, rho, zeta, order)[1]


# one nut of weight 1 at 0 and gauge 0: V = V0 and H = H0
UNIT_NUT = RodData(c=-1.0, zs=(0.0,), weights=(1.0,), gauge=0.0)


def unit_v0(rho, zeta, order=4):
    return v_jet(UNIT_NUT, rho, zeta, order)


def unit_h0(rho, zeta, order=4):
    return h_jet(UNIT_NUT, rho, zeta, order)


# ---------------------------------------------------------------------------


class TestRodData:
    def test_validation(self):
        with pytest.raises(RodDataError):
            RodData(c=1.0, zs=(0.0,), weights=(1.0,))
        with pytest.raises(RodDataError):
            RodData(c=-1.0, zs=(0.5, 0.5), weights=(0.5, 0.5))
        with pytest.raises(RodDataError):
            RodData(c=-1.0, zs=(0.0, 1.0), weights=(0.5, -0.5))
        with pytest.raises(RodDataError):
            RodData(c=-1.0, zs=(0.0, 1.0), weights=(0.4, 0.4))

    @pytest.mark.parametrize("kwargs, ok", [
        (dict(c=F(-1, 16), zs=(F(-1, 4), F(1, 4)),
              weights=(F(1, 2), F(1, 2) + F(1, 10**30))), False),
        (dict(c=-1 / 16, zs=(-0.25, 0.25), weights=(0.5, 0.5 + 1e-13)), True),
    ], ids=["exact-near-miss", "float-within-tol"])
    def test_weight_sum_tolerance_zero_when_exact(self, kwargs, ok):
        if ok:
            assert not RodData(**kwargs).is_exact
        else:
            with pytest.raises(RodDataError, match="summing to 1"):
                RodData(**kwargs)

    def test_general_mode_skips_weight_sum(self):
        rods = RodData(c=-1.0, zs=(0.0, 1.0), weights=(0.4, 0.4), mode="general")
        assert rods.n == 2

    def test_interior_guards(self):
        rods = eh_rods()
        with pytest.raises(AxisEvaluationError):
            rods.interior_check(0.0, 0.5)
        with pytest.raises(NutProximityError):
            rods.interior_check(1e-7, 0.25)

    def test_exactness_flag(self):
        assert eh_rods_exact().is_exact
        assert not eh_rods().is_exact

    def test_gauge_resolved_once(self, monkeypatch):
        calls = []
        resolve = harmonic.gauge_value
        monkeypatch.setattr(harmonic, "gauge_value",
                            lambda rods: calls.append(rods) or resolve(rods))
        rods = skew_rods()
        want = resolve(rods)
        tod.tod_fields(rods, 0.7, -0.4, order=2)
        tod.tod_fields(rods, 1.1, 0.3, order=0)
        h_jet(rods, 0.7, -0.4, order=2)
        assert rods.profile.gauge == rods.gauge_constant == want
        assert calls == [rods]
        assert eh_rods(gauge=0.3).gauge_constant == 0.3


    def test_per_point_code_reads_the_float_view(self, monkeypatch):
        exact, twin = eh_rods_exact(), eh_rods()
        point = (0.3, 0.1)
        exact.interior_check(*point)

        def refuse(*args):
            raise AssertionError("exact arithmetic on the per-point path")

        monkeypatch.setattr(Fraction, "__float__", refuse)
        monkeypatch.setattr(Fraction, "__sub__", refuse)
        exact.interior_check(*point)
        for order in (0, 3):
            got = tod.tod_fields(exact, *point, order=order)
            want = tod.tod_fields(twin, *point, order=order)
            for name in ("W", "F", "e2nu", "z", "x"):
                assert getattr(got, name).c == getattr(want, name).c
        assert v_jet(exact, *point).c == v_jet(twin, *point).c
        assert h_jet(exact, *point).c == h_jet(twin, *point).c
        assert harmonic.toda_residual(tod.tod_fields(exact, *point, order=2)) \
            == harmonic.toda_residual(tod.tod_fields(twin, *point, order=2))


def loop_pairs(rods):
    """The nut pairs i < j and their weights as the loops over i, then j,
    computed them before RodData held one table."""
    nuts = rods.floats.nuts
    pairs = []
    for i, (z_i, a_i) in enumerate(nuts):
        for j in range(i + 1, len(nuts)):
            z_j, a_j = nuts[j]
            gap = z_j - z_i
            pairs.append((i, j, a_i * a_j * gap * gap))
    return pairs


def loop_third_moment(rods):
    nuts, center = rods.floats.nuts, rods.nut_center
    moment = 0.0
    for i, (z_i, a_i) in enumerate(nuts):
        for z_j, a_j in nuts[i + 1:]:
            gap = z_j - z_i
            moment += a_i * a_j * gap * gap * (z_i + z_j - 2.0 * center)
    return moment


def sixteen_nut():
    rng = np.random.default_rng(5)
    zs = np.cumsum(rng.uniform(0.5, 1.5, 16))
    raw = rng.uniform(0.5, 1.5, 16)
    return RodData(c=-1.0, zs=tuple(zs.tolist()), weights=tuple((raw / raw.sum()).tolist()),
                   mode="general")


class TestNutPairs:
    """RodData.pairs and third_moment keep the bits of the pair loops."""

    @pytest.mark.parametrize("make", [
        eh_rods_exact, skew_rods, sixteen_nut,
        lambda: RodData(c=-1.0, zs=(0.6,), weights=(1.0,)),
        # the far-apart files of the decay fit: the third moment overflows
        # silently to NaN on the skew one
        lambda: RodData(c=-1.0, zs=(-1e154, 1e154), weights=(0.5, 0.5)),
        lambda: RodData(c=-1.0, zs=(-1e154, 0.0, 2e154), weights=(0.2, 0.5, 0.3)),
        # the weights themselves overflow to inf
        lambda: RodData(c=-1.0, zs=(-1e200, 0.0, 1e200), weights=(0.2, 0.5, 0.3)),
    ], ids=["two-nut", "skew", "sixteen-nut", "single-nut", "far-two-nut", "far-skew",
            "overflowing"])
    def test_table_is_the_loop(self, make):
        rods = make()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            i, j, w = rods.pairs
            moment = rods.third_moment
        want = loop_pairs(rods)
        assert list(zip(i.tolist(), j.tolist())) == [(a, b) for a, b, _ in want]
        assert [x.hex() for x in w.tolist()] == [x.hex() for _, _, x in want]
        assert type(moment) is float
        assert moment.hex() == loop_third_moment(rods).hex()

    def test_silent_overflow(self):
        rods = RodData(c=-1.0, zs=(-1e154, 0.0, 2e154), weights=(0.2, 0.5, 0.3))
        assert math.isnan(rods.third_moment)
        rods = RodData(c=-1.0, zs=(-1e200, 0.0, 1e200), weights=(0.2, 0.5, 0.3))
        assert rods.pairs.w.tolist()[1] == math.inf

    def test_indices_are_shared_per_nut_count(self):
        # rod data is built once per command; the index arrays are not
        a, b = skew_rods(), RodData(c=-2.0, zs=(0.0, 1.0, 5.0), weights=(0.3, 0.3, 0.4))
        assert a.pairs.i is b.pairs.i and a.pairs.j is b.pairs.j
        assert a.pairs is a.pairs


class TestSingleNut:
    """Worked values at (rho, zeta) = (3, 4), R = 5."""

    def test_v0_value(self):
        v = unit_v0(3.0, 4.0)
        assert abs(v.value - (10 - 4 * math.log(9))) < 1e-13

    def test_v0_zetazeta(self):
        # d2 V0 / dzeta2 = -2 / R
        v = unit_v0(3.0, 4.0)
        assert abs(v.partial(0, 2) + 2 / 5) < 1e-13

    def test_h0_value(self):
        h = unit_h0(3.0, 4.0)
        assert abs(h.value - (20 + 4.5 * math.log(9))) < 1e-13

    def test_even_in_zeta(self):
        up = unit_v0(1.7, 0.6)
        dn = unit_v0(1.7, -0.6)
        assert abs(up.value - dn.value) < 1e-14
        assert abs(up.partial(0, 1) + dn.partial(0, 1)) < 1e-13

    def test_axis_expansion(self):
        # V0 = |z| log rho^2 + (2|z| - |z| log(4 z^2)) + O(rho^2)
        zeta = 0.8
        g0 = 2 * zeta - zeta * math.log(4 * zeta * zeta)
        for rho in (1e-3, 1e-4):
            v = unit_v0(rho, zeta)
            rest = v.value - zeta * math.log(rho * rho) - g0
            assert abs(rest) < 10 * rho * rho

    def test_against_fd(self):
        def val(r, z):
            # branch-stable form of the log ratio; the naive (R - z)
            # denominator loses enough digits near the axis to pollute the
            # second-difference stencils
            R = math.sqrt(r * r + z * z)
            half = math.log((R + abs(z)) / r)
            return 2 * R - 2 * abs(z) * half

        rng = np.random.default_rng(3)
        for _ in range(20):
            rho = float(rng.uniform(0.3, 4.0))
            zeta = float(rng.uniform(-3.0, 3.0))
            jet = unit_v0(rho, zeta)
            assert check_jet_against_fd(jet, val, rho, zeta) < 1e-6

    def test_axis_error(self):
        with pytest.raises(AxisEvaluationError):
            unit_v0(0.0, 1.0)


class TestPotentials:
    def test_harmonicity(self):
        # axisymmetric Laplacian V_rr + V_r / r + V_zz = 0
        for rods in (eh_rods(), skew_rods()):
            for rho, zeta in ((0.7, 0.1), (2.5, -1.3), (0.05, 3.0)):
                v = v_jet(rods, rho, zeta)
                resid = v.partial(2, 0) + v.partial(1, 0) / rho + v.partial(0, 2)
                scale = abs(v.partial(2, 0)) + abs(v.partial(0, 2)) + 1.0
                assert abs(resid) / scale < 1e-12

    def test_conjugacy(self):
        # H_rho = -rho V_zeta and H_zeta = rho V_rho
        for rods in (eh_rods(), skew_rods()):
            rho, zeta = 3.0, 4.0
            v = v_jet(rods, rho, zeta)
            h = h_jet(rods, rho, zeta)
            s1 = abs(h.partial(1, 0) + rho * v.partial(0, 1))
            s2 = abs(h.partial(0, 1) - rho * v.partial(1, 0))
            scale = abs(h.partial(1, 0)) + abs(h.partial(0, 1))
            assert s1 / scale < 1e-12
            assert s2 / scale < 1e-12

    def test_concavity(self):
        rng = np.random.default_rng(12)
        rods = skew_rods()
        for _ in range(25):
            rho = float(rng.uniform(0.1, 3.0))
            zeta = float(rng.uniform(-2.0, 2.0))
            v = v_jet(rods, rho, zeta, order=2)
            expected = -sum(
                2 * a / math.hypot(rho, zeta - z)
                for a, z in zip(rods.weights, rods.zs)
            )
            assert v.partial(0, 2) < 0
            assert abs(v.partial(0, 2) - expected) < 1e-12 * abs(expected)

    def test_log_asymptotics(self):
        # |V - V0(rho, zeta - zbar)| stays bounded by C log R far out
        rods = skew_rods()
        zb = rods.nut_center
        for Rbig in (1e3, 1e5):
            theta = 1.1
            rho, zeta = Rbig * math.sin(theta), Rbig * math.cos(theta)
            v = v_jet(rods, rho, zeta, order=0)
            v0 = unit_v0(rho, zeta - zb, order=0)
            assert abs(v.value - v0.value) < 5 * math.log(Rbig)

    @pytest.mark.parametrize("make", [eh_rods_exact, skew_rods])
    def test_truncation(self, make):
        # V and H read off order-3 fields carry, up to order 2, the bits
        # of the order-2 call (verify's fields suite relies on it)
        rods = make()
        for rho, zeta in ((0.7, 0.1), (2.5, -1.3), (0.05, 3.0), (0.3, -0.25)):
            for high, low in zip(potentials(rods, rho, zeta, 3),
                                 potentials(rods, rho, zeta, 2)):
                assert [float(v).hex() for v in high.truncate(2).c] \
                    == [float(v).hex() for v in low.c]


class TestWard:
    def test_z_is_weighted_radii(self):
        rods = skew_rods()
        rho, zeta = 1.4, -0.3
        zj = tod.tod_fields(rods, rho, zeta, order=1).z
        expected = sum(
            a * math.hypot(rho, zeta - z) for a, z in zip(rods.weights, rods.zs)
        )
        assert abs(zj.value - expected) < 1e-13

    def test_matches_v_derivatives(self):
        rods = eh_rods()
        rho, zeta = 0.9, 0.4
        v = v_jet(rods, rho, zeta)
        f = tod.tod_fields(rods, rho, zeta)
        zj, xj = f.z, f.x
        assert abs(zj.value - rho * v.partial(1, 0) / 2) < 1e-12
        assert abs(xj.value + v.partial(0, 1) / 2) < 1e-12
        # first jets agree as well
        assert abs(zj.partial(1, 0) - (v.partial(1, 0) + rho * v.partial(2, 0)) / 2) < 1e-12
        assert abs(xj.partial(0, 1) + v.partial(0, 2) / 2) < 1e-12

    def test_toda_residual(self):
        rods = eh_rods()
        for rho, zeta in ((0.6, 0.0), (1.1, 0.8), (2.0, -1.5)):
            f = tod.tod_fields(rods, rho, zeta, order=2)
            assert abs(harmonic.toda_residual(f)) < 1e-8

    def test_toda_holds_for_any_harmonic_v(self):
        # weights deliberately not summing to 1
        rods = RodData(c=-1.0, zs=(-0.5, 0.7), weights=(0.8, 0.9), mode="general")
        for rho, zeta in ((0.8, 0.2), (1.5, -0.4)):
            f = tod.tod_fields(rods, rho, zeta, order=2)
            assert abs(harmonic.toda_residual(f)) < 1e-8


class TestAxisProfile:
    def test_eh_slopes_and_values(self):
        prof = eh_rods_exact().profile
        assert prof.slopes == (-1, 0, 1)
        assert prof.values == (Fraction(1, 4), Fraction(1, 4))

    def test_endpoint_slopes(self):
        prof = skew_rods().profile
        assert abs(prof.slopes[0] + 1) < 1e-14
        assert abs(prof.slopes[-1] - 1) < 1e-14

    def test_v_axis_limit(self):
        # V - f log rho^2 -> g on each rod
        rods = skew_rods()
        prof = rods.profile
        for zeta in (-2.0, -0.2, 0.5, 1.8):
            rho = 1e-5
            v = v_jet(rods, rho, zeta, order=0)
            g = v.value - prof.f(zeta) * math.log(rho * rho)
            assert abs(g - axis_g(prof, zeta)) < 1e-8

    def test_h_axis_limit(self):
        # H0 -> zeta |zeta| as rho -> 0
        for zeta in (0.7, -1.2):
            h = unit_h0(1e-6, zeta, order=0)
            assert abs(h.value - zeta * abs(zeta)) < 1e-10

    def test_eh_middle_rod_h(self):
        # on the middle rod H(0, zeta) = zeta/2 + gauge
        rods = eh_rods(gauge=0.3)
        prof = rods.profile
        for zeta in (-0.2, 0.0, 0.15):
            assert abs(prof.h(zeta) - (zeta / 2 + 0.3)) < 1e-14
        hz = h_jet(rods, 1e-6, 0.1, order=0)
        assert abs(hz.value - (0.05 + 0.3)) < 1e-10

    def test_f_constant_is_constant(self):
        prof = skew_rods().profile
        for i in (0, 1, 2, 3):
            if prof.slopes[i] == 0:
                continue
            za = prof._rod_point(i)
            f1 = prof.f_constant(i, za)
            f2 = prof.f_constant(i, za + 0.01 if i == len(prof.rods.zs) else za - 0.01)
            assert abs(f1 - f2) < 1e-12

    def test_symmetric_gauge_balances_ends(self):
        prof = skew_rods().profile
        assert abs(prof.f_constant(0) + prof.f_constant(3)) < 1e-12

    def test_eh_f_constants(self):
        prof = eh_rods_exact().profile
        assert prof.gauge == 0
        assert prof.f_constant(0) == -1
        assert prof.f_constant(2) == 1

    def test_axis_w_positive(self):
        prof = skew_rods().profile
        for zeta in (-2.0, 1.9, 0.5):
            if prof.slopes[rod_index(prof, zeta)] == 0:
                continue
            assert axis_w(prof, zeta) > 0
