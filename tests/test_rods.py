"""Tests for rod vectors, jumps, conical limits, and junction reports."""

import math
from fractions import Fraction

import numpy as np
import pytest

from todkit import rods as rodmod
from todkit import tod
from todkit.errors import RodDataError
from todkit.harmonic import RodData, axis_profile

F = Fraction


def eh_exact():
    return RodData(c=F(-1, 16), zs=(F(-1, 4), F(1, 4)), weights=(F(1, 2), F(1, 2)))


def skew_rods(gauge="symmetric"):
    return RodData(c=-0.3, zs=(-1.0, 0.2, 0.9), weights=(0.2, 0.5, 0.3),
                   gauge=gauge)


def steep_exact():
    # three nuts, no zero-slope rod
    return RodData(c=F(-1, 2), zs=(F(-1), F(0), F(1)),
                   weights=(F(1, 4), F(1, 2), F(1, 4)))


def perturbed_eh():
    return RodData(c=-1 / 16, zs=(-0.25, 0.25), weights=(0.4, 0.6))


class TestRodVectors:
    def test_benchmark_exact(self):
        vecs = rodmod.rod_vectors(eh_exact())
        assert vecs == ((F(-1), F(-1)), (F(-1), F(0)), (F(-1), F(1)))
        v0, v1, v2 = vecs
        assert (v0[0] + v2[0], v0[1] + v2[1]) == (2 * v1[0], 2 * v1[1])

    def test_types_follow_data(self):
        for v in rodmod.rod_vectors(eh_exact()):
            assert isinstance(v[0], Fraction)
        for v in rodmod.rod_vectors(skew_rods()):
            assert isinstance(v[0], float)

    def test_structure_bundle(self):
        st = rodmod.rod_structure(eh_exact())
        assert len(st.vectors) == 3
        assert st.f_constants[1] is None
        assert st.f_constants[0] == F(-1)
        assert st.f_constants[2] == F(1)
        assert st.adjacent_dets == (F(-1), F(-1))
        assert len(st.junctions) == 1


class TestJumps:
    def test_zero_slope_jump_benchmark(self):
        assert rodmod.zero_slope_jump(eh_exact(), 1) == F(2)
        prof = axis_profile(eh_exact())
        assert prof.f_constant(2) - prof.f_constant(0) == F(2)

    def test_slope_jump_exact(self):
        data = steep_exact()
        prof = axis_profile(data)
        for i in (1, 2, 3):
            want = prof.f_constant(i) - prof.f_constant(i - 1)
            assert rodmod.f_jump(data, i) == want

    def test_slope_jump_float(self):
        data = skew_rods()
        prof = axis_profile(data)
        for i in (1, 2, 3):
            want = prof.f_constant(i) - prof.f_constant(i - 1)
            assert abs(rodmod.f_jump(data, i) - want) < 1e-12 * max(abs(want), 1)

    def test_jump_guards(self):
        with pytest.raises(RodDataError):
            rodmod.f_jump(eh_exact(), 1)
        with pytest.raises(RodDataError):
            rodmod.zero_slope_jump(steep_exact(), 1)
        with pytest.raises(RodDataError):
            rodmod.f_jump(steep_exact(), 4)


class TestConicalLimits:
    def test_benchmark_all_rods(self):
        data = tod.eh_rod_data()
        for i in range(3):
            rep = rodmod.conical_check(data, i)
            assert abs(rep.limit - 1.0) < 1e-6, (i, rep.limit)

    def test_generic_rods(self):
        # per rod the limit is one for any data; only junctions can fail
        data = skew_rods()
        for i in range(4):
            rep = rodmod.conical_check(data, i)
            assert abs(rep.limit - 1.0) < 1e-6, (i, rep.limit)

    @pytest.mark.parametrize("alpha", [1e-4, 1e-2, 1.0, 1e2, 1e4])
    @pytest.mark.parametrize("make", [tod.eh_rod_data, skew_rods])
    def test_rescaled_data(self, make, alpha):
        # sample heights follow the nut spacing, so a homothety of the rod
        # data leaves every limit at one
        data = tod.rescale(make(), alpha)
        for i in range(data.n + 1):
            rep = rodmod.conical_check(data, i)
            assert abs(rep.limit - 1.0) < 1e-9, (i, rep.limit)

    def test_gauge_invariance(self):
        a = rodmod.conical_check(skew_rods(), 2)
        b = rodmod.conical_check(skew_rods(gauge=0.37), 2)
        assert abs(a.limit - b.limit) < 1e-9

    def test_wrong_normalization_detected(self):
        # scaling the rod vector by s scales the limit by s^2
        data = tod.eh_rod_data()
        rep = rodmod.conical_check(data, 0)
        vec = rodmod.rod_vectors(data)[0]
        prof = axis_profile(data)
        zeta = float(prof._rod_point(0))
        v0, v1 = 1.1 * float(vec[0]), 1.1 * float(vec[1])
        h = 1e-4
        f = tod.tod_fields(data, math.sqrt(h), zeta, order=1)
        g = tod.tod_metric(f)
        S = (v0 * v0) * g.comp[0][0] + (2 * v0 * v1) * g.comp[0][1] \
            + (v1 * v1) * g.comp[1][1]
        q = (S.partial(1, 0) ** 2 + S.partial(0, 1) ** 2) / (4 * S.value * f.e2nu.value)
        assert abs(q - 1.21) < 1e-2

    def test_samples_recorded(self):
        rep = rodmod.conical_check(tod.eh_rod_data(), 1, levels=5)
        assert len(rep.heights) == 5
        assert rep.heights[0] == 1e-2


class TestJunctions:
    def test_benchmark_exact(self):
        reports = rodmod.gl2z_compatibility(eh_exact())
        assert len(reports) == 1
        rep = reports[0]
        assert rep.ok
        assert rep.level == F(2)
        assert rep.sign == F(1)

    def test_perturbed_benchmark_fails(self):
        rep = rodmod.gl2z_compatibility(perturbed_eh())[0]
        assert not rep.ok
        assert abs(rep.level - (-2.5)) < 1e-12
        assert abs(rep.sign - 1.5) < 1e-12

    def test_gauge_invariance(self):
        base = rodmod.gl2z_compatibility(skew_rods())
        shifted = rodmod.gl2z_compatibility(skew_rods(gauge=0.37))
        for a, b in zip(base, shifted):
            assert abs(a.level - b.level) < 1e-9
            assert abs(a.sign - b.sign) < 1e-9

    def test_basis_change_invariance(self):
        # solved coefficients are invariant under any linear change of the
        # torus basis applied to all vectors
        vecs = [np.array([float(v[0]), float(v[1])])
                for v in rodmod.rod_vectors(skew_rods())]
        for M in (np.array([[1.0, 1.0], [0.0, 1.0]]),
                  np.array([[2.0, 1.0], [1.0, 1.0]])):
            for j in (1, 2):
                a0, b0 = rodmod.express_in_basis(vecs[j - 1], vecs[j], vecs[j + 1])
                a1, b1 = rodmod.express_in_basis(
                    tuple(M @ vecs[j - 1]), tuple(M @ vecs[j]), tuple(M @ vecs[j + 1]))
                assert abs(a0 - a1) < 1e-9
                assert abs(b0 - b1) < 1e-9

    def test_collinear_guard(self):
        with pytest.raises(RodDataError):
            rodmod.express_in_basis((1, 0), (1, 1), (2, 2))


class TestAsymptoticClass:
    def test_benchmark_lens(self):
        label = rodmod.asymptotic_class(eh_exact())
        assert (label.p, label.q) == (2, 1)
        assert label.label == "L(2,1)"
        assert label.images == ((0, 1), (1, 0), (2, -1))

    def test_float_benchmark(self):
        label = rodmod.asymptotic_class(tod.eh_rod_data())
        assert (label.p, label.q) == (2, 1)

    def test_non_integral_rejected(self):
        with pytest.raises(RodDataError):
            rodmod.asymptotic_class(perturbed_eh())

    def test_single_nut_rejected(self):
        data = RodData(c=F(-1, 4), zs=(F(0),), weights=(F(1),))
        with pytest.raises(RodDataError):
            rodmod.asymptotic_class(data)


class TestAxisLimits:
    def test_w_approaches_axis_profile(self):
        data = skew_rods()
        prof = axis_profile(data)
        for i, zeta in ((0, -1.8), (2, 0.55), (3, 1.9)):
            w_axis = prof.axis_w(zeta)
            w = tod.tod_fields(data, 1e-5, zeta, order=0).W.value
            assert abs(w - w_axis) < 1e-8 * abs(w_axis)

    def test_e2nu_matches_slope_squared(self):
        # e^{2nu} -> W f'^2 on rods with nonzero slope
        data = skew_rods()
        prof = axis_profile(data)
        for i, zeta in ((0, -1.8), (1, -0.2), (3, 1.9)):
            f = tod.tod_fields(data, 1e-5, zeta, order=0)
            slope = float(prof.slopes[i])
            assert abs(f.e2nu.value - f.W.value * slope * slope) \
                < 1e-8 * f.e2nu.value
