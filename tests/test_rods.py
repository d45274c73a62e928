"""Tests for rod vectors, jumps, conical limits, and junction reports."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from identities import axis_w, f_jump, zero_slope_jump
from rod_fixtures import eh_rods_exact, skew_rods
from todkit import cli, harmonic
from todkit import rods as rodmod
from todkit import tod
from todkit.errors import RodDataError
from todkit.harmonic import RodData

F = Fraction


def steep_exact():
    # three nuts, no zero-slope rod
    return RodData(c=F(-1, 2), zs=(F(-1), F(0), F(1)),
                   weights=(F(1, 4), F(1, 2), F(1, 4)))


def sixteen_nut_rods():
    """Float data with 16 uneven nuts and weights."""
    rng = random.Random(7)
    zs = tuple(itertools.accumulate((rng.uniform(0.5, 1.5) for _ in range(15)),
                                    initial=0.0))
    raw = [rng.uniform(0.5, 1.5) for _ in range(16)]
    return RodData(c=-1.0, zs=zs, weights=tuple(a / sum(raw) for a in raw))


def underflowing_rods():
    """Nuts at -+1e-150 with c = -1e-300: every conical sample is NaN, with
    no numpy warning, as for a lone point."""
    return RodData(c=-1e-300, zs=(-1e-150, 1e-150), weights=(0.5, 0.5))


def conical_quotient(data, v0, v1, rho, zeta):
    """The conical quotient for rod vector (v0, v1) at one point, from that
    point's own fields."""
    f = tod.tod_fields(data, rho, zeta, order=1)
    g = tod.tod_metric(f)
    S = (v0 * v0) * g.entry(0, 0) + (2 * v0 * v1) * g.entry(0, 1) \
        + (v1 * v1) * g.entry(1, 1)
    return (S.partial(1, 0) ** 2 + S.partial(0, 1) ** 2) / (4 * S.value * f.e2nu.value)


def perturbed_eh():
    return RodData(c=-1 / 16, zs=(-0.25, 0.25), weights=(0.4, 0.6))


def tilted_eh(d):
    """The two-nut benchmark with weights 1/2 -+ d, exact for a Fraction d:
    its junction level and sign sit about 4 d from -2 and 1."""
    if isinstance(d, Fraction):
        return RodData(c=F(-1, 16), zs=(F(-1, 4), F(1, 4)),
                       weights=(F(1, 2) - d, F(1, 2) + d))
    return RodData(c=-1 / 16, zs=(-0.25, 0.25), weights=(0.5 - d, 0.5 + d))


# an exact near miss fails; its float twin inside the tolerance passes
NEAR_MISS = [pytest.param(F(1, 10**30), False, id="exact-near-miss"),
             pytest.param(1e-12, True, id="float-within-tol")]


class TestRodVectors:
    def test_benchmark_exact(self):
        vecs = eh_rods_exact().vectors
        assert vecs == ((F(-1), F(-1)), (F(-1), F(0)), (F(-1), F(1)))
        v0, v1, v2 = vecs
        assert (v0[0] + v2[0], v0[1] + v2[1]) == (2 * v1[0], 2 * v1[1])

    def test_types_follow_data(self):
        for v in eh_rods_exact().vectors:
            assert isinstance(v[0], Fraction)
        for v in skew_rods().vectors:
            assert isinstance(v[0], float)

    def test_int_data_is_exact(self):
        # int inputs are stored as Fractions, so the junction test runs
        # exactly on exact vectors, as it does for the same Fractions
        ints = RodData(c=-3, zs=(0, 1, 3, 6), weights=(1, 1, 1, 1), mode="general")
        fracs = RodData(c=F(-3), zs=(F(0), F(1), F(3), F(6)),
                        weights=(F(1),) * 4, mode="general")
        assert ints == fracs
        for v in ints.vectors:
            assert isinstance(v[0], Fraction)
        reports = rodmod.gl2z_compatibility(ints)
        assert reports == rodmod.gl2z_compatibility(fracs)
        # level -1 and sign 1 exactly; rounded floats missed by an ulp
        assert (reports[1].level, reports[1].sign, reports[1].ok) == (-1, 1, True)
        assert ints.floats == fracs.floats

    def test_computed_once_per_rod_set(self, monkeypatch):
        # the axis profile and the vectors are cached on the rod data, so
        # the rods suite's three readers share one computation of each
        calls = []
        slopes_values = harmonic._slopes_values
        monkeypatch.setattr(harmonic, "_slopes_values",
                            lambda rods: calls.append(rods) or slopes_values(rods))
        data = eh_rods_exact()
        rodmod.conical_check(data)
        rodmod.gl2z_compatibility(data)
        rodmod.asymptotic_class(data)
        # once for the symmetric gauge, once for the profile
        assert len(calls) == 2
        assert data.profile is data.profile
        assert data.vectors is data.vectors
        assert data.vectors == ((F(-1), F(-1)), (F(-1), F(0)), (F(-1), F(1)))


class TestJumps:
    def test_zero_slope_jump_benchmark(self):
        assert zero_slope_jump(eh_rods_exact(), 1) == F(2)
        prof = eh_rods_exact().profile
        assert prof.f_constant(2) - prof.f_constant(0) == F(2)

    def test_slope_jump_exact(self):
        data = steep_exact()
        prof = data.profile
        for i in (1, 2, 3):
            want = prof.f_constant(i) - prof.f_constant(i - 1)
            assert f_jump(data, i) == want

    def test_slope_jump_float(self):
        data = skew_rods()
        prof = data.profile
        for i in (1, 2, 3):
            want = prof.f_constant(i) - prof.f_constant(i - 1)
            assert abs(f_jump(data, i) - want) < 1e-12 * max(abs(want), 1)

    def test_jump_guards(self):
        with pytest.raises(RodDataError):
            f_jump(eh_rods_exact(), 1)
        with pytest.raises(RodDataError):
            zero_slope_jump(steep_exact(), 1)
        with pytest.raises(RodDataError):
            f_jump(steep_exact(), 4)


class TestConicalLimits:
    def test_benchmark_all_rods(self):
        data = tod.eh_rod_data()
        for i, rep in enumerate(rodmod.conical_check(data)):
            assert abs(rep.limit - 1.0) < 1e-6, (i, rep.limit)

    def test_generic_rods(self):
        # per rod the limit is one for any data; only junctions can fail
        data = skew_rods()
        for i, rep in enumerate(rodmod.conical_check(data)):
            assert abs(rep.limit - 1.0) < 1e-6, (i, rep.limit)

    @pytest.mark.parametrize("alpha", [1e-4, 1e-2, 1.0, 1e2, 1e4])
    @pytest.mark.parametrize("make", [tod.eh_rod_data, skew_rods])
    def test_rescaled_data(self, make, alpha):
        # sample heights follow the nut spacing, so a homothety of the rod
        # data leaves every limit at one
        data = tod.rescale(make(), alpha)
        for i, rep in enumerate(rodmod.conical_check(data)):
            assert abs(rep.limit - 1.0) < 1e-9, (i, rep.limit)

    def test_gauge_invariance(self):
        a = rodmod.conical_check(skew_rods())[2]
        b = rodmod.conical_check(skew_rods(gauge=0.37))[2]
        assert abs(a.limit - b.limit) < 1e-9

    def test_wrong_normalization_detected(self):
        # scaling the rod vector by s scales the limit by s^2
        data = tod.eh_rod_data()
        rep = rodmod.conical_check(data)[0]
        vec = data.vectors[0]
        prof = data.profile
        zeta = float(prof._rod_point(0))
        v0, v1 = 1.1 * float(vec[0]), 1.1 * float(vec[1])
        h = 1e-4
        q = conical_quotient(data, v0, v1, math.sqrt(h), zeta)
        assert abs(q - 1.21) < 1e-2

    @pytest.mark.parametrize("make", [tod.eh_rod_data, skew_rods, sixteen_nut_rods,
                                      underflowing_rods])
    def test_values_match_per_point_loop(self, make):
        # one array pass over all rods x levels gives every sample the
        # bits of its own per-point evaluation
        data = make()
        prof = data.profile
        top = 4e-2 * data.min_gap ** 2
        heights = tuple(top * 0.5 ** k for k in range(7))
        reports = rodmod.conical_check(data)
        assert len(reports) == data.n + 1
        for i, (rep, vec) in enumerate(zip(reports, data.vectors)):
            zeta = float(prof._rod_point(i))
            v0, v1 = float(vec[0]), float(vec[1])
            want = tuple(conical_quotient(data, v0, v1, math.sqrt(h), zeta)
                         for h in heights)
            assert (rep.rod, rep.zeta, rep.heights) == (i, zeta, heights)
            assert [v.hex() for v in rep.values] == [v.hex() for v in want]

    def test_failing_sample_raises_as_alone(self):
        # with c = -1 a sample's denominator underflows to zero: a lone
        # point's float division raises, so the array pass does too
        data = RodData(c=-1.0, zs=(-1e-150, 1e-150), weights=(0.5, 0.5))
        with pytest.raises(ZeroDivisionError, match="^float division by zero$"):
            rodmod.conical_check(data)

    def test_samples_recorded(self):
        rep = rodmod.conical_check(tod.eh_rod_data())[1]
        assert rep.heights == tuple(1e-2 * 0.5 ** k for k in range(7))
        assert len(rep.values) == 7


class TestJunctions:
    def test_benchmark_exact(self):
        reports = rodmod.gl2z_compatibility(eh_rods_exact())
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
                for v in skew_rods().vectors]
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

    @pytest.mark.parametrize("d, ok", NEAR_MISS)
    def test_tolerance_zero_when_exact(self, d, ok):
        rep = rodmod.gl2z_compatibility(tilted_eh(d))[0]
        assert 0 < abs(rep.level + 2) < 1e-11
        assert 0 < abs(rep.sign - 1) < 1e-11
        assert rep.ok is ok


def planted(vectors):
    """The exact two-nut data with its rod vectors replaced by vectors."""
    data = eh_rods_exact()
    data.__dict__["vectors"] = vectors
    return data


def loop_distance(rep):
    """The junction distance as suite_rods computed it from a report's
    level and sign, before the reports carried it."""
    if rep.singular:
        return math.inf
    return float(max(rodmod.int_distance(rep.level),
                     min(abs(rep.sign - 1), abs(rep.sign + 1))))


class TestJunctionDistance:
    """JunctionReport.distance is the one junction solve that the gl2z
    entry and ok read."""

    @pytest.mark.parametrize("make", [
        eh_rods_exact, lambda: tod.eh_rod_data(), perturbed_eh, steep_exact,
        skew_rods, sixteen_nut_rods, lambda: tilted_eh(F(1, 10**30)),
        lambda: tilted_eh(1e-12), lambda: planted(((1, 0), (1, 1), (2, 2))),
    ], ids=["exact", "float", "perturbed", "steep", "skew", "sixteen-nut",
            "exact-near-miss", "float-near-miss", "singular"])
    def test_distance_is_the_measured_value(self, make):
        data = make()
        reports = rodmod.gl2z_compatibility(data)
        assert [float(rep.distance) for rep in reports] == [loop_distance(rep) for rep in reports]
        tol = 1e-9 * data.slack
        for rep in reports:
            # ok as it was decided from the level and the sign apart
            assert rep.ok is (not rep.singular and rodmod.int_distance(rep.level) <= tol
                              and min(abs(rep.sign - 1), abs(rep.sign + 1)) <= tol)
        entry = cli.suite_rods(data, 0, cli.DEFAULT_TOLS, None)[0]
        assert entry["name"] == "gl2z"
        assert entry["measured"] == max(float(rep.distance) for rep in reports)
        assert entry["status"] == ("pass" if all(rep.ok for rep in reports) else "fail")

    def test_singular_basis(self):
        (rep,) = rodmod.gl2z_compatibility(planted(((1, 0), (1, 1), (2, 2))))
        assert (rep.singular, rep.ok, rep.distance) == (True, False, math.inf)

    def test_nan_sign_is_infinitely_far(self):
        # an infinite middle vector: the level solves to 0.0 and the sign
        # to NaN, which must not pass on the level alone
        (rep,) = rodmod.gl2z_compatibility(planted(((1, 0), (math.inf, 1), (0, 1))))
        assert rep.level == 0.0 and math.isnan(rep.sign)
        assert (rep.distance, rep.ok) == (math.inf, False)


class TestAsymptoticClass:
    def test_benchmark_lens(self):
        label = rodmod.asymptotic_class(eh_rods_exact())
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

    @pytest.mark.parametrize("d, ok", NEAR_MISS)
    def test_tolerance_zero_when_exact(self, d, ok):
        if ok:
            assert rodmod.asymptotic_class(tilted_eh(d)).label == "L(2,1)"
        else:
            with pytest.raises(RodDataError, match="not integral"):
                rodmod.asymptotic_class(tilted_eh(d))


class TestAxisLimits:
    def test_w_approaches_axis_profile(self):
        data = skew_rods()
        prof = data.profile
        for i, zeta in ((0, -1.8), (2, 0.55), (3, 1.9)):
            w_axis = axis_w(prof, zeta)
            w = tod.tod_fields(data, 1e-5, zeta, order=0).W.value
            assert abs(w - w_axis) < 1e-8 * abs(w_axis)

    def test_e2nu_matches_slope_squared(self):
        # e^{2nu} -> W f'^2 on rods with nonzero slope
        data = skew_rods()
        prof = data.profile
        for i, zeta in ((0, -1.8), (1, -0.2), (3, 1.9)):
            f = tod.tod_fields(data, 1e-5, zeta, order=0)
            slope = float(prof.slopes[i])
            assert abs(f.e2nu.value - f.W.value * slope * slope) \
                < 1e-8 * f.e2nu.value
