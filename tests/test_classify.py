"""Exact classification: junction data, certificates, the surviving family."""

import math
from fractions import Fraction

import numpy as np
import pytest

from rod_fixtures import eh_rods_exact, skew_rods
from todkit import classify, rods as rodsmod, tod
from todkit.errors import RodDataError
from todkit.harmonic import RodData

F = Fraction


def perturbed_exact():
    return RodData(c=F(-1, 16), zs=(F(-1, 4), F(1, 4)),
                   weights=(F(2, 5), F(3, 5)))


def steep_exact():
    return RodData(c=F(-1, 2), zs=(F(-1), F(0), F(1)),
                   weights=(F(1, 4), F(1, 2), F(1, 4)))


class TestSlopeData:
    def test_eh_exact(self):
        data = classify.slope_data(eh_rods_exact())
        assert data.n == 2
        assert data.slopes == (F(-1), F(0), F(1))
        assert data.values == (F(1, 4), F(1, 4))
        assert data.gaps == (F(1, 2),)
        assert data.levels == (F(2),)
        assert data.signs == (F(1),)

    def test_perturbed_levels_and_signs(self):
        data = classify.slope_data(perturbed_exact())
        assert data.slopes == (F(-1), F(-1, 5), F(1))
        assert data.values == (F(3, 10), F(1, 5))
        # the slope components alone are consistent with level 0
        assert data.levels == (F(0),)
        assert data.signs == (F(3, 2),)

    @pytest.mark.parametrize("make, calls", [
        (eh_rods_exact, 1), (steep_exact, 2), (skew_rods, 2)], ids=["two-nut", "steep", "skew"])
    def test_one_junction_solve(self, monkeypatch, make, calls):
        # the signs are gl2z_compatibility's: its n - 1 solves and no more
        solve = rodsmod.express_in_basis
        seen = []
        monkeypatch.setattr(rodsmod, "express_in_basis",
                            lambda *args: seen.append(args) or solve(*args))
        rods = make()
        data = classify.slope_data(rods)
        assert len(seen) == calls == rods.n - 1
        assert data.signs == tuple(F(rep.sign) for rep in rodsmod.gl2z_compatibility(rods))

    def test_singular_basis_has_no_sign(self):
        rods = eh_rods_exact()
        rods.__dict__["vectors"] = ((1, 0), (1, 1), (2, 2))
        assert classify.slope_data(rods).signs == (None,)

    def test_float_signs_are_their_binary_values(self):
        rods = skew_rods()
        vecs = rods.vectors
        signs = classify.slope_data(rods).signs
        for j, sign in enumerate(signs, start=1):
            _, beta = rodsmod.express_in_basis(vecs[j - 1], vecs[j], vecs[j + 1])
            assert type(sign) is Fraction and sign == F(-beta)

    def test_steep_integer_levels(self):
        data = classify.slope_data(steep_exact())
        assert data.levels == (F(1), F(1))
        assert data.values == (F(1), F(1, 2), F(1))


class TestResiduals:
    def test_eh_all_ok(self):
        reports = classify.regularity_residuals(classify.slope_data(eh_rods_exact()))
        assert len(reports) == 1
        rep = reports[0]
        assert rep.level == 2
        assert rep.residual1 == 0
        assert rep.residual2 == 0
        assert rep.gap_residual == 0
        assert rep.ok

    def test_perturbed_value_relation_fails(self):
        reports = classify.regularity_residuals(
            classify.slope_data(perturbed_exact()))
        rep = reports[0]
        assert rep.residual1 == 0
        assert rep.residual2 == F(-1, 50)
        assert rep.gap_residual is None
        assert not rep.sign_ok
        assert not rep.ok

    def test_steep_integer_levels_still_fail(self):
        # both junction levels are the integer 1, yet the value relation
        # rules the data out
        reports = classify.regularity_residuals(
            classify.slope_data(steep_exact()))
        assert [r.residual1 for r in reports] == [0, 0]
        assert reports[0].residual2 == F(-1, 4)
        assert not any(r.ok for r in reports)

    def test_family_member_any_gap_and_gauge(self):
        member = classify.admissible_family_member(gap=F(3), c=F(-2))
        reports = classify.regularity_residuals(classify.slope_data(member))
        assert all(r.ok for r in reports)
        assert reports[0].level == 2


class TestLattice:
    def test_surviving_level(self):
        images = classify.lattice_images((2,))
        assert images == ((0, 1), (1, 0), (2, -1))

    def test_level_one_pair_closes_to_opposite_ends(self):
        images = classify.lattice_images((1, 1))
        assert images == ((0, 1), (1, 0), (1, -1), (0, -1))
        assert images[-1] == (-images[0][0], -images[0][1])

    def test_matches_vector_route(self):
        member = classify.admissible_family_member()
        cls = rodsmod.asymptotic_class(member)
        assert cls.images == classify.lattice_images((2,))
        assert cls.label == "L(2,1)"

    def test_needs_integer_data(self):
        with pytest.raises(RodDataError):
            classify.lattice_images((F(3, 2),))
        with pytest.raises(RodDataError):
            classify.lattice_images((2,), signs=(3,))


class TestDegenerateCertificate:
    def test_single_nut_w_vanishes(self):
        cert = classify.verify_n1_degenerate()
        assert cert["degenerate"]
        assert cert["max_abs_w_jet"] == 0.0
        assert cert["points"] == 36

    def test_rejects_other_data(self):
        with pytest.raises(RodDataError):
            classify.verify_n1_degenerate(eh_rods_exact())

    @pytest.mark.parametrize("c", [-1e-307, -1e-320])
    def test_nan_coefficient_is_not_zero(self, c):
        # A/c overflows, so W = (A/c) K / den is NaN where inf meets the
        # zero K: at c = -1e-307 in a few jet coefficients only, none of
        # them the value term
        cert = classify.verify_n1_degenerate(RodData(c=c, zs=(0.0,), weights=(1.0,)))
        assert cert["degenerate"] is False
        assert math.isnan(cert["max_abs_w_jet"])
        assert cert["points"] == 36

    @pytest.mark.parametrize("z", [0.6, -3.0, 1e100, -1e300])
    def test_grid_follows_the_nut(self, monkeypatch, z):
        # zeta spans [-2, 2] about the nut, so a far nut's jets stay in
        # range; for a nut at 0 the grid is the one of the default data
        seen = []
        fields = tod.tod_fields
        monkeypatch.setattr(tod, "tod_fields",
                            lambda rods, rho, zeta, **kw: seen.append(zeta)
                            or fields(rods, rho, zeta, **kw))
        cert = classify.verify_n1_degenerate(RodData(c=-1.0, zs=(z,), weights=(1.0,)))
        assert cert == {"degenerate": True, "max_abs_w_jet": 0.0, "points": 36}
        classify.verify_n1_degenerate()
        far, default = seen
        assert default.tolist() == [-2.0 + 4.0 * k / 5 for _ in range(6) for k in range(6)]
        assert far.tolist() == [z + x for x in default.tolist()]


class TestSearch:
    def test_unique_survivor(self):
        result = classify.search_admissible(6)
        assert len(result.survivors) == 1
        survivor = result.survivors[0]
        assert survivor.n == 2
        assert survivor.pattern == (0,)
        assert survivor.details["level"] == 2
        assert survivor.details["weights"] == (F(1, 2), F(1, 2))
        assert survivor.details["lens"] == (2, 1)

    def test_branch_inventory(self):
        result = classify.search_admissible(6)
        counts = {}
        for b in result.branches:
            counts[b.n] = counts.get(b.n, 0) + 1
        assert counts == {1: 1, 2: 3, 3: 5, 4: 7, 5: 9, 6: 11}
        for b in result.branches:
            assert b.status in ("admissible", "rejected")
            assert b.certificate
            if b.status == "rejected" and b.n >= 2:
                assert b.junction is not None or b.pattern == (-1, 1)

    def test_first_junction_log(self):
        # every n >= 4 pattern dies at junction 1 or junction n-1
        result = classify.search_admissible(6)
        for b in result.branches:
            if b.n >= 4:
                assert b.status == "rejected"
                assert b.junction in (1, b.n - 1)

    def test_af_informational_branch(self):
        result = classify.search_admissible(3, asymptotics="af")
        extra = [b for b in result.branches if b.status == "informational"]
        assert len(extra) == 1
        assert extra[0].n == 3
        assert extra[0].details["lattice"][-1] == (0, -1)
        assert len(result.survivors) == 1

    def test_argument_guards(self):
        with pytest.raises(ValueError):
            classify.search_admissible(0)
        with pytest.raises(ValueError):
            classify.search_admissible(4, asymptotics="alf")
        with pytest.raises(RodDataError, match="level bound 1 is below the surviving level 2"):
            classify.search_admissible(4, l_bound=1)


class TestCorroboration:
    def test_random_exact_data_never_admissible(self):
        rng = np.random.default_rng(20)
        for n in (3, 4):
            for _ in range(120):
                ks = rng.integers(1, 10, size=n)
                total = int(ks.sum())
                weights = tuple(F(int(k), total) for k in ks)
                steps = rng.integers(1, 8, size=n - 1)
                zs = [F(0)]
                for s in steps:
                    zs.append(zs[-1] + F(int(s), 4))
                data = RodData(c=F(-1), zs=tuple(zs), weights=weights)
                reports = classify.regularity_residuals(classify.slope_data(data))
                assert not all(r.ok for r in reports)

    def test_survivor_matches_junction_solver(self):
        member = classify.admissible_family_member(gap=F(5, 3))
        reports = rodsmod.gl2z_compatibility(member)
        assert all(r.ok for r in reports)
        assert reports[0].level == 2
        assert reports[0].sign == 1


class TestDegenerateCertificateCost:
    def test_one_array_call(self, monkeypatch):
        calls = []
        fields = tod.tod_fields
        monkeypatch.setattr(tod, "tod_fields",
                            lambda *args, **kw: calls.append(1) or fields(*args, **kw))
        cert = classify.verify_n1_degenerate()
        assert cert["points"] == 36
        assert len(calls) == 1
