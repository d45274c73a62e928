"""Tests for the quartic-root family: metric, rod relations, scans, corner limit."""

import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest

import reference_scan
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

    @pytest.mark.parametrize("roots, ok", [
        ((F(1, 5), F(2, 5), F(2), F(25, 4) * (1 + F(1, 10**30))), False),
        ((0.2, 0.4, 2.0, 6.25 * (1 + 1e-10)), True),
    ], ids=["exact-near-miss", "float-within-tol"])
    def test_root_product_tolerance_zero_when_exact(self, roots, ok):
        if ok:
            assert not pd.PdParams(roots).is_exact
        else:
            with pytest.raises(RodDataError, match="root product"):
                pd.PdParams(roots)

    def test_default_a0_keeps_exact_roots_exact(self):
        default = pd.PdParams((F(1, 5), F(2, 5), F(2), F(25, 4)))
        assert default.is_exact
        vecs = pd.pd_rod_vectors(default)
        assert vecs == pd.pd_rod_vectors(spot_exact())
        assert vecs[0] == (F(20, 117), F(125, 117))
        assert all(isinstance(x, Fraction) for vec in vecs for x in vec)
        assert pd.pd_regularity(default).m_raw == pd.pd_regularity(spot_exact()).m_raw

    def test_default_a0_keeps_float_bits(self):
        def bits(params):
            return [x.hex() for vec in pd.pd_rod_vectors(params) for x in vec]
        assert bits(spot_float()) == bits(pd.PdParams(SPOT, a0=1.0))

    def test_ordering_guard(self):
        with pytest.raises(RodDataError):
            pd.PdParams((0.4, 0.2, 2.0, 6.25))

    def test_leading_coefficient_guard(self):
        with pytest.raises(RodDataError):
            pd.PdParams(SPOT, a0=-1.0)

    @pytest.mark.parametrize("roots, name", [
        ((1e-300, 1e-10, 1e10, 1e300), "a2"),
        ((1e-200, 1e-100, 1e100, 1e200), "F'(p3)"),
        ((-1e300, -1e-10, 1e-290, 1.0), "F'(p1)")])
    def test_overflow_names_what_is_not_finite(self, roots, name):
        with pytest.raises(OverflowError, match=rf"^{re.escape(name)} = -?inf is not finite"):
            pd.PdParams(roots)

    @pytest.mark.parametrize("command", ["check", "selfdual"])
    def test_overflow_is_an_evaluation_error(self, command, capsys):
        argv = ["pd", command, "--roots", "1e-300", "1e-10", "1e10", "1e300"]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("evaluation error: a2 = inf is not finite for roots")
        assert "disagrees" not in err

    def test_exact_roots_far_apart_stay_exact(self):
        big = F(10) ** 300
        params = pd.PdParams((1 / big, F(1, 10 ** 10), F(10 ** 10), big))
        assert params.is_exact
        # a2 is about p3 p4 = 1e310, past the float range
        assert params.coefficients[2] > 10 ** 309
        assert pd.pd_regularity(params).ok is False

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


class TestMetric:
    def test_killing_determinant_identity(self):
        params = spot_float()
        p1, p2, p3, p4 = params.roots
        for (p, q) in ((0.9, 0.3), (0.5, 0.25), (1.8, 0.21), (0.41, 0.39)):
            g = pd.pd_metric(params, p, q).values()
            det = g[0, 0] * g[1, 1] - g[0, 1] ** 2
            target = -params.quartic(p) * params.quartic(q) / (p - q) ** 4
            assert abs(det - target) <= 1e-12 * abs(target)

    def test_exact_roots_give_float_jets(self):
        # pd_metric converts exact coefficients to float once; the matrix
        # jet holds float64 arrays and matches the float twin of the root set
        for p, q in ((0.9, 0.3), (0.5, 0.25), (1.8, 0.21)):
            got = pd.pd_metric(spot_exact(), p, q).jet
            want = pd.pd_metric(spot_float(), p, q).jet
            assert len(got.c) == len(want.c)
            for u, v in zip(got.c, want.c):
                assert u.dtype == np.float64 and u.shape == (4, 4)
                assert np.all(np.abs(u - v) <= 1e-14 * np.abs(v))

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

    def test_selfdual_exact_near_one(self):
        # 1 - p1^2 p2^2 is about 6e-13 here, below the float cutoff 1e-12:
        # exact roots compare with tolerance zero, so the closed forms and
        # the eps certificate still apply
        params = pd.PdParams(pd.selfdual_roots("a", 1 - F(2, 10**13), 1 - F(1, 10**13)))
        report = pd.pd_selfdual_check(params)
        assert report["eps_closed"] == report["eps"] == pd.pd_regularity(params).eps
        assert report["eps"] + report["eps_gap"] == 1

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
        real = pd._regularity_rows

        def broken(roots, *args):
            reg, faults = real(roots, *args)
            return dataclasses.replace(reg, ok=np.zeros_like(reg.ok),
                                       n=np.full_like(reg.n, 0.5)), faults

        monkeypatch.setattr(pd, "_regularity_rows", broken)
        with pytest.raises(CertificateError):
            pd.pd_scan("i", samples=5, seed=3)
        code = cli.main(["pd", "scan", "--case", "i", "--samples", "5"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("evaluation error:")
        assert "n strictly between -1 and 0" in err


class TestScanFailures:
    """A failing sample raises what the per-sample reference raises."""

    @staticmethod
    def _break_kth_certificate(monkeypatch, k):
        """Set eps above one, which breaks the case a certificate, in the
        k-th sample of both scans; returns the reference's call count."""
        rows, scalar = pd._regularity_rows, reference_scan.pd_regularity
        seen = [0]

        def broken_rows(roots, *args):
            reg, faults = rows(roots, *args)
            i = k - 1 - seen[0]
            seen[0] += len(roots)
            if 0 <= i < len(roots):
                eps = reg.eps.copy()
                eps[i] = 2.0
                reg = dataclasses.replace(reg, eps=eps)
            return reg, faults

        calls = [0]

        def broken_scalar(params):
            calls[0] += 1
            reg = scalar(params)
            return dataclasses.replace(reg, eps=2.0) if calls[0] == k else reg

        monkeypatch.setattr(pd, "_regularity_rows", broken_rows)
        monkeypatch.setattr(reference_scan, "pd_regularity", broken_scalar)
        return calls

    @pytest.mark.parametrize("k", [1, 7, pd._BLOCK + 5])
    def test_kth_sample_failure_names_its_roots(self, monkeypatch, k):
        samples = pd._BLOCK + 10
        calls = self._break_kth_certificate(monkeypatch, k)
        with pytest.raises(CertificateError) as got:
            pd.pd_scan("a", samples=samples, seed=4)
        with pytest.raises(CertificateError) as want:
            reference_scan.pd_scan("a", samples=samples, seed=4)
        assert calls[0] == k
        assert str(got.value) == str(want.value)
        assert "certificate 'rods 3 and 4 opposite, eps below 1'" in str(got.value)

    def test_failure_before_the_attempt_limit(self, monkeypatch):
        # both scans keep only their first three samples, the second of
        # which breaks its certificate; the scan then reaches its attempt
        # limit with that sample uncertified and must still raise its
        # CertificateError, as the reference does at the sample itself,
        # not the limit's RodDataError
        draw, sample = pd._draw_roots, reference_scan._sample_roots
        kept, sampled = [0], [0]

        def three_draws(case, rng, k):
            roots, keep = draw(case, rng, k)
            keep[np.flatnonzero(keep)[max(0, 3 - kept[0]):]] = False
            kept[0] += int(np.count_nonzero(keep))
            return roots, keep

        def three_samples(case, rng):
            roots = sample(case, rng)
            sampled[0] += roots is not None
            return roots if sampled[0] <= 3 else None

        monkeypatch.setattr(pd, "_draw_roots", three_draws)
        monkeypatch.setattr(reference_scan, "_sample_roots", three_samples)
        self._break_kth_certificate(monkeypatch, 2)
        with pytest.raises(CertificateError) as got:
            pd.pd_scan("a", samples=30, seed=4)
        with pytest.raises(CertificateError) as want:
            reference_scan.pd_scan("a", samples=30, seed=4)
        assert kept[0] == 3
        assert str(got.value) == str(want.value)

    def test_closed_form_disagreement(self, monkeypatch):
        real = pd._closed_forms

        def shifted(p1, p2, p3):
            (num, den), n_form = real(p1, p2, p3)
            return (num + 1, den), n_form

        monkeypatch.setattr(pd, "_closed_forms", shifted)
        with pytest.raises(CertificateError,
                           match="disagrees with its closed form") as got:
            pd.pd_scan("i", samples=20, seed=2)
        with pytest.raises(CertificateError) as want:
            reference_scan.pd_scan("i", samples=20, seed=2)
        assert str(got.value) == str(want.value)

    def test_all_draws_rejected(self, monkeypatch):
        drawn = []

        def rejecting(case, rng, k):
            drawn.append(k)
            return np.zeros((k, 4)), np.zeros(k, dtype=bool)

        monkeypatch.setattr(pd, "_draw_roots", rejecting)
        with pytest.raises(RodDataError,
                           match="sampling failed to reach the requested count"):
            pd.pd_scan("i", samples=30, seed=0)
        assert sum(drawn) == 200 * 30 + 1000
        assert max(drawn) == pd._BLOCK

    def test_unknown_case_draws_nothing(self, monkeypatch):
        def drawing(case, rng, k):
            raise AssertionError("drew attempts for an unknown case")

        monkeypatch.setattr(pd, "_draw_roots", drawing)
        with pytest.raises(RodDataError, match="unknown scan case 'z'"):
            pd.pd_scan("z", samples=10)


def _spy_scan(monkeypatch):
    """Record the attempts of every _draw_roots call and the rows of every
    _regularity_rows call."""
    drawn, certified = [], []
    draw, rows = pd._draw_roots, pd._regularity_rows

    def spy_draw(case, rng, k):
        drawn.append(k)
        return draw(case, rng, k)

    def spy_rows(roots, *args):
        certified.append(len(roots))
        return rows(roots, *args)

    monkeypatch.setattr(pd, "_draw_roots", spy_draw)
    monkeypatch.setattr(pd, "_regularity_rows", spy_rows)
    return drawn, certified


class TestScanDraws:
    @pytest.mark.parametrize("case, samples", [
        ("i", 1000), ("ii", 550), ("iii", 850), ("a", 1000), ("b", 1250)])
    def test_draws_only_what_it_needs(self, monkeypatch, case, samples):
        drawn, certified = _spy_scan(monkeypatch)
        for seed in (0, 51, 2 ** 31 - 1):
            attempts = pd.pd_scan(case, samples, seed).attempts
            assert max(drawn) <= pd._BLOCK
            # the margin pd_scan documents: about a quarter at most beyond
            # the attempts counted, plus 32
            assert sum(drawn) <= 1.25 * attempts + 32
            assert certified == [samples]
            drawn.clear()
            certified.clear()


class TestScanMatchesReference:
    """The array scan against the per-sample loop it replaced."""

    @pytest.mark.parametrize("case", ["i", "ii", "iii", "a", "b"])
    def test_seeds_and_sizes(self, case):
        for seed in range(21):
            for samples in (1, 7, 300):
                assert pd.pd_scan(case, samples, seed) == \
                    reference_scan.pd_scan(case, samples, seed)

    @pytest.mark.parametrize("case, samples", [
        ("i", 1000), ("ii", 550), ("iii", 850), ("a", 1000), ("b", 1250)])
    def test_benchmark_counts(self, case, samples):
        for seed in (0, 51, 2 ** 31 - 1):
            assert pd.pd_scan(case, samples, seed) == \
                reference_scan.pd_scan(case, samples, seed)

    @pytest.mark.parametrize("case", ["i", "ii", "iii", "a", "b"])
    def test_draw_sizes_do_not_change_results(self, monkeypatch, case):
        drawn, certified = _spy_scan(monkeypatch)
        for seed in (0, 1, 2):
            for samples in (1, 7, 300):
                want = reference_scan.pd_scan(case, samples, seed)
                for block in (1, 7, 64):
                    monkeypatch.setattr(pd, "_BLOCK", block)
                    assert pd.pd_scan(case, samples, seed) == want
                    assert max(drawn) <= block
                    assert max(certified) < 2 * block
                    drawn.clear()
                    certified.clear()

    @pytest.mark.parametrize("case", ["i", "ii", "iii", "a", "b"])
    def test_draws_match_reference_rows(self, case):
        # scan results are counts, which a last-bit change in a root
        # rarely moves; the roots themselves must agree bit for bit, and
        # a compare-exchange step that is wrong or out of order puts some
        # root in the wrong place
        for seed in range(10):
            for size in (1, 7, 2048):
                roots, keep = pd._draw_roots(case, np.random.default_rng(seed), size)
                rng = np.random.default_rng(seed)
                want = [reference_scan._sample_roots(case, rng) for _ in range(size)]
                assert keep.tolist() == [w is not None for w in want]
                got = [tuple(x.hex() for x in row) for row in roots[keep].tolist()]
                assert got == [tuple(float(x).hex() for x in w)
                               for w in want if w is not None]

    def test_block_exp_equals_row_exp(self):
        # the draws' np.exp over a whole block against np.exp of each row:
        # the magnitudes of cases i-iii and a, then case b's block
        rng = np.random.default_rng(0)
        blocks = [rng.uniform(math.log(0.05), math.log(hi), size=(20000, width))
                  for width, hi in ((4, 20.0), (2, 0.95))]
        lo = np.array([math.log(1.05), math.log(0.02)])
        hi = np.array([math.log(20.0), math.log(0.95)])
        blocks.append(lo + (hi - lo) * rng.random((20000, 2)))
        for block in blocks:
            rows = np.array([np.exp(row) for row in block])
            assert np.array_equal(np.exp(block).view(np.int64), rows.view(np.int64))

    def test_fourth_root_equals_scalar_square_roots(self):
        # the scan's column fourth root, two np.sqrt calls, against two
        # math.sqrt calls per row: both are correctly rounded, so the bits
        # agree, here also at the products of the draw range's ends
        rng = np.random.default_rng(1)
        mags = np.exp(rng.uniform(math.log(0.05), math.log(20.0), size=(20000, 4)))
        prod = mags[:, 0] * mags[:, 1] * mags[:, 2] * mags[:, 3]
        ends = [0.05 ** 4, 20.0 ** 4]
        prod = np.concatenate([prod, ends, np.nextafter(ends, 0), np.nextafter(ends, np.inf)])
        got = [x.hex() for x in np.sqrt(np.sqrt(prod)).tolist()]
        assert got == [math.sqrt(math.sqrt(p)).hex() for p in prod.tolist()]


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
