"""Property tests: the one regularity kernel against the scalar reference.

``pd._regularity_rows`` over a float root array, and ``pd.pd_regularity``
(its row 0) on float and exact root sets, against the scalar
``reference_regularity.pd_regularity``.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import reference_regularity
from todkit import pd
from todkit.errors import CertificateError, RodDataError

FIELDS = ("eps", "epsbar", "m_raw", "n_raw", "m", "n")

# no explain phase: it imports libcst, which raises a DeprecationWarning
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100,
                    phases=(Phase.explicit, Phase.generate, Phase.shrink))


def _separated(params):
    """params if its roots are 1e-3 apart, as the scan's are, else None;
    a double root makes the scalar path divide by zero."""
    gaps = np.diff(np.array(params.roots, dtype=float))
    return params if gaps.min() >= 1e-3 else None


def _normalized(signed_logs):
    try:
        return _separated(pd.PdParams.normalized(
            [s * math.exp(x) for s, x in signed_logs]))
    except RodDataError:
        return None


def _pair_case(case, u, v):
    try:
        return _separated(pd.PdParams(pd.selfdual_roots(case, u, v)))
    except RodDataError:
        return None


def _exact(signed):
    """p1 < p2 < p3 from signed rationals and p4 = 1/(p1 p2 p3), or None
    when p4 does not exceed p3."""
    p1, p2, p3 = sorted(s * x for s, x in signed)
    if not p1 < p2 < p3:
        return None
    p4 = 1 / (p1 * p2 * p3)
    return pd.PdParams((p1, p2, p3, p4)) if p4 > p3 else None


def _present(sets):
    return sets.filter(lambda params: params is not None)


# generic sign patterns, and the palindromic cases a and b, whose
# reciprocal pairs make rods 3, 4 (case a) or 1, 2 (case b) collinear
generic = st.lists(st.tuples(st.sampled_from((1, -1)),
                             st.floats(math.log(0.05), math.log(20.0))),
                   min_size=4, max_size=4).map(_normalized)
case_a = st.builds(_pair_case, st.just("a"), st.floats(0.05, 0.95),
                   st.floats(0.05, 0.95))
case_b = st.builds(_pair_case, st.just("b"), st.floats(-20.0, -1.05),
                   st.floats(0.02, 0.95))
float_sets = _present(st.one_of(generic, case_a, case_b))
root_sets = st.lists(float_sets, min_size=1, max_size=8)

# exact root sets: rational p1 < p2 < p3 with p4 = 1/(p1 p2 p3), and
# palindromic case a and b sets of rationals
rationals = st.fractions(Fraction(1, 20), 20, max_denominator=30)
exact_generic = st.lists(st.tuples(st.sampled_from((1, -1)), rationals),
                         min_size=3, max_size=3).map(_exact)
exact_a = st.builds(_pair_case, st.just("a"),
                    st.fractions(Fraction(1, 20), Fraction(19, 20), max_denominator=30),
                    st.fractions(Fraction(1, 20), Fraction(19, 20), max_denominator=30))
exact_b = st.builds(_pair_case, st.just("b"),
                    st.fractions(-20, Fraction(-21, 20), max_denominator=30),
                    st.fractions(Fraction(1, 30), Fraction(19, 20), max_denominator=30))
exact_sets = _present(st.one_of(exact_generic, exact_a, exact_b))

SPOT_EXACT = pd.PdParams((Fraction(1, 5), Fraction(2, 5), Fraction(2), Fraction(25, 4)))
FLAT_EXACT = pd.PdParams((Fraction(-2), Fraction(-1, 2), Fraction(1, 2), Fraction(2)))
# case a (1/2, 4/5, 5/4, 2) with p3 moved by 1e-20: rods 3 and 4 are
# collinear to float tolerance but not exactly
NEAR_PAIR = _exact(((1, Fraction(1, 2)), (1, Fraction(4, 5)),
                    (1, Fraction(5, 4) + Fraction(1, 10**20))))


def assert_same(got, want, name):
    """Equal value and type: floats bit for bit, exact values by ==."""
    assert type(got) is type(want), name
    if isinstance(want, float):
        assert got.hex() == want.hex(), name
    else:
        assert got == want, name


def assert_matches_reference(params):
    try:
        want = reference_regularity.pd_regularity(params)
    except CertificateError as exc:
        with pytest.raises(CertificateError) as got:
            pd.pd_regularity(params)
        assert str(got.value) == str(exc)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = pd.pd_regularity(params)
    for name in ("ok", "collinear_12", "collinear_34", "end_det", *FIELDS):
        assert_same(getattr(got, name), getattr(want, name), name)
    assert type(got.vectors) is tuple and len(got.vectors) == 4
    for k, (vec, ref) in enumerate(zip(got.vectors, want.vectors)):
        assert type(vec) is tuple and len(vec) == 2
        for c, (x, y) in enumerate(zip(vec, ref)):
            assert_same(x, y, f"vectors[{k}][{c}]")


@SETTINGS
@given(root_sets)
@example([pd.PdParams((-2.0, -0.5, 0.5, 2.0)), pd.PdParams((0.2, 0.4, 2.0, 6.25))])
def test_rows_match_scalar_regularity(param_sets):
    roots = np.array([params.roots for params in param_sets], dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows, faults = pd._regularity_rows(roots)
    disagrees = np.logical_or.reduce([bad for bad, _ in faults])
    for i, params in enumerate(param_sets):
        try:
            reg = reference_regularity.pd_regularity(params)
        except CertificateError:
            assert disagrees[i]
            continue
        assert not disagrees[i]
        assert rows.ok[i] == reg.ok
        assert rows.collinear_12[i] == reg.collinear_12
        assert rows.collinear_34[i] == reg.collinear_34
        for name in FIELDS:
            want, got = getattr(reg, name), getattr(rows, name)[i]
            if want is None:
                assert np.isnan(got), name
            else:
                assert float(got).hex() == float(want).hex(), name


@SETTINGS
@given(float_sets)
@example(pd.PdParams((-2.0, -0.5, 0.5, 2.0)))
@example(pd.PdParams((0.2, 0.4, 2.0, 6.25)))
def test_float_row_reads_back_as_reference(params):
    assert_matches_reference(params)


@SETTINGS
@given(exact_sets)
@example(SPOT_EXACT)
@example(FLAT_EXACT)
@example(pd.PdParams((Fraction(-3), Fraction(-1, 3), Fraction(1, 2), Fraction(2))))
@example(NEAR_PAIR)
def test_exact_row_reads_back_as_reference(params):
    assert params.is_exact
    assert_matches_reference(params)


def test_exact_rows_have_tolerance_zero(monkeypatch):
    reg = pd.pd_regularity(NEAR_PAIR)
    assert not reg.collinear_34 and reg.m is not None
    # a closed form off by 1e-20 fails the exact certificate
    real = pd._closed_forms

    def shifted(p1, p2, p3):
        (num, den), n_form = real(p1, p2, p3)
        return (num + den * Fraction(1, 10**20), den), n_form

    monkeypatch.setattr(pd, "_closed_forms", shifted)
    with pytest.raises(CertificateError, match=r"^m / \(eps epsbar\) = ") as got:
        pd.pd_regularity(SPOT_EXACT)
    with pytest.raises(CertificateError) as want:
        reference_regularity.pd_regularity(SPOT_EXACT)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("params", [
    pd.PdParams((0.2, 0.4, 2.0, 6.25), a0=Fraction(1, 2)),
    pd.PdParams((0.2, 0.4, 2, 6.25), a0=2),
    pd.PdParams((Fraction(1, 5), 0.4, 2.0, 6.25)),
    pd.PdParams(SPOT_EXACT.roots, a0=2.0),
], ids=["fraction-a0", "int-root", "mixed-roots", "float-a0"])
def test_mixed_inputs_read_back_as_reference(params):
    # int roots among floats read as float64; a Fraction root or a0 makes
    # the arithmetic object dtype, which is Python's, as on the scalar path
    assert_matches_reference(params)


@pytest.mark.parametrize("roots, pair", [
    ((0.05, 0.05000000000000001, 19.999999999999996, 20.000000000000004), "p1 and p2"),
    (pd.selfdual_roots("a", 0.05, 0.05000000000000001), "p1 and p2"),
])
def test_double_root_is_a_fault(roots, pair):
    # F' is exactly zero at a root one ulp from its neighbour: the kernel
    # flags the row, and PdParams rejects the roots with the same predicate
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, faults = pd._regularity_rows(np.array([roots, SPOT_EXACT.roots], dtype=float))
        with pytest.raises(RodDataError, match=f"{pair} form a double root"):
            pd.PdParams(roots)
    assert faults[0][0].tolist() == [True, False]
