"""Property test: the scan's array regularity against scalar pd_regularity."""

import math
import warnings

import numpy as np
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from todkit import pd
from todkit.errors import CertificateError, RodDataError

FIELDS = ("eps", "epsbar", "m_raw", "n_raw", "m", "n")


def _separated(params):
    """params if its roots are 1e-3 apart, as the scan's are, else None;
    a double root makes the scalar path divide by zero."""
    gaps = np.diff(np.array(params.roots))
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


# generic sign patterns, and the palindromic cases a and b, whose
# reciprocal pairs make rods 3, 4 (case a) or 1, 2 (case b) collinear
generic = st.lists(st.tuples(st.sampled_from((1, -1)),
                             st.floats(math.log(0.05), math.log(20.0))),
                   min_size=4, max_size=4).map(_normalized)
case_a = st.builds(_pair_case, st.just("a"), st.floats(0.05, 0.95),
                   st.floats(0.05, 0.95))
case_b = st.builds(_pair_case, st.just("b"), st.floats(-20.0, -1.05),
                   st.floats(0.02, 0.95))
root_sets = st.lists(st.one_of(generic, case_a, case_b).filter(
    lambda params: params is not None), min_size=1, max_size=8)


# no explain phase: it imports libcst, which raises a DeprecationWarning
@settings(derandomize=True, database=None, deadline=None, max_examples=100,
          phases=(Phase.explicit, Phase.generate, Phase.shrink))
@given(root_sets)
@example([pd.PdParams((-2.0, -0.5, 0.5, 2.0)), pd.PdParams((0.2, 0.4, 2.0, 6.25))])
def test_rows_match_scalar_regularity(param_sets):
    roots = np.array([params.roots for params in param_sets], dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows, disagrees = pd._regularity_rows(roots)
    for i, params in enumerate(param_sets):
        try:
            reg = pd.pd_regularity(params)
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
