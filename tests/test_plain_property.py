"""Property test: the order of cli._plain's type checks keeps every report byte.

``cli._plain`` checks str, int, bool, None, dict, list and tuple first and
sends a Fraction to str with the unknown objects, without an isinstance
check against the Fraction ABC.  ``reference_plain`` below is the earlier
chain, the Fraction check first.  On nested dicts, lists and tuples of
strings, ints, bools, None, floats (NaN, the infinities and -0.0
included), numpy scalars, Fractions and a NamedTuple, and on dicts keyed
by ints, floats and bools, the rendered reports must be equal.
"""

import json
import math
from fractions import Fraction

import numpy as np
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from todkit import cli
from todkit.harmonic import FloatRods

# no explain phase: it imports libcst, which raises a DeprecationWarning
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=200,
                    phases=(Phase.explicit, Phase.generate, Phase.shrink))


def reference_plain(value):
    """_plain with the Fraction check first."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else json.dumps(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (list, tuple)):
        return [reference_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): reference_plain(v) for k, v in value.items()}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


floats = st.floats() | st.sampled_from((math.nan, math.inf, -math.inf, -0.0, 0.0))
leaves = st.one_of(
    st.text(max_size=5), st.integers(), st.booleans(), st.none(), floats,
    floats.map(np.float64), st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.fractions(), st.builds(FloatRods, floats, floats,
                              st.tuples(st.tuples(floats, floats))))
keys = st.text(max_size=3) | st.integers(-3, 3) | floats | st.booleans()
reports = st.recursive(
    leaves,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(keys, inner, max_size=4)),
    max_leaves=20)


@SETTINGS
@given(report=reports)
@example(report={"schema": "s", 1: [True, None, -0.0, math.nan], 2.5: (Fraction(1, 3),),
                 False: {"x": np.float64(-math.inf), "y": np.int64(7)},
                 "rods": FloatRods(-0.0625, 0.0, ((-0.25, 0.5), (0.25, 0.5)))})
def test_plain_renders_as_the_reference(report):
    assert cli.render_report(cli._plain(report)) == cli.render_report(reference_plain(report))
