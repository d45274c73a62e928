"""cli._Worst reduces a residual array as one-entry pushes in order would.

Each check's worst entry is the last NaN, else the last entry equal to
the max, merged with the stored worst by the one-entry rule (a later
entry wins when it is at least the stored value or NaN).  Any split of
the entries into consecutive pushes must give the measured bits and the
location of pushing each entry alone, and a check with no entry a skip.
"""

import math

from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from todkit import cli

# no explain phase: it imports libcst, which raises a DeprecationWarning
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=300,
                    phases=(Phase.explicit, Phase.generate, Phase.shrink))

# few distinct values, so that ties and repeats are common
SPECIAL = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, 0.5, 2e-12, 5e-324)
residuals = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True))
entries = st.lists(st.tuples(residuals, residuals), max_size=12)


def _reading(worst):
    """Each check's (status, measured bits, location)."""
    checks = worst.checks({"a": 1.0, "b": 1.0}, unread="none read")
    return [(c["status"], None if c["measured"] is None else c["measured"].hex(),
             c["location"]) for c in checks]


@SETTINGS
@given(pairs=entries, cuts=st.lists(st.integers(0, 12), max_size=6))
@example(pairs=[], cuts=[0])
@example(pairs=[(0.0, math.nan), (-0.0, 1.0), (math.nan, 1.0), (0.0, math.nan)], cuts=[1, 3])
def test_split_pushes_equal_one_entry_pushes(pairs, cuts):
    locations = [f"p{k}" for k in range(len(pairs))]
    a = [x for x, _ in pairs]
    b = [y for _, y in pairs]
    one = cli._Worst("a", "b")
    for k, loc in enumerate(locations):
        one.push([loc], a=[a[k]], b=[b[k]])
    split = cli._Worst("a", "b")
    bounds = [0, *sorted(min(cut, len(pairs)) for cut in cuts), len(pairs)]
    for lo, hi in zip(bounds, bounds[1:]):
        split.push(locations[lo:hi], a=a[lo:hi], b=b[lo:hi])
    assert _reading(split) == _reading(one)
    if not pairs:
        assert _reading(split) == [("skip", None, "none read")] * 2
