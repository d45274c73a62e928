"""Float sums in todkit add left to right, on every Python version.

From Python 3.12 on, the builtin ``sum`` adds floats with compensated
summation, so its bits differ from left-to-right addition (and from
3.11's ``sum``).  A single point would then no longer carry the bits of
the same point in an array, whose sums are elementwise additions in
order.  todkit therefore sums through ``jets.ordered_sum``.
"""

import ast
from pathlib import Path

import numpy as np

import todkit
from todkit import jets

SRC = Path(todkit.__file__).parent


def test_no_builtin_sum_in_the_source():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(SRC)}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "sum"]
    assert not found, f"builtin sum rounds differently from Python 3.12 on: {found}"


def test_ordered_sum_adds_left_to_right():
    # 1e16 + 1.0 rounds back to 1e16 twice; a compensated sum gives 2.0
    assert jets.ordered_sum([1e16, 1.0, 1.0, -1e16]).hex() == (0.0).hex()
    # the start is the int 0, as sum's is: a lone -0.0 comes back +0.0
    assert jets.ordered_sum([-0.0]).hex() == (0.0).hex()
    assert jets.ordered_sum([]) == 0
    # arrays add elementwise, in the same order
    rows = [np.array([1e16, 1.0]), np.array([1.0, 1e16]), np.array([1.0, -1e16])]
    assert jets.ordered_sum(rows).tolist() == [1e16, 0.0]
