"""Source hygiene: certificates and checks must survive ``python -O``."""

import ast
from pathlib import Path

import todkit

SRC = Path(todkit.__file__).parent


def test_no_assert_statements():
    modules = sorted(SRC.rglob("*.py"))
    assert modules, f"no modules found under {SRC}"
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(SRC)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements vanish under python -O: {found}"
