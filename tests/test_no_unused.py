"""Source hygiene: every public function of the library has a use."""

import ast
from pathlib import Path

import todkit

SRC = Path(todkit.__file__).parent
REPO = SRC.parents[1]

# name -> why it stays without a use in src/ or demos/
KEPT = {
    "jets.compose2": "perfbench/tracer.py wraps it and the benchmark reports "
                     "its call count; it goes with that row (ROADMAP item 1)",
    "pd.PdParams.normalized": "the public constructor of an exported class",
}


def _public_functions():
    """(qualified name, path) of each non-underscore function and method."""
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.ClassDef):
                scopes = [(f"{node.name}.", n) for n in node.body]
            else:
                scopes = [("", node)]
            for prefix, fn in scopes:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not fn.name.startswith("_"):
                    yield fn.name, f"{path.stem}.{prefix}{fn.name}"


def _names_used():
    """Every name and attribute read in src/ and demos/."""
    used = set()
    paths = [*sorted(SRC.rglob("*.py")), *sorted((REPO / "demos").glob("*.py"))]
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_public_function_is_used():
    # a kept name that gains a use leaves KEPT too
    used = _names_used() | set(todkit.__all__)
    unused = {qualified for name, qualified in _public_functions() if name not in used}
    assert unused == set(KEPT), (
        f"no use in src/ or demos/ and not exported: {sorted(unused - set(KEPT))}; "
        f"kept but used: {sorted(set(KEPT) - unused)}")
