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
    "pd.PdParams.normalized": "builds PdParams from any four roots, scaled to "
                              "unit product; the acceptance run uses it",
    "tod.rescale": "the homothety c -> ac, z -> az that the scale-invariance "
                   "tests apply (ROADMAP item 2, step 2)",
    "pd.pd_ale_limit": "the PD corner checked against the flat Hopf model; the "
                       "corrected asymptotic chart of ROADMAP item 4 follows it",
    "pd.pd_rod_vectors": "the scalar form of the rod vectors that "
                         "tests/reference_regularity.py checks the kernel against",
    "classify.regularity_residuals": "the exact junction defects of one rod set, "
                                     "which classify --rods (ROADMAP item 8) will "
                                     "report",
}


def _public_functions():
    """(name, qualified name, whether a method) of each non-underscore
    function and method."""
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.ClassDef):
                scopes = [(f"{node.name}.", n) for n in node.body]
            else:
                scopes = [("", node)]
            for prefix, fn in scopes:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not fn.name.startswith("_"):
                    yield fn.name, f"{path.stem}.{prefix}{fn.name}", bool(prefix)


def _names_used():
    """The names and the attributes read in src/ and demos/.

    An attribute of np or math (np.exp, math.log) names numpy's or the
    standard library's function, not one of ours, so it is left out.
    """
    names, attributes = set(), set()
    paths = [*sorted(SRC.rglob("*.py")), *sorted((REPO / "demos").glob("*.py"))]
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and not (
                    isinstance(node.value, ast.Name) and node.value.id in ("np", "math")):
                attributes.add(node.attr)
    return names, attributes


def test_every_public_function_is_used():
    # a method is used only when it is read as an attribute: a local
    # variable of the same name is no use; a kept name that gains a use
    # leaves KEPT too
    names, attributes = _names_used()
    functions = names | attributes
    unused = {qualified for name, qualified, method in _public_functions()
              if name not in (attributes if method else functions)}
    assert unused == set(KEPT), (
        f"no use in src/ or demos/: {sorted(unused - set(KEPT))}; "
        f"kept but used: {sorted(set(KEPT) - unused)}")
