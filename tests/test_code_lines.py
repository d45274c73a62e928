"""tools/code_lines.py counts what the ROADMAP calls code lines."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
two lines."""

import math  # a comment


def f(x):
    """Docstring."""
    # a comment line
    text = """a multi-line
string"""
    return (math.sqrt(x),
            text)


class C:
    """Class docstring."""

    y = "not a docstring"
'''


def test_counts_code_lines_only():
    # import, def, text (two lines), return (two lines), class, y
    assert code_lines.code_lines(SOURCE) == 8


def test_package_total_is_the_sum_of_its_modules(capsys):
    code_lines.main()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[-1][0] == "total"
    assert int(rows[-1][1]) == sum(int(count) for _, count in rows[:-1])
    assert [name for name, _ in rows[:-1]] == sorted(name for name, _ in rows[:-1])
