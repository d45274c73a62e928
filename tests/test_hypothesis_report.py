"""A failing property test reports its falsifying example under this project's
pytest settings.

On a failure the hypothesis plugin imports libcst, whose import raises a
DeprecationWarning; the project turns DeprecationWarnings into errors,
so without the message-scoped exception in ``pyproject.toml`` the run
ends in INTERNALERROR and the example is lost.
"""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_small(n):
    assert n < 10
'''


def test_failing_property_shows_its_example(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(CONFIG), "--rootdir", str(tmp_path), "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
