"""What importing a todkit module loads, and the CLI run as a module.

The package root defines only ``__version__``, so importing one layer
loads that layer and what it imports, not the whole pipeline.  The
benchmark tracer finds the layers it wraps in ``sys.modules`` after
importing ``todkit.cli``, so that import must load every layer.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import todkit
from todkit import cli

SRC = str(Path(todkit.__file__).parents[1])
LAYERS = {"cky", "classify", "curvature", "errors", "harmonic", "jets", "pd", "rods", "tod"}

TWO_NUT = {"c": "-1/16", "rods": [{"z": "-1/4", "a": "1/2"}, {"z": "1/4", "a": "1/2"}]}


def _python(*args, cwd=None):
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=120)


def _loaded_after(module):
    done = _python("-c", f"import sys, {module}; "
                         "print(' '.join(sorted(m for m in sys.modules "
                         "if m.partition('.')[0] == 'todkit')))")
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_one_layer_loads_only_its_imports():
    assert _loaded_after("todkit.jets") == {"todkit", "todkit.errors", "todkit.jets"}


def test_cli_loads_every_layer():
    assert _loaded_after("todkit.cli") == {"todkit", "todkit.cli",
                                           *(f"todkit.{m}" for m in LAYERS)}


def test_module_run_matches_in_process_run(tmp_path):
    path = tmp_path / "two_nut.json"
    path.write_text(json.dumps(TWO_NUT))
    argv = ["verify", str(path), "--seed", "0"]
    done = _python("-m", "todkit.cli", *argv, cwd=tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert (done.returncode, done.stdout, done.stderr) == (code, out.getvalue(), "")
    assert code == 0


@pytest.mark.parametrize("argv", [["-h"], ["verify", "two_nut.json", "--suite", "rods"]],
                         ids=["help", "verify-rods"])
def test_module_run_reads_sys_argv(tmp_path, monkeypatch, argv):
    # main() with no argv parses sys.argv with the process's one tree
    (tmp_path / "two_nut.json").write_text(json.dumps(TWO_NUT))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    done = _python("-m", "todkit.cli", *argv, cwd=tmp_path)
    monkeypatch.setattr(sys, "argv", ["todkit", *argv])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main()
        except SystemExit as exc:
            code = exc.code
    assert (done.returncode, done.stdout, done.stderr) == (code, out.getvalue(), "")
    assert code == 0 and out.getvalue()


def test_unwritable_out_is_an_input_error(tmp_path):
    (tmp_path / "two_nut.json").write_text(json.dumps(TWO_NUT))
    done = _python("-m", "todkit.cli", "verify", "two_nut.json", "--out", str(tmp_path),
                   cwd=tmp_path)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"input error: cannot write {tmp_path}: Is a directory\n"
