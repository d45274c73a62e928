"""The one parser tree main keeps per process, and dispatch by name.

``cli.main`` parses every command line of a process with one tree,
built on its first call.  Parsing the command lines below through that
tree, one after the other in either order, must give what a freshly
built tree gives for each line: the same exit code, stdout and stderr,
and the same namespace where parsing succeeds.  main runs the command
function the namespace names, as the module holds it at call time.
"""

import contextlib
import io

import pytest

from todkit import cli

ROD = "rods.json"

MATRIX = [
    [], ["-h"], ["--help"],
    ["build", "-h"], ["verify", "-h"], ["classify", "-h"], ["pd", "-h"],
    ["pd", "check", "-h"], ["pd", "scan", "-h"], ["pd", "selfdual", "-h"],
    ["pd", "scan", "--case", "i", "-h"],
    # missing positionals and commands
    ["build"], ["verify"], ["pd"], ["pd", "scan"], ["pd", "check", "--roots", "1"],
    # unknown options after a valid command
    ["verify", ROD, "--bogus"], ["build", ROD, "--bogus", "x"],
    ["classify", "--nmax", "3", "extra"], ["pd", "scan", "--case", "i", "--bogus"],
    ["build", ROD, "--out"], ["verify", "--seed", "x", ROD],
    # invalid choices
    ["verify", ROD, "--suite", "nope"], ["pd", "scan", "--case", "zz"],
    ["pd", "check", "--case", "c"], ["classify", "--asymptotics", "xx"],
    # unknown commands
    ["frobnicate"], ["pd", "frob"], ["-x"], ["--version"], ["--", "verify", ROD],
    # options before the command
    ["--out", "x", "verify", ROD], ["-h", "verify"], ["pd", "--out", "x", "scan"],
    # parses, abbreviated options included
    ["verify", ROD, "--su", "rods"], ["verify", "--", ROD],
    ["pd", "scan", "--case=i", "--sam", "3"],
    ["pd", "check", "--roots", "0.2", "0.4", "2.0", "6.25"],
    ["pd", "check", "--case", "a", "--u", "0.3", "--v", "0.6"],
    ["pd", "selfdual", "--case", "b", "--u", "-2.5", "--v", "0.7"],
    ["classify", "--nmax", "4", "--lmax", "12"],
    # the benchmark's command lines
    ["verify", ROD, "--suite", "all", "--seed", "1929", "--out", "report.json"],
    ["build", ROD, "--grid", "40x40", "--rho-range=0.024:1.01",
     "--zeta-range=-0.51:0.52", "--out", "fields.csv"],
    ["pd", "scan", "--case", "ii", "--samples", "550", "--seed", "77", "--out", "scan.json"],
    ["classify", "--nmax", "6", "--out", "classify.json"],
]


def _parse(parser, argv):
    """(exit code, stdout, stderr, namespace) of one parse_args call."""
    out, err = io.StringIO(), io.StringIO()
    code, namespace = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = parser.parse_args(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), namespace


@pytest.fixture(scope="module")
def shared_parses():
    """argv -> the results of parsing argv through main's one tree, as
    the whole MATRIX passes through it in order and then reversed, so
    that help, error and valid lines follow each other."""
    parses = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("COLUMNS", "80")
        for argv in MATRIX + MATRIX[::-1]:
            parses.setdefault(tuple(argv), []).append(_parse(cli._parser(), argv))
    return parses


# The name is kept from when main parsed each line with a tree narrowed
# to its command, so that the ids of these command lines stay stable.
@pytest.mark.parametrize("argv", MATRIX, ids=" ".join)
def test_narrowed_parser_matches_full_tree(monkeypatch, shared_parses, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert shared_parses[tuple(argv)] == [_parse(cli.build_parser(), argv)] * 2


def test_main_runs_the_command_by_name(monkeypatch, capsys):
    argv = ["pd", "check", "--roots", "0.2", "0.4", "2.0", "6.25"]
    assert cli.main(argv) == 0
    report = capsys.readouterr().out
    calls, original = [], cli.cmd_pd_check

    def spy(args):
        calls.append(args.out)
        return original(args)

    # the tree main already built must reach the replacement
    monkeypatch.setattr(cli, "cmd_pd_check", spy)
    assert cli.main([*argv, "--out", "-"]) == 0
    assert calls == ["-"]
    assert capsys.readouterr().out == report
