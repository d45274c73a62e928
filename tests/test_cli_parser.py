"""The parser main builds for one command line against the full tree.

``cli.build_parser(argv)`` builds only the branch that argv names at
each level, and the whole tree when argv names none.  On every command
line below, both parsers must give the same exit code, stdout and
stderr, and the same namespace where parsing succeeds.
"""

import argparse
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


@pytest.mark.parametrize("argv", MATRIX, ids=" ".join)
def test_narrowed_parser_matches_full_tree(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert _parse(cli.build_parser(argv), argv) == _parse(cli.build_parser(()), argv)


def _choices(parser):
    """The subcommand names of each level the parser holds, outermost
    first."""
    levels = []
    while parser is not None:
        sub = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        levels.append(list(sub[0].choices) if sub else [])
        parser = next(iter(sub[0].choices.values())) if len(levels[-1]) == 1 else None
    return levels


@pytest.mark.parametrize("argv, levels", [
    (["verify", ROD], [["verify"], []]),
    (["pd", "scan", "--case", "i"], [["pd"], ["scan"], []]),
    (["pd"], [["pd"], ["check", "scan", "selfdual"]]),
    (["-h"], [["build", "verify", "classify", "pd"]]),
    (["--out", "x", "build"], [["build", "verify", "classify", "pd"]]),
])
def test_only_the_named_branch_is_built(argv, levels):
    assert _choices(cli.build_parser(argv)) == levels
