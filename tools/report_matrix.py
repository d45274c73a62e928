"""The report matrix: one digest per todkit command, checked in.

README promises that reports are deterministic for a fixed input file
and seed.  This tool pins that promise, and every output byte, for a
fixed set of commands:

- ``verify`` under each of the five suites at seeds 0-11, on rod files
  that cover the exact and float two-nut chart, the skew three-nut data,
  single nuts, other H gauges, extreme scales (nuts 1e-160 to 1e307
  apart, a single nut at 1e100, a single nut with c = -1e-307, a 1e-100
  gap, nut gaps whose squares overflow), 16-nut files and powers of two
  of the two-nut chart;
- ``build`` on each of those files, ``classify`` at every ``--nmax``
  up to 6 under both asymptotics and at ``--lmax`` 0 and 1, ``pd
  check`` and ``selfdual`` lines, and ``pd scan`` on all five cases at
  ``--samples`` 1, 7 and 300 and seeds 0-11;
- the 144 benchmark commands: the first 12 of each workload of
  ``perfbench/workloads.py`` at seeds 1-3.

Each command runs in-process through ``todkit.cli.main`` in a scratch
directory, with paths relative to it.  Its digest covers the exit code,
stdout, stderr, the text of its ``--out`` file (or its absence) and the
warnings it raised.  Each rod file the commands read gets a digest of
its bytes too, so that a moved input shows as such.  The digests go to
``tools/report_matrix.txt``, one line per entry: the digest, a space,
the entry's name.  They pin today's output, wrong verdicts included; a
change that moves an output on purpose regenerates them and names every
moved command with its reason.

Run from the root of a checkout:

    python3 tools/report_matrix.py            # rewrite the digest file
    python3 tools/report_matrix.py --check    # name the entries that moved

``--check`` exits 1 if any entry moved, is missing or is new.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO / "src"), str(REPO / "perfbench")]

from todkit import cli, jets, tod  # noqa: E402
from todkit.harmonic import RodData  # noqa: E402
import workloads  # noqa: E402

# workloads.sixteen_nut_data sums with the builtin sum, which adds floats
# with compensation from Python 3.12 on, in other bits; the matrix writes
# its 16-nut files with the left-to-right sum of the earlier versions, so
# that every Python reads the same inputs
workloads.sum = jets.ordered_sum

DIGESTS = REPO / "tools" / "report_matrix.txt"
SUITES = ("fields", "curvature", "rods", "cky", "all")
SEEDS = range(12)
BENCH_SEEDS = (1, 2, 3)
BENCH_COMMANDS = 12


def _nuts(c, *nuts):
    return {"c": c, "rods": [{"z": z, "a": a} for z, a in nuts]}


def _exact(rods):
    """A rod file of exact rod data, its numbers as p/q strings."""
    return _nuts(str(rods.c), *((str(z), str(a)) for z, a in zip(rods.zs, rods.weights)))


TWO_NUT = RodData(c=Fraction(-1, 16), zs=(Fraction(-1, 4), Fraction(1, 4)),
                  weights=(Fraction(1, 2), Fraction(1, 2)))
ROD_FILES = {
    "two-nut-exact": _exact(TWO_NUT),
    "two-nut-float": _nuts(-0.0625, (-0.25, 0.5), (0.25, 0.5)),
    "skew": _nuts(-0.3, (-1.0, 0.2), (0.2, 0.5), (0.9, 0.3)),
    "single-nut-exact": _nuts("-1/4", ("0", "1")),
    "single-nut-float": _nuts(-1.0, (0.6, 1.0)),
    "gauge-1": {**_exact(TWO_NUT), "gauge": {"h_constant": 1}},
    "gauge-1e5": {**_exact(TWO_NUT), "gauge": {"h_constant": 1e5}},
    "tiny-1e-160": _nuts(-1e-300, (-1e-160, 0.5), (1e-160, 0.5)),
    "tiny-1e-150": _nuts(-1.0, (-1e-150, 0.5), (1e-150, 0.5)),
    "huge-1e100": _nuts(-1e200, (-1e100, 0.5), (1e100, 0.5)),
    "span-1e307": _nuts(-1, (-1e307, 0.5), (1e307, 0.5)),
    "single-nut-1e100": _nuts(-1.0, (1e100, 1.0)),
    # A/c overflows, and W is NaN in three jet coefficients but not in
    # its value term
    "single-nut-c-1e-307": _nuts(-1e-307, (0.0, 1.0)),
    "gap-1e-100": _nuts(-1.0, (0.0, 0.3), (1e-100, 0.3), (1.0, 0.4)),
    # nut gaps whose squares pass the float range, around the window
    # 1.34e154-2.68e154 where (z_j - z_i) ** 2 raises and a_i a_j gap gap
    # does not
    **{f"apart-{z:g}": _nuts(-1.0, (-z, 0.5), (z, 0.5))
       for z in (7e153, 1e154, 1.2e154, 1e200)},
    **{f"sixteen-nut-{seed}": workloads.sixteen_nut_data(random.Random(seed))
       for seed in (7, 11, 13)},
    **{f"two-nut-2^{k}": _exact(tod.rescale(TWO_NUT, Fraction(2) ** k))
       for k in (-40, -10, 10, 40)},
}
PD_LINES = (
    ("pd", "check", "--roots", "0.2", "0.4", "2.0", "6.25"),
    ("pd", "check", "--case", "a", "--u", "0.3", "--v", "0.6"),
    ("pd", "selfdual", "--case", "a", "--u", "0.3", "--v", "0.6"),
    ("pd", "selfdual", "--case", "b", "--u", "-2.5", "--v", "0.7"),
)


class Command(NamedTuple):
    """One todkit command: its argv, the --out file it writes (None for
    stdout), and its verify or scan seed (None for other commands)."""

    argv: tuple
    out: str | None = None
    seed: int | None = None
    bench: bool = False


def _write(path, doc):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return str(path)


def commands():
    """Write every rod file under the working directory and return the
    matrix's commands, in a fixed order."""
    out = []
    for name, doc in ROD_FILES.items():
        path = _write(Path("files") / f"{name}.json", doc)
        out += [Command(("verify", path, "--suite", suite, "--seed", str(seed)), seed=seed)
                for suite in SUITES for seed in SEEDS]
        out += [Command(("build", path, "--grid", "3x4")),
                Command(("build", path, "--grid", "1x5", "--out", "fields.csv"), "fields.csv")]
    out += [Command(("classify", "--nmax", str(n), "--asymptotics", kind))
            for kind in ("ale", "af") for n in range(1, 7)]
    out += [Command(("classify", "--nmax", "6", "--lmax", str(bound))) for bound in (0, 1)]
    out += [Command(argv) for argv in PD_LINES]
    out += [Command(("pd", "scan", "--case", case, "--samples", str(samples),
                     "--seed", str(seed)), seed=seed)
            for case in workloads.PD_SAMPLES for samples in (1, 7, 300) for seed in SEEDS]
    for name, seed in itertools.product(workloads.WORKLOADS, BENCH_SEEDS):
        stream = workloads.prepare(name, seed, Path("bench") / f"{name}-{seed}")
        out += [Command(cmd.argv, str(cmd.out), bench=True)
                for cmd in itertools.islice(stream, BENCH_COMMANDS)]
    return out


def _hash(*parts):
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()[:16]


def run(cmd):
    """The digest of one command's exit code, stdout, stderr, --out text
    and warnings."""
    if cmd.out is not None and os.path.exists(cmd.out):
        os.remove(cmd.out)
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        try:
            code = cli.main(list(cmd.argv))
        except SystemExit as exc:
            code = exc.code
    text = None
    if cmd.out is not None and os.path.exists(cmd.out):
        text = Path(cmd.out).read_text()
    raised = [f"{w.category.__name__}: {w.message}" for w in caught]
    return _hash(code, stdout.getvalue(), stderr.getvalue(), text, raised)


def digests(select=lambda cmd: True):
    """{name: digest} of every rod file and of each selected command, run
    in order in a fresh scratch directory.  A name that repeats gets
    " #k" appended, k = 2, 3, ..."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            matrix = commands()
            entries = [(f"input {path}", _hash(path.read_text()))
                       for path in sorted(Path(".").rglob("*.json"))]
            entries += [(" ".join(cmd.argv), run(cmd)) for cmd in matrix if select(cmd)]
        finally:
            os.chdir(home)
    out, seen = {}, {}
    for name, digest in entries:
        seen[name] = seen.get(name, 0) + 1
        out[name if seen[name] == 1 else f"{name} #{seen[name]}"] = digest
    return out


def read_digests():
    """{name: digest} of the digest file."""
    lines = DIGESTS.read_text().splitlines()
    return dict(reversed(line.split(" ", 1)) for line in lines if not line.startswith("#"))


def moved(got, want):
    """A line naming each entry of got that differs from want or is not
    in it."""
    return ([f"moved: {name}" for name in got if name in want and got[name] != want[name]]
            + [f"new: {name}" for name in got if name not in want])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the digest file instead of rewriting it")
    args = parser.parse_args(argv)
    got = digests()
    if not args.check:
        DIGESTS.write_text("# written by python3 tools/report_matrix.py; one line per "
                           "entry: digest, name\n"
                           + "".join(f"{d} {name}\n" for name, d in got.items()))
        print(f"{len(got)} entries written to {DIGESTS.relative_to(REPO)}")
        return 0
    want = read_digests()
    lines = moved(got, want) + [f"missing: {name}" for name in want if name not in got]
    print("\n".join(lines + [f"{len(got)} entries, {len(lines)} differ"]))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
