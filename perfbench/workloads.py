"""Seeded workloads: the rod files each one writes and the commands it runs.

Everything a workload does follows from its seed through one
``random.Random``: the 16-nut rod data, every ``verify --seed`` and
``pd scan --seed``, and the ``build`` ranges.  The program sees only the
generated files and argv.  ``prepare`` writes the inputs at once and
returns an endless stream of commands, in rounds.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import oracle

# The paper's two-nut chart, exact: c = -1/16, nuts at -+1/4, weights 1/2.
TWO_NUT = {
    "c": "-1/16",
    "rods": [{"z": "-1/4", "a": "1/2"}, {"z": "1/4", "a": "1/2"}],
    "mode": "ale",
    "gauge": {"h_constant": "symmetric"},
}
TWO_NUT_C = -1.0 / 16.0
TWO_NUT_SCALE = 0.5

NUTS = 16
# Several 16-nut files per run, cycled, so that one unusually cheap or
# dear draw of rod data does not set a run's median on its own.
NUT_FILES = 4
GRID = (40, 40)
# Accepted samples per pd scan case, chosen so that each case costs about
# the same at the seed commit (case ii needs about four draws per sample).
# With equal costs the median command sits inside one cluster of scan
# times instead of on the boundary between two cases.
PD_SAMPLES = {"i": 1000, "ii": 550, "iii": 850, "a": 1000, "b": 1250}


@dataclass(frozen=True)
class Command:
    """One CLI call: argv for todkit.cli.main, its output file, the units
    of work it completes, and the oracle for (output text, exit code)."""

    argv: tuple
    out: Path
    work: int
    check: Callable[[str, int], list]


@dataclass(frozen=True)
class Workload:
    """How to run one workload; BENCHMARK.json records why it exists."""

    round_size: int        # commands per round; runs start and end on rounds
    trace_rounds: int      # rounds in the fixed list the traced run replays
    work: str              # what work_per_s counts on this workload
    alias: str | None      # the name work_per_s also goes by here
    commands: Callable


def _write(path, doc):
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def sixteen_nut_data(rng):
    """Float ALE rod data with asymmetric gaps and weights.

    Gaps are uniform on [0.5, 1.5] and weights uniform on [0.5, 1.5]
    before they are normalised to sum 1; c is the standard-cone value
    -sum_{i<j} a_i a_j (z_j - z_i)^2.
    """
    gaps = [rng.uniform(0.5, 1.5) for _ in range(NUTS - 1)]
    zs = list(itertools.accumulate(gaps, initial=0.0))
    mid = (zs[0] + zs[-1]) / 2
    zs = [z - mid for z in zs]
    raw = [rng.uniform(0.5, 1.5) for _ in range(NUTS)]
    total = sum(raw)
    weights = [a / total for a in raw]
    c = -sum(weights[i] * weights[j] * (zs[j] - zs[i]) ** 2
             for i in range(NUTS) for j in range(i + 1, NUTS))
    return {"c": c, "rods": [{"z": z, "a": a} for z, a in zip(zs, weights)],
            "mode": "ale"}


def _verify(rng, paths, expect, workdir):
    out = workdir / "report.json"
    for path in itertools.cycle(paths):
        seed = rng.randrange(2 ** 31)
        yield Command(("verify", str(path), "--suite", "all", "--seed",
                       str(seed), "--out", str(out)), out, 1,
                      partial(oracle.check_verify, expect=expect, seed=seed))


def verify_2nut_exact(rng, workdir):
    path = _write(workdir / "two_nut.json", TWO_NUT)
    return _verify(rng, [path], oracle.TWO_NUT, workdir)


def verify_16nut_float(rng, workdir):
    paths = [_write(workdir / f"nuts16_{k}.json", sixteen_nut_data(rng))
             for k in range(NUT_FILES)]
    return _verify(rng, paths, oracle.ASYMMETRIC, workdir)


def _build(rng, path, workdir):
    out = workdir / "fields.csv"
    s = TWO_NUT_SCALE
    while True:
        rho = (s * rng.uniform(0.04, 0.06), s * rng.uniform(1.9, 2.1))
        zeta = (-0.25 - s * rng.uniform(0.45, 0.55),
                0.25 + s * rng.uniform(0.45, 0.55))
        yield Command(("build", str(path), "--grid", f"{GRID[0]}x{GRID[1]}",
                       f"--rho-range={rho[0]!r}:{rho[1]!r}",
                       f"--zeta-range={zeta[0]!r}:{zeta[1]!r}",
                       "--out", str(out)), out, GRID[0] * GRID[1],
                      partial(oracle.check_build, rows=GRID[0] * GRID[1],
                              c=TWO_NUT_C))


def build_grid_exact(rng, workdir):
    return _build(rng, _write(workdir / "two_nut.json", TWO_NUT), workdir)


def pd_scan(rng, workdir):
    out = workdir / "scan.json"
    classified = workdir / "classify.json"
    while True:
        for case, samples in PD_SAMPLES.items():
            seed = rng.randrange(2 ** 31)
            yield Command(("pd", "scan", "--case", case, "--samples",
                           str(samples), "--seed", str(seed), "--out",
                           str(out)), out, samples,
                          partial(oracle.check_pd_scan, case=case,
                                  samples=samples))
        yield Command(("classify", "--nmax", "6", "--out", str(classified)),
                      classified, 0, oracle.check_classify)


WORKLOADS = {
    "verify-2nut-exact": Workload(
        round_size=1, trace_rounds=12, work="verify commands", alias=None,
        commands=verify_2nut_exact),
    "verify-16nut-float": Workload(
        round_size=1, trace_rounds=3, work="verify commands", alias=None,
        commands=verify_16nut_float),
    "build-grid-exact": Workload(
        round_size=1, trace_rounds=4, work="grid points",
        alias="points_per_s", commands=build_grid_exact),
    "pd-scan": Workload(
        round_size=len(PD_SAMPLES) + 1, trace_rounds=8,
        work="accepted scan samples", alias="samples_per_s",
        commands=pd_scan),
}


def prepare(name, seed, workdir):
    """Write the workload's inputs under workdir; return its command stream."""
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name].commands(random.Random(seed), workdir)
