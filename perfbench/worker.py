"""Benchmark worker: one fresh process that drives todkit.cli.main in-process.

run.py starts it with BLAS threads capped through the environment:

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS

MODE is one of
  setup  import the CLI, write the workload's inputs, and print
         "ready <monotonic clock> <host-speed factor>";
  run    after one untimed warm-up round, run rounds of commands in a
         closed loop (each starts when the last returns) for SECONDS and at
         least MIN_COMMANDS commands, and print end-to-end figures;
  trace  run a fixed list of rounds untraced, then the same list traced,
         and print per-layer figures; the spans go to the work directory.
Figures are printed as one JSON line.  Every command's output goes
through the oracle, outside the timed region.  The host-speed probe runs
before and after every command, also outside it, and each command's wall time is
reported both as measured and corrected to the reference host speed
(see hostspeed.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads
from hostspeed import REFERENCE_S, probe
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
MIN_COMMANDS = 30
TAIL_BEYOND = 10


def import_cli():
    """Import todkit.cli from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from todkit import cli
    if Path(cli.__file__).resolve().parents[1] != src:
        raise SystemExit(f"todkit imported from {cli.__file__}, not {src}")
    return cli


def environment():
    import numpy
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0"))}


def run_command(cli, command):
    """Run one command; return (seconds, problems)."""
    command.out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(command.argv))
        except (Exception, SystemExit) as exc:
            code = exc
        elapsed = time.perf_counter() - start
    if not isinstance(code, int):
        return elapsed, [f"raised {type(code).__name__}: {code}"]
    if code == 2:
        return elapsed, [f"exit 2: {err.getvalue().strip()}"]
    try:
        text = command.out.read_text()
    except OSError:
        return elapsed, [f"exit {code} with no output file"]
    return elapsed, command.check(text, code)


class Tally:
    """Commands attempted and the ones the oracle rejected."""

    def __init__(self):
        self.attempted = 0
        self.rejected = []

    def run(self, cli, command):
        """Return the command's wall time and its host-corrected time.

        The host speed is probed before and after the command, so that a
        change of speed during a long command is half seen.
        """
        before = probe()
        elapsed, problems = run_command(cli, command)
        factor = 2 * REFERENCE_S / (before + probe())
        self.attempted += 1
        if problems:
            self.rejected.append({"argv": list(command.argv),
                                  "problems": problems[:5]})
        return elapsed, elapsed * factor

    def result(self):
        return {"attempted": self.attempted, "failed": len(self.rejected),
                "rejected": self.rejected[:5]}


def tail(times):
    """Highest order statistic with TAIL_BEYOND commands beyond it.

    Returns (seconds, percentile).  With too few commands it is the
    maximum, reported as percentile 100.
    """
    ranked = sorted(times)
    n = len(ranked)
    if n <= TAIL_BEYOND:
        return ranked[-1], 100.0
    return ranked[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def warm_start(cli, name, seed, workdir):
    """Write the inputs and run one untimed round, which fills caches."""
    spec = workloads.WORKLOADS[name]
    commands = workloads.prepare(name, seed, workdir)
    tally = Tally()
    for _ in range(spec.round_size):
        tally.run(cli, next(commands))
    return spec, commands, tally


def measure(cli, name, seed, seconds, workdir):
    spec, commands, tally = warm_start(cli, name, seed, workdir)
    wall, times, work = [], [], []
    begin = time.perf_counter()
    while time.perf_counter() - begin < seconds or len(times) < MIN_COMMANDS:
        for _ in range(spec.round_size):
            command = next(commands)
            measured, corrected = tally.run(cli, command)
            wall.append(measured)
            times.append(corrected)
            work.append(command.work)
    figures = {}
    for key, series in (("metrics", times), ("wall", wall)):
        busy = sum(t for t, w in zip(series, work) if w)
        figures[key] = {"cmd_s.p50": statistics.median(series),
                        "cmd_s.tail": tail(series)[0],
                        "work_per_s": sum(work) / busy}
    figures["metrics"]["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return {**tally.result(), **figures, "commands": len(times),
            "tail_percentile": tail(times)[1]}


def trace(cli, name, seed, env, workdir):
    spec, commands, tally = warm_start(cli, name, seed, workdir)
    fixed = [next(commands) for _ in range(spec.trace_rounds * spec.round_size)]
    plain = [tally.run(cli, command) for command in fixed]
    tracer = Tracer()
    tracer.install()
    try:
        traced = []
        for k, command in enumerate(fixed):
            tracer.command = k
            traced.append(tally.run(cli, command))
    finally:
        tracer.restore()
    tracer.write(workdir / "trace.jsonl",
                 {"workload": name, "seed": seed, "environment": env,
                  "commands": [list(c.argv) for c in fixed],
                  "fields": ["name", "start", "end", "parent", "command"]})
    rows = tracer.table()
    # overhead from corrected times, so that a change of host speed
    # between the two passes does not read as tracing cost
    overhead = sum(t[1] for t in traced) / sum(t[1] for t in plain)
    return {
        **tally.result(),
        "commands": len(fixed),
        "plain_s": sum(t[0] for t in plain),
        "traced_s": sum(t[0] for t in traced),
        "self_s_total": sum(row[1] for row in rows.values()),
        "metrics": tracer.metrics(overhead),
        "spans": dict(rows),
    }


def main(argv):
    mode, name, seed, seconds = argv[0], argv[1], int(argv[2]), int(argv[3])
    cli = import_cli()
    workdir = WORK / name
    if mode == "setup":
        workloads.prepare(name, seed, workdir)
        ready = time.monotonic()
        probe()  # the first call pays numpy's one-time costs
        print(f"ready {ready!r} {REFERENCE_S / probe()!r}", flush=True)
        return 0
    env = environment()
    if mode == "run":
        result = measure(cli, name, seed, seconds, workdir)
    else:
        result = trace(cli, name, seed, env, workdir)
    print(json.dumps({"environment": env, **result}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
