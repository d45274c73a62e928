"""todkit benchmark: seeded CLI workloads, an output oracle, per-layer traces.

From the root of a checkout:

    python3 perfbench/run.py --workload verify-2nut-exact --seed 1 \
        --seconds 15 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a separate traced run; --workload all runs every workload in turn.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it name every
figure with its unit, the command count behind the tail percentile, and
the environment.

This process imports neither numpy nor todkit.  It times set-up as the
median over fresh worker processes, from spawn until the worker has
imported todkit.cli and written its inputs, and then starts one worker
that drives todkit.cli.main in-process (see worker.py).  Workers run one
at a time, with BLAS threads capped through their environment.

Times in the metrics are corrected for the host's speed at the moment
they were taken (see hostspeed.py); the figures as measured by the wall
clock are printed beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
# (metric, unit); BENCHMARK.json lists the same metrics with their bounds.
END_TO_END = (("setup_s", "s"), ("cmd_s.p50", "s"), ("cmd_s.tail", "s"),
              ("work_per_s", "1/s"), ("peak_rss_mb", "MB"))
UNITS = dict(END_TO_END)
UNITS.update((name, unit) for name, unit, _ in PER_LAYER)
SETUP_PROBES = 11
DEADLINE_S = 170.0     # per workload
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def child_env(threads):
    env = dict(os.environ)
    env.update({var: str(threads) for var in BLAS_VARS})
    env["PYTHONHASHSEED"] = "0"  # set order, hence .calls counts, repeats
    return env


def worker(args, env, timeout):
    proc = subprocess.run([sys.executable, str(WORKER), *map(str, args)],
                          stdout=subprocess.PIPE, env=env, text=True,
                          timeout=timeout, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args[0]} exited with {proc.returncode}")
    return lines[-1]


def setup_seconds(name, seed, env, deadline):
    """Median time from spawning a worker to its ready line.

    Each time is corrected by the host-speed factor the worker probes
    just after it is ready.  One untimed spawn comes first, so that every
    timed one finds the bytecode cache written and the files in the page
    cache, as a user's second command does.  Returns (corrected, wall).
    """
    wall, times = [], []
    for k in range(SETUP_PROBES + 1):
        start = time.monotonic()
        _, ready, factor = worker(["setup", name, seed, 0], env,
                                  deadline - start).split()
        if k:
            wall.append(float(ready) - start)
            times.append(wall[-1] * float(factor))
    return statistics.median(times), statistics.median(wall)


def run_workload(name, seed, seconds, traced, env):
    """Return (summary lines, result dict with correct/attempted/failed)."""
    deadline = time.monotonic() + DEADLINE_S
    mode = "trace" if traced else "run"
    metrics, wall = {}, {}
    if not traced:
        metrics["setup_s"], wall["setup_s"] = setup_seconds(name, seed, env,
                                                            deadline)
    remaining = deadline - time.monotonic()
    out = json.loads(worker([mode, name, seed, seconds], env, remaining))
    metrics.update(out["metrics"])
    wall.update(out.get("wall", {}))
    lines = [f"# workload {name}, seed {seed}, "
             + ("traced run" if traced else f"{seconds} s closed loop"),
             "# environment: " + ", ".join(f"{k}={v}" for k, v in
                                          out["environment"].items())]
    if traced:
        lines.append(f"# {out['commands']} commands: {out['plain_s']:.4f} s "
                     f"untraced, {out['traced_s']:.4f} s traced, self time "
                     f"sums to {out['self_s_total']:.4f} s")
        for span, (calls, own, inclusive) in sorted(
                out["spans"].items(), key=lambda item: -item[1][1]):
            lines.append(f"# span {span}: {calls} calls, self {own:.6f} s, "
                         f"inclusive {inclusive:.6f} s, "
                         f"{1e3 * inclusive / calls:.4f} ms per call")
    for key, value in metrics.items():
        clock = f"; wall clock {wall[key]:.6g}" if key in wall else ""
        lines.append(f"{key:36s} {value:14.6g} {UNITS[key]}"
                     + describe(key, name, out) + clock)
    if not traced:
        alias = WORKLOADS[name].alias
        if alias:
            lines.append(f"{alias:36s} {metrics['work_per_s']:14.6g} 1/s")
        ratio = out["failed"] / out["attempted"]
        lines.append(f"{'fail_ratio':36s} {ratio:14.6g} 1"
                     f"  ({out['failed']} of {out['attempted']} commands)")
    for bad in out["rejected"]:
        lines.append(f"# rejected: {' '.join(bad['argv'])}: "
                     + "; ".join(bad["problems"]))
    result = {"correct": out["failed"] == 0, "attempted": out["attempted"],
              "failed": out["failed"],
              "metrics": {k: {"value": v, "unit": UNITS[k]}
                          for k, v in metrics.items()}}
    return lines, result


def describe(key, name, out):
    if key == "setup_s":
        return f"  (median of {SETUP_PROBES} fresh processes)"
    if key == "cmd_s.p50":
        return f"  ({out['commands']} commands)"
    if key == "cmd_s.tail":
        return (f"  (p{out['tail_percentile']:.1f} of {out['commands']} "
                f"commands, 10 beyond it)")
    if key == "work_per_s":
        return f"  ({WORKLOADS[name].work} per second)"
    return ""


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=1,
                        help="BLAS threads per worker, at most nproc")
    args = parser.parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    if not 1 <= args.blas_threads <= nproc:
        print(f"refusing {args.blas_threads} BLAS threads with nproc = "
              f"{nproc}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "todkit" / "cli.py").is_file():
        print(f"no todkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = child_env(args.blas_threads)
    results = {}
    try:
        for name in names:
            lines, results[name] = run_workload(
                name, args.seed, args.seconds, bool(args.trace), env)
            print("\n".join(lines), flush=True)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}/{key}": value
                             for name, r in results.items()
                             for key, value in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
