"""Tests of the benchmark itself: inputs, oracle, tracer and run.py.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

cli = worker.import_cli()


def first_output(name, tmp_path, skip=0):
    """Run the workload's first command (after skip); return it and its output."""
    commands = workloads.prepare(name, 0, tmp_path)
    for _ in range(skip):
        next(commands)
    command = next(commands)
    _, problems = worker.run_command(cli, command)
    assert problems == []
    return command, command.out.read_text()


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(PER_LAYER)


def test_inputs_follow_the_seed(tmp_path):
    def argvs(seed, sub):
        commands = workloads.prepare("verify-16nut-float", seed, tmp_path / sub)
        texts = sorted(p.read_text() for p in (tmp_path / sub).glob("*.json"))
        return [next(commands).argv[3:6] for _ in range(3)], texts

    assert argvs(5, "a") == argvs(5, "b")
    assert argvs(5, "a") != argvs(6, "c")


def test_sixteen_nut_data_is_normalised():
    import random
    doc = workloads.sixteen_nut_data(random.Random(3))
    zs = [r["z"] for r in doc["rods"]]
    a = [r["a"] for r in doc["rods"]]
    assert len(zs) == 16 and all(p < q for p, q in zip(zs, zs[1:]))
    assert abs(sum(a) - 1.0) < 1e-12
    kappa = sum(a[i] * a[j] * (zs[j] - zs[i]) ** 2
                for i in range(16) for j in range(i + 1, 16))
    assert doc["c"] == -kappa


@pytest.mark.parametrize("name", ["verify-2nut-exact", "verify-16nut-float"])
def test_oracle_rejects_any_flipped_verify_status(name, tmp_path):
    command, text = first_output(name, tmp_path)
    report = json.loads(text)
    for k, entry in enumerate(report["checks"]):
        flipped = json.loads(text)
        flipped["checks"][k]["status"] = ("fail" if entry["status"] != "fail"
                                          else "pass")
        failing = any(e["status"] == "fail" for e in flipped["checks"])
        flipped["status"] = "fail" if failing else "pass"
        code = 1 if failing else 0
        if entry["name"] == "asymptotic_class" and name == "verify-16nut-float":
            continue  # the paper says nothing of the lens of 16-nut data
        assert command.check(json.dumps(flipped), code), entry["name"]


def test_oracle_tolerates_extra_report_keys(tmp_path):
    command, text = first_output("verify-2nut-exact", tmp_path)
    report = json.loads(text)
    report["timings"] = {"fields": 0.1}
    for entry in report["checks"]:
        entry["points"] = 25
    assert command.check(json.dumps(report), 0) == []


def test_oracle_rejects_an_admissible_scan(tmp_path):
    command, text = first_output("pd-scan", tmp_path)
    report = json.loads(text)
    report["admissible"] = 1
    assert command.check(json.dumps(report), 0)
    classify, text = first_output("pd-scan", tmp_path,
                                  skip=len(workloads.PD_SAMPLES))
    report = json.loads(text)
    report["admissible"].append(report["admissible"][0])
    assert classify.check(json.dumps(report), 0)


def test_oracle_rejects_a_build_missing_a_row(tmp_path):
    command, text = first_output("build-grid-exact", tmp_path)
    lines = text.splitlines()
    assert command.check("\n".join(lines[:-1]) + "\n", 0)
    bad_lambda = lines[:]
    cols = bad_lambda[1].split(",")
    cols[-1] = repr(float(cols[-1]) * (1 + 1e-9))
    bad_lambda[1] = ",".join(cols)
    assert command.check("\n".join(bad_lambda) + "\n", 0)


def test_tail_has_ten_commands_beyond_it():
    assert worker.tail(list(range(40))) == (29, 75.0)
    assert worker.tail([3.0, 1.0]) == (3.0, 100.0)


@pytest.fixture(scope="module")
def two_traces(tmp_path_factory):
    name = "verify-2nut-exact"
    spec = workloads.WORKLOADS[name]
    short = dataclasses.replace(spec, trace_rounds=2)
    workloads.WORKLOADS[name] = short
    try:
        return [worker.trace(cli, name, 4, {}, tmp_path_factory.mktemp("t"))
                for _ in range(2)]
    finally:
        workloads.WORKLOADS[name] = spec


def test_traced_runs_repeat_their_counts(two_traces):
    first, second = (
        {k: v for k, v in t["metrics"].items()
         if k.endswith((".calls", ".draws", ".attempts"))} for t in two_traces)
    assert first == second
    assert first["tod.tod_fields.calls"] > 0 and first["jets.mul.calls"] > 0
    assert all(t["failed"] == 0 for t in two_traces)


def test_self_time_sums_to_the_traced_wall_time(two_traces):
    for t in two_traces:
        overhead = max(t["traced_s"] - t["plain_s"], 0.01 * t["traced_s"])
        assert 0 <= t["traced_s"] - t["self_s_total"] <= overhead
        assert all(row[1] >= -1e-9 for row in t["spans"].values())


def test_tracer_restores_the_package(two_traces):
    from todkit import harmonic, jets
    assert cli.SUITES["fields"] is cli.suite_fields
    assert cli.main.__module__ == "todkit.cli"
    assert not hasattr(cli.main, "__wrapped__")
    assert not hasattr(jets.Jet2.__mul__, "__wrapped__")
    assert not hasattr(jets.compose2, "__wrapped__")
    assert not hasattr(harmonic.RodData.interior_check, "__wrapped__")


def test_refuses_more_blas_threads_than_nproc():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "pd-scan",
         "--seed", "0", "--seconds", "1", "--trace", "0", "--blas-threads",
         str(len(os.sched_getaffinity(0)) + 1)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pd-scan",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
