"""Tests of the benchmark harness itself (not of qdgm).

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from qdgm.algorithm import run_experiment  # noqa: E402
from qdgm.cli import build_objective_from_config, build_topology  # noqa: E402
from qdgm.config import ExperimentConfig  # noqa: E402
from qdgm.graph import lazy_metropolis  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _smoke(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--smoke", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_appears_with_its_unit(workload, trace, key):
    result = _smoke(workload, trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def _trace_csv(tmp_path: Path, iterations: int = 30) -> Path:
    cfg = ExperimentConfig(seed=3, iterations=iterations)
    trace = run_experiment(build_objective_from_config(cfg),
                           lazy_metropolis(build_topology(cfg)),
                           iterations=iterations, seed=3, bits=16)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    return path


def _rewrite(path: Path, edit) -> None:
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


def _break_range(lines):
    cells = lines[5].split(",")
    cells[9] = repr(2.0 * float(cells[8]))     # max_coord = 2 * range_k
    return lines[:5] + [",".join(cells)] + lines[6:]


@pytest.mark.parametrize("edit", [
    lambda lines: ["k,f_gap_last"] + lines[1:],             # header
    _break_range,                                           # range invariant
    lambda lines: lines[:-1],                               # final round lost
    lambda lines: lines + ["# error: injected"],            # error marker
    lambda lines: lines[:-1] + [lines[-1] + ",extra"],      # unreadable row
], ids=["header", "range", "truncated", "error-marker", "unreadable"])
def test_corrupted_trace_fails_the_check(tmp_path, edit):
    path = _trace_csv(tmp_path)
    assert checks.check_trace(path, 30)[0] == []
    _rewrite(path, edit)
    assert checks.check_trace(path, 30)[0] != []


def test_corrupted_verify_report_fails_the_check(tmp_path):
    report = {"passed": True, "checks": [
        {"name": "consensus_recursion", "passed": True, "detail": {"violations": 0}},
        {"name": "descent_recursion", "passed": True, "detail": {"violations": 0}}]}
    path = tmp_path / "stdout.txt"
    path.write_text(json.dumps(report))
    assert checks.check_verify_report(path) == []
    report["checks"][1]["detail"]["violations"] = 2
    path.write_text(json.dumps(report))
    assert checks.check_verify_report(path) != []
    path.write_text("Traceback (most recent call last):")
    assert checks.check_verify_report(path) != []


def test_wrong_output_counts_as_failed_execution(tmp_path):
    """An execution whose trace stops one round early is a failed execution."""
    sizes = run.SMOKE
    base = run._workloads()["q16-long"]
    short = dataclasses.replace(base, calls=lambda s, d, z: [
        ["cli", run._run_argv(s[0], d, z["q16"] - 1)]])
    env = run.child_env()
    reference = base.reference([7], sizes)
    good = run.execute(base, [7], sizes, reference, False, 0, tmp_path, env)
    bad = run.execute(short, [7], sizes, reference, False, 1, tmp_path, env)
    assert good.errors == [] and good.wall_s > good.setup_s > 0
    assert bad.errors and "does not end at round" in bad.errors[0]


def test_self_time_never_exceeds_parent_duration(tmp_path):
    exec_dir = tmp_path / "exec"
    exec_dir.mkdir()
    spec = {"exec_dir": str(exec_dir), "exec_id": 0, "trace": True,
            "src": str(ROOT / "src"),
            "calls": [["cli", run._run_argv(7, exec_dir, 40, baseline=True)]]}
    (exec_dir / "spec.json").write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(HERE / "child.py"), str(exec_dir / "spec.json")],
                   check=True, env=env, stdout=subprocess.DEVNULL, timeout=170)
    data = spans.load(exec_dir / "spans.npz")
    start, end, parent, own = data["start"], data["end"], data["parent"], data["self"]
    dur = end - start
    assert len(dur) > 100 and (parent == spans.ROOT).sum() == 1
    assert (own >= 0).all() and (own <= dur).all()
    child = parent != spans.ROOT
    assert (start[child] >= start[parent[child]]).all()
    assert (end[child] <= end[parent[child]]).all()
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    assert (covered <= dur).all()


def test_self_times_of_hand_built_spans():
    #  0 [0, 100)  -> 1 [10, 40) -> 3 [20, 30);  0 -> 2 [50, 90)
    start = np.array([0, 10, 50, 20])
    end = np.array([100, 40, 90, 30])
    parent = np.array([spans.ROOT, 0, 0, 1])
    assert spans.self_times(start, end, parent).tolist() == [30.0, 20.0, 40.0, 10.0]


@pytest.mark.parametrize("seed,iterations", [(7, 300), (123456, 2000)])
def test_oracle_matches_the_exact_twin(seed, iterations):
    cfg = ExperimentConfig(seed=seed, iterations=iterations)
    objective = build_objective_from_config(cfg)
    trace = run_experiment(objective, lazy_metropolis(build_topology(cfg)),
                           iterations=iterations, seed=seed, bits=16, quantized=False)
    f_star, gap = oracle.exact_twin(seed, iterations)
    assert f_star == pytest.approx(objective.f_star, rel=1e-12)
    assert gap == pytest.approx(trace.final().f_gap_avg_max, rel=checks.EXACT_REL)


def test_exits_nonzero_without_a_result_when_the_program_is_missing(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "q16-long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_seeds_outside_the_certified_range_are_skipped_and_reported():
    workloads = run._workloads()
    assert run.program_seeds(workloads["q16-long"], 20, run.FULL) == ([21], [20])
    assert run.program_seeds(workloads["default-sweep"], 408, run.FULL) == \
        ([408, 409, 410, 412], [411])
    assert run.program_seeds(workloads["verify-r100"], 20, run.FULL) == ([20], [])


def test_oracle_flags_the_instances_qdgm_stops_on():
    from qdgm.errors import GradientBoundError
    for seed in (20, 21):
        cfg = ExperimentConfig(seed=seed, iterations=60)
        mixing = lazy_metropolis(build_topology(cfg))
        try:
            run_experiment(build_objective_from_config(cfg), mixing,
                           iterations=60, seed=seed, bits=16, quantized=False)
            stopped = False
        except GradientBoundError:
            stopped = True
        assert stopped == (oracle.leaves_certified_range(seed) is not None)
