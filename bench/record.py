"""Record a baseline: repeated untraced runs plus one traced run per workload.

Usage:
  python3 bench/record.py --out bench/baseline.json [--seeds 101-110]

Each workload in BENCHMARK.json runs once per seed through ``run.py``
(untraced, ``run_seconds`` long), then once traced at the default seed.
The output holds every run's result and, per end-to-end metric, the
median and the spread across seeds (first-to-third quartile distance over
the median, as ``statistics.quantiles(n=4)`` gives them) next to the
bound in BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    environment = next(json.loads(line[len("environment: "):]) for line in lines
                       if line.startswith("environment: "))
    return {"seed": seed, "result": json.loads(lines[-1]), "environment": environment,
            "report": lines[:-2]}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("101-110"))
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"seeds": args.seeds, "run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, seconds, 0))
            metrics = runs[-1]["result"]["metrics"]
            print(workload, seed, runs[-1]["result"]["correct"],
                  {k: round(v["value"], 4) for k, v in metrics.items()}, flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            summary[name] = {"median": statistics.median(values),
                             "spread": spread(values), "bound": bound}
            print(f"  {name}: {summary[name]}", flush=True)
        out["workloads"][workload] = {
            "end_to_end": summary,
            "all_correct": all(r["result"]["correct"] for r in runs),
            "runs": runs,
            "traced": run_once(workload, 7, seconds, 1)}
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
