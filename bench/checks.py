"""Output checks for one workload execution.

Each check returns a list of error strings; an execution with any error
counts as failed. The checks read the files the execution left on disk,
through ``qdgm.diagnostics.Trace.from_csv`` for traces.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from qdgm.diagnostics import Trace

TRACE_HEADER = ("k,f_gap_last,f_gap_avg_min,f_gap_avg_max,consensus_sq,r_sq,"
                "lyapunov,delta_k,range_k,max_coord,gamma_k")
# the growing-range invariant, with the simulator's clamp band as slack
RANGE_SLACK = 1e-9
# acceptance criterion 5: quantized vs exact final averaged objective
CRITERION_5_REL = 1e-2
# the exact twin against the independent reference; measured ~1e-14
EXACT_REL = 1e-9


def check_trace(path: Path, iterations: int) -> tuple[list[str], Trace | None]:
    """Header, read-back, error marker, final round and range invariant."""
    name = path.name
    if not path.is_file():
        return [f"{name}: missing"], None
    with path.open() as fh:
        header = fh.readline().rstrip("\r\n")
    if header != TRACE_HEADER:
        return [f"{name}: unexpected header {header!r}"], None
    try:
        trace = Trace.from_csv(path)
    except (ValueError, TypeError) as exc:
        return [f"{name}: unreadable: {exc}"], None
    errors = []
    if trace.error is not None:
        errors.append(f"{name}: error marker: {trace.error}")
    if not trace.records or trace.final().k != iterations:
        errors.append(f"{name}: does not end at round {iterations}")
        return errors, trace
    for rec in trace.records:
        if rec.k >= 1 and not rec.max_coord <= rec.range_k * (1.0 + RANGE_SLACK):
            errors.append(f"{name}: max_coord {rec.max_coord!r} exceeds "
                          f"range_k {rec.range_k!r} at k={rec.k}")
            break
    if not math.isfinite(trace.final().f_gap_avg_max):
        errors.append(f"{name}: non-finite final gap")
    return errors, trace


def sha256_of(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def check_quantized_run(exec_dir: Path, iterations: int,
                        exact: tuple[float, float]) -> tuple[list[str], float | None]:
    """A `qdgm run` trace, within criterion 5 of the exact twin's objective."""
    errors, trace = check_trace(exec_dir / "trace.csv", iterations)
    if trace is None or errors:
        return errors, None
    f_star, exact_gap = exact
    gap = trace.final().f_gap_avg_max
    f_q, f_e = f_star + gap, f_star + exact_gap
    rel = abs(f_q - f_e) / abs(f_e)
    if not rel <= CRITERION_5_REL:
        errors.append(f"trace.csv: final objective {f_q!r} differs from the "
                      f"exact twin's {f_e!r} by {rel:.3e} relative")
    return errors, gap


def check_exact_run(exec_dir: Path, iterations: int,
                    exact: tuple[float, float]) -> tuple[list[str], float | None]:
    """The exact twin's trace, matching the independent reference."""
    errors, trace = check_trace(exec_dir / "trace.csv", iterations)
    if trace is None or errors:
        return errors, None
    gap = trace.final().f_gap_avg_max
    expected = exact[1]
    if not abs(gap - expected) <= EXACT_REL * abs(expected):
        errors.append(f"trace.csv: final gap {gap!r} != reference {expected!r}")
    return errors, gap


def check_verify_report(stdout: Path) -> list[str]:
    """`qdgm verify` JSON: passed, every check passed, zero violations."""
    try:
        report = json.loads(stdout.read_text())
    except (OSError, ValueError) as exc:
        return [f"verify report unreadable: {exc}"]
    errors = []
    if report.get("passed") is not True:
        errors.append("verify report: passed is not true")
    checks = {c.get("name"): c for c in report.get("checks", [])}
    errors += [f"verify check {n} failed" for n, c in checks.items()
               if c.get("passed") is not True]
    for name in ("consensus_recursion", "descent_recursion"):
        detail = checks.get(name, {}).get("detail")
        if not isinstance(detail, dict) or detail.get("violations") != 0:
            errors.append(f"verify check {name}: missing or has violations")
    return errors


def check_sweep(exec_dir: Path, seeds, iterations: int) -> tuple[list[str], float | None]:
    """Both traces of every seed; the gap is the mean over quantized runs."""
    errors, gaps = [], []
    for seed in seeds:
        for name in ("trace.csv", "baseline_trace.csv"):
            errs, trace = check_trace(exec_dir / f"s{seed}" / name, iterations)
            errors += [f"seed {seed}: {e}" for e in errs]
            if trace is not None and not errs and name == "trace.csv":
                gaps.append(trace.final().f_gap_avg_max)
    if errors:
        return errors, None
    return errors, sum(gaps) / len(gaps)
