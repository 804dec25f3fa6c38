"""Smoke runs of the study scripts in scripts/, each a subprocess on a short run."""
import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    """Run scripts/<name> with this checkout's src first on the import path."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                          text=True, timeout=120)


def test_convergence_curves_prints_both_finals_and_writes_both_series(tmp_path):
    out = tmp_path / "curves"
    result = run_script("convergence_curves.py", "--iterations", "300", "--out-dir", str(out),
                        cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 3, lines
    for line, label in zip(lines, ("quantized", "baseline ")):
        match = re.fullmatch(rf"{label}: final f\(z\)-f\* = (\S+) at k=300", line)
        assert match and float(match[1]) > 0.0, line
    assert lines[2] == f"curves written to {out}/"
    for label in ("quantized", "baseline"):
        rows = (out / f"{label}.dat").read_text().splitlines()
        assert [int(row.split()[0]) for row in rows] == list(range(1, 301))


def test_decay_exponent_study_prints_one_row_per_size(tmp_path):
    result = run_script("decay_exponent_study.py", "--sizes", "4,8", "--iterations", "300",
                        cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    header, *rows = result.stdout.splitlines()
    assert header.split() == ["n", "measured", "slope", "predicted", "-8/n"]
    assert [row.split()[0] for row in rows] == ["4", "8"]
    assert [row.split()[2] for row in rows] == ["-2.000", "-1.000"]
    for row in rows:
        slope = float(row.split()[1])
        assert math.isfinite(slope) and slope < 0.0, row
