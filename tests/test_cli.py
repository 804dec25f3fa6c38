import copy
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qdgm import algorithm, cli
from qdgm.cli import main
from qdgm.config import ExperimentConfig, load_config
from qdgm.diagnostics import Trace
from qdgm.errors import (ConfigError, MixingError, NonFiniteIterateError,
                         QuantizationSupportError)
from qdgm.graph import MixingMatrix


def run_cli(argv):
    return main(argv)


def run_process(*args, cwd, env=()):
    """`python *args` in a fresh process with this checkout's src first on the import
    path and ``env`` set: its exit code, stdout and stderr."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path, **dict(env)}, timeout=120)
    return result.returncode, result.stdout, result.stderr


# ---------------------------------------------------------------------------
# configuration

def test_defaults_match_benchmark_configuration():
    cfg = load_config(None)
    assert (cfg.n, cfg.d, cfg.bits) == (40, 5, 16)
    assert cfg.beta_clamp == 1.0
    assert cfg.eta_mode == "body"
    assert cfg.graph.edge_probability == pytest.approx(0.158)
    assert cfg.data.feature_high == pytest.approx(0.65)
    assert cfg.data.target_high == pytest.approx(0.45)


def test_empty_config_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    cfg = load_config(str(path))
    assert (cfg.n, cfg.d, cfg.bits, cfg.beta_clamp) == (40, 5, 16, 1.0)


def test_flags_override_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"bits": 8, "iterations": 50}))
    cfg = load_config(str(path), bits=4)
    assert cfg.bits == 4
    assert cfg.iterations == 50


def test_validation_failures():
    with pytest.raises(ConfigError, match="invalid field bits"):
        load_config(None, bits=0)
    with pytest.raises(ConfigError, match="invalid field n"):
        load_config(None, n=2, d=5)
    with pytest.raises(ConfigError, match="invalid field eta_mode"):
        load_config(None, eta_mode="nope")
    with pytest.raises(ConfigError, match="invalid field"):
        ExperimentConfig.from_json_dict({"bogus_key": 1})
    # field types come from the annotations: neither a bool nor a float is
    # accepted as an int
    with pytest.raises(ConfigError, match="invalid field iterations: must be int, not bool"):
        ExperimentConfig.from_json_dict({"iterations": True})
    with pytest.raises(ConfigError, match="invalid field n: must be int, not float"):
        ExperimentConfig.from_json_dict({"n": 2.5})
    with pytest.raises(ConfigError, match="invalid field graph.retry_limit: must be int"):
        ExperimentConfig.from_json_dict({"graph": {"retry_limit": "9"}})
    with pytest.raises(ConfigError, match="invalid field n: must be >= 2 unless"):
        load_config(None, n=1, d=1)


def test_beta_clamp_off_spelling(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"beta_clamp": "off"}))
    cfg = load_config(str(path))
    assert cfg.beta_clamp is None
    assert cfg.to_json_dict()["beta_clamp"] == "off"


def test_config_json_roundtrip(tmp_path):
    cfg = load_config(None, bits=6, iterations=12, seed=3)
    path = tmp_path / "echo.json"
    cfg.save(path)
    again = ExperimentConfig.from_json_dict(json.loads(path.read_text()))
    assert again == cfg
    # every config that run can write loads back equal
    for raw in [{"beta_clamp": 1, "graph": {"edge_probability": 1}},
                {"beta_clamp": "off", "baseline": True, "record_stride": 5},
                {"n": 1, "d": 1, "graph": {"edges_file": "g.edges"},
                 "beta_clamp": None}]:
        cfg = ExperimentConfig.from_json_dict(raw)
        cfg.save(path)
        assert load_config(str(path)) == cfg
    # an int given for a float field is written as given
    ExperimentConfig.from_json_dict({"beta_clamp": 1}).save(path)
    assert '"beta_clamp": 1,' in path.read_text()


def test_cli_rejects_bad_flag_value(tmp_path, capsys):
    code = run_cli(["run", "--bits", "0", "--output-dir", str(tmp_path)])
    assert code == 64
    assert "invalid field bits" in capsys.readouterr().err


def test_config_setting_jobs_is_rejected(tmp_path, capsys):
    # replicas run in one process; a config that still sets the removed
    # process-pool size is an unknown field, not silently ignored
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"jobs": 2}))
    code = run_cli(["run", "--config", str(path), "--output-dir",
                    str(tmp_path / "out")])
    assert code == 64
    assert "invalid field jobs" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "--jobs", "2", "--output-dir", str(tmp_path / "out")])
    assert exc.value.code == 64


@pytest.mark.parametrize("argv,code", [
    (["run", "--bits", "x"], 64),
    (["run", "--n", "2.5"], 64),
    (["verify", "--replicas", "x"], 64),
    (["nonsense"], 64),
    (["--help"], 0),
    (["run", "--help"], 0),
    (["--version"], 0),
    (["bound", "--beta-clamp", "x"], 64),
    (["run", "--no-beta-clamp"], 64),
])
def test_usage_errors_exit_64(capsys, argv, code):
    # 2 is the gradient-bound code, so argparse must not exit with it
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == code
    if code:
        assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("error", [
    NonFiniteIterateError, QuantizationSupportError, MixingError, RuntimeError])
def test_unmapped_error_exits_70_with_traceback(capsys, monkeypatch, error):
    def crash(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_verify", crash)
    assert run_cli(["verify"]) == 70
    err = capsys.readouterr().err
    assert "Traceback" in err and err.endswith("error: boom\n")


def test_single_agent_needs_an_edges_file(tmp_path, capsys):
    out = tmp_path / "out"
    base = ["run", "--n", "1", "--dims", "1", "--iterations", "5"]
    assert run_cli(base + ["--output-dir", str(out)]) == 64
    assert "invalid field n: must be >= 2" in capsys.readouterr().err
    assert not out.exists()
    edges = tmp_path / "one.edges"
    edges.write_text("1 0\n")
    assert run_cli(base + ["--edges-file", str(edges), "--output-dir",
                           str(out)]) == 0


def test_edges_file_with_other_node_count_exits_64(tmp_path, capsys):
    edges = tmp_path / "g30.edges"
    assert run_cli(["graph", "--n", "30", "--edge-probability", "0.3",
                    "--seed", "3", "--out", str(edges)]) == 0
    out = tmp_path / "out"
    code = run_cli(["run", "--edges-file", str(edges), "--iterations", "5",
                    "--output-dir", str(out)])
    assert code == 64
    err = capsys.readouterr().err
    assert "invalid field n" in err and "30 nodes" in err and "n = 40" in err
    assert not (out / "config.json").exists()
    # with the matching n the same file runs
    assert run_cli(["run", "--edges-file", str(edges), "--n", "30",
                    "--iterations", "5", "--output-dir", str(out)]) == 0


DISCONNECTED_EDGES = "4 2\n0 1\n2 3\n"


@pytest.mark.parametrize("flag,content,expected", [
    ("--edges-file", DISCONNECTED_EDGES,
     ("invalid field graph.edges_file", "graph is not connected")),
    ("--edges-file", None, ("invalid field graph.edges_file", "No such file")),
    ("--config", None, ("invalid config file", "No such file")),
    ("--config", '{"bits": 8,', ("invalid config file", "Expecting")),
    ("--config", '{"graph": 3}', ("invalid field graph: must be a JSON object",)),
    ("--config", '{"data": [1]}', ("invalid field data: must be a JSON object",)),
    ("--config", '{"bits": "16"}', ("invalid field bits: must be int, not str",)),
    ("--config", '{"seed": 1.5}', ("invalid field seed: must be int, not float",)),
    ("--config", '{"replicas": 2.0}', ("invalid field replicas: must be int",)),
    ("--config", '{"beta_clamp": "x"}',
     ("invalid field beta_clamp: must be float | None, not str",)),
    ("--config", '{"graph": {"edges_file": 3}}',
     ("invalid field graph.edges_file: must be str | None, not int",)),
    ("--config", '{"baseline": "no"}', ("invalid field baseline: must be bool",)),
    ("--config", '{"graph": {"retry_limit": 1, "edge_probability": 0.01}}',
     ("could not sample connected graph",)),
    ("--config", '{"data": {"feature_high": 1e-200}}', ("degenerate instance",)),
    ("--config", '{"data": {"feature_high": Infinity}}',
     ("invalid field data.feature_high: must be positive and finite",)),
    ("--config", '{"data": {"target_high": Infinity}}',
     ("invalid field data.target_high: must be >= 0 and finite",)),
    # finite data whose Gram matrix overflows
    ("--config", '{"data": {"feature_high": 1e300}}',
     ("degenerate instance: the Gram matrix is not finite",)),
    # finite data whose envelope constants overflow: L^2, then mu^3 <= L^3, then (C d)^2
    ("--config", '{"data": {"feature_high": 1e100}}',
     ("degenerate instance: L^3 or (C d)^2 is not finite",)),
    ("--config", '{"data": {"feature_high": 1e60}}',
     ("degenerate instance: L^3 or (C d)^2 is not finite",)),
    ("--config", '{"data": {"target_high": 1e300}}',
     ("degenerate instance: L^3 or (C d)^2 is not finite",)),
    # finite data whose W^T b overflows: x*, so C and (C d)^2, are NaN
    ("--config", '{"data": {"target_high": 1.7976931348623157e308}}',
     ("degenerate instance: L^3 or (C d)^2 is not finite",)),
    # a subnormal clamp makes the Lyapunov weight eta alpha_0 / beta_0 overflow; a
    # tiny one keeps it finite, but not the weighted consensus error of V_k
    ("--config", '{"beta_clamp": 5e-324}',
     ("invalid field beta_clamp: makes the Lyapunov value infinite",)),
    ("--config", '{"beta_clamp": 1e-304}',
     ("invalid field beta_clamp: makes the Lyapunov value infinite",)),
    ("--config", '{"beta_clamp": 1e-302}',
     ("invalid field beta_clamp: makes the Lyapunov value infinite",)),
    # at the default clamp, data whose C / mu makes the bound on V_k overflow, and
    # data whose bound on range(K) overflows when squared
    ("--config", '{"data": {"target_high": 3e149}}',
     ("degenerate instance: C / mu makes V_k infinite",)),
    ("--config", '{"data": {"feature_high": 0.01, "target_high": 1e150}}',
     ("degenerate instance: C / mu makes V_k infinite",)),
    # an output directory below a regular file
    ("--output-dir", "a regular file",
     ("invalid field output_dir: cannot write", "input is not an existing directory")),
], ids=["disconnected-edges", "missing-edges", "missing-config",
        "malformed-json", "graph-not-object", "data-not-object", "bits-str",
        "seed-float", "replicas-float", "beta-clamp-str", "edges-file-int",
        "baseline-str", "graph-sampling", "degenerate-data", "feature-high-inf",
        "target-high-inf", "gram-overflow", "smoothness-overflow", "cube-overflow",
        "bound-overflow", "optimum-overflow", "subnormal-beta-clamp", "beta-clamp-1e-304",
        "beta-clamp-1e-302", "c-over-mu-overflow", "range-square-overflow",
        "output-below-file"])
def test_bad_input_file_exits_64_before_writing(tmp_path, capsys, flag,
                                                content, expected):
    path = tmp_path / "input"
    if content is not None:
        path.write_text(content)
    out = tmp_path / "out"
    value = path / "x" if flag == "--output-dir" else path
    code = run_cli(["run", "--n", "4", "--dims", "2", "--iterations", "5",
                    "--output-dir", str(out), flag, str(value)])
    assert code == 64
    err = capsys.readouterr().err
    assert all(text in err for text in expected), err
    assert "Traceback" not in err
    assert not out.exists()


def test_c_over_mu_overflow_is_refused_under_another_blas_kernel(tmp_path):
    # OpenBLAS's Haswell kernel solves the normal equations of targets near 3e149 with
    # a larger absolute gradient residual than the default kernel here; the residual
    # check is relative to the data's scale, so the run reaches the C / mu refusal on
    # both, not a refusal of every draw. Without OpenBLAS the variable is unread
    config = tmp_path / "config.json"
    config.write_text('{"data": {"target_high": 3e149}}')
    code, _, err = run_process("-m", "qdgm.cli", "run", "--n", "4", "--dims", "2",
                               "--iterations", "5", "--output-dir", str(tmp_path / "out"),
                               "--config", str(config), cwd=tmp_path,
                               env={"OPENBLAS_CORETYPE": "Haswell"})
    assert code == 64
    assert err == "error: degenerate instance: C / mu makes V_k infinite\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("clamp,code", [
    ("5e-324", 64), ("1e-304", 64), ("1e-302", 64), ("1e-300", 64), ("1e-290", 0)])
def test_bound_refuses_a_clamp_whose_lyapunov_weight_overflows(tmp_path, capsys, clamp, code):
    # bound reads V_1, so it refuses the clamps run refuses: their weighted consensus
    # error can overflow by round T; at 1e-290 V_1 of about 6e294 stays finite and
    # the table is printed
    config = tmp_path / "config.json"
    config.write_text(f'{{"beta_clamp": {clamp}}}')
    assert run_cli(["bound", "--config", str(config), "--n", "4", "--dims", "2",
                    "--T", "5"]) == code
    out, err = capsys.readouterr()
    assert ("invalid field beta_clamp" in err) == (code == 64)
    assert len(out.splitlines()) == (1 if code else 2)


def test_negative_zero_target_high_runs_as_zero(tmp_path):
    # -0.0 passes the >= 0 rule, so it samples the targets as 0.0 does
    traces = []
    for value in ("-0.0", "0.0"):
        config, out = tmp_path / f"{value}.json", tmp_path / value
        config.write_text(f'{{"data": {{"target_high": {value}}}}}')
        assert run_cli(["run", "--config", str(config), "--n", "6", "--dims", "2",
                        "--iterations", "10", "--output-dir", str(out)]) == 0
        traces.append((out / "trace.csv").read_bytes())
    assert traces[0] == traces[1]


# ---------------------------------------------------------------------------
# run

@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = run_cli([
        "run", "--n", "6", "--dims", "2", "--bits", "6", "--iterations", "40",
        "--seed", "11", "--edge-probability", "0.6", "--baseline",
        "--output-dir", str(out.as_posix()),
    ])
    assert code == 0
    return out


def test_run_writes_artifacts(small_run):
    for name in ("config.json", "graph.edges", "instance.csv", "trace.csv",
                 "baseline_trace.csv"):
        assert (small_run / name).exists(), name
    cfg = json.loads((small_run / "config.json").read_text())
    assert cfg["n"] == 6 and cfg["bits"] == 6 and cfg["baseline"] is True


def test_run_trace_is_loadable_and_increasing(small_run):
    trace = Trace.from_csv(small_run / "trace.csv")
    ks = trace.column("k")
    assert ks[0] == 0 and ks[-1] == 40
    assert np.all(np.diff(ks) > 0)
    assert trace.error is None


def test_rerun_is_byte_identical(small_run, tmp_path):
    code = run_cli([
        "run", "--config", str(small_run / "config.json"),
        "--output-dir", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "trace.csv").read_bytes() == \
        (small_run / "trace.csv").read_bytes()
    assert (tmp_path / "graph.edges").read_bytes() == \
        (small_run / "graph.edges").read_bytes()
    assert (tmp_path / "instance.csv").read_bytes() == \
        (small_run / "instance.csv").read_bytes()


def test_run_prints_final_gap_line(small_run, capsys, tmp_path):
    code = run_cli(["run", "--n", "6", "--dims", "2", "--bits", "6",
                    "--iterations", "5", "--edge-probability", "0.6",
                    "--output-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "final f_gap" in out and "k=5" in out


def test_run_single_iteration(tmp_path):
    code = run_cli(["run", "--n", "4", "--dims", "2", "--iterations", "1",
                    "--edge-probability", "0.9", "--output-dir", str(tmp_path)])
    assert code == 0
    trace = Trace.from_csv(tmp_path / "trace.csv")
    assert [rec.k for rec in trace.records] == [0, 1]


def test_run_replicas_split_randomness(tmp_path):
    code = run_cli(["run", "--n", "6", "--dims", "2", "--bits", "6",
                    "--iterations", "30", "--edge-probability", "0.6",
                    "--replicas", "3", "--output-dir", str(tmp_path)])
    assert code == 0
    traces = [Trace.from_csv(tmp_path / f"trace_r{i}.csv") for i in range(3)]
    finals = {t.final().consensus_sq for t in traces}
    assert len(finals) == 3  # distinct quantizer randomness
    assert not (tmp_path / "trace.csv").exists()


def test_run_replicas_match_single_runs(tmp_path):
    # replica r of a multi-replica run is the single run of replica r
    base = ["run", "--n", "6", "--dims", "2", "--bits", "6", "--iterations",
            "25", "--edge-probability", "0.6"]
    assert run_cli(base + ["--replicas", "2", "--output-dir",
                           str(tmp_path / "both")]) == 0
    assert run_cli(base + ["--output-dir", str(tmp_path / "one")]) == 0
    assert (tmp_path / "both" / "trace_r0.csv").read_bytes() == \
        (tmp_path / "one" / "trace.csv").read_bytes()


def test_run_without_clamp_exits_2_and_flushes_partial_trace(tmp_path, capsys):
    code = run_cli(["run", "--n", "4", "--dims", "2", "--bits", "6",
                    "--iterations", "300", "--edge-probability", "0.9",
                    "--beta-clamp", "off", "--output-dir", str(tmp_path)])
    assert code == 2
    assert json.loads((tmp_path / "config.json").read_text())["beta_clamp"] == "off"
    err = capsys.readouterr().err
    assert "gradient-bound violation" in err and "agent" in err
    partial = Trace.from_csv(tmp_path / "trace.csv")
    assert partial.error is not None


@pytest.mark.parametrize("argv", [["run", "--seed", "20", "--iterations", "50"],
                                  ["verify", "--bits", "1"]], ids=["run", "verify"])
def test_failures_are_typed_errors_under_python_O(tmp_path, argv):
    # python -O strips asserts: a run and a verify that leave the range exit 2 with the
    # same stderr and partial trace with or without it, as their checks and the
    # engine's replay raise typed errors
    results = []
    for flags in ([], ["-O"]):
        out = tmp_path / f"out{len(flags)}"
        code, stdout, err = run_process(
            *flags, "-m", "qdgm.cli", *argv, *(["--output-dir", str(out)] * (argv[0] == "run")),
            cwd=tmp_path)
        trace = (out / "trace.csv").read_bytes() if argv[0] == "run" else None
        results.append((code, stdout, err, trace))
    assert results[0] == results[1]
    code, _, err, trace = results[0]
    assert code == 2 and err.startswith("error: gradient-bound violation: agent ")
    if trace is not None:
        assert len(Trace.from_csv(tmp_path / "out0" / "trace.csv").records) == 4


@pytest.mark.parametrize("value,code,message", [
    (np.nan, 70, "non-finite iterate at round 9"),
    (1e6, 2, "gradient-bound violation: agent 3 reached "),
], ids=["non-finite", "gradient-bound"])
def test_run_exit_code_of_an_escaped_iterate(tmp_path, capsys, monkeypatch,
                                             value, code, message):
    # round 9 makes the 10th gradient call; its bad entry ends the run there
    gradient, calls = algorithm.gradient_matrix, []

    def poisoned(objective, x):
        calls.append(None)
        grads = gradient(objective, x)
        if len(calls) == 10:
            grads[0, 3, 1] = value
        return grads

    monkeypatch.setattr(algorithm, "gradient_matrix", poisoned)
    assert run_cli(["run", "--iterations", "20", "--output-dir", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert message in err.splitlines()[-1]
    # the traceback of the unmapped error shows no range-check context
    assert ("Traceback" in err) == (code == 70) and "GradientBoundError" not in err
    partial = Trace.from_csv(tmp_path / "trace.csv")
    assert partial.error.startswith(message) and len(partial.records) == 10


# ---------------------------------------------------------------------------
# verify

def test_verify_passes_and_emits_json(capsys):
    code = run_cli(["verify", "--replicas", "120", "--rounds", "60"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert {"mixing_matrix", "consensus_recursion", "descent_recursion"} <= names
    for check in report["checks"]:
        assert check["passed"], check


def test_verify_detects_sabotaged_sigma2(capsys, monkeypatch):
    # an ensemble whose sigma2 is raised by 0.5 (past 1, so its spectral gap
    # turns negative) must fail verify; Schedule rejects such a gap, so the
    # fault is set on a copy of the ensemble's schedule past the check. The
    # copy keeps the run's beta_k, which the checks read from the schedule
    collect = cli.collect_ensemble

    def sabotaged(*args, **kwargs):
        ens = collect(*args, **kwargs)
        faulty = copy.copy(ens.schedule)
        faulty.spectral_gap -= 0.5
        faulty.beta = ens.schedule.beta
        return dataclasses.replace(ens, schedule=faulty)

    monkeypatch.setattr(cli, "collect_ensemble", sabotaged)
    code = run_cli(["verify", "--replicas", "120", "--rounds", "60"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["passed"] is False
    failing = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "consensus_recursion" in failing


def test_verify_reports_a_refused_mixing_matrix(capsys, monkeypatch):
    def refuse(self, topology):
        raise MixingError("column sums deviate from 1")

    monkeypatch.setattr(MixingMatrix, "validate", refuse)
    code = run_cli(["verify", "--replicas", "100", "--rounds", "5"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["passed"] is False
    assert report["checks"][0] == {"name": "mixing_matrix", "passed": False,
                                   "detail": "column sums deviate from 1"}


def test_verify_does_not_report_a_programming_error_as_a_check(capsys, monkeypatch):
    def broken(self, topology):
        raise TypeError("boom")

    monkeypatch.setattr(MixingMatrix, "validate", broken)
    assert run_cli(["verify", "--replicas", "100", "--rounds", "5"]) == 70
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" in err and err.endswith("error: boom\n")


@pytest.mark.parametrize("args,field", [
    (["--replicas", "5"], "replicas"),
    (["--replicas", "0"], "replicas"),
    (["--rounds", "0"], "rounds"),
    (["--n", "1", "--dims", "2"], "n"),
    (["--dims", "0"], "dims"),
    (["--bits", "40"], "bits"),
    (["--seed", "-1"], "seed"),
])
def test_verify_rejects_bad_arguments_before_any_work(capsys, monkeypatch,
                                                      args, field):
    def no_work(*args, **kwargs):
        raise AssertionError("verify started work on bad arguments")

    monkeypatch.setattr(cli, "quantizer_property_checks", no_work)
    monkeypatch.setattr(cli, "collect_ensemble", no_work)
    assert run_cli(["verify"] + args) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"invalid field {field}:" in captured.err


# ---------------------------------------------------------------------------
# bound

def test_bound_reports_dominating_envelope(capsys):
    code = run_cli(["bound", "--n", "6", "--dims", "2", "--bits", "8",
                    "--edge-probability", "0.6", "--T", "10,100,400"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "T,measured_gap,theoretical_bound,ratio"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [10, 100, 400]
    for _, measured, bound, ratio in rows:
        assert float(ratio) == pytest.approx(float(measured) / float(bound))
        assert float(ratio) <= 1.0


def test_bound_records_only_round_one_and_the_horizons(monkeypatch):
    # the table reads V_1 and the gap at each T, so the run records no other round
    run_experiment, traces = cli.run_experiment, []

    def kept(*args, **kwargs):
        traces.append(run_experiment(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(cli, "run_experiment", kept)
    assert run_cli(["bound", "--n", "6", "--dims", "2", "--T", "100,10,400,10"]) == 0
    assert [rec.k for rec in traces[0].records] == [1, 10, 100, 400]


@pytest.mark.parametrize("flag", [["--iterations", "5"], ["--output-dir", "out"],
                                  ["--baseline"], ["--replicas", "2"],
                                  ["--record-stride", "3"]])
def test_bound_refuses_the_run_only_flags(capsys, flag):
    # bound reads neither the round count nor anything run writes or repeats
    with pytest.raises(SystemExit) as exc:
        run_cli(["bound", *flag, "--T", "10"])
    assert exc.value.code == 64
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: qdgm bound [-h]")
    assert f"qdgm bound: error: unrecognized arguments: {flag[0]}" in err


def test_bound_reads_no_run_only_field_of_the_config(tmp_path, capsys):
    # the file's run-only fields are type-checked, but only run reads their values
    path, plain = tmp_path / "cfg.json", tmp_path / "plain.json"
    path.write_text(json.dumps({"n": 6, "d": 2, "iterations": 0, "replicas": 0,
                                "record_stride": 0}))
    plain.write_text(json.dumps({"n": 6, "d": 2}))
    assert run_cli(["bound", "--config", str(plain), "--T", "10"]) == 0
    expected = capsys.readouterr().out
    assert run_cli(["bound", "--config", str(path), "--T", "10"]) == 0
    assert capsys.readouterr().out == expected
    out = tmp_path / "out"
    assert run_cli(["run", "--config", str(path), "--output-dir", str(out)]) == 64
    assert capsys.readouterr().err == "error: invalid field iterations: must be >= 1\n"
    assert not out.exists()


def test_bound_empty_horizon_list(capsys):
    code = run_cli(["bound", "--T", ""])
    assert code == 0
    assert capsys.readouterr().out.strip() == "T,measured_gap,theoretical_bound,ratio"


def test_bound_rejects_nonpositive_horizons(capsys):
    for horizons in ["0,10", "1,abc"]:
        code = run_cli(["bound", "--T", horizons])
        assert code == 64
        assert "invalid field T" in capsys.readouterr().err


def test_record_stride_and_eta_mode_flags(tmp_path):
    base = ["run", "--n", "6", "--dims", "2", "--bits", "6", "--iterations",
            "40", "--edge-probability", "0.6", "--record-stride", "10"]
    assert run_cli(base + ["--output-dir", str(tmp_path / "body")]) == 0
    trace = Trace.from_csv(tmp_path / "body" / "trace.csv")
    assert [rec.k for rec in trace.records] == [0, 10, 20, 30, 40]
    assert run_cli(base + ["--eta-mode", "appendix",
                           "--output-dir", str(tmp_path / "appendix")]) == 0
    other = Trace.from_csv(tmp_path / "appendix" / "trace.csv")
    # the coupling constant only rescales the Lyapunov column
    assert np.array_equal(trace.column("consensus_sq"), other.column("consensus_sq"))
    assert trace.records[-1].lyapunov != other.records[-1].lyapunov


# ---------------------------------------------------------------------------
# graph

def test_graph_emit_and_load(tmp_path, capsys):
    out = tmp_path / "g.edges"
    code = run_cli(["graph", "--n", "12", "--edge-probability", "0.4",
                    "--seed", "3", "--out", str(out)])
    assert code == 0
    assert out.exists()
    code = run_cli(["graph", "--load", str(out)])
    assert code == 0
    info = capsys.readouterr().out.splitlines()[-1]
    assert info.startswith("n=12 m=")
    assert "sigma2=" in info and "spectral_gap=" in info


@pytest.mark.parametrize("content", [DISCONNECTED_EDGES, None],
                         ids=["disconnected", "missing"])
def test_graph_load_of_bad_file_exits_64(tmp_path, capsys, content):
    path = tmp_path / "g.edges"
    if content is not None:
        path.write_text(content)
    assert run_cli(["graph", "--load", str(path)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"invalid field load: cannot load {path}" in captured.err


@pytest.mark.parametrize("args,expected", [
    (["--n", "1"], "invalid field n: must be >= 2"),
    (["--edge-probability", "0"], "invalid field edge_probability"),
    (["--retry-limit", "0"], "invalid field retry_limit: must be >= 1"),
    (["--seed", "-1"], "invalid field seed: must be >= 0"),
    (["--n", "50", "--edge-probability", "0.001", "--retry-limit", "2"],
     "could not sample connected graph"),
    (["--out", "nodir/g.edges"],
     "invalid field out: cannot write nodir/g.edges: nodir is not an existing directory"),
    (["--out", "."], "invalid field out: . is a directory"),
])
def test_graph_rejects_bad_arguments_before_writing(tmp_path, capsys, monkeypatch,
                                                    args, expected):
    monkeypatch.chdir(tmp_path)   # relative --out paths land in tmp_path
    out = tmp_path / "g.edges"
    assert run_cli(["graph", "--out", str(out)] + args) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {expected}" in captured.err and "Traceback" not in captured.err
    assert not out.exists()
