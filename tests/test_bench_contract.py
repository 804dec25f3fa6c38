"""The names and calls the benchmark harness in ``bench/`` relies on.

``bench/child.py`` wraps package functions at the names their callers look
them up by, rebuilds the exact twin from ``ExperimentConfig``, and
``bench/checks.py`` reads the traces back. A rename in ``qdgm`` that one of
them still uses makes every benchmark execution fail, so it fails here.
"""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from qdgm import algorithm, cli, diagnostics, quantizer
from qdgm.config import ExperimentConfig

BENCH = Path(__file__).resolve().parents[1] / "bench"
WRAPPED_NAMES = 23


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class ResolveOnly:
    """A tracer that only looks each wrapped name up, and wraps nothing."""

    def __init__(self):
        self.spans = []

    def wrap(self, owner, attr, span, inside=None, count=None):
        getattr(owner, attr)
        self.spans.append(span)


def test_every_traced_name_resolves():
    tracer = ResolveOnly()
    _load("child").install_tracer(tracer, cli, algorithm, quantizer,
                                  diagnostics, np)
    assert len(tracer.spans) == WRAPPED_NAMES


def test_exact_twin_calls_and_trace_checks(tmp_path):
    checks = _load("checks")
    # the exact twin as the harness builds it
    cfg = ExperimentConfig(seed=7, iterations=5)
    objective = cli.build_objective_from_config(cfg)
    mixing = cli.lazy_metropolis(cli.build_topology(cfg))
    trace = cli.run_experiment(objective, mixing, iterations=5, seed=7,
                               bits=cfg.bits, quantized=False)
    trace.to_csv(tmp_path / "exact.csv")
    errors, read_back = checks.check_trace(tmp_path / "exact.csv", 5)
    assert errors == [] and read_back.final().k == 5
    # a `qdgm run` trace passes the harness's output checks
    out = tmp_path / "run"
    assert cli.main(["run", "--iterations", "20", "--output-dir", str(out)]) == 0
    errors, read_back = checks.check_trace(out / "trace.csv", 20)
    assert errors == []
    assert read_back.error is None and len(read_back.records) == 21


def test_sweep_and_partial_trace_checks(tmp_path):
    checks = _load("checks")
    # the default-sweep read path: both traces of each seed's `run --baseline`
    seeds = [7, 8]
    for seed in seeds:
        assert cli.main(["run", "--baseline", "--seed", str(seed), "--iterations",
                         "20", "--output-dir", str(tmp_path / f"s{seed}")]) == 0
    errors, gap = checks.check_sweep(tmp_path, seeds, 20)
    assert errors == [] and gap > 0.0
    # a partial trace: seed 20 stops at round 4 and ends with the error line
    out = tmp_path / "partial"
    assert cli.main(["run", "--seed", "20", "--iterations", "50",
                     "--output-dir", str(out)]) == 2
    errors, read_back = checks.check_trace(out / "trace.csv", 50)
    assert errors[0].startswith("trace.csv: error marker: gradient-bound violation")
    assert read_back.final().k == 3 and len(read_back.records) == 4


def _installed_tracer(monkeypatch):
    """The harness's own tracer, installed as bench/child.py installs it; teardown
    restores every name it wraps."""
    class Restore:
        """Registers each name the tracer will replace, so teardown restores it."""

        def wrap(self, owner, attr, span, inside=None, count=None):
            monkeypatch.setattr(owner, attr, getattr(owner, attr))

    child = _load("child")
    child.install_tracer(Restore(), cli, algorithm, quantizer, diagnostics, np)
    tracer = _load("spans").Tracer(0)
    child.install_tracer(tracer, cli, algorithm, quantizer, diagnostics, np)
    return tracer


def _spans(tracer):
    """Each recorded span's name and its parent span's name (None at the root)."""
    names = [tracer.names[i] for i in tracer.name]
    return list(zip(names, [names[p] if p >= 0 else None for p in tracer.parent]))


def test_property_checks_run_inside_the_quantizer_spans(monkeypatch):
    # `qdgm verify`'s codec checks reach the quantizer through the names the
    # harness wraps: three encode spans, each with its rounding span inside
    tracer = _installed_tracer(monkeypatch)
    checks = cli.quantizer_property_checks(7)
    assert all(check["passed"] for check in checks)
    names, parents = zip(*_spans(tracer))
    encodes = [p for n, p in zip(names, parents) if n == "quantizer.encode"]
    rounds = [p for n, p in zip(names, parents) if n == "quantizer.round"]
    assert encodes == ["cli.property_checks"] * 3
    assert rounds == ["quantizer.encode"] * 3
    assert names.count("quantizer.decode") == 6  # the decoded block and the received rows
    assert tracer.counters["messages"] == 3 * cli.PROPERTY_DRAWS // 10


@pytest.mark.parametrize("quantized", [True, False], ids=["quantized", "exact"])
def test_traced_layers_see_the_engine(monkeypatch, quantized):
    # the engine's rounds, their gradients and its range checks reach the spans the
    # harness wraps, inside the loop span: one round and one gradient span per round,
    # and a check per block of the 70 rounds [1], [2..33], [34..65] and [66..70]
    tracer = _installed_tracer(monkeypatch)
    cfg = ExperimentConfig(seed=7, iterations=70)
    objective = cli.build_objective_from_config(cfg)
    mixing = cli.lazy_metropolis(cli.build_topology(cfg))
    cli.run_experiment(objective, mixing, iterations=70, seed=7, bits=cfg.bits,
                       quantized=quantized)
    spans = _spans(tracer)
    assert spans.count(("algorithm.round", "algorithm.loop")) == 70
    assert spans.count(("objective.gradient", "algorithm.round")) == 70
    assert spans.count(("algorithm.range_check", "algorithm.loop")) >= 4
