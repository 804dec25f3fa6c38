"""One workload execution, run in a fresh process by ``run.py``.

Usage: python3 child.py SPEC_JSON

SPEC_JSON names the execution directory, the execution id, whether to
trace, the CPU to run on, and the calls to make: ``["cli", argv]`` runs ``qdgm.cli.main``,
``["exact", seed, iterations, csv_path]`` runs the exact twin through
``run_experiment`` and ``Trace.to_csv``. The child writes ``timing.json``
(first call into the round engine, end of the last output file, peak RSS,
both as CLOCK_MONOTONIC ns so the parent can subtract its spawn time) and,
when tracing, ``spans.npz``.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path


def install_tracer(tracer, cli, algorithm, quantizer, diagnostics, np) -> None:
    """Wrap each layer function at the name its caller looks it up by."""
    layers = [
        (cli, "main", "cli.main", None),
        (cli, "quantizer_property_checks", "cli.property_checks", None),
        (cli, "generate_random_connected_graph", "graph.sample", None),
        (cli, "path_topology", "graph.sample", None),
        (cli, "lazy_metropolis", "graph.mixing", None),
        (cli, "save_edge_list", "graph.save", None),
        (cli, "generate_instance", "objective.instance", None),
        (cli, "well_conditioned_instance", "objective.instance", None),
        (cli, "save_instance_csv", "objective.save", None),
        (cli, "run_experiment", "algorithm.loop", None),
        (cli, "collect_ensemble", "algorithm.loop", None),
        (algorithm, "run_round", "algorithm.round", None),
        (np.random, "default_rng", "algorithm.rng_keying", "algorithm.round"),
        (algorithm, "_check_range_invariant", "algorithm.range_check", None),
        (algorithm, "gradient_matrix", "objective.gradient", None),
        (quantizer, "quantize_matrix", "quantizer.encode", None),
        (quantizer, "_stochastic_round", "quantizer.round", "quantizer.encode"),
        (quantizer, "pack_index_rows", "quantizer.pack", "quantizer.encode"),
        (quantizer, "decode_matrix", "quantizer.decode", None),
        (diagnostics, "make_record", "diagnostics.record", None),
        (diagnostics.Trace, "to_csv", "diagnostics.csv_write", None),
        (cli, "check_consensus_recursion", "diagnostics.check", None),
        (cli, "check_descent_recursion", "diagnostics.check", None),
    ]
    counts = {
        "quantizer.encode": lambda c, msgs: c.update(messages=len(msgs)),
        "quantizer.pack": lambda c, rows: c.update(wire_bytes=sum(map(len, rows))),
    }
    for owner, attr, span, inside in layers:
        tracer.wrap(owner, attr, span, inside=inside, count=counts.get(span))


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    if spec.get("cpu") is not None:
        os.sched_setaffinity(0, {spec["cpu"]})   # beside the host-speed probe
    exec_dir = Path(spec["exec_dir"])
    src = Path(spec["src"]).resolve()

    import numpy as np
    import qdgm
    from qdgm import algorithm, cli, diagnostics, quantizer
    from qdgm.config import ExperimentConfig

    if src not in Path(qdgm.__file__).resolve().parents:
        print(f"qdgm imported from {qdgm.__file__}, not from {src}", file=sys.stderr)
        return 3

    first_call = []

    def mark_first_call(attr):
        fn = getattr(cli, attr)

        def wrapper(*args, **kwargs):
            if not first_call:
                first_call.append(time.monotonic_ns())
            return fn(*args, **kwargs)
        setattr(cli, attr, wrapper)

    tracer = None
    if spec["trace"]:
        from spans import Tracer   # this file's directory leads sys.path
        tracer = Tracer(spec["exec_id"])
        install_tracer(tracer, cli, algorithm, quantizer, diagnostics, np)
    mark_first_call("run_experiment")
    mark_first_call("collect_ensemble")

    def run_calls():
        for call in spec["calls"]:
            if call[0] == "cli":
                code = cli.main(call[1])
                if code != 0:
                    return code
            else:
                # the exact twin as `qdgm run --baseline` builds it
                _, seed, iterations, csv_path = call
                cfg = ExperimentConfig(seed=seed, iterations=iterations)
                objective = cli.build_objective_from_config(cfg)
                mixing = cli.lazy_metropolis(cli.build_topology(cfg))
                trace = cli.run_experiment(
                    objective, mixing, iterations=iterations, seed=seed,
                    bits=cfg.bits, quantized=False)
                trace.to_csv(csv_path)
        return 0

    if tracer is not None:
        run_calls = tracer.wrapper(run_calls, "bench.entry")
    code = run_calls()
    t_end = time.monotonic_ns()
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.save(exec_dir / "spans.npz")
    (exec_dir / "timing.json").write_text(json.dumps({
        "first_call_ns": first_call[0] if first_call else None,
        "end_ns": t_end, "maxrss_kb": maxrss_kb}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
