"""Command-line entry point.

Subcommands:
  run     execute an experiment (optionally with its unquantized twin)
  verify  Monte Carlo checks of the per-round inequalities + property suite
  bound   tabulate measured gap against the theoretical decay envelope
  graph   emit or inspect an edge-list file

Exit codes: 0 success, 1 verification failure, and for a raised error the
code ``EXIT_CODES`` maps its type to (70 for any type it does not list);
argparse usage errors exit 64.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from pathlib import Path

import numpy as np

from . import __version__, quantizer
from .algorithm import collect_ensemble, record_points, run_experiment
from .config import ExperimentConfig, check_fields, load_config
from .diagnostics import (ETA_MODES, MIN_REPLICAS, Trace, check_consensus_recursion,
                          check_descent_recursion, eta_coupling, rate_bound)
from .errors import (ConfigError, DegenerateInstanceError, GradientBoundError,
                     GraphSamplingError, MixingError)
from .graph import (NetworkTopology, generate_random_connected_graph,
                    lazy_metropolis, load_edge_list, path_topology,
                    save_edge_list, spectral_gap)
from .objective import (RegressionObjective, generate_instance,
                        save_instance_csv, well_conditioned_instance)
from .quantizer import unpack_indices
from .schedules import Schedule

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_GRADIENT_BOUND = 2
EXIT_CONFIG = 64
EXIT_SOFTWARE = 70
EXIT_CODES = {ConfigError: EXIT_CONFIG, GraphSamplingError: EXIT_CONFIG,
              DegenerateInstanceError: EXIT_CONFIG,
              GradientBoundError: EXIT_GRADIENT_BOUND}
PROPERTY_DRAWS = 100_000  # a quantizer property check rounds a tenth as many rows


def _load_graph(path, field: str) -> NetworkTopology:
    """load_edge_list, with an unreadable, malformed or disconnected file
    reported as a ConfigError on ``field``."""
    try:
        return load_edge_list(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"invalid field {field}: cannot load {path}: {exc}") from exc


def _check_writable(path: Path, field: str, *, directory: bool = False) -> None:
    """ConfigError unless ``path`` can be written; a directory is made with its parents."""
    if not directory and path.is_dir():
        raise ConfigError(f"invalid field {field}: {path} is a directory")
    base = next(p for p in (path, *path.parents) if p.exists()) if directory else path.parent
    if not base.is_dir():
        raise ConfigError(f"invalid field {field}: cannot write {path}: "
                          f"{base} is not an existing directory")


def build_topology(cfg: ExperimentConfig) -> NetworkTopology:
    if cfg.graph.edges_file:
        topo = _load_graph(cfg.graph.edges_file, "graph.edges_file")
        if topo.n != cfg.n:
            raise ConfigError(
                f"invalid field n: the edge file {cfg.graph.edges_file} has "
                f"{topo.n} nodes, the configuration has n = {cfg.n}")
        return topo
    return generate_random_connected_graph(
        cfg.n, cfg.graph.edge_probability, cfg.seed, cfg.graph.retry_limit)


def build_objective_from_config(cfg: ExperimentConfig) -> RegressionObjective:
    return generate_instance(cfg.n, cfg.d, cfg.seed,
                             cfg.data.feature_high, cfg.data.target_high)


def _instance(cfg: ExperimentConfig, last: int):
    """A run's graph, objective, mixing and Schedule. Each V_k up to round ``last`` is finite
    if eta (alpha_0 / beta_0) 8 n d range(last)^2 is: alpha_k / beta_k is largest at k = 0
    and ||Y_k||^2 <= 4 n d range(last)^2 (1 + CLAMP_BAND)^2; a clamp >= 1 keeps beta_0 >= 1."""
    topo = build_topology(cfg)
    objective = build_objective_from_config(cfg)
    mixing = lazy_metropolis(topo)
    schedule = Schedule.of(objective, spectral_gap(mixing), cfg.bits, cfg.beta_clamp)
    # range(last) = C (4 / mu) H_last <= C (4 / mu) (1 + ln last), with no alpha table
    top = objective.grad_bound * (4.0 / objective.mu) * (1.0 + math.log(last))
    weight = eta_coupling(objective.mu, objective.lipschitz, schedule.spectral_gap,
                          cfg.eta_mode) * (schedule.alpha(0) / float(schedule.beta(0)))
    if not math.isfinite(weight * 8.0 * objective.n * objective.dims * top * top):
        check_fields([("beta_clamp", (cfg.beta_clamp or 1.0) >= 1.0,
                       "makes the Lyapunov value infinite")])
        raise DegenerateInstanceError("degenerate instance: C / mu makes V_k infinite")
    return topo, objective, mixing, schedule


def _write_trace(path: Path, cfg: ExperimentConfig, objective: RegressionObjective,
                 mixing, **kwargs) -> Trace:
    """Run one replica and write its trace, or the partial trace on failure."""
    try:
        trace = run_experiment(
            objective, mixing, iterations=cfg.iterations, seed=cfg.seed,
            bits=cfg.bits, beta_clamp=cfg.beta_clamp, eta_mode=cfg.eta_mode,
            record_at=record_points(cfg.iterations, cfg.record_stride), **kwargs)
    except Exception as exc:
        if hasattr(exc, "partial_trace"):
            exc.partial_trace.to_csv(path)
        raise
    trace.to_csv(path)
    return trace


def cmd_run(cfg: ExperimentConfig) -> int:
    check_fields([  # the fields only run reads; load_config checks only their types
        ("iterations", cfg.iterations >= 1, "must be >= 1"),
        ("replicas", cfg.replicas >= 1, "must be >= 1"),
        ("record_stride", cfg.record_stride is None or cfg.record_stride >= 1,
         "must be >= 1 when set"),
    ])
    out_dir = Path(cfg.output_dir)
    _check_writable(out_dir, "output_dir", directory=True)
    topo, objective, mixing, _ = _instance(cfg, cfg.iterations)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg.save(out_dir / "config.json")
    save_edge_list(topo, out_dir / "graph.edges")
    save_instance_csv(objective, out_dir / "instance.csv")
    names = (["trace.csv"] if cfg.replicas == 1 else
             [f"trace_r{rep}.csv" for rep in range(cfg.replicas)])
    finals = [_write_trace(out_dir / name, cfg, objective, mixing,
                           quantized=True, replica=rep).final()
              for rep, name in enumerate(names)]
    line = (f"final f_gap (k={finals[0].k}): last={finals[0].f_gap_last:.6g} "
            f"avg_max={finals[0].f_gap_avg_max:.6g}")
    if cfg.baseline:
        baseline = _write_trace(out_dir / "baseline_trace.csv", cfg, objective,
                                mixing, quantized=False)
        line += f" baseline_avg_max={baseline.final().f_gap_avg_max:.6g}"
    print(line)
    return EXIT_OK


def quantizer_property_checks(seed: int) -> list[dict]:
    """Spot checks of the rounding rule: exact support bound, unbiasedness,
    variance bound, and the wire contract (packed indices unpack to the
    same indices and decode to the same values bit for bit)."""
    rng = np.random.default_rng(seed)
    checks = []
    for bits, dims in [(1, 3), (6, 2), (16, 5)]:
        grid = Schedule(4.0, 4.0, 1.0, dims, 1, bits, 0.5).grid(3)
        rangek, delta = grid.range, grid.delta
        x = rng.uniform(-rangek, rangek, size=dims)
        block = np.repeat(x[None, :], PROPERTY_DRAWS // 10, axis=0)
        indices = quantizer.quantize_matrix(block, grid, rng)
        decoded = quantizer.decode_matrix(indices, grid)
        err = decoded - block
        support_ok = bool(np.abs(err).max() <= delta)
        se = delta / (2.0 * np.sqrt(len(block)))
        mean_ok = bool(np.abs(err.mean(axis=0)).max() <= 3.0 * se)
        var_ok = bool((err ** 2).mean() <= delta ** 2 / 4.0 + 3.0 * se * delta)
        received = np.array([unpack_indices(payload, bits, dims)
                             for payload in quantizer.pack_index_rows(indices[:100], bits)])
        roundtrip_ok = (np.array_equal(received, indices[:100]) and np.array_equal(
            quantizer.decode_matrix(received, grid), decoded[:100]))
        checks.append({"name": f"quantizer_b{bits}_d{dims}",
                       "passed": support_ok and mean_ok and var_ok and roundtrip_ok,
                       "detail": {"support": support_ok, "mean": mean_ok,
                                  "variance": var_ok, "roundtrip": roundtrip_ok}})
    return checks


def cmd_verify(n: int, d: int, rounds: int, replicas: int, bits: int,
               seed: int) -> int:
    """Run the inequality Monte Carlo and the property suite; JSON to stdout."""
    check_fields([
        ("dims", d >= 1, "must be >= 1"),
        ("n", n >= d, "must be >= dims"),
        ("rounds", rounds >= 1, "must be >= 1"),
        ("replicas", replicas >= MIN_REPLICAS, f"must be >= {MIN_REPLICAS}"),
        ("bits", 1 <= bits <= 32, "must be in [1, 32]"),
        ("seed", seed >= 0, "must be >= 0"),
    ])
    objective = well_conditioned_instance(n, d)
    topo = path_topology(n)
    mixing = lazy_metropolis(topo)
    try:
        mixing.validate(topo)
        mixing_check = {"passed": True, "detail": {"sigma2": mixing.sigma2}}
    except MixingError as exc:
        mixing_check = {"passed": False, "detail": str(exc)}
    checks = [{"name": "mixing_matrix", **mixing_check}]
    checks.extend(quantizer_property_checks(seed))
    ens = collect_ensemble(objective, mixing, iterations=rounds, seed=seed,
                           bits=bits, replicas=replicas)
    checks += [check_consensus_recursion(ens), check_descent_recursion(ens)]
    passed = all(c["passed"] for c in checks)
    print(json.dumps({"passed": passed, "checks": checks}, indent=2))
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def cmd_bound(cfg: ExperimentConfig, horizons: list[int]) -> int:
    """CSV of (T, measured_gap, theoretical_bound, ratio) on a fresh run recording 1 and T."""
    print("T,measured_gap,theoretical_bound,ratio")
    if not horizons:
        return EXIT_OK
    if min(horizons) < 1:
        raise ConfigError("invalid field T: horizons must be >= 1")
    horizons = sorted(set(horizons))
    _, objective, mixing, schedule = _instance(cfg, max(horizons))
    trace = run_experiment(
        objective, mixing, iterations=max(horizons), seed=cfg.seed, bits=cfg.bits,
        beta_clamp=cfg.beta_clamp, eta_mode=cfg.eta_mode, record_at={1, *horizons})
    by_k = {rec.k: rec for rec in trace.records}
    for horizon in horizons:
        measured = by_k[horizon].f_gap_avg_max
        bound = rate_bound(schedule, horizon, by_k[1].lyapunov)
        print(f"{horizon},{measured:.17g},{bound:.17g},{measured / bound:.17g}")
    return EXIT_OK


def cmd_graph(args) -> int:
    if args.load:
        topo = _load_graph(args.load, "load")
        mixing = lazy_metropolis(topo)
        print(f"n={topo.n} m={topo.edge_count} sigma2={mixing.sigma2:.12g} "
              f"spectral_gap={spectral_gap(mixing):.12g}")
        return EXIT_OK
    check_fields([
        ("n", args.n >= 2, "must be >= 2"),
        ("edge_probability", 0.0 < args.edge_probability <= 1.0, "must be in (0, 1]"),
        ("retry_limit", args.retry_limit >= 1, "must be >= 1"),
        ("seed", args.seed >= 0, "must be >= 0"),
    ])
    _check_writable(Path(args.out), "out")
    topo = generate_random_connected_graph(args.n, args.edge_probability,
                                           args.seed, args.retry_limit)
    save_edge_list(topo, args.out)
    print(f"wrote {args.out}: n={topo.n} m={topo.edge_count}")
    return EXIT_OK


def _clamp(text: str) -> float | str:
    """--beta-clamp's value: a number, or off as in the config file."""
    try:
        return text if text == "off" else float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number or off, not {text!r}") from None


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    """The flags of the instance and its schedule, which ``run`` and ``bound`` share."""
    sub.add_argument("--config", type=str, default=None, help="JSON config file")
    sub.add_argument("--n", type=int, default=None, help="agent count")
    sub.add_argument("--dims", type=int, default=None, help="problem dimension")
    sub.add_argument("--bits", type=int, default=None, help="bits per dimension")
    sub.add_argument("--seed", type=int, default=None, help="master seed")
    sub.add_argument("--edge-probability", type=float, default=None)
    sub.add_argument("--edges-file", type=str, default=None,
                     help="load the graph from an edge-list file")
    sub.add_argument("--beta-clamp", type=_clamp, default=None,
                     help="clamp of the consensus steps, or off for the raw sequence")
    sub.add_argument("--eta-mode", choices=ETA_MODES, default=None)


def _config_from_args(args, **overrides) -> ExperimentConfig:
    return load_config(
        args.config, n=args.n, d=args.dims, bits=args.bits, seed=args.seed,
        eta_mode=args.eta_mode, beta_clamp=args.beta_clamp,
        graph={"edge_probability": args.edge_probability,
               "edges_file": args.edges_file}, **overrides)


def _horizons(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise ConfigError(f"invalid field T: must be a comma-separated list "
                          f"of integers, not {text!r}") from exc


class _Parser(argparse.ArgumentParser):
    """Usage errors (also of the subparsers) exit 64, like all bad input; a
    subcommand reports an argument it does not know with its own usage."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qdgm",
        description="Distributed gradient descent under growing-range "
                    "stochastic quantization")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    run_p = subs.add_parser("run", help="run an experiment")
    _add_config_flags(run_p)
    run_p.add_argument("--iterations", type=int, default=None, help="round count")
    run_p.add_argument("--output-dir", type=str, default=None)
    run_p.add_argument("--baseline", action="store_true", default=None,
                       help="also run the unquantized twin")
    run_p.add_argument("--replicas", type=int, default=None)
    run_p.add_argument("--record-stride", type=int, default=None)

    verify_p = subs.add_parser("verify", help="Monte Carlo inequality checks")
    verify_p.add_argument("--n", type=int, default=4)
    verify_p.add_argument("--dims", type=int, default=2)
    verify_p.add_argument("--rounds", type=int, default=200)
    verify_p.add_argument("--replicas", type=int, default=500)
    verify_p.add_argument("--bits", type=int, default=6)
    verify_p.add_argument("--seed", type=int, default=7)

    bound_p = subs.add_parser("bound", help="measured gap vs decay envelope")
    _add_config_flags(bound_p)
    bound_p.add_argument("--T", dest="horizons", type=str, default="",
                         help="comma-separated list of horizons")

    defaults = ExperimentConfig()
    graph_p = subs.add_parser("graph", help="emit or inspect an edge list")
    graph_p.add_argument("--n", type=int, default=defaults.n)
    graph_p.add_argument("--edge-probability", type=float,
                         default=defaults.graph.edge_probability)
    graph_p.add_argument("--seed", type=int, default=defaults.seed)
    graph_p.add_argument("--retry-limit", type=int, default=defaults.graph.retry_limit)
    graph_p.add_argument("--out", type=str, default="graph.edges")
    graph_p.add_argument("--load", type=str, default=None,
                         help="print stats for an existing edge-list file")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(_config_from_args(
                args, iterations=args.iterations, output_dir=args.output_dir,
                baseline=args.baseline, replicas=args.replicas,
                record_stride=args.record_stride))
        if args.command == "verify":
            return cmd_verify(args.n, args.dims, args.rounds, args.replicas,
                              args.bits, args.seed)
        if args.command == "bound":
            return cmd_bound(_config_from_args(args), _horizons(args.horizons))
        return cmd_graph(args)
    except Exception as exc:  # noqa: BLE001 - every error leaves through EXIT_CODES
        code = EXIT_CODES.get(type(exc), EXIT_SOFTWARE)
        if code == EXIT_SOFTWARE:
            traceback.print_exc()
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
