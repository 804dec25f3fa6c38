#!/usr/bin/env python3
"""Run the 40-agent benchmark with and without quantization and emit
gnuplot-ready optimality-gap curves.

    python scripts/convergence_curves.py --iterations 100000 --out-dir curves
    gnuplot> set logscale xy; plot 'curves/quantized.dat' w l, 'curves/baseline.dat' w l
"""
import argparse
from pathlib import Path

from qdgm.algorithm import run_experiment
from qdgm.config import ExperimentConfig
from qdgm.diagnostics import fit_loglog_slope
from qdgm.graph import generate_random_connected_graph, lazy_metropolis
from qdgm.objective import generate_instance


def write_gnuplot_series(path, ks, values) -> None:
    """Two-column whitespace-separated series, directly plottable."""
    with Path(path).open("w") as fh:
        for k, v in zip(ks, values):
            fh.write(f"{int(k)} {v:.17g}\n")


def main() -> None:
    defaults = ExperimentConfig()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=defaults.n)
    ap.add_argument("--dims", type=int, default=defaults.d)
    ap.add_argument("--bits", type=int, default=defaults.bits)
    ap.add_argument("--iterations", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=defaults.seed)
    ap.add_argument("--edge-probability", type=float,
                    default=defaults.graph.edge_probability)
    ap.add_argument("--out-dir", type=str, default="curves")
    args = ap.parse_args()

    objective = generate_instance(args.n, args.dims, args.seed)
    topology = generate_random_connected_graph(args.n, args.edge_probability,
                                               args.seed)
    mixing = lazy_metropolis(topology)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    for label, quantized in (("quantized", True), ("baseline", False)):
        trace = run_experiment(objective, mixing, iterations=args.iterations,
                               seed=args.seed, bits=args.bits,
                               quantized=quantized)
        ks = trace.column("k")
        gaps = trace.column("f_gap_avg_max")
        mask = ks >= 1
        write_gnuplot_series(out / f"{label}.dat", ks[mask], gaps[mask])
        final = trace.final()
        line = (f"{label:9s}: final f(z)-f* = {final.f_gap_avg_max:.6g} "
                f"at k={final.k}")
        if args.iterations >= 10_000:
            slope = fit_loglog_slope(ks, gaps, args.iterations / 100,
                                     args.iterations)
            line += f", log-log slope over last two decades = {slope:.3f}"
        print(line)
    print(f"curves written to {out}/")


if __name__ == "__main__":
    main()
