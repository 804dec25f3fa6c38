"""Distributed gradient descent under growing-range stochastic quantization.

A desk-scale simulator for a network of agents minimizing a decomposable
least-squares objective by interleaving doubly stochastic averaging of
quantized iterates with local gradient steps, plus the diagnostics needed
to verify its convergence behavior.
"""

__version__ = "0.1.0"

from .algorithm import run_experiment, run_round
from .config import ExperimentConfig, load_config
from .diagnostics import Trace, TraceRecord, gamma_k, lyapunov_value, rate_bound
from .graph import (MixingMatrix, NetworkTopology, generate_random_connected_graph,
                    lazy_metropolis, spectral_gap)
from .objective import RegressionObjective, generate_instance, well_conditioned_instance
from .quantizer import decode_matrix, pack_index_rows, quantize_matrix, unpack_indices
from .schedules import Schedule

__all__ = [
    "ExperimentConfig", "MixingMatrix", "NetworkTopology", "RegressionObjective",
    "Schedule", "Trace", "TraceRecord", "decode_matrix", "gamma_k",
    "generate_instance", "generate_random_connected_graph", "lazy_metropolis",
    "load_config", "lyapunov_value", "pack_index_rows", "quantize_matrix",
    "rate_bound", "run_experiment", "run_round", "spectral_gap", "unpack_indices",
    "well_conditioned_instance",
]
