"""Exception types shared across the package.

The CLI maps each type to a process exit code in one table,
``qdgm.cli.EXIT_CODES``.
"""


class GraphSamplingError(RuntimeError):
    """Raised when no connected graph is found within the retry budget."""


class MixingError(ValueError):
    """Raised for mixing matrices with no usable spectral gap."""


class QuantizationSupportError(RuntimeError):
    """A decoded value lies farther from its input than one bin width plus
    the clamp band; the quantizer broke its support bound."""


class GradientBoundError(RuntimeError):
    """An iterate escaped the growing quantization range.

    This means the certified per-agent gradient bound C was too small for
    the trajectory actually realized, so the shared range schedule no
    longer covers the iterates.
    """


class NonFiniteIterateError(RuntimeError):
    """An agent iterate became NaN or infinite."""


class DegenerateInstanceError(RuntimeError):
    """Sampled regression data is rank-deficient (no strong convexity)."""


class ConfigError(ValueError):
    """Invalid experiment configuration field."""
