"""Experiment configuration: dataclasses, JSON file loading, flag overrides."""
from __future__ import annotations

import json
import math
import typing
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path

from .diagnostics import ETA_MODES
from .errors import ConfigError


def check_fields(checks) -> None:
    """Raise ConfigError naming the first (name, ok, reason) that is not ok."""
    for name, ok, reason in checks:
        if not ok:
            raise ConfigError(f"invalid field {name}: {reason}")


def _from_dict(cls, raw: dict, prefix: str = ""):
    """Build dataclass ``cls`` from a JSON object, checking each value
    against the field's annotation: an int may stand for a float, a bool
    never for an int, and null only where the annotation allows None."""
    obj, hints = cls(), typing.get_type_hints(cls)
    for key, value in raw.items():
        name, hint = prefix + key, hints.get(key)
        if hint is None:
            raise ConfigError(f"invalid field {name}: unknown field")
        kinds = typing.get_args(hint) or (hint,)
        if is_dataclass(hint):
            if not isinstance(value, dict):
                raise ConfigError(f"invalid field {name}: must be a JSON object")
            value = _from_dict(hint, value, name + ".")
        elif name == "beta_clamp" and value == "off":
            value = None
        elif type(value) not in kinds and not (type(value) is int and float in kinds):
            raise ConfigError(f"invalid field {name}: must be {cls.__annotations__[key]}"
                              f", not {type(value).__name__} {value!r}")
        setattr(obj, key, value)
    return obj


@dataclass
class GraphConfig:
    edge_probability: float = 0.158
    retry_limit: int = 1000
    edges_file: str | None = None


@dataclass
class DataConfig:
    feature_high: float = 0.65
    target_high: float = 0.45


@dataclass
class ExperimentConfig:
    """Fully resolved experiment settings; defaults match the 40-node,
    5-dimensional, 16-bit benchmark configuration."""

    n: int = 40
    d: int = 5
    bits: int = 16
    iterations: int = 1000
    seed: int = 7
    graph: GraphConfig = field(default_factory=GraphConfig)
    data: DataConfig = field(default_factory=DataConfig)
    beta_clamp: float | None = 1.0
    eta_mode: str = "body"
    baseline: bool = False
    replicas: int = 1
    record_stride: int | None = None
    output_dir: str = "out"

    def validate(self) -> None:
        check_fields([
            ("bits", 1 <= self.bits <= 32, "must be in [1, 32]"),
            ("d", self.d >= 1, "must be >= 1"),
            ("n", self.n >= self.d, "must be >= d"),
            ("n", self.n >= 2 or bool(self.graph.edges_file),
             "must be >= 2 unless graph.edges_file is set"),
            ("seed", self.seed >= 0, "must be >= 0"),
            ("eta_mode", self.eta_mode in ETA_MODES,
             "must be " + " or ".join(map(repr, ETA_MODES))),
            ("beta_clamp", self.beta_clamp is None or self.beta_clamp > 0,
             "must be positive or 'off'"),
            ("graph.edge_probability", 0.0 < self.graph.edge_probability <= 1.0,
             "must be in (0, 1]"),
            ("graph.retry_limit", self.graph.retry_limit >= 1, "must be >= 1"),
            ("data.feature_high", 0.0 < self.data.feature_high < math.inf,
             "must be positive and finite"),
            ("data.target_high", 0.0 <= self.data.target_high < math.inf,
             "must be >= 0 and finite"),
        ])

    def to_json_dict(self) -> dict:
        out = asdict(self)
        out["beta_clamp"] = "off" if self.beta_clamp is None else self.beta_clamp
        return out

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2,
                                         sort_keys=True) + "\n")

    from_json_dict = classmethod(_from_dict)


def _merge(raw: dict, overrides: dict) -> None:
    """Set the non-None overrides in ``raw``; a non-object group stays as it is."""
    for key, value in overrides.items():
        if isinstance(value, dict):
            group = raw.setdefault(key, {})
            if isinstance(group, dict):
                _merge(group, value)
        elif value is not None:
            raw[key] = value


def load_config(path: str | None = None, **overrides) -> ExperimentConfig:
    """Load a JSON config file (optional), set the non-None overrides over it
    and validate. Overrides have the file's shape: ``graph={"edges_file": ...}``."""
    try:
        text = "" if path is None else Path(path).read_text().strip()
        raw = json.loads(text) if text else {}
    except (OSError, ValueError) as exc:
        raise ConfigError(f"invalid config file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("invalid field <root>: config must be a JSON object")
    _merge(raw, overrides)
    cfg = ExperimentConfig.from_json_dict(raw)
    cfg.validate()
    return cfg
