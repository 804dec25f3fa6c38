"""Experiment configuration: dataclasses, JSON file loading, flag overrides."""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import ConfigError


def check_fields(checks) -> None:
    """Raise ConfigError naming the first (name, ok, reason) that is not ok."""
    for name, ok, reason in checks:
        if not ok:
            raise ConfigError(f"invalid field {name}: {reason}")


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
            ("iterations", self.iterations >= 1, "must be >= 1"),
            ("d", self.d >= 1, "must be >= 1"),
            ("n", self.n >= self.d, "must be >= d"),
            ("replicas", self.replicas >= 1, "must be >= 1"),
            ("seed", self.seed >= 0, "must be >= 0"),
            ("eta_mode", self.eta_mode in ("body", "appendix"),
             "must be 'body' or 'appendix'"),
            ("beta_clamp", self.beta_clamp is None or self.beta_clamp > 0,
             "must be positive or 'off'"),
            ("graph.edge_probability", 0.0 < self.graph.edge_probability <= 1.0,
             "must be in (0, 1]"),
            ("graph.retry_limit", self.graph.retry_limit >= 1, "must be >= 1"),
            ("data.feature_high", self.data.feature_high > 0.0, "must be positive"),
            ("data.target_high", self.data.target_high >= 0.0, "must be >= 0"),
            ("record_stride", self.record_stride is None or self.record_stride >= 1,
             "must be >= 1 when set"),
        ])

    def to_json_dict(self) -> dict:
        out = asdict(self)
        out["beta_clamp"] = "off" if self.beta_clamp is None else self.beta_clamp
        return out

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2,
                                         sort_keys=True) + "\n")

    @classmethod
    def from_json_dict(cls, raw: dict) -> "ExperimentConfig":
        cfg = cls()
        for key, value in raw.items():
            if key in ("graph", "data"):
                if not isinstance(value, dict):
                    raise ConfigError(f"invalid field {key}: must be a JSON object")
                group = getattr(cfg, key)
                for sub, sub_value in value.items():
                    if sub not in group.__dataclass_fields__:
                        raise ConfigError(f"invalid field {key}.{sub}: unknown field")
                    setattr(group, sub, sub_value)
            elif key in cfg.__dataclass_fields__:
                setattr(cfg, key, value)
            else:
                raise ConfigError(f"invalid field {key}: unknown field")
        if cfg.beta_clamp == "off":
            cfg.beta_clamp = None
        return cfg


def load_config(path: str | None = None, **overrides) -> ExperimentConfig:
    """Load a JSON config file (optional) and apply non-None flag overrides.

    Override keys use double-underscore paths for the nested groups, e.g.
    ``graph__edge_probability``. The result is validated.
    """
    if path is not None:
        try:
            text = Path(path).read_text().strip()
            raw = json.loads(text) if text else {}
        except (OSError, ValueError) as exc:
            raise ConfigError(f"invalid config file {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("invalid field <root>: config must be a JSON object")
        cfg = ExperimentConfig.from_json_dict(raw)
    else:
        cfg = ExperimentConfig()
    for key, value in overrides.items():
        if value is None:
            continue
        group, _, sub = key.rpartition("__")
        if group:
            setattr(getattr(cfg, group), sub, value)
        elif key == "beta_clamp" and value == "off":
            cfg.beta_clamp = None
        else:
            setattr(cfg, key, value)
    cfg.validate()
    return cfg
