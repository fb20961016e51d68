"""Flat text experiment configuration.

The format is ``key = value`` with dotted section prefixes, ``#``
comments, and blank lines; see README for the full key reference.  Parsed
configs are validated eagerly with field-path error messages and carry a
content fingerprint for provenance.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field, fields, replace

METHOD_CHOICES = ("lmt", "naive_lmt", "local_dsgd", "led", "kgt", "pdsgdm", "scaffold")
SCHEDULE_CHOICES = ("explicit", "figure1", "theorem1", "theorem2")
OBJECTIVE_CHOICES = ("logistic_l2", "logistic_nonconvex", "quadratic_pl")
TOPOLOGY_CHOICES = ("ring", "complete", "file")
SWEEP_AXES = ("Q", "n", "method")
INIT_CHOICES = ("zeros", "gauss")
FORMAT_CHOICES = ("libsvm", "csv")


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the field path."""


def _key(key: str, default):
    """A config field read from the dotted ``key``."""
    return field(default=default, metadata={"key": key})


def parse_config_text(text: str, origin: str = "<config>") -> dict[str, str]:
    """Parse ``key = value`` lines into a flat mapping."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.split("#", 1)[0].strip()
        if not key or not value:
            raise ConfigError(f"{origin}:{lineno}: empty key or value")
        if key in out:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (all paths resolved)."""

    # topology
    topology_kind: str = _key("topology.kind", "ring")
    n: int = _key("topology.n", 0)
    topology_path: str | None = _key("topology.path", None)
    # objective
    objective_kind: str = _key("objective.kind", "quadratic_pl")
    data_source: str | None = _key("objective.data", None)  # "synthetic" or a path
    data_format: str | None = _key("objective.format", None)  # None = by extension
    synthetic_samples: int = _key("objective.synthetic.samples", 1000)
    synthetic_features: int = _key("objective.synthetic.features", 20)
    synthetic_seed: int = _key("objective.synthetic.seed", 0)
    rho: float = _key("objective.rho", 0.2)
    omega: float = _key("objective.omega", 0.05)
    batch: int | None = _key("objective.batch", 1)  # None = deterministic full batch
    quad_dim: int = _key("objective.dim", 10)
    quad_mu: float = _key("objective.mu", 0.1)
    quad_l: float = _key("objective.L", 1.0)
    quad_sigma: float = _key("objective.sigma", 0.0)
    quad_seed: int = _key("objective.seed", 0)
    quad_center: bool = _key("objective.center", False)
    # method and schedule
    method: str = _key("method", "lmt")
    schedule: str = _key("schedule", "explicit")
    Q: int = _key("hyper.Q", 1)
    eta_a: float | None = _key("hyper.eta_a", None)
    eta_s: float | None = _key("hyper.eta_s", None)
    beta: float | None = _key("hyper.beta", None)  # None = consensus rate rho_w
    delta_f: float | None = _key("schedule.delta_f", None)  # theorem1 input
    # run
    T: int = _key("run.T", 100)
    trials: int = _key("run.trials", 10)
    seed: int = _key("run.seed", 0)
    init: str = _key("run.init", "zeros")
    init_scale: float = _key("run.init_scale", 1.0)
    outdir: str | None = _key("output.dir", None)

    @classmethod
    def from_mapping(cls, mapping: dict[str, str],
                     base_dir: str = ".") -> "ExperimentConfig":
        values: dict[str, object] = {}
        for key, raw in mapping.items():
            if key not in KEYS:
                raise ConfigError(f"{key}: unknown configuration key")
            values[KEYS[key]] = parse_value(KEYS[key], raw)
        cfg = cls(**values)
        cfg = cfg._resolve_paths(base_dir)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            mapping = parse_config_text(fh.read(), origin=path)
        return cls.from_mapping(mapping, base_dir=os.path.dirname(os.path.abspath(path)))

    def _resolve_paths(self, base_dir: str) -> "ExperimentConfig":
        updates = {}
        if self.topology_path and not os.path.isabs(self.topology_path):
            updates["topology_path"] = os.path.join(base_dir, self.topology_path)
        if (self.data_source and self.data_source != "synthetic"
                and not os.path.isabs(self.data_source)):
            updates["data_source"] = os.path.join(base_dir, self.data_source)
        return replace(self, **updates) if updates else self

    def validate(self) -> None:
        if self.topology_kind not in TOPOLOGY_CHOICES:
            raise ConfigError(f"topology.kind: expected one of {TOPOLOGY_CHOICES}, "
                              f"got {self.topology_kind!r}")
        if self.topology_kind == "file":
            if not self.topology_path:
                raise ConfigError("topology.path: required for topology.kind = file")
            if not os.path.exists(self.topology_path):
                raise ConfigError(f"topology.path: file not found: {self.topology_path}")
            if self.n:
                raise ConfigError(f"topology.n: the file of topology.kind = file sets "
                                  f"the agent count, got {self.n}")
        elif self.n < (least := 3 if self.topology_kind == "ring" else 1):
            raise ConfigError(f"topology.n: a {self.topology_kind} topology needs "
                              f"at least {least} agents, got {self.n}")
        if self.objective_kind not in OBJECTIVE_CHOICES:
            raise ConfigError(f"objective.kind: expected one of {OBJECTIVE_CHOICES}, "
                              f"got {self.objective_kind!r}")
        if self.objective_kind.startswith("logistic"):
            if not self.data_source:
                raise ConfigError("objective.data: required for logistic objectives "
                                  "(path or 'synthetic')")
            if self.data_source != "synthetic" and not os.path.exists(self.data_source):
                raise ConfigError(f"objective.data: file not found: {self.data_source}")
            if self.data_source == "synthetic" and self.synthetic_samples < self.n:
                raise ConfigError(f"objective.synthetic.samples: cannot split "
                                  f"{self.synthetic_samples} samples among {self.n} agents")
        if self.data_format is not None and self.data_format not in FORMAT_CHOICES:
            raise ConfigError(f"objective.format: expected one of {FORMAT_CHOICES}, "
                              f"got {self.data_format!r}")
        if self.method not in METHOD_CHOICES:
            raise ConfigError(f"method: expected one of {METHOD_CHOICES}, "
                              f"got {self.method!r}")
        if self.schedule not in SCHEDULE_CHOICES:
            raise ConfigError(f"schedule: expected one of {SCHEDULE_CHOICES}, "
                              f"got {self.schedule!r}")
        if self.schedule == "explicit" and (self.eta_a is None or self.eta_s is None):
            raise ConfigError("hyper.eta_a / hyper.eta_s: required for "
                              "schedule = explicit")
        if self.init not in INIT_CHOICES:
            raise ConfigError(f"run.init: expected one of {INIT_CHOICES}, got {self.init!r}")
        if self.Q < 1:
            raise ConfigError(f"hyper.Q: must be >= 1, got {self.Q}")
        if self.T < 1:
            raise ConfigError(f"run.T: must be >= 1, got {self.T}")
        if self.trials < 1:
            raise ConfigError(f"run.trials: must be >= 1, got {self.trials}")
        if self.beta is not None and not 0.0 <= self.beta < 1.0:
            raise ConfigError(f"hyper.beta: must lie in [0, 1), got {self.beta}")

    def canonical_items(self) -> list[tuple[str, str]]:
        return sorted((f.metadata["key"], repr(getattr(self, f.name)))
                      for f in fields(self) if f.name != "outdir")

    def fingerprint(self) -> str:
        text = "\n".join(f"{k} = {v}" for k, v in self.canonical_items())
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: every accepted key and the attribute it sets
KEYS = {f.metadata["key"]: f.name for f in fields(ExperimentConfig)}


def parse_value(attr: str, raw: str):
    """The value of field ``attr`` written as ``raw``; errors name its key."""
    spec = ExperimentConfig.__dataclass_fields__[attr]
    try:
        if attr == "batch":
            return None if raw.lower() == "full" else _positive_int(raw)
        if attr == "quad_center":
            if raw.lower() in ("true", "yes", "1"):
                return True
            if raw.lower() in ("false", "no", "0"):
                return False
            raise ValueError(f"expected a boolean, got {raw!r}")
        if spec.type == "int":
            return int(raw)
        if spec.type in ("float", "float | None"):
            value = float(raw)
            if not math.isfinite(value):
                raise ValueError(f"expected a finite number, got {raw!r}")
            return value
        return raw
    except ValueError as exc:
        raise ConfigError(f"{spec.metadata['key']}: {exc}")


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise ValueError(f"expected a positive integer, got {value}")
    return value
