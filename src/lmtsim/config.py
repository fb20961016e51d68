"""Flat text experiment configuration.

The format is ``key = value`` with dotted section prefixes, ``#``
comments, and blank lines; see README for the full key reference.  Parsed
configs are validated eagerly with field-path error messages and carry a
content fingerprint for provenance.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, fields, replace

METHOD_CHOICES = ("lmt", "naive_lmt", "local_dsgd", "led", "kgt", "pdsgdm", "scaffold")
SCHEDULE_CHOICES = ("explicit", "figure1", "theorem1", "theorem2")
OBJECTIVE_CHOICES = ("logistic_l2", "logistic_nonconvex", "quadratic_pl")
TOPOLOGY_CHOICES = ("ring", "complete", "file")
INIT_CHOICES = ("zeros", "gauss")
FORMAT_CHOICES = ("libsvm", "csv")


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the field path."""


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
    topology_kind: str = "ring"
    n: int = 0
    topology_path: str | None = None
    # objective
    objective_kind: str = "quadratic_pl"
    data_source: str | None = None          # "synthetic" or a file path
    data_format: str | None = None          # "libsvm" | "csv" | None (by extension)
    synthetic_samples: int = 1000
    synthetic_features: int = 20
    synthetic_seed: int = 0
    rho: float = 0.2
    omega: float = 0.05
    batch: int | None = 1                   # None = deterministic full batch
    quad_dim: int = 10
    quad_mu: float = 0.1
    quad_l: float = 1.0
    quad_sigma: float = 0.0
    quad_seed: int = 0
    quad_center: bool = False
    # method and schedule
    method: str = "lmt"
    schedule: str = "explicit"
    Q: int = 1
    eta_a: float | None = None
    eta_s: float | None = None
    beta: float | None = None               # None = use consensus rate rho_w
    delta_f: float | None = None            # theorem1 input
    # run
    T: int = 100
    trials: int = 10
    seed: int = 0
    init: str = "zeros"
    init_scale: float = 1.0
    outdir: str | None = None

    _KEYMAP = {
        "topology.kind": "topology_kind",
        "topology.n": "n",
        "topology.path": "topology_path",
        "objective.kind": "objective_kind",
        "objective.data": "data_source",
        "objective.format": "data_format",
        "objective.synthetic.samples": "synthetic_samples",
        "objective.synthetic.features": "synthetic_features",
        "objective.synthetic.seed": "synthetic_seed",
        "objective.rho": "rho",
        "objective.omega": "omega",
        "objective.batch": "batch",
        "objective.dim": "quad_dim",
        "objective.mu": "quad_mu",
        "objective.L": "quad_l",
        "objective.sigma": "quad_sigma",
        "objective.seed": "quad_seed",
        "objective.center": "quad_center",
        "method": "method",
        "schedule": "schedule",
        "schedule.delta_f": "delta_f",
        "hyper.Q": "Q",
        "hyper.eta_a": "eta_a",
        "hyper.eta_s": "eta_s",
        "hyper.beta": "beta",
        "run.T": "T",
        "run.trials": "trials",
        "run.seed": "seed",
        "run.init": "init",
        "run.init_scale": "init_scale",
        "output.dir": "outdir",
    }

    @classmethod
    def from_mapping(cls, mapping: dict[str, str],
                     base_dir: str = ".") -> "ExperimentConfig":
        values: dict[str, object] = {}
        for key, raw in mapping.items():
            if key not in cls._KEYMAP:
                raise ConfigError(f"{key}: unknown configuration key")
            attr = cls._KEYMAP[key]
            values[attr] = _convert(key, attr, raw)
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
        inverse = {attr: key for key, attr in self._KEYMAP.items()}
        items = []
        for f in fields(self):
            if f.name.startswith("_") or f.name == "outdir":
                continue
            items.append((inverse[f.name], repr(getattr(self, f.name))))
        return sorted(items)

    def fingerprint(self) -> str:
        text = "\n".join(f"{k} = {v}" for k, v in self.canonical_items())
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _convert(key: str, attr: str, raw: str):
    kind = ExperimentConfig.__dataclass_fields__[attr].type
    try:
        if attr == "batch":
            return None if raw.lower() == "full" else _positive_int(raw)
        if attr == "quad_center":
            if raw.lower() in ("true", "yes", "1"):
                return True
            if raw.lower() in ("false", "no", "0"):
                return False
            raise ValueError(f"expected a boolean, got {raw!r}")
        if kind == "int":
            return int(raw)
        if kind == "float" or kind == "float | None":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}")


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise ValueError(f"expected a positive integer, got {value}")
    return value
