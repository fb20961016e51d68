"""Regenerate traces.json: golden trace digests of every method on every objective.

    python3 tests/golden/make_golden.py

Runs each of the seven methods on each of five objectives at a tiny size
(ring of 5, T=50, 2 trials) and stores, per case,
the SHA-256 of every column of the result table plus float checkpoints at
every tenth of the run, so a mismatch shows where two versions part.
``tests/test_golden.py`` asserts the digests exactly.  Regenerate only for
a declared change of lmtsim's outputs, and say so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "traces.json"

sys.path.insert(0, str(HERE.parents[1] / "src"))
from lmtsim.config import METHOD_CHOICES as METHODS, ExperimentConfig, parse_config_text  # noqa: E402
from lmtsim.harness import run_experiment  # noqa: E402

_COMMON = """
topology.kind = ring
topology.n = 5
schedule = explicit
hyper.Q = 3
hyper.eta_a = 0.1
hyper.eta_s = 0.5
run.T = 50
run.trials = 2
run.seed = 11
run.init = gauss
"""

_LOGISTIC = """
objective.data = synthetic
objective.synthetic.samples = 60
objective.synthetic.features = 5
objective.synthetic.seed = 2
objective.batch = {batch}
"""
_L2 = "objective.kind = logistic_l2\nobjective.rho = 0.2\n"
_NONCONVEX = "objective.kind = logistic_nonconvex\nobjective.omega = 0.05\n"

#: the quadratic draws Gaussian gradient noise and the logistic objectives
#: minibatches of two; the ``_fullbatch`` ones take exact gradients
OBJECTIVES = {
    "quadratic_pl": """
objective.kind = quadratic_pl
objective.dim = 4
objective.mu = 0.2
objective.L = 1.0
objective.sigma = 0.5
objective.seed = 3
""",
    "logistic_l2": _L2 + _LOGISTIC.format(batch=2),
    "logistic_nonconvex": _NONCONVEX + _LOGISTIC.format(batch=2),
    "logistic_l2_fullbatch": _L2 + _LOGISTIC.format(batch="full"),
    "logistic_nonconvex_fullbatch": _NONCONVEX + _LOGISTIC.format(batch="full"),
}

#: rows of every column kept as checkpoints: every tenth of the run
CHECKPOINT_FRACTIONS = np.linspace(0.0, 1.0, 11)


def case_key(method: str, objective: str) -> str:
    return f"{method}/{objective}"


def run_case(method: str, objective: str):
    """Result table of one golden case, computed in memory."""
    text = _COMMON + OBJECTIVES[objective]
    cfg = ExperimentConfig.from_mapping(parse_config_text(text, origin=objective))
    return run_experiment(replace(cfg, method=method))


def digest(table) -> str:
    """SHA-256 over every column of ``table``, by column name; NaNs canonical."""
    h = hashlib.sha256()
    for name in sorted(table.columns):
        col = np.asarray(table.columns[name], dtype="<f8")
        h.update(name.encode() + b"\0")
        h.update(np.where(np.isnan(col), np.nan, col).tobytes())
    return h.hexdigest()


def checkpoint_rows(rounds: int) -> list[int]:
    return sorted(set((CHECKPOINT_FRACTIONS * (rounds - 1)).round().astype(int).tolist()))


def checkpoints(table) -> dict[str, list[float | None]]:
    """Every column except ``t`` at :func:`checkpoint_rows`; NaN as None."""
    rows = checkpoint_rows(table.rounds)
    return {name: [_jsonable(table.columns[name][r]) for r in rows]
            for name in sorted(table.columns) if name != "t"}


def _jsonable(v) -> float | None:
    v = float(v)
    return v if math.isfinite(v) else None


def main() -> int:
    golden = {}
    for objective in OBJECTIVES:
        for method in METHODS:
            key, table = case_key(method, objective), run_case(method, objective)
            golden[key] = {"sha256": digest(table), "rows": checkpoint_rows(table.rounds),
                           "checkpoints": checkpoints(table)}
            print(f"{key}: {golden[key]['sha256']}")
    # one line per case
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(entry, sort_keys=True)}"
        for key, entry in golden.items()) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
