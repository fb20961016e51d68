"""Self-check of the benchmark at tiny sizes: every metric BENCHMARK.json
names is emitted with its unit, and the program is left unpatched."""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import lmtbench  # noqa: E402
from lmtsim import harness, lmt, streams  # noqa: E402
from spans import Patches  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(lmtbench.WORKLOADS)
    assert {(m["name"], m["unit"]) for m in SPEC["end_to_end"]} == set(lmtbench.END_TO_END)
    layer = {(m, u) for m, _, _, u in lmtbench.LAYER_METRICS} | set(lmtbench.TRACE_METRICS)
    assert {(m["name"], m["unit"]) for m in SPEC["per_layer"]} == layer


@pytest.mark.parametrize("workload", list(lmtbench.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload):
    originals = (harness.run_sweep, lmt.lmt_round, streams.TrialStreams.gradient)
    seed = lmtbench.WORKLOADS[workload].default_seed
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result, detail = lmtbench.run(workload, seed, 0.0, trace, size_name="tiny")
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        # tiny sizes are too small for the workload properties, nothing else fails
        assert all("property failed" in f for f in detail["failures"]), detail["failures"]
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
        json.dumps(result, allow_nan=False)
    assert (harness.run_sweep, lmt.lmt_round, streams.TrialStreams.gradient) == originals


def test_every_hook_wraps_a_callable():
    hooks = [(m, t) for m, t, _ in lmtbench.PHASE_HOOKS]
    hooks += [(m, t) for m, t, _, _ in lmtbench.SPAN_HOOKS]
    with Patches() as patches:
        gone = [f"{m}.{t}" for m, t in hooks if not patches.wrap(m, t, lambda fn: fn)]
    assert gone == []
