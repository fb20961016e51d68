import numpy as np
import pytest

from lmtsim.config import ExperimentConfig, parse_config_text
from lmtsim.diagnostics import TRACE_COLUMNS
from lmtsim.harness import ResultTable, run_sweep
from lmtsim.plotting import emit_plot


def make_table(label, values, std=None):
    T = len(values)
    columns = {
        "t": np.arange(T, dtype=float),
        "consensus_x": np.array(values),
        "consensus_y": np.full(T, np.nan),
        "grad_norm_avg": np.array(values),
        "grad_norm_avg_std": np.array(std if std is not None else np.zeros(T)),
        "opt_gap_mean": np.array(values),
        "opt_gap_mean_std": np.zeros(T),
        "z_dev": np.full(T, np.nan),
        "lyapunov_surrogate": np.full(T, np.nan),
        "d_bar_drift": np.zeros(T),
    }
    return ResultTable(label=label, columns=columns)


def test_single_table_single_polyline(tmp_path):
    path = tmp_path / "p.svg"
    emit_plot([make_table("a", [1.0, 0.1, 0.01])], "grad_norm_avg", str(path))
    svg = path.read_text()
    assert svg.count("<polyline") == 1
    assert svg.startswith("<svg")
    assert "grad_norm_avg" in svg


def test_band_and_legend(tmp_path):
    path = tmp_path / "p.svg"
    emit_plot([make_table("one", [1.0, 0.5], std=[0.1, 0.05]),
               make_table("two", [2.0, 1.0], std=[0.1, 0.05])],
              "grad_norm_avg", str(path))
    svg = path.read_text()
    assert svg.count("<polyline") == 2
    assert svg.count("<polygon") == 2
    assert "one" in svg and "two" in svg


def test_empty_inputs_and_unknown_metric(tmp_path):
    with pytest.raises(ValueError, match="nothing to plot"):
        emit_plot([], "grad_norm_avg", str(tmp_path / "x.svg"))
    with pytest.raises(ValueError, match="unknown metric"):
        emit_plot([make_table("a", [1.0])], "no_such", str(tmp_path / "x.svg"))
    with pytest.raises(ValueError, match="no positive finite"):
        emit_plot([make_table("a", [np.nan, np.nan])], "grad_norm_avg",
                  str(tmp_path / "x.svg"))


def test_deterministic_bytes(tmp_path):
    tables = [make_table("a", [1.0, 0.1, 0.01]), make_table("a", [1.0, 0.1, 0.01])]
    p1, p2 = tmp_path / "1.svg", tmp_path / "2.svg"
    emit_plot(tables, "opt_gap_mean", str(p1), title="same data twice")
    emit_plot(tables, "opt_gap_mean", str(p2), title="same data twice")
    assert p1.read_bytes() == p2.read_bytes()
    # identical series produce identical polylines (overlapping lines)
    svg = p1.read_text()
    lines = [ln for ln in svg.splitlines() if ln.startswith("<polyline")]
    pts = [ln.split('points="')[1].split('"')[0] for ln in lines]
    assert pts[0] == pts[1]


def test_a_run_plots_the_same_from_memory_and_from_its_trace(tmp_path):
    cfg = ExperimentConfig.from_mapping(parse_config_text(f"""
        topology.kind = ring
        topology.n = 4
        objective.kind = quadratic_pl
        objective.dim = 3
        objective.sigma = 0.2
        schedule = figure1
        hyper.Q = 2
        run.T = 10
        run.trials = 2
        output.dir = {tmp_path / "sweep"}
    """))
    tables, _ = run_sweep(cfg, "method", ["lmt", "naive_lmt"])
    read = [ResultTable.from_csv(str(tmp_path / "sweep" / f"point_method_{t.label}" /
                                     "trace.csv"), label=t.label) for t in tables]
    memory_svg, read_svg = tmp_path / "memory.svg", tmp_path / "read.svg"
    for metric in TRACE_COLUMNS:
        if metric == "t" or metric.endswith("_std"):
            continue
        emit_plot(tables, metric, str(memory_svg))
        emit_plot(read, metric, str(read_svg))
        assert memory_svg.read_bytes() == read_svg.read_bytes(), metric


@pytest.mark.parametrize("std", [1e308, np.inf])
def test_a_band_top_that_overflows_leaves_the_axis_to_the_finite_values(std, tmp_path):
    # 1e308 + 1e308 overflows to inf, whose decade has no integer; an inf
    # std draws no band, so neither top counts toward the axis
    path = tmp_path / "p.svg"
    emit_plot([make_table("a", [1e308, 1.0], std=[std, 0.5])], "grad_norm_avg", str(path))
    svg = path.read_text()
    assert ">1e308</text>" in svg and ">1e309</text>" not in svg
    assert svg.count("<polygon") == (std < np.inf)
