"""Differential fuzz: every point of a sweep writes what it writes alone.

Each example is a config of ``test_config_fuzz.configs`` crossed with a
sweep: distinct Q values in any order, a subset of the methods, or
distinct agent counts.  For every config that runs, each point's
``trace.csv`` and ``meta.txt`` equal the bytes ``run_experiment`` writes for
the point's solo config (``test_sweep_groups.solo_points``), every column
of a written trace reads back bit for bit, and ``lmtsim run`` writes what
``run_experiment`` writes.  Only files are compared: the progress lines of a
sweep differ from a run's by design.
"""

import contextlib
import dataclasses
import io
import os
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from lmtsim import cli
from lmtsim.config import METHOD_CHOICES, ExperimentConfig
from lmtsim.harness import ResultTable, run_experiment, run_sweep

from test_config_fuzz import BUDGET_S, _write_inputs, configs
from test_sweep_groups import solo_points

EXAMPLES = 80

sweeps = st.one_of(
    st.tuples(st.just("Q"), st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True)),
    st.tuples(st.just("method"),
              st.lists(st.sampled_from(METHOD_CHOICES), min_size=1, max_size=4, unique=True)),
    st.tuples(st.just("n"), st.lists(st.integers(2, 6), min_size=1, max_size=3, unique=True)),
)


def _outputs(folder: Path) -> dict:
    return {name: (folder / name).read_bytes() for name in ("trace.csv", "meta.txt")}


def _bits(values):
    """The bytes of ``values``, every NaN as ``float("nan")``: a trace writes
    each NaN as ``nan``, whatever its sign bit."""
    return np.where(np.isnan(values), np.nan, values).tobytes()


def _check(tmp: Path, base: dict, drawn: dict, axis: str, values: list) -> bool:
    """Run one example in the directory ``tmp``; False if its config does
    not run, where ``lmtsim run`` would exit 2."""
    _write_inputs(tmp)
    path = str(tmp / "exp.cfg")
    text = "".join(f"{key} = {value}\n" for key, value in {**base, **drawn}.items())
    (tmp / "exp.cfg").write_text(text)
    try:
        cfg = ExperimentConfig.from_file(path)
        solo = run_experiment(dataclasses.replace(cfg, outdir=str(tmp / "solo")))
        tables, _ = run_sweep(dataclasses.replace(cfg, outdir=str(tmp / "sweep")), axis,
                              values)
    except cli._CONFIG_ERRORS:
        return False
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", path, "--out", str(tmp / "cli")]) in (0, 3), text
    assert _outputs(tmp / "cli") == _outputs(tmp / "solo"), text
    read = ResultTable.from_csv(str(tmp / "solo" / "trace.csv"))
    assert read.columns.keys() == solo.columns.keys()
    for name, column in solo.columns.items():
        assert _bits(read.columns[name]) == _bits(column), (name, text)
    for table, (label, point) in zip(tables, solo_points(cfg, axis, values), strict=True):
        name = f"point_{axis}_{label.replace('=', '')}"
        alone = run_experiment(dataclasses.replace(point, outdir=str(tmp / name)), label=label)
        assert (table.label, table.diverged_at) == (alone.label, alone.diverged_at), text
        assert _outputs(tmp / "sweep" / name) == _outputs(tmp / name), (name, text)
    return True


def test_every_sweep_point_writes_what_it_writes_alone():
    ran = []

    @settings(derandomize=True, max_examples=EXAMPLES, deadline=None, database=None)
    @given(configs, sweeps)
    def example(config, sweep):
        cwd = os.getcwd()
        started = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True), \
                contextlib.redirect_stderr(io.StringIO()):
            # shown once per place within a record, as by default, so each
            # meta.txt lists the warnings its run raised
            warnings.simplefilter("default", UserWarning)
            # output.dir is relative to the working directory
            os.chdir(tmp)
            try:
                ran.append(_check(Path(tmp), *config, *sweep))
            finally:
                os.chdir(cwd)
        assert time.perf_counter() - started < BUDGET_S, (config, sweep)

    example()
    # most configs of the fuzz run: the sweeps are not all skipped
    assert len(ran) == EXAMPLES and sum(ran) > EXAMPLES // 4, sum(ran)
