"""Sweep points run side by side: each point's outputs equal its run alone,
the points share their draws, and a failing point leaves nothing behind."""

import dataclasses
import os
import re
import threading
import warnings

import numpy as np
import pytest

from lmtsim import baselines, blas, harness, lmt, streams
from lmtsim.config import METHOD_CHOICES, ExperimentConfig, parse_config_text
from lmtsim.harness import build_mixing, build_oracle, resolve_hyperparams, run_experiment, \
    run_sweep
from lmtsim.streams import TrialStreams

from test_harness import DIVERGING_TRIALS_CFG, LOGISTIC_CFG, QUAD_CFG, _GapRaisesAtRound2, \
    _RaisesInRound2


def config(text, **overrides):
    return dataclasses.replace(ExperimentConfig.from_mapping(parse_config_text(text)),
                               **overrides)


# beta = 0 lies below rho_w, so lmt, naive_lmt and pdsgdm points each warn
SETUPS = {
    "quadratic": (lambda: config(QUAD_CFG, beta=0.0, T=12), None),
    "logistic_worker": (lambda: config(LOGISTIC_CFG.format(batch=1), beta=0.0), {0, 1}),
    "logistic_inline": (lambda: config(LOGISTIC_CFG.format(batch=1), beta=0.0), {0}),
}
AXES = {"Q": [1, 2, 3], "n": [4, 5], "method": list(METHOD_CHOICES)}


def solo_points(cfg, axis, values):
    """``(label, config)`` of each point, as ``run_sweep`` makes it: a Q
    point rescales the local step of the base config's resolved schedule."""
    if axis == "Q":
        mix = build_mixing(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            base = resolve_hyperparams(cfg, build_oracle(cfg, mix.n), mix)
    for value in values:
        point = dataclasses.replace(cfg, **{axis: value})
        if axis == "Q":
            point = dataclasses.replace(point, schedule="explicit",
                                        eta_a=base.eta_hat / (base.eta_s * value),
                                        eta_s=base.eta_s, beta=base.beta)
        yield (value if axis == "method" else f"{axis}={value}"), point


@pytest.mark.parametrize("axis", list(AXES))
@pytest.mark.parametrize("setup", list(SETUPS))
def test_every_sweep_point_writes_what_it_writes_alone(setup, axis, tmp_path, monkeypatch,
                                                       capsys):
    make, cpus = SETUPS[setup]
    if cpus is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    cfg = make()
    values = AXES[axis]
    # shown once per place within a record, as by default: each point still
    # records the warning of the point before it
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("default")
        tables, _ = run_sweep(dataclasses.replace(cfg, outdir=str(tmp_path / "sweep")),
                              axis, values)
        progress = capsys.readouterr().err.splitlines()
        warned = 0
        for k, (label, point) in enumerate(solo_points(cfg, axis, values)):
            name = f"point_{axis}_{label.replace('=', '')}"
            alone = run_experiment(dataclasses.replace(point, outdir=str(tmp_path / name)),
                                   label=label)
            assert tables[k].label == alone.label == label
            assert tables[k].diverged_at == alone.diverged_at
            for out in ("trace.csv", "meta.txt"):
                assert ((tmp_path / "sweep" / name / out).read_bytes()
                        == (tmp_path / name / out).read_bytes()), (name, out)
            warned += "warnings = 1" in (tmp_path / name / "meta.txt").read_text()
            assert re.fullmatch(rf"sweep {re.escape(label)}: point {k + 1}/{len(values)} "
                                rf"done in \d+\.\d\d s", progress[k]), progress[k]
    assert len(progress) == len(values)
    # the warnings path is exercised: lmt points warn, led points do not
    assert 0 < warned <= len(values)
    if setup == "logistic_worker":
        meta = (tmp_path / "sweep" / name / "meta.txt").read_text().splitlines()
        assert "gap_thread = worker" in meta


def test_a_warning_a_round_raises_is_listed_by_its_point_only(tmp_path, monkeypatch):
    lmt_round = lmt.lmt_round

    def warning(state, oracle, mix, hp, rounds_streams):
        if hp.Q == 2 and state["t"] == 3:
            warnings.warn("round 3 of Q = 2")
        return lmt_round(state, oracle, mix, hp, rounds_streams)

    monkeypatch.setattr(lmt, "lmt_round", warning)
    cfg = config(QUAD_CFG, T=6)
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("default")
        run_sweep(dataclasses.replace(cfg, outdir=str(tmp_path / "sweep")), "Q", [1, 2, 4])
        for label, point in solo_points(cfg, "Q", [1, 2, 4]):
            name = f"point_Q_{label.replace('=', '')}"
            run_experiment(dataclasses.replace(point, outdir=str(tmp_path / name)))
            meta = (tmp_path / name / "meta.txt").read_text()
            assert (tmp_path / "sweep" / name / "meta.txt").read_text() == meta
            assert ("warning_1 = round 3 of Q = 2" in meta) == (label == "Q=2")


def test_a_point_that_diverges_stops_alone_while_the_others_run_on(monkeypatch):
    # alone, local_dsgd stops after round 33, lmt after round 53 and pdsgdm
    # later still
    calls = {}
    lmt_round, baseline_round = lmt.lmt_round, baselines.baseline_round

    def counted_lmt(*args):
        calls["lmt"] = calls.get("lmt", 0) + 1
        return lmt_round(*args)

    def counted_baseline(spec, *args):
        calls[spec.method] = calls.get(spec.method, 0) + 1
        return baseline_round(spec, *args)

    monkeypatch.setattr(lmt, "lmt_round", counted_lmt)
    monkeypatch.setattr(baselines, "baseline_round", counted_baseline)
    cfg = config(DIVERGING_TRIALS_CFG.format(T=60))
    methods = ["local_dsgd", "lmt", "pdsgdm"]
    alone = {}
    for method in methods:
        alone[method] = run_experiment(dataclasses.replace(cfg, method=method))
    solo_calls, calls = calls, {}
    tables, _ = run_sweep(cfg, "method", methods)
    assert calls == solo_calls
    assert calls["lmt"] == 54 and calls["local_dsgd"] < 54 < calls["pdsgdm"]
    for table in tables:
        assert table.diverged_at == alone[table.label].diverged_at is not None
        for name in ("consensus_x", "grad_norm_avg"):
            assert table.columns[name].tobytes() == alone[table.label].columns[name].tobytes()


# ---------------------------------------------------------------------------
# shared draws

def test_a_chunk_serves_every_request_for_as_many_or_fewer_steps(monkeypatch):
    redrawn = []
    gradient = TrialStreams.gradient

    def counted(self, agent, rnd, step, slot=0):
        redrawn.append(step)
        return gradient(self, agent, rnd, step, slot)

    monkeypatch.setattr(TrialStreams, "gradient", counted)
    shared = TrialStreams(1, [0, 3])
    for rnd in range(40):
        for steps in (1, 8, 2, 4):
            for draw, per_site in (("gradient_words", 2), ("gradient_normals", 3)):
                got = getattr(shared, draw)(rnd, steps, 5, per_site)
                alone = getattr(TrialStreams(1, [0, 3]), draw)(rnd, steps, 5, per_site)
                assert got.shape == alone.shape == (steps, 2, 5, per_site)
                assert got.tobytes() == alone.tobytes(), (rnd, steps, draw)
                assert not got.flags.writeable
    # three normals in one block leave one word to spare, so some sites run
    # short and are redrawn while a shared chunk is made, some of them at a
    # step every request is served
    assert min(redrawn) == 0


def _count_philox(monkeypatch):
    calls = []
    philox = streams.philox4x64

    def counted(*args):
        calls.append(args[0].shape)
        return philox(*args)

    monkeypatch.setattr(streams, "philox4x64", counted)
    return calls


def noisy_quad(**overrides):
    # past the first chunk's rounds, so every point asks for a new chunk
    return config(QUAD_CFG, T=100, **overrides)


def test_a_q_sweep_computes_the_draws_of_its_largest_q(monkeypatch):
    # its first chunk is sized for the largest Q, whichever point asks first
    calls = _count_philox(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        (_, point), = solo_points(noisy_quad(), "Q", [8])
        run_experiment(point)
        alone = len(calls)
        for values in ([1, 2, 4, 8], [8, 1, 4, 2]):
            calls.clear()
            run_sweep(noisy_quad(), "Q", values)
            assert 0 < alone == len(calls), values


def test_an_n_sweep_computes_no_more_chunks_than_its_points_alone(monkeypatch):
    calls = _count_philox(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_sweep(noisy_quad(), "n", [4, 6, 9])
        sweep = len(calls)
        calls.clear()
        for n in (4, 6, 9):
            run_experiment(noisy_quad(n=n))
    assert 0 < sweep <= len(calls)


# ---------------------------------------------------------------------------
# failure paths

@pytest.fixture
def caller_state(monkeypatch):
    """Threads, numpy's error state and the OpenBLAS threads of the caller,
    checked unchanged after the test: two BLAS threads where the BLAS is a
    known OpenBLAS, and an error state the rounds never run under."""
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before_blas = blas.threads()
    if before_blas is not None:
        blas.set_threads(2)
    threads = threading.enumerate()
    with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
        errors = np.geterr()
        yield
        assert np.geterr() == errors
    assert threading.enumerate() == threads
    if before_blas is not None:
        assert blas.threads() == 2
        blas.set_threads(before_blas)


@pytest.mark.parametrize("where", ["second_point_round", "gap"])
def test_a_failing_sweep_reraises_and_leaves_the_caller_as_it_was(where, caller_state,
                                                                  monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    if where == "gap":
        build = harness.build_oracle
        monkeypatch.setattr(harness, "build_oracle",
                            lambda cfg, n: _GapRaisesAtRound2(build(cfg, n)))
    else:
        lmt_round = lmt.lmt_round

        def raising(state, oracle, mix, hp, rounds_streams):
            if hp.Q == 2 and state["t"] == 2:
                raise _RaisesInRound2
            return lmt_round(state, oracle, mix, hp, rounds_streams)

        monkeypatch.setattr(lmt, "lmt_round", raising)
    with pytest.raises(_RaisesInRound2), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_sweep(config(LOGISTIC_CFG.format(batch=1)), "Q", [1, 2, 4])


# ---------------------------------------------------------------------------
# where the gap ran

def _affinity_that_drops_to_one_cpu(monkeypatch):
    """``os.sched_getaffinity`` that gives two CPUs once, then one."""
    answers = iter([{0, 1}])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: next(answers, {0}),
                        raising=False)


def test_meta_records_where_the_rounds_ran_the_gap_not_where_it_would_now(tmp_path,
                                                                           monkeypatch):
    _affinity_that_drops_to_one_cpu(monkeypatch)
    threads = []
    lmt_round = lmt.lmt_round

    def watched(*args):
        threads.append(threading.active_count())
        return lmt_round(*args)

    monkeypatch.setattr(lmt, "lmt_round", watched)
    before = threading.active_count()
    run_experiment(dataclasses.replace(config(LOGISTIC_CFG.format(batch=1)),
                                       outdir=str(tmp_path)))
    assert set(threads) == {before + 1}
    assert "gap_thread = worker" in (tmp_path / "meta.txt").read_text().splitlines()


def test_a_group_decides_once_where_its_gap_runs(tmp_path, monkeypatch):
    _affinity_that_drops_to_one_cpu(monkeypatch)
    run_sweep(config(LOGISTIC_CFG.format(batch=1), outdir=str(tmp_path)), "method",
              ["lmt", "led", "kgt"])
    for method in ("lmt", "led", "kgt"):
        meta = (tmp_path / f"point_method_{method}" / "meta.txt").read_text().splitlines()
        assert "gap_thread = worker" in meta, method
