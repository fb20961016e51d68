import dataclasses
import math
import os
import platform
import re
import sys
import threading
import warnings

import numpy as np
import pytest
import scipy

from lmtsim import baselines, blas, harness, lmt
from lmtsim import diagnostics as dg
from lmtsim.config import KEYS, METHOD_CHOICES, ConfigError, ExperimentConfig, \
    parse_config_text
from lmtsim.harness import ResultTable, build_oracle, resolve_hyperparams, \
    build_mixing, run_experiment, run_sweep

from helpers import run_point

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

QUAD_CFG = """
topology.kind = ring
topology.n = 6
objective.kind = quadratic_pl
objective.dim = 4
objective.mu = 0.3
objective.L = 1.0
objective.sigma = 0.4
objective.seed = 3
method = lmt
schedule = explicit
hyper.Q = 3
hyper.eta_a = 0.05
hyper.eta_s = 0.1
run.T = 25
run.trials = 2
run.seed = 5
"""


def quad_cfg(**overrides):
    cfg = ExperimentConfig.from_mapping(parse_config_text(QUAD_CFG))
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


# ---------------------------------------------------------------------------
# config parsing and validation

def test_parse_config_text_basics():
    text = "# comment\nfoo.bar = 1\n\nbaz = x  # trailing\n"
    assert parse_config_text(text) == {"foo.bar": "1", "baz": "x"}
    with pytest.raises(ConfigError, match=":2"):
        parse_config_text("a = 1\nnot a pair\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("a = 1\na = 2\n")


def test_unknown_and_invalid_keys():
    with pytest.raises(ConfigError, match="nonsense"):
        ExperimentConfig.from_mapping({"nonsense": "1"})
    with pytest.raises(ConfigError, match="hyper.Q"):
        ExperimentConfig.from_mapping({"hyper.Q": "few"})
    for key, raw in (("hyper.eta_a", "nan"), ("objective.rho", "inf"),
                     ("schedule.delta_f", "-inf")):
        with pytest.raises(ConfigError, match=f"{key}: expected a finite number"):
            ExperimentConfig.from_mapping({key: raw})
    with pytest.raises(ConfigError, match="method"):
        quad_cfg(method="sgd").validate()
    with pytest.raises(ConfigError, match="topology.n"):
        quad_cfg(n=0).validate()
    with pytest.raises(ConfigError, match="eta_a"):
        quad_cfg(eta_a=None).validate()
    with pytest.raises(ConfigError, match="objective.format"):
        quad_cfg(data_format="parquet").validate()
    for dim in (0, -2):
        with pytest.raises(ConfigError, match=f"objective.dim: must be >= 1, got {dim}"):
            quad_cfg(quad_dim=dim).validate()
    logistic = dict(data_source="synthetic", synthetic_samples=40)
    for overrides, message in (
            (dict(quad_mu=0.0), "objective.mu: must be > 0, got 0.0"),
            (dict(quad_mu=-0.5), "objective.mu: must be > 0, got -0.5"),
            (dict(quad_mu=2.0), "objective.L: must be >= objective.mu = 2.0, got 1.0"),
            (dict(quad_l=0.05), "objective.L: must be >= objective.mu = 0.3, got 0.05"),
            (dict(quad_sigma=-1.0), "objective.sigma: must be >= 0, got -1.0"),
            (dict(objective_kind="logistic_l2", rho=-0.1, **logistic),
             "objective.rho: must be >= 0, got -0.1"),
            (dict(objective_kind="logistic_nonconvex", omega=-0.01, **logistic),
             "objective.omega: must be >= 0, got -0.01"),
            (dict(eta_a=-0.1), "hyper.eta_a: must be > 0, got -0.1"),
            (dict(eta_s=0.0), "hyper.eta_s: must be > 0, got 0.0"),
            (dict(schedule="figure1", eta_a=0.0), "hyper.eta_a: must be > 0, got 0.0")):
        with pytest.raises(ConfigError, match=re.escape(message)):
            quad_cfg(**overrides).validate()
    # a range applies to its own objective only
    quad_cfg(rho=-1.0, omega=-1.0).validate()
    quad_cfg(objective_kind="logistic_l2", quad_mu=0.0, quad_sigma=-1.0, **logistic).validate()


def test_every_declared_range_is_checked_at_load():
    # each field with a range, set just past its bound under the objective
    # the range applies to, is rejected naming its key
    base = parse_config_text(QUAD_CFG)
    logistic = {"objective.data": "synthetic", "objective.synthetic.samples": "40"}
    walked = set()
    for f in dataclasses.fields(ExperimentConfig):
        check, key = f.metadata, f.metadata["key"]
        if "choices" in check:
            bad = "nonsense"
        elif "least" in check:
            bad = check["least"] - 1 if f.type.startswith("int") else \
                np.nextafter(float(check["least"]), -np.inf)
        elif "above" in check:
            bad = float(check["above"])
        else:
            continue
        kind = check.get("only", "quadratic_pl")
        mapping = {**base, "objective.kind": kind,
                   **(logistic if kind != "quadratic_pl" else {}), key: str(bad)}
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_mapping(mapping)
        assert str(err.value).startswith(f"{key}: "), (key, str(err.value))
        walked.add(key)
    assert {"schedule.delta_f", "objective.synthetic.features",
            "objective.synthetic.samples", "hyper.Q", "objective.mu"} <= walked


def test_batch_checked_against_the_smallest_synthetic_shard():
    mapping = {**parse_config_text(QUAD_CFG), "topology.n": "4",
               "objective.kind": "logistic_l2", "objective.data": "synthetic",
               "objective.synthetic.samples": "42"}
    assert ExperimentConfig.from_mapping({**mapping, "objective.batch": "10"}).batch == 10
    with pytest.raises(ConfigError, match="objective.batch: .*10 samples, got 11"):
        ExperimentConfig.from_mapping({**mapping, "objective.batch": "11"})


def test_referenced_files_checked_at_load():
    with pytest.raises(ConfigError, match="not found"):
        ExperimentConfig.from_mapping({
            "topology.kind": "file", "topology.path": "missing.csv"})
    with pytest.raises(ConfigError, match="not found"):
        ExperimentConfig.from_mapping({
            "topology.kind": "ring", "topology.n": "4",
            "objective.kind": "logistic_l2", "objective.data": "missing.libsvm",
            "hyper.eta_a": "0.1", "hyper.eta_s": "0.1"})


def test_batch_full_keyword():
    cfg = ExperimentConfig.from_mapping({
        "topology.kind": "ring", "topology.n": "4",
        "objective.kind": "quadratic_pl", "objective.batch": "full",
        "hyper.eta_a": "0.1", "hyper.eta_s": "0.1"})
    assert cfg.batch is None


def test_fingerprint_changes_with_every_field():
    base = quad_cfg()
    seen = {base.fingerprint()}
    mutations = dict(n=8, objective_kind="logistic_nonconvex", rho=0.5,
                     omega=0.01, batch=None, quad_dim=5, quad_mu=0.2,
                     quad_sigma=0.1, quad_seed=4, quad_center=True,
                     method="led", schedule="figure1", Q=4, eta_a=0.01,
                     eta_s=0.2, beta=0.3, delta_f=2.0, T=30, trials=3,
                     seed=6, init="gauss", init_scale=0.5,
                     synthetic_samples=99, synthetic_features=9,
                     synthetic_seed=1, data_source="synthetic",
                     topology_kind="complete")
    for field, value in mutations.items():
        fp = dataclasses.replace(base, **{field: value}).fingerprint()
        assert fp not in seen, field
        seen.add(fp)


def test_shipped_config_fingerprint_and_keys():
    # pins every key, default and repr the fingerprint reads
    cfg = ExperimentConfig.from_file(os.path.join(ROOT, "configs", "figure1_ring50.cfg"))
    assert cfg.fingerprint() == ("2fde4e3b23771aa5e86d107f7a2d2c50"
                                 "46589ac818a6769f899e76e2ba38fdee")
    keys = [key for key, _ in cfg.canonical_items()] + ["output.dir"]
    assert sorted(keys) == sorted(KEYS)


def test_fingerprint_ignores_outdir():
    a = quad_cfg(outdir=None).fingerprint()
    b = quad_cfg(outdir="/tmp/x").fingerprint()
    assert a == b


# ---------------------------------------------------------------------------
# schedule resolution

def test_figure1_schedule_values():
    cfg = quad_cfg(schedule="figure1", Q=10, n=50)
    mix = build_mixing(cfg)
    oracle = build_oracle(cfg, mix.n)
    hp = resolve_hyperparams(cfg, oracle, mix)
    assert hp.eta_a == pytest.approx(0.025, abs=1e-15)
    assert hp.eta_s == pytest.approx(0.1, abs=1e-15)
    assert hp.beta == pytest.approx(mix.rho_w, abs=1e-15)
    assert hp.eta_w == pytest.approx(mix.eta_w, abs=1e-15)


def test_theorem_schedules_resolve():
    cfg = quad_cfg(schedule="theorem1", delta_f=1.0, beta=0.0)
    mix = build_mixing(cfg)
    oracle = build_oracle(cfg, mix.n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        hp = resolve_hyperparams(cfg, oracle, mix)
    assert hp.eta_hat < 1e-3

    cfg2 = quad_cfg(schedule="theorem2")
    oracle2 = build_oracle(cfg2, mix.n)
    hp2 = resolve_hyperparams(cfg2, oracle2, mix)
    assert hp2.eta_a == pytest.approx(1.0 / (cfg2.Q * oracle2.mu * cfg2.T), rel=1e-12)

    # ridge logistic regression: theorem1 takes delta_f from the solved optimum
    ridge = quad_cfg(objective_kind="logistic_l2", data_source="synthetic",
                     synthetic_samples=60, synthetic_features=3, schedule="theorem1")
    oracle3 = build_oracle(ridge, mix.n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        hp3 = resolve_hyperparams(ridge, oracle3, mix)
        expected = lmt.theorem1_stepsizes(
            L=oracle3.L, sigma=oracle3.sigma, n=mix.n, Q=ridge.Q, T=ridge.T,
            delta_f=oracle3.global_value(np.zeros(oracle3.dim)) - oracle3.f_star,
            beta=mix.rho_w, eta_w=mix.eta_w)
    assert hp3 == expected

    # theorem2 takes the modulus from the oracle only, never from objective.mu
    # (0.3 here), so objectives without one are rejected
    for no_modulus in (dict(objective_kind="logistic_nonconvex"), dict(rho=0.0)):
        cfg3 = dataclasses.replace(ridge, schedule="theorem2", **no_modulus)
        with pytest.raises(ConfigError, match="schedule"):
            resolve_hyperparams(cfg3, build_oracle(cfg3, mix.n), mix)


# ---------------------------------------------------------------------------
# experiments

def test_single_trial_deterministic_std_zero(tmp_path):
    cfg = quad_cfg(quad_sigma=0.0, trials=1, outdir=str(tmp_path / "o"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = run_experiment(cfg)
    assert np.all(table.columns["grad_norm_avg_std"] == 0.0)
    assert np.all(table.columns["opt_gap_mean_std"] == 0.0)
    assert table.rounds == cfg.T


def test_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_experiment(quad_cfg(outdir=str(out1)))
        run_experiment(quad_cfg(outdir=str(out2)))
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    meta = (out1 / "meta.txt").read_text()
    assert "fingerprint = " in meta and "lyapunov_note = surrogate" in meta


# criterion 6's set-up: theorem1 with noise breaks the eta_s cap, and
# beta = 0 lies below rho_w
SPEEDUP_CFG = """
topology.kind = ring
topology.n = 10
objective.kind = quadratic_pl
objective.dim = 10
objective.mu = 1.0
objective.L = 1.0
objective.sigma = 1.0
objective.seed = 21
objective.center = true
method = lmt
schedule = theorem1
schedule.delta_f = 1.0
hyper.Q = 2
hyper.beta = 0.0
run.T = 5
run.trials = 2
run.seed = 99
"""


def test_meta_records_each_warning_and_the_caller_still_gets_it_once(tmp_path):
    cfg = dataclasses.replace(ExperimentConfig.from_mapping(parse_config_text(SPEEDUP_CFG)),
                              outdir=str(tmp_path / "warned"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_experiment(cfg)
    messages = [str(w.message) for w in caught]
    assert len(messages) == 2
    assert "eta_s" in messages[0] and "momentum" in messages[1]
    assert all(w.category is UserWarning for w in caught)
    meta = dict(line.split(" = ", 1) for line in
                (tmp_path / "warned" / "meta.txt").read_text().splitlines())
    assert meta["warnings"] == "2"
    assert [meta["warning_1"], meta["warning_2"]] == messages
    assert "warning_3" not in meta
    # a quiet run records none, and recording changes no trace byte
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_experiment(dataclasses.replace(cfg, schedule="explicit", eta_a=0.05, eta_s=0.1,
                                           beta=None, outdir=str(tmp_path / "quiet")))
    quiet = (tmp_path / "quiet" / "meta.txt").read_text().splitlines()
    assert "warnings = 0" in quiet and not any(l.startswith("warning_") for l in quiet)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_experiment(dataclasses.replace(cfg, outdir=str(tmp_path / "again")))
    assert ((tmp_path / "again" / "trace.csv").read_bytes()
            == (tmp_path / "warned" / "trace.csv").read_bytes())


def test_a_q_sweep_warns_of_its_base_schedule_once_and_of_each_point_once(tmp_path):
    cfg = dataclasses.replace(ExperimentConfig.from_mapping(parse_config_text(SPEEDUP_CFG)),
                              outdir=str(tmp_path))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_sweep(cfg, "Q", [1, 2, 4])
    messages = [str(w.message) for w in caught]
    # the base schedule's cap warning, then each point's momentum warning: a
    # Q point runs an explicit schedule at the base beta, and only the points
    # check their momentum
    cap, momentum = messages[:2]
    assert "eta_s" in cap and "momentum" in momentum
    assert messages[1:] == [momentum] * 3
    for q in (1, 2, 4):
        meta = dict(line.split(" = ", 1) for line in
                    (tmp_path / f"point_Q_Q{q}" / "meta.txt").read_text().splitlines())
        assert meta["warnings"] == "1" and meta["warning_1"] == momentum, q


def test_meta_records_library_versions_and_simd(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_experiment(quad_cfg(outdir=str(tmp_path)))
    meta = dict(line.split(" = ", 1) for line in
                (tmp_path / "meta.txt").read_text().splitlines())
    build = np.show_config(mode="dicts")
    lib = build["Build Dependencies"]["blas"]
    assert meta["python"] == platform.python_version()
    assert meta["numpy"] == np.__version__
    assert meta["scipy"] == scipy.__version__
    assert meta["blas"] == f"{lib['name']} {lib['version']}"
    assert meta["blas_core"] == blas.corename()
    assert meta["numpy_simd"].split() == build["SIMD Extensions"]["found"]


def test_trace_roundtrip(tmp_path):
    cfg = quad_cfg(outdir=str(tmp_path / "o"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = run_experiment(cfg)
    loaded = ResultTable.from_csv(str(tmp_path / "o" / "trace.csv"))
    # a table holds the same columns in memory as in its trace
    assert set(table.columns) == set(dg.TRACE_COLUMNS)
    for name in dg.TRACE_COLUMNS:
        np.testing.assert_array_equal(loaded.columns[name], table.columns[name])


def test_logistic_experiment_fills_opt_gap():
    cfg = ExperimentConfig.from_mapping(parse_config_text("""
        topology.kind = ring
        topology.n = 5
        objective.kind = logistic_l2
        objective.data = synthetic
        objective.synthetic.samples = 60
        objective.synthetic.features = 6
        objective.synthetic.seed = 2
        objective.batch = 1
        method = lmt
        schedule = figure1
        hyper.Q = 3
        run.T = 20
        run.trials = 2
        run.seed = 3
    """))
    table = run_experiment(cfg)
    assert np.all(np.isfinite(table.columns["opt_gap_mean"]))
    assert np.all(table.columns["opt_gap_mean"] > -1e-12)
    assert np.all(np.isfinite(table.columns["lyapunov_surrogate"]))


def test_nonconvex_objective_has_nan_gap():
    cfg = ExperimentConfig.from_mapping(parse_config_text("""
        topology.kind = ring
        topology.n = 4
        objective.kind = logistic_nonconvex
        objective.data = synthetic
        objective.synthetic.samples = 40
        objective.synthetic.features = 5
        method = lmt
        schedule = figure1
        hyper.Q = 2
        run.T = 10
        run.trials = 1
        run.seed = 1
    """))
    table = run_experiment(cfg)
    assert np.all(np.isnan(table.columns["opt_gap_mean"]))
    assert np.all(np.isnan(table.columns["lyapunov_surrogate"]))
    assert np.all(np.isfinite(table.columns["grad_norm_avg"]))


def test_baseline_run_has_nan_tracking_metrics():
    cfg = quad_cfg(method="led")
    table = run_experiment(cfg)
    assert np.all(np.isnan(table.columns["consensus_y"]))
    assert np.all(np.isnan(table.columns["z_dev"]))
    assert np.all(np.isfinite(table.columns["opt_gap_mean"]))


@pytest.mark.parametrize("method", METHOD_CHOICES)
def test_rounds_dispatch_through_module_attributes(method, monkeypatch):
    # wrappers put on the module attributes after import (as the
    # benchmark's per-layer timers are) must see every round
    calls = {}
    diagnostics = ("consensus_error", "d_bar_sequence", "lyapunov_surrogate")
    for module, name in ((lmt, "lmt_round"), (lmt, "naive_local_momentum_round"),
                         (baselines, "baseline_round"),
                         *((dg, name) for name in diagnostics)):
        def counting(*args, _inner=getattr(module, name), _name=name, **kwargs):
            calls.setdefault(_name, []).append(args)
            return _inner(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    run_experiment(quad_cfg(method=method, T=3, trials=1))
    name = {"lmt": "lmt_round", "naive_lmt": "naive_local_momentum_round"}.get(
        method, "baseline_round")
    rounds = {key: calls.pop(key) for key in list(calls) if key not in diagnostics}
    assert list(rounds) == [name]
    assert len(rounds[name]) == 3
    if name == "baseline_round":
        assert all(args[0].method == method for args in rounds[name])
    # the metrics call the diagnostics through the module too, so their
    # timers see every round: per round on the quadratic (f_star known)
    per_round = (2, 1, 1) if method in ("lmt", "naive_lmt") else (1, 0, 0)
    assert [len(calls.get(key, ())) for key in diagnostics] == [3 * c for c in per_round]


def test_gauss_init_uses_init_streams():
    cfg = quad_cfg(init="gauss", init_scale=0.1, trials=1)
    t1 = run_experiment(cfg)
    t2 = run_experiment(cfg)
    assert np.array_equal(t1.columns["grad_norm_avg"], t2.columns["grad_norm_avg"])
    t3 = run_experiment(dataclasses.replace(cfg, seed=99))
    assert not np.array_equal(t1.columns["grad_norm_avg"],
                              t3.columns["grad_norm_avg"])
    # nonzero start means nonzero initial consensus error
    assert t1.columns["consensus_x"][0] > 0


# ---------------------------------------------------------------------------
# trials batched on a leading axis

LOGISTIC_CFG = """
topology.kind = ring
topology.n = 5
objective.kind = logistic_l2
objective.data = synthetic
objective.synthetic.samples = 60
objective.synthetic.features = 6
objective.synthetic.seed = 2
objective.batch = {batch}
method = lmt
schedule = figure1
hyper.Q = 2
run.T = 12
run.trials = 3
run.seed = 3
run.init = gauss
"""


def run_trials(cfg, trials):
    """Per-trial metrics and divergence rounds of ``trials`` run as one batch."""
    mix = build_mixing(cfg)
    oracle = build_oracle(cfg, mix.n)
    hp = resolve_hyperparams(cfg, oracle, mix)
    return run_point(cfg, mix, oracle, hp, trials)


def assert_batch_matches_each_trial_alone(cfg, trials):
    batch, diverged = run_trials(cfg, trials)
    for j, trial in enumerate(trials):
        alone, (alone_at,) = run_trials(cfg, [trial])
        assert diverged[j] == alone_at, trial
        for name, rows in alone.items():
            assert batch[name][j].tobytes() == rows[0].tobytes(), (trial, name)
    return diverged


@pytest.mark.parametrize("objective", ["quadratic", "minibatch", "full_batch"])
@pytest.mark.parametrize("method", METHOD_CHOICES)
def test_batched_trials_match_each_trial_run_alone(method, objective):
    if objective == "quadratic":
        cfg = quad_cfg(method=method, init="gauss", T=12, trials=3)
    else:
        batch = 2 if objective == "minibatch" else "full"
        cfg = dataclasses.replace(ExperimentConfig.from_mapping(parse_config_text(
            LOGISTIC_CFG.format(batch=batch))), method=method)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        diverged = assert_batch_matches_each_trial_alone(cfg, [0, 4, 2])
    assert diverged == [None] * 3


# an unstable step from a start far out: the trials overflow at rounds 52
# and 53, so at T = 53 some of them run on to T
DIVERGING_TRIALS_CFG = """
topology.kind = ring
topology.n = 5
objective.kind = quadratic_pl
objective.dim = 4
objective.mu = 0.2
objective.L = 1.0
objective.sigma = 0.5
objective.seed = 3
method = lmt
schedule = explicit
hyper.eta_a = 50
hyper.eta_s = 1
hyper.Q = 1
run.T = {T}
run.trials = 6
run.seed = 11
run.init = gauss
run.init_scale = 1e100
"""


@pytest.mark.parametrize("T", [53, 60])
def test_diverging_trials_keep_their_own_round(T):
    cfg = ExperimentConfig.from_mapping(parse_config_text(DIVERGING_TRIALS_CFG.format(T=T)))
    diverged = assert_batch_matches_each_trial_alone(cfg, list(range(6)))
    assert len(set(diverged)) == 2
    per_trial, _ = run_trials(cfg, list(range(6)))
    for j, at in enumerate(diverged):
        rows = per_trial["consensus_x"][j]
        if at is None:
            assert np.isfinite(rows).all()
        else:
            assert np.isfinite(rows[:at]).all() and np.isnan(rows[at:]).all()
    if T == 53:
        assert None in diverged
    table = run_experiment(cfg)
    assert table.diverged_at == min(at for at in diverged if at is not None)


@pytest.mark.parametrize("T", [60, 200])
def test_run_stops_after_the_round_the_last_trial_diverged_in(T, monkeypatch):
    # the trials diverge at rounds 52 and 53, so rounds 0 to 53 run
    calls = []
    lmt_round = lmt.lmt_round

    def counted(*args):
        calls.append(args)
        return lmt_round(*args)

    monkeypatch.setattr(lmt, "lmt_round", counted)
    cfg = ExperimentConfig.from_mapping(parse_config_text(DIVERGING_TRIALS_CFG.format(T=T)))
    run_experiment(cfg)
    assert len(calls) == 54


class _InfGradientsAtRound:
    """Delegates to ``oracle``, but every local-step gradient of round
    ``bad_round`` is inf."""

    def __init__(self, oracle, bad_round):
        self._oracle, self._bad_round, self._round = oracle, bad_round, None

    def __getattr__(self, name):
        return getattr(self._oracle, name)

    def draw(self, streams, t, Q):
        self._round = t
        return self._oracle.draw(streams, t, Q)

    def stochastic_gradient_matrix(self, X, draws_step):
        G = self._oracle.stochastic_gradient_matrix(X, draws_step)
        return np.full_like(G, np.inf) if self._round == self._bad_round else G


@pytest.mark.parametrize("bad_round, T", [(4, 12), (11, 12)])
def test_iterates_that_turn_non_finite_diverge_at_the_next_round(bad_round, T, monkeypatch):
    # the bad round starts from finite iterates, so its metrics are finite;
    # only the iterates it returns are not, and the next round is the first
    # to go, even when the bad round is the last one
    build = harness.build_oracle
    monkeypatch.setattr(harness, "build_oracle",
                        lambda cfg, n: _InfGradientsAtRound(build(cfg, n), bad_round))
    table = run_experiment(quad_cfg(method="local_dsgd", T=T))
    at = bad_round + 1
    assert table.diverged_at == at
    for name in ("consensus_x", "grad_norm_avg", "opt_gap_mean"):
        assert np.isfinite(table.columns[name][:at]).all(), name
        assert np.isnan(table.columns[name][at:]).all(), name


# ---------------------------------------------------------------------------
# the worker thread of the logistic opt gap

def logistic_cfg():
    return ExperimentConfig.from_mapping(parse_config_text(LOGISTIC_CFG.format(batch=1)))


@pytest.mark.parametrize("objective, cpus, workers", [
    ("logistic", None, 1), ("logistic", {0}, 0), ("quadratic", None, 0)])
def test_only_a_logistic_gap_with_a_second_cpu_gets_a_worker(objective, cpus, workers,
                                                            monkeypatch):
    if cpus is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    elif (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
          else os.cpu_count()) < 2:
        workers = 0
    threads = []
    lmt_round = lmt.lmt_round

    def watched(*args):
        threads.append(threading.active_count())
        return lmt_round(*args)

    monkeypatch.setattr(lmt, "lmt_round", watched)
    before = threading.enumerate()
    run_experiment(logistic_cfg() if objective == "logistic" else quad_cfg())
    assert threading.enumerate() == before
    assert set(threads) == {len(before) + workers}


def assert_the_worker_gives_the_bits_of_the_inline_path(cfg, rounds, monkeypatch):
    calls = []
    lmt_round = lmt.lmt_round

    def counted(*args):
        calls.append(args)
        return lmt_round(*args)

    monkeypatch.setattr(lmt, "lmt_round", counted)
    # a short switch interval interleaves the two threads as finely as it can
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        offloaded = run_experiment(cfg)
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) == rounds
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    inline = run_experiment(cfg)
    assert offloaded.diverged_at == inline.diverged_at
    for name in dg.TRACE_COLUMNS:
        assert offloaded.columns[name].tobytes() == inline.columns[name].tobytes(), name


def test_the_worker_gives_the_bits_of_the_inline_path(monkeypatch):
    assert_the_worker_gives_the_bits_of_the_inline_path(logistic_cfg(), 12, monkeypatch)


def test_a_run_that_stops_early_drops_its_queued_gap_and_gives_the_inline_bits(
        monkeypatch):
    # a step so long that all three trials diverge in round 38 of 60, so the
    # run stops with the gap of round 39 queued on the worker
    cfg = dataclasses.replace(logistic_cfg(), schedule="explicit", eta_a=1e3,
                              eta_s=1.0, T=60)
    assert_the_worker_gives_the_bits_of_the_inline_path(cfg, 39, monkeypatch)


def test_meta_records_where_the_gap_ran_and_the_trace_does_not_change(tmp_path,
                                                                       monkeypatch):
    runs = {"worker": (logistic_cfg(), {0, 1}), "inline": (logistic_cfg(), {0}),
            "quadratic": (quad_cfg(), {0, 1})}
    meta, trace = {}, {}
    for name, (cfg, cpus) in runs.items():
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        run_experiment(dataclasses.replace(cfg, outdir=str(tmp_path / name)))
        meta[name] = (tmp_path / name / "meta.txt").read_text().splitlines()
        trace[name] = (tmp_path / name / "trace.csv").read_bytes()
    for name, where in [("worker", "worker"), ("inline", "inline"),
                        ("quadratic", "inline")]:
        assert f"gap_thread = {where}" in meta[name], name
    assert ([line for line in meta["worker"] if not line.startswith("gap_thread")]
            == [line for line in meta["inline"] if not line.startswith("gap_thread")])
    assert trace["worker"] == trace["inline"]


class _RaisesInRound2(Exception):
    pass


class _GapRaisesAtRound2:
    """Delegates to ``oracle``, but its gap at the iterates of round 2 raises."""

    def __init__(self, oracle):
        self._oracle, self._calls = oracle, 0

    def __getattr__(self, name):
        return getattr(self._oracle, name)

    def opt_gap(self, X):
        # two gaps a round: at the iterates, then at the auxiliary point
        self._calls += 1
        if self._calls == 5:
            raise _RaisesInRound2
        return self._oracle.opt_gap(X)


@pytest.mark.parametrize("where", ["round", "gap"])
def test_an_exception_in_round_2_reaches_the_caller_and_no_thread_outlives_the_run(
        where, monkeypatch):
    lmt_round = lmt.lmt_round

    def raising(state, *args):
        if state["t"] == 2:
            raise _RaisesInRound2
        return lmt_round(state, *args)

    if where == "round":
        monkeypatch.setattr(lmt, "lmt_round", raising)
    else:
        build = harness.build_oracle
        monkeypatch.setattr(harness, "build_oracle",
                            lambda cfg, n: _GapRaisesAtRound2(build(cfg, n)))
    before = threading.enumerate()
    with pytest.raises(_RaisesInRound2):
        run_experiment(logistic_cfg())
    assert threading.enumerate() == before


# ---------------------------------------------------------------------------
# the run's BLAS threads

needs_openblas = pytest.mark.skipif(blas.threads() is None,
                                    reason="numpy's BLAS is not a known OpenBLAS")


@pytest.fixture
def two_blas_threads(monkeypatch):
    """The caller runs two OpenBLAS threads and the environment sets none."""
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = blas.threads()
    blas.set_threads(2)
    yield
    blas.set_threads(before)


def _watch_blas_threads(monkeypatch, raise_at=None):
    """The OpenBLAS thread count at each round of ``lmt``, which raises in
    round ``raise_at``."""
    seen = []
    lmt_round = lmt.lmt_round

    def watched(state, *args):
        seen.append(blas.threads())
        if state["t"] == raise_at:
            raise _RaisesInRound2
        return lmt_round(state, *args)

    monkeypatch.setattr(lmt, "lmt_round", watched)
    return seen


@needs_openblas
def test_a_run_takes_one_blas_thread_and_gives_the_callers_back(two_blas_threads,
                                                                 monkeypatch, tmp_path):
    seen = _watch_blas_threads(monkeypatch)
    run_experiment(dataclasses.replace(logistic_cfg(), outdir=str(tmp_path)))
    assert set(seen) == {1} and blas.threads() == 2
    assert "blas_threads = 1" in (tmp_path / "meta.txt").read_text().splitlines()


@needs_openblas
def test_a_run_that_raises_gives_the_callers_blas_threads_back(two_blas_threads,
                                                                monkeypatch):
    seen = _watch_blas_threads(monkeypatch, raise_at=2)
    with pytest.raises(_RaisesInRound2):
        run_experiment(logistic_cfg())
    assert set(seen) == {1} and blas.threads() == 2


@needs_openblas
def test_a_run_keeps_the_blas_threads_the_environment_sets(two_blas_threads,
                                                           monkeypatch, tmp_path):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    seen = _watch_blas_threads(monkeypatch)
    run_experiment(dataclasses.replace(logistic_cfg(), outdir=str(tmp_path)))
    assert set(seen) == {2} and blas.threads() == 2
    assert "blas_threads = 2" in (tmp_path / "meta.txt").read_text().splitlines()


@needs_openblas
@pytest.mark.parametrize("axis, values", [("Q", [1, 2]), ("method", ["lmt", "led"])])
def test_a_sweep_solves_f_star_at_one_blas_thread_and_gives_the_callers_back(
        two_blas_threads, monkeypatch, axis, values):
    seen = []
    solve_f_star = dg.solve_f_star

    def watched(oracle):
        seen.append(blas.threads())
        return solve_f_star(oracle)

    monkeypatch.setattr(dg, "solve_f_star", watched)
    run_sweep(dataclasses.replace(logistic_cfg(), T=3), axis, values)
    assert seen == [1] and blas.threads() == 2


def test_an_unknown_blas_is_left_alone_and_recorded_as_unknown(monkeypatch, tmp_path):
    monkeypatch.setattr(blas, "_symbols", lambda: None)
    assert blas.threads() is None and blas.corename() == "unknown"
    run_experiment(dataclasses.replace(quad_cfg(), outdir=str(tmp_path)))
    meta = (tmp_path / "meta.txt").read_text().splitlines()
    assert "blas_threads = unknown" in meta and "blas_core = unknown" in meta


# ---------------------------------------------------------------------------
# sweeps

def test_sweep_singleton_matches_run(tmp_path):
    cfg = quad_cfg()
    tables, summary = run_sweep(cfg, "method", ["lmt"])
    single = run_experiment(cfg)
    assert summary["rows"][0]["final_grad_norm_avg"] == pytest.approx(
        single.final_window("grad_norm_avg"))


def test_sweep_q_preserves_eta_hat(tmp_path):
    cfg = quad_cfg(outdir=str(tmp_path / "sweep"))
    tables, summary = run_sweep(cfg, "Q", [1, 2, 4])
    assert "loglog_slope_grad_norm_avg" in summary
    assert len(tables) == 3
    summary_file = (tmp_path / "sweep" / "summary.csv").read_text()
    assert "loglog_slope_grad_norm_avg" in summary_file
    for q in (1, 2, 4):
        meta = (tmp_path / "sweep" / f"point_Q_Q{q}" / "meta.txt").read_text()
        fields = dict(line.split(" = ", 1) for line in meta.splitlines())
        assert float(fields["eta_hat"]) == pytest.approx(0.05 * 0.1 * 3, rel=1e-12)
        assert int(fields["Q"]) == q


def test_sweep_prints_one_progress_line_per_point(tmp_path, capsys):
    cfg = quad_cfg(T=15, trials=1, outdir=str(tmp_path / "sweep"))
    run_sweep(cfg, "method", ["lmt", "led", "kgt"])
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 3
    for index, (line, label) in enumerate(zip(lines, ["lmt", "led", "kgt"]), start=1):
        assert re.fullmatch(rf"sweep {label}: point {index}/3 done in \d+\.\d\d s", line), line
    # the progress goes to stderr only: a point writes the trace of its run
    run_experiment(dataclasses.replace(cfg, outdir=str(tmp_path / "run")))
    assert ((tmp_path / "sweep" / "point_method_lmt" / "trace.csv").read_bytes()
            == (tmp_path / "run" / "trace.csv").read_bytes())


def test_sweep_method_axis():
    cfg = quad_cfg(T=15, trials=1)
    tables, summary = run_sweep(cfg, "method", ["lmt", "led", "scaffold"])
    labels = [t.label for t in tables]
    assert labels == ["lmt", "led", "scaffold"]
    for row in summary["rows"]:
        assert math.isfinite(row["final_opt_gap_mean"])


def test_sweep_rejects_bad_axis():
    with pytest.raises(ConfigError):
        run_sweep(quad_cfg(), "gamma", [1])
    with pytest.raises(ConfigError):
        run_sweep(quad_cfg(), "Q", [])
