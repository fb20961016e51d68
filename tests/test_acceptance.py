"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.  Empirical thresholds (criteria 6, 7, 10) are regression
fixtures tied to the committed seeds below.
"""

import dataclasses
import math
import time
import warnings

import numpy as np
import pytest

import lmtsim
from helpers import dsmt_reference, finite_difference_gradient, local_reference
from lmtsim import baselines as bl
from lmtsim import lmt
from lmtsim import objectives as obj
from lmtsim import topology as tp
from lmtsim.cli import main as cli_main
from lmtsim.config import METHOD_CHOICES, ExperimentConfig, parse_config_text
from lmtsim.harness import run_experiment, run_sweep
from lmtsim.streams import TrialStreams


def _report(num: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{status}] {name}: {detail}")


# ---------------------------------------------------------------------------

def test_criterion_01_spectral_gap_reproduction(capsys):
    t0 = time.monotonic()
    assert cli_main(["spectra", "ring", "100"]) == 0
    out100 = capsys.readouterr().out
    assert cli_main(["spectra", "ring", "50"]) == 0
    out50 = capsys.readouterr().out
    elapsed = time.monotonic() - t0

    gap100 = float(dict(l.split(" = ") for l in out100.strip().splitlines())["spectral_gap"])
    gap50 = float(dict(l.split(" = ") for l in out50.strip().splitlines())["spectral_gap"])
    ok = (6.27e-4 <= gap100 <= 6.93e-4 and 2.47e-3 <= gap50 <= 2.73e-3
          and elapsed < 1.0)
    with capsys.disabled():
        _report(1, "spectral gap reproduction", ok,
                f"ring100 gap={gap100:.4e}, ring50 gap={gap50:.4e}, "
                f"elapsed={elapsed:.2f}s")
    assert 6.27e-4 <= gap100 <= 6.93e-4
    assert 2.47e-3 <= gap50 <= 2.73e-3
    assert elapsed < 1.0


def test_criterion_02_lca_contraction_property():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    violations = 0
    worst = 0.0
    for case in range(100):
        n = int(rng.integers(3, 21))
        p = int(rng.integers(1, 6))
        mix = tp.build_ring_mixing(n) if case % 5 else tp.build_complete_mixing(n)
        A = rng.normal(size=(n, p))
        proj = np.eye(n) - np.ones((n, n)) / n
        pa = proj @ A
        bound0 = float(np.sum(pa * pa))
        big = np.zeros((2 * n, 2 * n))
        big[:n, :n] = (1.0 + mix.eta_w) * mix.weights
        big[:n, n:] = -mix.eta_w * np.eye(n)
        big[n:, :n] = np.eye(n)
        proj2 = np.zeros((2 * n, 2 * n))
        proj2[:n, :n] = proj
        proj2[n:, n:] = proj
        vec = np.vstack([pa, pa])
        for k in range(51):
            projected = proj2 @ vec
            norm2 = float(np.sum(projected * projected))
            limit = 14.0 * mix.rho_w ** (2 * k) * bound0
            if norm2 > limit * (1.0 + 1e-9):
                violations += 1
            if limit > 0:
                worst = max(worst, norm2 / limit)
            vec = big @ vec
    elapsed = time.monotonic() - t0
    ok = violations == 0 and elapsed < 10.0
    _report(2, "accelerated-consensus contraction", ok,
            f"0 expected violations, got {violations}; worst ratio {worst:.3f}; "
            f"elapsed={elapsed:.1f}s")
    assert violations == 0
    assert elapsed < 10.0


def test_criterion_03_round_identities_stochastic_run():
    n, p, Q, T = 20, 8, 5, 200
    data = obj.make_synthetic_classification(400, p, seed=33)
    oracle = obj.LogisticOracle(obj.partition_heterogeneous(data, n), "l2", 0.2, 1)
    mix = lmtsim.build_ring_mixing(n)
    hp = lmt.HyperParams(Q=Q, eta_a=0.25 / Q, eta_s=0.1, beta=mix.rho_w)
    streams = TrialStreams(314, 0)
    st = lmt.init_state("lmt", np.zeros((n, p)))

    worst = 0.0
    x_bars = [st["X"].mean(axis=0)]
    z_bars = [st["Z"].mean(axis=0)]
    r_bars = []
    for t in range(T):
        prev = st
        st = lmt.lmt_round(st, oracle, mix, hp, streams)
        y_mean = st["Y"].mean(axis=0)
        y_l = st["Z"] + prev["C_prev"]
        z_next = st["Z"].mean(axis=0)
        scale_z = 1.0 + float(np.linalg.norm(st["Z"]))
        worst = max(worst, np.abs(y_mean - z_next).max() / scale_z)
        worst = max(worst, np.abs(y_l.mean(axis=0) - y_mean).max() / scale_z)
        scale_x = 1.0 + float(np.linalg.norm(prev["X"]))
        resid = st["X"].mean(axis=0) - (prev["X"].mean(axis=0) - hp.eta_hat * y_mean)
        worst = max(worst, np.abs(resid).max() / scale_x)
        x_bars.append(st["X"].mean(axis=0))
        z_bars.append(st["Z"].mean(axis=0))
        r_bars.append(st["G_avg"].mean(axis=0))

    beta = hp.beta
    d = [x_bars[0]]
    for t in range(1, T + 1):
        d.append((x_bars[t] - beta * x_bars[t - 1]) / (1.0 - beta))
    for t in range(T):
        resid = d[t + 1] - (d[t] - hp.eta_hat * r_bars[t])
        worst = max(worst, np.abs(resid).max() / (1.0 + np.abs(d[t + 1]).max()))
        gap = d[t] - x_bars[t] + hp.eta_hat * beta / (1.0 - beta) * z_bars[t]
        worst = max(worst, np.abs(gap).max() / (1.0 + np.abs(x_bars[t]).max()))

    ok = worst <= 1e-8
    _report(3, "per-round exact identities (200 stochastic rounds)", ok,
            f"worst relative residual {worst:.2e} (tolerance 1e-8)")
    assert worst <= 1e-8


def test_criterion_04_q1_reduction_to_single_step_tracking():
    n, p, T = 12, 6, 100
    mix = lmtsim.build_ring_mixing(n)
    oracle = obj.quadratic_pl_oracle(n=n, p=p, mu_min=0.3, L=1.0, sigma=1.0,
                                     rng_seed=5)
    hp = lmt.HyperParams(Q=1, eta_a=0.02, eta_s=0.1, beta=mix.rho_w)
    streams = TrialStreams(271828, 0)
    st = lmt.init_state("lmt", np.zeros((n, p)))
    for _ in range(T):
        st = lmt.lmt_round(st, oracle, mix, hp, streams)
    X_ref = dsmt_reference(np.zeros((n, p)), mix, hp, oracle, 271828, 0, T)
    err = float(np.abs(st["X"] - X_ref).max())
    ok = err <= 1e-13
    _report(4, "Q=1 reduction to one-step momentum tracking", ok,
            f"max elementwise deviation after {T} rounds: {err:.2e} "
            f"(tolerance 1e-13)")
    assert err <= 1e-13


def test_criterion_05_deterministic_pl_convergence():
    # Horizon-aware PL schedule on a ring of 20 agents, noiseless quadratic.
    # theorem2_stepsizes sets eta_a = 1/(Q mu T), so the composite step
    # eta_hat = eta_a * eta_s * Q gives mu * eta_hat * T = eta_s (~5.5e-3),
    # whatever T is.  For an L-smooth, mu-PL objective a gradient step
    # eta <= 1/L cuts the gap by at least the factor (1 - mu eta) (Karimi,
    # Nutini & Schmidt, ECML-PKDD 2016), so the schedule promises
    # gap_T <= (1 - mu eta_hat)^T gap_0 ~ exp(-eta_s) gap_0 ~ 0.9945 gap_0.
    # It cannot promise a fixed target such as 1e-8: the gap along the
    # flattest direction shrinks by at most ~exp(-2 eta_s) at any T.
    # The envelope is checked at the horizon only; the momentum buffer
    # starts at zero, so the first rounds step less than eta_hat.  The gap
    # must never rise, and tracking must bring the agents to exact
    # consensus (local DSGD at the same step stalls near 5e-6).
    n, p, T = 20, 10, 5000
    t0 = time.monotonic()
    mix = lmtsim.build_ring_mixing(n)
    oracle = obj.quadratic_pl_oracle(n=n, p=p, mu_min=0.1, L=1.0, sigma=0.0,
                                     rng_seed=42)
    hp = lmt.theorem2_stepsizes(mu=0.1, Q=5, T=T, mix=mix)
    st = lmt.init_state("lmt", np.zeros((n, p)))

    gaps = [float(oracle.opt_gap(st["X"]))]
    for _ in range(T):
        st = lmt.lmt_round(st, oracle, mix, hp)
        gaps.append(float(oracle.opt_gap(st["X"])))
    elapsed = time.monotonic() - t0
    gap_0, gap_T = gaps[0], gaps[-1]
    envelope = (1.0 - oracle.mu * hp.eta_hat) ** T
    rises = int(np.count_nonzero(np.diff(gaps) > 0.0))
    cons = lmtsim.consensus_error(st["X"])
    ok = (gap_T <= envelope * gap_0 and rises == 0 and cons <= 1e-10
          and elapsed < 30.0)
    _report(5, "deterministic convergence under the PL schedule", ok,
            f"gap_0={gap_0:.4e}, gap_T={gap_T:.4e}, "
            f"gap_T/gap_0={gap_T / gap_0:.4f} "
            f"(need <= envelope (1-mu*eta_hat)^T={envelope:.4f}), "
            f"rounds where the gap rose={rises} (need 0), "
            f"eta_hat={hp.eta_hat:.3e}, "
            f"consensus_x={cons:.3e} (need <=1e-10), elapsed={elapsed:.1f}s")
    assert elapsed < 30.0
    assert cons <= 1e-10
    assert rises == 0
    assert gap_T <= envelope * gap_0


def test_criterion_06_linear_speedup_in_q():
    t0 = time.monotonic()
    cfg = ExperimentConfig.from_mapping(parse_config_text("""
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
        hyper.Q = 1
        hyper.beta = 0.0
        run.T = 8000
        run.trials = 10
        run.seed = 99
    """))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tables, summary = run_sweep(cfg, "Q", [1, 2, 4, 8])
    elapsed = time.monotonic() - t0
    slope = summary["loglog_slope_grad_norm_avg"]
    finals = {r["value"]: r["final_grad_norm_avg"] for r in summary["rows"]}
    ok = -1.3 <= slope <= -0.7 and elapsed < 300.0
    _report(6, "linear speedup in local steps", ok,
            f"steady-state grad^2 {finals}; log-log slope {slope:.3f} "
            f"(need within [-1.3, -0.7]); elapsed={elapsed:.0f}s")
    assert -1.3 <= slope <= -0.7
    assert elapsed < 300.0


NAIVE_FIXTURE = """
topology.kind = ring
topology.n = 16
objective.kind = quadratic_pl
objective.dim = 10
objective.mu = 0.5
objective.L = 1.0
objective.sigma = 1.0
objective.seed = 11
objective.center = true
method = lmt
schedule = explicit
hyper.Q = 8
hyper.eta_a = 0.025
hyper.eta_s = 0.1
run.T = 1500
run.trials = 10
run.seed = 1234
"""


def test_criterion_07_naive_momentum_negative_control():
    cfg = ExperimentConfig.from_mapping(parse_config_text(NAIVE_FIXTURE))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table_lmt = run_experiment(cfg)
        table_naive = run_experiment(dataclasses.replace(cfg, method="naive_lmt"))
    gap_lmt = table_lmt.final_window("opt_gap_mean")
    gap_naive = table_naive.final_window("opt_gap_mean")
    ratio = gap_naive / gap_lmt
    ok = ratio >= 1.5
    _report(7, "per-step momentum negative control", ok,
            f"steady-state opt_gap_mean: tracking {gap_lmt:.3e}, "
            f"per-step variant {gap_naive:.3e}, ratio {ratio:.2f} (need >=1.5)")
    assert ratio >= 1.5


def test_criterion_08_gradient_correctness():
    rng = np.random.default_rng(400)
    data = obj.make_synthetic_classification(120, 6, seed=12)
    parts = obj.partition_heterogeneous(data, 6)
    oracles = {
        "logistic_l2": obj.LogisticOracle(parts, "l2", 0.2, None),
        "logistic_nonconvex": obj.LogisticOracle(parts, "nonconvex", 0.05, None),
        "quadratic_pl": obj.quadratic_pl_oracle(n=6, p=6, mu_min=0.2, L=1.0,
                                                sigma=0.0, rng_seed=9),
    }
    worst = {}
    for name, oracle in oracles.items():
        reference = local_reference(oracle, None if name == "quadratic_pl" else parts)
        errs = []
        for _ in range(50):
            i = int(rng.integers(0, oracle.n_agents))
            x = rng.normal(size=oracle.dim)
            approx = finite_difference_gradient(lambda y: reference.value(i, y), x)
            exact = oracle.full_gradients_at(x)[i]
            errs.append(np.linalg.norm(approx - exact)
                        / max(np.linalg.norm(exact), 1e-8))
        worst[name] = max(errs)
    ok = all(v <= 1e-5 for v in worst.values())
    detail = ", ".join(f"{k} worst rel err {v:.2e}" for k, v in worst.items())
    _report(8, "finite-difference gradient checks", ok, detail + " (need <=1e-5)")
    for name, v in worst.items():
        assert v <= 1e-5, name


def test_criterion_09_effective_stepsize_parity():
    n, p = 6, 5
    mix = lmtsim.build_ring_mixing(n)
    oracle = obj.quadratic_pl_oracle(n=n, p=p, mu_min=0.2, L=1.0, sigma=0.0,
                                     rng_seed=55)
    x0 = np.random.default_rng(56).normal(size=p)
    X0 = np.tile(x0, (n, 1))
    hp = lmt.HyperParams(Q=1, eta_a=0.25, eta_s=0.1, beta=0.0)
    expected = x0 - hp.eta_hat * oracle.global_gradient(x0)

    errors = {}
    st = lmt.lmt_round(lmt.init_state("lmt", X0), oracle, mix, hp)
    errors["lmt"] = np.abs(st["X"].mean(axis=0) - expected).max()
    for method in (m for m in METHOD_CHOICES if m not in ("lmt", "naive_lmt")):
        spec = bl.BaselineSpec(method=method, hp=hp)
        state = bl.baseline_round(spec, lmt.init_state(method, X0), oracle, mix)
        errors[method] = np.abs(state["X"].mean(axis=0) - expected).max()
    ok = all(v <= 1e-12 for v in errors.values())
    detail = ", ".join(f"{k}={v:.1e}" for k, v in errors.items())
    _report(9, "first-round effective-stepsize parity", ok,
            detail + " (need <=1e-12)")
    for method, v in errors.items():
        assert v <= 1e-12, method


FIGURE1_FIXTURE = """
topology.kind = ring
topology.n = 50
objective.kind = logistic_l2
objective.data = synthetic
objective.synthetic.samples = 2000
objective.synthetic.features = 50
objective.synthetic.seed = 7
objective.rho = 0.2
objective.batch = 1
method = lmt
schedule = figure1
hyper.Q = 10
run.T = 300
run.trials = 10
run.seed = 2024
"""


def test_criterion_10_desk_scale_method_comparison():
    t0 = time.monotonic()
    cfg = ExperimentConfig.from_mapping(parse_config_text(FIGURE1_FIXTURE))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tables, summary = run_sweep(
            cfg, "method", ["lmt", "led", "kgt", "local_dsgd", "pdsgdm",
                            "scaffold"])
    elapsed = time.monotonic() - t0
    finals = {r["value"]: r["final_opt_gap_mean"] for r in summary["rows"]}
    decentralized = ("led", "kgt", "local_dsgd", "pdsgdm")
    ok = all(finals["lmt"] <= finals[m] for m in decentralized) and elapsed < 600
    ranking = ", ".join(f"{m}={finals[m]:.3e}" for m in finals)
    _report(10, "desk-scale method comparison", ok,
            f"final-window opt_gap_mean: {ranking}; elapsed={elapsed:.0f}s")
    for m in decentralized:
        assert finals["lmt"] <= finals[m], m
    assert elapsed < 600


def test_acceptance_metric_running_stationarity_consistency():
    # glue check: the running-stationarity reduction (the whole-run final
    # window) matches the harness column average on a short run
    cfg = ExperimentConfig.from_mapping(parse_config_text("""
        topology.kind = ring
        topology.n = 5
        objective.kind = quadratic_pl
        objective.dim = 4
        objective.mu = 0.3
        objective.L = 1.0
        objective.sigma = 0.0
        method = lmt
        schedule = figure1
        hyper.Q = 2
        run.T = 12
        run.trials = 1
        run.seed = 4
    """))
    table = run_experiment(cfg)
    assert table.final_window("grad_norm_avg", 1.0) == pytest.approx(
        float(np.mean(table.columns["grad_norm_avg"])), rel=1e-12)
