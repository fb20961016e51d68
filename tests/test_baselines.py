import numpy as np
import pytest

import lmtsim
from helpers import RecordingOracle
from lmtsim import baselines as bl
from lmtsim import lmt
from lmtsim import objectives as obj
from lmtsim.config import METHOD_CHOICES
from lmtsim.streams import TrialStreams

BASELINES = tuple(m for m in METHOD_CHOICES if m not in ("lmt", "naive_lmt"))


def quad(n, p, seed=5, sigma=0.0):
    return obj.quadratic_pl_oracle(n=n, p=p, mu_min=0.2, L=1.0, sigma=sigma,
                                   rng_seed=seed)


def consensus_start(n, p, seed=0):
    x0 = np.random.default_rng(seed).normal(size=p)
    return x0, np.tile(x0, (n, 1))


# ---------------------------------------------------------------------------
# parity map

def test_parity_map_figure_values():
    Q = 10
    eta_a, eta_s = 0.25 / Q, 0.1
    beta = 0.9
    assert bl.stepsize_parity_map(eta_a, eta_s, beta, "led") == (
        pytest.approx(0.025 / Q), 1.0)
    local, outer = bl.stepsize_parity_map(eta_a, eta_s, beta, "pdsgdm")
    assert local == pytest.approx(0.025 * (1 - beta) / Q)
    assert outer == 1.0
    assert bl.stepsize_parity_map(eta_a, eta_s, beta, "kgt") == (eta_a, eta_s)
    assert bl.stepsize_parity_map(eta_a, eta_s, beta, "scaffold") == (eta_a, eta_s)
    assert bl.stepsize_parity_map(eta_a, eta_s, beta, "local_dsgd") == (
        pytest.approx(0.025 / Q), 1.0)
    with pytest.raises(ValueError):
        bl.stepsize_parity_map(eta_a, eta_s, beta, "sgd")
    hp = lmt.HyperParams(Q=1, eta_a=0.1, eta_s=0.1, beta=0.0)
    with pytest.raises(ValueError):
        bl.baseline_round(bl.BaselineSpec(method="unknown", hp=hp),
                          lmt.init_state("local_dsgd", np.zeros((2, 1))), None, None)


# ---------------------------------------------------------------------------
# first-round parity

def all_method_first_round_means(oracle, mix, hp, X0):
    means = {}
    st = lmt.lmt_round(lmt.init_state("lmt", X0), oracle, mix, hp)
    means["lmt"] = st["X"].mean(axis=0)
    st = lmt.naive_local_momentum_round(lmt.init_state("naive_lmt", X0), oracle, mix, hp)
    means["naive_lmt"] = st["X"].mean(axis=0)
    for method in BASELINES:
        spec = bl.BaselineSpec(method=method, hp=hp)
        state = lmt.init_state(method, X0)
        state = bl.baseline_round(spec, state, oracle, mix)
        means[method] = state["X"].mean(axis=0)
    return means


def test_first_round_parity_q1():
    n, p = 6, 5
    mix = lmtsim.build_ring_mixing(n)
    oracle = quad(n, p)
    x0, X0 = consensus_start(n, p)
    hp = lmt.HyperParams(Q=1, eta_a=0.25, eta_s=0.1, beta=0.0)
    expected = x0 - hp.eta_hat * oracle.global_gradient(x0)
    for method, mean in all_method_first_round_means(oracle, mix, hp, X0).items():
        assert np.abs(mean - expected).max() <= 1e-12, method


def test_first_round_parity_multi_step_paths():
    # with Q > 1 each method follows its own local path; the averaged
    # iterate must still move by eta_hat times the mean of the gradients it
    # actually evaluated
    n, p, Q = 5, 4, 4
    mix = lmtsim.build_ring_mixing(n)
    x0, X0 = consensus_start(n, p, seed=3)
    hp = lmt.HyperParams(Q=Q, eta_a=0.06, eta_s=0.3, beta=0.0)

    def averaged_after_one_round(method):
        oracle = RecordingOracle(quad(n, p))
        if method == "lmt":
            st = lmt.lmt_round(lmt.init_state("lmt", X0), oracle, mix, hp)
            mean = st["X"].mean(axis=0)
        else:
            spec = bl.BaselineSpec(method=method, hp=hp)
            state = lmt.init_state(method, X0)
            mean = bl.baseline_round(spec, state, oracle, mix)["X"].mean(axis=0)
        drawn = np.stack(oracle.drawn)
        assert drawn.shape == (n * Q, p)
        return mean, drawn.mean(axis=0)

    for method in ("lmt",) + BASELINES:
        if method == "pdsgdm":
            continue  # momentum reweights the path; covered at beta=0 by dsgd
        mean, g_path = averaged_after_one_round(method)
        expected = x0 - hp.eta_hat * g_path
        assert np.abs(mean - expected).max() <= 1e-12, method


# ---------------------------------------------------------------------------
# degeneracies at complete mixing

def test_local_dsgd_complete_mixing_is_centralized_sgd():
    n, p = 5, 3
    mix = lmtsim.build_complete_mixing(n)
    oracle = quad(n, p, seed=9)
    x0, X0 = consensus_start(n, p, seed=1)
    hp = lmt.HyperParams(Q=1, eta_a=0.2, eta_s=0.5, beta=0.0)
    spec = bl.BaselineSpec(method="local_dsgd", hp=hp)
    state = bl.baseline_round(spec, lmt.init_state(spec.method, X0), oracle, mix)
    flat = bl.stepsize_parity_map(hp.eta_a, hp.eta_s, hp.beta, "local_dsgd")[0]
    expected = x0 - flat * oracle.global_gradient(x0)
    assert np.abs(state["X"] - expected).max() <= 1e-13


def test_led_complete_mixing_first_round_is_centralized():
    n, p = 4, 3
    mix = lmtsim.build_complete_mixing(n)
    oracle = quad(n, p, seed=2)
    x0, X0 = consensus_start(n, p, seed=2)
    hp = lmt.HyperParams(Q=1, eta_a=0.2, eta_s=0.5, beta=0.0)
    spec = bl.BaselineSpec(method="led", hp=hp)
    state = bl.baseline_round(spec, lmt.init_state(spec.method, X0), oracle, mix)
    expected = x0 - 0.1 * oracle.global_gradient(x0)
    assert np.abs(state["X"] - expected).max() <= 1e-13


def test_kgt_complete_mixing_builds_drift_variates():
    n, p = 5, 3
    mix = lmtsim.build_complete_mixing(n)
    oracle = quad(n, p, seed=3)
    x0, X0 = consensus_start(n, p, seed=3)
    hp = lmt.HyperParams(Q=1, eta_a=0.3, eta_s=0.4, beta=0.0)
    spec = bl.BaselineSpec(method="kgt", hp=hp)
    state = bl.baseline_round(spec, lmt.init_state(spec.method, X0), oracle, mix)
    grads = oracle.full_gradients_at(x0)
    expected_c = grads.mean(axis=0) - grads  # corrected direction becomes the mean
    assert np.abs(state["c"] - expected_c).max() <= 1e-12
    assert np.abs(state["c"].mean(axis=0)).max() <= 1e-13


def test_kgt_round_on_a_ring_equals_per_agent_arithmetic():
    # a ring is not a complete graph: mixing a displacement that is not
    # agent i's own at row i gives another round
    n, p, Q = 5, 3, 2
    mix = lmtsim.build_ring_mixing(n)
    W = mix.weights
    oracle = quad(n, p, seed=11)
    rng = np.random.default_rng(11)
    X, C = rng.normal(size=(n, p)), rng.normal(size=(n, p))
    hp = lmt.HyperParams(Q=Q, eta_a=0.1, eta_s=0.5, beta=0.0)
    local, outer = bl.stepsize_parity_map(hp.eta_a, hp.eta_s, hp.beta, "kgt")
    state = bl.baseline_round(bl.BaselineSpec(method="kgt", hp=hp),
                              {"X": X, "c": C, "t": 0}, oracle, mix)
    delta = []
    for i in range(n):
        y = X[i]
        for _ in range(Q):
            y = y - local * (oracle.A[i] @ (y - oracle.b[i]) + C[i])
        delta.append(y - X[i])
    for i in range(n):
        mixed_x = sum(W[i, j] * X[j] for j in range(n))
        mixed_delta = sum(W[i, j] * delta[j] for j in range(n))
        assert np.abs(state["X"][i] - (mixed_x + outer * mixed_delta)).max() <= 1e-14
        c_next = C[i] + (delta[i] - mixed_delta) / (Q * local)
        assert np.abs(state["c"][i] - c_next).max() <= 1e-14


def test_pdsgdm_round_on_a_ring_equals_per_agent_arithmetic():
    # the momentum buffers are mixed along with the iterates
    n, p, Q = 5, 3, 2
    mix = lmtsim.build_ring_mixing(n)
    W = mix.weights
    oracle = quad(n, p, seed=12)
    rng = np.random.default_rng(12)
    X, M = rng.normal(size=(n, p)), rng.normal(size=(n, p))
    hp = lmt.HyperParams(Q=Q, eta_a=0.1, eta_s=0.5, beta=0.6)
    local, _ = bl.stepsize_parity_map(hp.eta_a, hp.eta_s, hp.beta, "pdsgdm")
    state = bl.baseline_round(bl.BaselineSpec(method="pdsgdm", hp=hp),
                              {"X": X, "m": M, "t": 0}, oracle, mix)
    xs, ms = [], []
    for i in range(n):
        x, m = X[i], M[i]
        for _ in range(Q):
            m = hp.beta * m + oracle.A[i] @ (x - oracle.b[i])
            x = x - local * m
        xs.append(x)
        ms.append(m)
    for i in range(n):
        assert np.abs(state["X"][i] - sum(W[i, j] * xs[j] for j in range(n))).max() <= 1e-14
        assert np.abs(state["m"][i] - sum(W[i, j] * ms[j] for j in range(n))).max() <= 1e-14


def test_led_round_on_a_ring_equals_per_agent_arithmetic():
    # the combine corrects the new local end points by the last round's
    n, p, Q = 5, 3, 2
    mix = lmtsim.build_ring_mixing(n)
    W = mix.weights
    oracle = quad(n, p, seed=13)
    rng = np.random.default_rng(13)
    X, psi = rng.normal(size=(n, p)), rng.normal(size=(n, p))
    hp = lmt.HyperParams(Q=Q, eta_a=0.1, eta_s=0.5, beta=0.0)
    local, _ = bl.stepsize_parity_map(hp.eta_a, hp.eta_s, hp.beta, "led")
    state = bl.baseline_round(bl.BaselineSpec(method="led", hp=hp),
                              {"X": X, "psi": psi, "t": 0}, oracle, mix)
    psi_new = []
    for i in range(n):
        y = X[i]
        for _ in range(Q):
            y = y - local * (oracle.A[i] @ (y - oracle.b[i]))
        psi_new.append(y)
    for i in range(n):
        combined = sum(W[i, j] * (psi_new[j] + X[j] - psi[j]) for j in range(n))
        assert np.abs(state["X"][i] - combined).max() <= 1e-14
        assert np.abs(state["psi"][i] - psi_new[i]).max() <= 1e-14


def test_local_dsgd_round_on_a_ring_equals_per_agent_arithmetic():
    # Q plain local steps, then one gossip mixing of the end points
    n, p, Q = 5, 3, 3
    mix = lmtsim.build_ring_mixing(n)
    W = mix.weights
    oracle = quad(n, p, seed=14)
    X = np.random.default_rng(14).normal(size=(n, p))
    hp = lmt.HyperParams(Q=Q, eta_a=0.1, eta_s=0.5, beta=0.0)
    local, _ = bl.stepsize_parity_map(hp.eta_a, hp.eta_s, hp.beta, "local_dsgd")
    state = bl.baseline_round(bl.BaselineSpec(method="local_dsgd", hp=hp),
                              {"X": X, "t": 0}, oracle, mix)
    ends = []
    for i in range(n):
        y = X[i]
        for _ in range(Q):
            y = y - local * (oracle.A[i] @ (y - oracle.b[i]))
        ends.append(y)
    for i in range(n):
        mixed = sum(W[i, j] * ends[j] for j in range(n))
        assert np.abs(state["X"][i] - mixed).max() <= 1e-14


def test_scaffold_two_rounds_equal_per_agent_arithmetic():
    # the first round builds nonzero variates, which the second steps with
    n, p, Q = 5, 3, 3
    mix = lmtsim.build_ring_mixing(n)
    oracle = quad(n, p, seed=15)
    X0 = np.random.default_rng(15).normal(size=(n, p))
    hp = lmt.HyperParams(Q=Q, eta_a=0.1, eta_s=0.5, beta=0.0)
    local, outer = bl.stepsize_parity_map(hp.eta_a, hp.eta_s, hp.beta, "scaffold")
    spec = bl.BaselineSpec(method="scaffold", hp=hp)
    state = lmt.init_state("scaffold", X0)
    x, c, C = X0.mean(axis=0), np.zeros(p), [np.zeros(p) for _ in range(n)]
    for _ in range(2):
        state = bl.baseline_round(spec, state, oracle, mix)
        ys = []
        for i in range(n):
            y = x
            for _ in range(Q):
                y = y - local * (oracle.A[i] @ (y - oracle.b[i]) - C[i] + c)
            ys.append(y)
        C_next = [C[i] - c + (x - ys[i]) / (Q * local) for i in range(n)]
        x = x + outer * sum(y - x for y in ys) / n
        c = c + sum(C_next[i] - C[i] for i in range(n)) / n
        C = C_next
        assert np.abs(np.stack(C)).min() > 1e-3  # the variates are in play
        for i in range(n):
            assert np.abs(state["X"][i] - x).max() <= 1e-13
            assert np.abs(state["c"][i] - C[i]).max() <= 1e-13
        assert np.abs(state["x_server"] - x).max() <= 1e-13
        assert np.abs(state["c_server"] - c).max() <= 1e-13


def test_scaffold_zero_variates_is_parallel_sgd():
    n, p = 4, 3
    oracle = quad(n, p, seed=4)
    mix = lmtsim.build_complete_mixing(n)
    x0, X0 = consensus_start(n, p, seed=4)
    hp = lmt.HyperParams(Q=1, eta_a=0.2, eta_s=1.0, beta=0.0)
    spec = bl.BaselineSpec(method="scaffold", hp=hp)
    state = bl.baseline_round(spec, lmt.init_state(spec.method, X0), oracle, mix)
    expected = x0 - 0.2 * oracle.global_gradient(x0)
    assert np.abs(state["X"] - expected).max() <= 1e-13
    assert lmtsim.consensus_error(state["X"]) == 0.0


def test_pdsgdm_beta_zero_matches_local_dsgd():
    n, p = 6, 4
    mix = lmtsim.build_ring_mixing(n)
    oracle = quad(n, p, seed=6, sigma=1.0)
    X0 = np.zeros((n, p))
    hp = lmt.HyperParams(Q=3, eta_a=0.1, eta_s=0.2, beta=0.0)
    sa = bl.BaselineSpec(method="pdsgdm", hp=hp)
    sb = bl.BaselineSpec(method="local_dsgd", hp=hp)
    st_a = lmt.init_state("pdsgdm", X0)
    st_b = lmt.init_state("local_dsgd", X0)
    streams_a, streams_b = TrialStreams(3, 0), TrialStreams(3, 0)
    for _ in range(10):
        st_a = bl.baseline_round(sa, st_a, oracle, mix, streams_a)
        st_b = bl.baseline_round(sb, st_b, oracle, mix, streams_b)
        assert np.abs(st_a["X"] - st_b["X"]).max() <= 1e-12


def test_corrections_stay_mean_zero_over_rounds():
    n, p = 7, 3
    mix = lmtsim.build_ring_mixing(n)
    oracle = quad(n, p, seed=8, sigma=0.5)
    hp = lmt.HyperParams(Q=2, eta_a=0.05, eta_s=0.3, beta=0.0)
    for method in ("kgt", "scaffold"):
        spec = bl.BaselineSpec(method=method, hp=hp)
        state = lmt.init_state(method, np.zeros((n, p)))
        streams = TrialStreams(8, 0)
        for _ in range(25):
            state = bl.baseline_round(spec, state, oracle, mix, streams)
        drift = state["c"].mean(axis=0)
        if method == "scaffold":
            drift = drift - state["c_server"]
        assert np.abs(drift).max() <= 1e-10


def test_all_baselines_reduce_objective_on_smooth_problem():
    n, p = 8, 4
    mix = lmtsim.build_ring_mixing(n)
    oracle = quad(n, p, seed=10)
    hp = lmt.HyperParams(Q=4, eta_a=0.05, eta_s=0.1, beta=0.5)
    X0 = np.zeros((n, p))
    gap0 = float(oracle.opt_gap(X0))
    for method in BASELINES:
        spec = bl.BaselineSpec(method=method, hp=hp)
        state = lmt.init_state(method, X0)
        for _ in range(150):
            state = bl.baseline_round(spec, state, oracle, mix)
        gap = float(oracle.opt_gap(state["X"]))
        assert np.isfinite(gap) and gap < 0.5 * gap0, method
