import math
from dataclasses import replace

import numpy as np
import pytest

import lmtsim
from helpers import dsmt_reference, local_reference, q_star
from lmtsim import lmt
from lmtsim import objectives as obj
from lmtsim.streams import TrialStreams
from lmtsim.topology import C0


def scalar_quadratic(n=1, sigma=0.0):
    """f_i(x) = x^2 / 2 for every agent."""
    A = np.tile(np.eye(1), (n, 1, 1))
    return obj.QuadraticOracle(A=A, b=np.zeros((n, 1)), sigma=sigma)


def stochastic_quadratic(n, p, seed, sigma=1.0):
    return obj.quadratic_pl_oracle(n=n, p=p, mu_min=0.3, L=1.0, sigma=sigma,
                                   rng_seed=seed)


def logistic_setup(n=20, m=200, p=8, seed=0, batch=1):
    data = obj.make_synthetic_classification(m, p, seed)
    parts = obj.partition_heterogeneous(data, n)
    return obj.LogisticOracle(parts, "l2", 0.2, batch)


# ---------------------------------------------------------------------------
# state initialization

def test_init_state_zero():
    st = lmt.init_state("lmt", np.zeros((3, 2)))
    for key in ("X", "X_l", "Z", "C", "C_prev"):
        assert np.all(st[key] == 0.0)
    assert st["t"] == 0


def test_init_state_copies_and_zeroes():
    X0 = np.random.default_rng(0).normal(size=(4, 3))
    st = lmt.init_state("lmt", X0)
    assert np.array_equal(st["X"], X0)
    assert np.array_equal(st["X_l"], X0)
    assert np.all(st["Z"] == 0.0) and np.all(st["C"] == 0.0) and np.all(st["C_prev"] == 0.0)
    X0[0, 0] = 99.0
    assert st["X"][0, 0] != 99.0


def test_init_state_single_agent_shape():
    st = lmt.init_state("lmt", np.ones((1, 5)))
    assert st["X"].shape == (1, 5)


def test_init_state_rejects_an_unknown_method():
    # a state without the method's arrays would fail only in its first round
    with pytest.raises(ValueError, match=r"'LMT'.*lmt, naive_lmt, local_dsgd, led, kgt, "
                                         r"pdsgdm, scaffold"):
        lmt.init_state("LMT", np.zeros((3, 2)))


def test_init_state_rejects_nonfinite():
    with pytest.raises(ValueError):
        lmt.init_state("lmt", np.array([[np.nan, 0.0]]))
    with pytest.raises(ValueError):
        lmt.init_state("lmt", np.array([[np.inf, 0.0]]))


# ---------------------------------------------------------------------------
# local update phase

def test_local_phase_hand_trace():
    oracle = scalar_quadratic()
    hp = lmt.HyperParams(Q=1, eta_a=1.0, eta_s=1.0, beta=0.0)
    st = lmt.init_state("lmt", np.array([[1.0]]))
    X_Q, R, G_avg = lmt.local_update_phase(st, oracle, hp, None)
    assert X_Q[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert R[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert G_avg[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_local_phase_single_step_returns_drawn_gradient():
    oracle = stochastic_quadratic(5, 3, seed=2, sigma=0.0)
    hp = lmt.HyperParams(Q=1, eta_a=0.1, eta_s=1.0, beta=0.0)
    X0 = np.random.default_rng(1).normal(size=(5, 3))
    st = lmt.init_state("lmt", X0)
    _, R, G_avg = lmt.local_update_phase(st, oracle, hp, None)
    expected = np.stack([local_reference(oracle).gradient(i, X0[i]) for i in range(5)])
    assert np.allclose(R, expected, atol=1e-12)
    assert np.allclose(G_avg, expected, atol=1e-15)


def test_local_phase_correction_cancels_gradient():
    # corrections equal to minus the gradient freeze the local path
    oracle = stochastic_quadratic(4, 3, seed=5, sigma=0.0)
    X0 = np.random.default_rng(2).normal(size=(4, 3))
    G = np.stack([local_reference(oracle).gradient(i, X0[i]) for i in range(4)])
    st = {**lmt.init_state("lmt", X0), "C": -G}
    hp = lmt.HyperParams(Q=6, eta_a=0.05, eta_s=1.0, beta=0.0)
    X_Q, R, _ = lmt.local_update_phase(st, oracle, hp, None)
    assert np.allclose(X_Q, X0, atol=1e-12)
    assert np.allclose(R, G, atol=1e-10)


def test_local_phase_deterministic_mode_averages_path_gradients():
    oracle = stochastic_quadratic(3, 4, seed=7, sigma=0.0)
    hp = lmt.HyperParams(Q=5, eta_a=0.02, eta_s=1.0, beta=0.0)
    X0 = np.random.default_rng(3).normal(size=(3, 4))
    st = lmt.init_state("lmt", X0)
    X_Q, R, G_avg = lmt.local_update_phase(st, oracle, hp, None)
    # replay the path independently
    reference = local_reference(oracle)
    X = X0.copy()
    acc = np.zeros_like(X)
    for step in range(5):
        G = np.stack([reference.gradient(i, X[i]) for i in range(3)])
        acc += G
        X = X - hp.eta_a * G
    assert np.allclose(R, acc / 5, atol=1e-12)
    assert np.allclose(G_avg, acc / 5, atol=1e-13)
    assert X_Q.shape == (3, 4)
    assert np.allclose(X_Q, X, atol=1e-14)


# ---------------------------------------------------------------------------
# tracking and consensus pieces

def test_tracking_first_round_equals_momentum():
    mix = lmtsim.build_ring_mixing(5)
    st = lmt.init_state("lmt", np.zeros((5, 2)))
    Z_next = np.random.default_rng(0).normal(size=(5, 2))
    Y, Y_l, C_next = lmt.tracking_and_correction(st, Z_next, mix)
    assert np.array_equal(Y, Z_next)
    assert np.array_equal(Y_l, Z_next)
    assert np.abs(C_next.mean(axis=0)).max() <= 1e-12


def test_tracking_scalar_recursion():
    # n=1, W=[1]: corrections evolve as C + eta_w (C - C_prev)
    mix = replace(lmtsim.build_complete_mixing(1), eta_w=0.6)
    rng = np.random.default_rng(4)
    C, C_prev = rng.normal(size=(1, 3)), rng.normal(size=(1, 3))
    st = {**lmt.init_state("lmt", np.zeros((1, 3))), "C": C, "C_prev": C_prev}
    Z_next = rng.normal(size=(1, 3))
    _, _, C_next = lmt.tracking_and_correction(st, Z_next, mix)
    assert np.allclose(C_next, C + 0.6 * (C - C_prev), atol=1e-14)


def test_tracking_preserves_zero_mean():
    mix = lmtsim.build_ring_mixing(6)
    rng = np.random.default_rng(5)
    C = rng.normal(size=(6, 2))
    C -= C.mean(axis=0)
    C_prev = rng.normal(size=(6, 2))
    C_prev -= C_prev.mean(axis=0)
    st = {**lmt.init_state("lmt", np.zeros((6, 2))), "C": C, "C_prev": C_prev}
    _, _, C_next = lmt.tracking_and_correction(st, rng.normal(size=(6, 2)), mix)
    assert np.abs(C_next.mean(axis=0)).max() <= 1e-13


def test_consensus_fixed_point_and_plain_mixing():
    mix = lmtsim.build_ring_mixing(5)
    v = np.array([1.5, -2.0])
    X = np.tile(v, (5, 1))
    st = lmt.init_state("lmt", X)
    hp = lmt.HyperParams(Q=2, eta_a=0.1, eta_s=0.1, beta=0.5)
    X_next, X_l_next = lmt.accelerated_consensus(st, np.zeros((5, 2)), hp,
                                                 replace(mix, eta_w=0.7))
    assert np.allclose(X_next, X, atol=1e-13)
    assert np.allclose(X_l_next, X, atol=1e-13)

    Y = np.random.default_rng(6).normal(size=(5, 2))
    X_next, _ = lmt.accelerated_consensus(st, Y, hp, replace(mix, eta_w=0.0))
    assert np.allclose(X_next, mix.weights @ (X - hp.eta_hat * Y), atol=1e-14)


def test_consensus_equals_augmented_operator():
    mix = lmtsim.build_ring_mixing(7)
    rng = np.random.default_rng(8)
    st = {**lmt.init_state("lmt", rng.normal(size=(7, 3))),
          "X_l": rng.normal(size=(7, 3))}
    Y = rng.normal(size=(7, 3))
    hp = lmt.HyperParams(Q=3, eta_a=0.05, eta_s=0.2, beta=0.5)
    X_next, X_l_next = lmt.accelerated_consensus(st, Y, hp, mix)
    top = st["X"] - hp.eta_hat * Y
    new_top = lmtsim.lca_mix(mix, top, st["X_l"] - hp.eta_hat * Y)
    assert np.abs(X_next - new_top).max() <= 1e-13
    assert np.abs(X_l_next - top).max() <= 1e-13


# ---------------------------------------------------------------------------
# full rounds

def test_round_hand_trace_single_agent():
    oracle = scalar_quadratic()
    mix = lmtsim.build_complete_mixing(1)
    hp = lmt.HyperParams(Q=1, eta_a=1.0, eta_s=1.0, beta=0.0)
    st = lmt.lmt_round(lmt.init_state("lmt", np.array([[1.0]])), oracle, mix, hp)
    assert st["X"][0, 0] == pytest.approx(0.0, abs=1e-15)
    # at beta = 0 the new momentum is the round's gradient estimate R
    assert st["Z"][0, 0] == pytest.approx(1.0, abs=1e-15)
    assert st["t"] == 1


def test_round_consensus_start_homogeneous_objective():
    # identical local functions keep every agent identical forever
    n, p = 6, 3
    A = np.tile(np.eye(p), (n, 1, 1))
    b = np.tile(np.linspace(1, p, p), (n, 1))
    oracle = obj.QuadraticOracle(A=A, b=b, sigma=0.0)
    mix = lmtsim.build_ring_mixing(n)
    hp = lmt.HyperParams(Q=3, eta_a=0.1, eta_s=0.5, beta=mix.rho_w)
    st = lmt.init_state("lmt", np.tile(np.ones(p), (n, 1)))
    for _ in range(20):
        st = lmt.lmt_round(st, oracle, mix, hp)
        assert lmtsim.consensus_error(st["X"]) <= 1e-22


def test_round_identities_on_stochastic_run():
    oracle = logistic_setup(n=10, m=120, p=6, seed=1, batch=1)
    mix = lmtsim.build_ring_mixing(10)
    hp = lmt.HyperParams(Q=4, eta_a=0.05, eta_s=0.1, beta=mix.rho_w)
    streams = TrialStreams(31, 0)
    st = lmt.init_state("lmt", np.zeros((10, 6)))
    for t in range(60):
        prev = st
        st = lmt.lmt_round(st, oracle, mix, hp, streams)
        z_next_mean = st["Z"].mean(axis=0)
        y_mean = st["Y"].mean(axis=0)
        y_l = st["Z"] + prev["C_prev"]
        scale = 1.0 + float(np.linalg.norm(st["Z"]))
        # tracking identity and its memory counterpart
        assert np.abs(y_mean - z_next_mean).max() <= 1e-10 * scale
        assert np.abs(y_l.mean(axis=0) - y_mean).max() <= 1e-10 * scale
        # averaged-iterate recursion
        lhs = st["X"].mean(axis=0)
        rhs = prev["X"].mean(axis=0) - hp.eta_hat * y_mean
        assert np.abs(lhs - rhs).max() <= 1e-10 * (1.0 + float(np.linalg.norm(prev["X"])))
        # corrections stay mean-zero, memory mean matches iterate mean
        assert np.abs(st["C"].mean(axis=0)).max() <= 1e-10
        assert np.abs(st["X_l"].mean(axis=0) - lhs).max() <= 1e-10 * (1 + np.abs(lhs).max())


def test_auxiliary_sequence_identities():
    oracle = logistic_setup(n=8, m=96, p=5, seed=3, batch=1)
    mix = lmtsim.build_ring_mixing(8)
    hp = lmt.HyperParams(Q=3, eta_a=0.04, eta_s=0.2, beta=mix.rho_w)
    streams = TrialStreams(13, 0)
    st = lmt.init_state("lmt", np.zeros((8, 5)))
    x_bars = [st["X"].mean(axis=0)]
    z_bars = [st["Z"].mean(axis=0)]
    r_bars = []
    for t in range(50):
        st = lmt.lmt_round(st, oracle, mix, hp, streams)
        x_bars.append(st["X"].mean(axis=0))
        z_bars.append(st["Z"].mean(axis=0))
        r_bars.append(st["G_avg"].mean(axis=0))

    beta = hp.beta
    d = [x_bars[0]]
    for t in range(1, len(x_bars)):
        d.append((x_bars[t] - beta * x_bars[t - 1]) / (1.0 - beta))
    for t in range(len(r_bars)):
        lhs = d[t + 1]
        rhs = d[t] - hp.eta_hat * r_bars[t]
        assert np.abs(lhs - rhs).max() <= 1e-8 * (1.0 + np.abs(rhs).max())
        gap = d[t] - x_bars[t]
        pred = -hp.eta_hat * beta / (1.0 - beta) * z_bars[t]
        assert np.abs(gap - pred).max() <= 1e-8 * (1.0 + np.abs(pred).max())


def test_q1_reduction_bitmatch():
    n, p = 8, 4
    mix = lmtsim.build_ring_mixing(n)
    oracle = stochastic_quadratic(n, p, seed=3, sigma=1.0)
    hp = lmt.HyperParams(Q=1, eta_a=0.02, eta_s=0.1, beta=mix.rho_w)
    streams = TrialStreams(77, 0)
    st = lmt.init_state("lmt", np.zeros((n, p)))
    for _ in range(100):
        st = lmt.lmt_round(st, oracle, mix, hp, streams)
    X_ref = dsmt_reference(np.zeros((n, p)), mix, hp, oracle, 77, 0, 100)
    assert np.abs(st["X"] - X_ref).max() <= 1e-13


def test_single_agent_recovers_gradient_descent():
    oracle = stochastic_quadratic(1, 4, seed=9, sigma=0.0)
    mix = lmtsim.build_complete_mixing(1)
    hp = lmt.HyperParams(Q=1, eta_a=0.3, eta_s=0.5, beta=0.0)
    st = lmt.init_state("lmt", np.zeros((1, 4)))
    x = np.zeros(4)
    reference = local_reference(oracle)
    for _ in range(50):
        st = lmt.lmt_round(st, oracle, mix, hp)
        x = x - hp.eta_hat * reference.gradient(0, x)
    assert np.abs(st["X"][0] - x).max() <= 1e-12


# ---------------------------------------------------------------------------
# naive per-step momentum control

def test_naive_matches_lmt_at_q1():
    n, p = 6, 3
    mix = lmtsim.build_ring_mixing(n)
    oracle = stochastic_quadratic(n, p, seed=4, sigma=1.0)
    hp = lmt.HyperParams(Q=1, eta_a=0.05, eta_s=0.2, beta=mix.rho_w)
    st_a = lmt.init_state("lmt", np.zeros((n, p)))
    st_b = lmt.init_state("naive_lmt", np.zeros((n, p)))
    sa, sb = TrialStreams(5, 0), TrialStreams(5, 0)
    for _ in range(40):
        st_a = lmt.lmt_round(st_a, oracle, mix, hp, sa)
        st_b = lmt.naive_local_momentum_round(st_b, oracle, mix, hp, sb)
        for key in ("X", "Z", "G_avg"):
            assert np.abs(st_a[key] - st_b[key]).max() <= 1e-12, key


def test_naive_matches_lmt_at_beta_zero():
    n, p = 5, 3
    mix = lmtsim.build_ring_mixing(n)
    oracle = stochastic_quadratic(n, p, seed=6, sigma=1.0)
    hp = lmt.HyperParams(Q=4, eta_a=0.03, eta_s=0.2, beta=0.0)
    st_a = lmt.init_state("lmt", np.zeros((n, p)))
    st_b = lmt.init_state("naive_lmt", np.zeros((n, p)))
    sa, sb = TrialStreams(6, 0), TrialStreams(6, 0)
    for _ in range(30):
        st_a = lmt.lmt_round(st_a, oracle, mix, hp, sa)
        st_b = lmt.naive_local_momentum_round(st_b, oracle, mix, hp, sb)
        assert np.abs(st_a["X"] - st_b["X"]).max() <= 1e-12


def test_naive_round_on_a_ring_equals_per_agent_arithmetic():
    # at Q >= 2 with momentum each local step moves along its own momentum,
    # which is where the negative control leaves LMT
    n, p, Q = 5, 3, 3
    mix = lmtsim.build_ring_mixing(n)
    W, eta_w = mix.weights, mix.eta_w
    oracle = stochastic_quadratic(n, p, seed=16, sigma=0.0)
    rng = np.random.default_rng(16)
    X, X_l, Z, C, C_prev = (rng.normal(size=(n, p)) for _ in range(5))
    hp = lmt.HyperParams(Q=Q, eta_a=0.1, eta_s=0.5, beta=0.6)
    start = {"X": X, "X_l": X_l, "Z": Z, "C": C, "C_prev": C_prev, "t": 0}
    state = lmt.naive_local_momentum_round(start, oracle, mix, hp)
    zs, m_avg, g_avg = [], [], []
    for i in range(n):
        x, z, m_sum, g_sum = X[i], Z[i], 0.0, 0.0
        for _ in range(Q):
            g = oracle.A[i] @ (x - oracle.b[i])
            g_sum = g_sum + g
            z = hp.beta * z + (1.0 - hp.beta) * g
            m_sum = m_sum + z
            x = x - hp.eta_a * (z + C[i])
        zs.append(z)
        m_avg.append(m_sum / Q)
        g_avg.append(g_sum / Q)
    Y = [m_avg[i] + C[i] for i in range(n)]
    D = [X[i] - hp.eta_hat * Y[i] for i in range(n)]
    for i in range(n):
        mixed_Y = sum(W[i, j] * Y[j] for j in range(n))
        c_next = C[i] - Y[i] + (1 + eta_w) * mixed_Y - eta_w * (m_avg[i] + C_prev[i])
        mixed_D = sum(W[i, j] * D[j] for j in range(n))
        x_next = (1 + eta_w) * mixed_D - eta_w * (X_l[i] - hp.eta_hat * Y[i])
        for key, value in (("X", x_next), ("X_l", D[i]), ("Z", zs[i]), ("C", c_next),
                           ("Y", Y[i]), ("G_avg", g_avg[i])):
            assert np.abs(state[key][i] - value).max() <= 1e-13, key
    # not the round of LMT
    assert np.abs(state["Z"] - lmt.lmt_round(start, oracle, mix, hp)["Z"]).max() > 1e-3


# ---------------------------------------------------------------------------
# schedules

def test_theorem1_deterministic_values():
    # frozen arithmetic: sigma=0, L=1, beta=0
    hp = lmt.theorem1_stepsizes(L=1.0, sigma=0.0, n=10, Q=3, T=100,
                                delta_f=1.0, beta=0.0)
    c1 = 1.0 + 63.0 * C0
    expected_hat = 1.0 / (30.0 * math.sqrt(3.0 * C0 * c1))
    assert hp.eta_hat == pytest.approx(expected_hat, rel=1e-12)
    assert hp.eta_hat == pytest.approx(1.7309e-4, rel=1e-4)

    hp1 = lmt.theorem1_stepsizes(L=1.0, sigma=0.0, n=10, Q=1, T=100,
                                 delta_f=1.0, beta=0.0)
    expected_a = 1.0 / (15.0 * math.sqrt(2.0 * c1))
    assert hp1.eta_a == pytest.approx(expected_a, rel=1e-12)
    assert hp1.eta_a == pytest.approx(1.5864e-3, rel=1e-4)


def test_theorem1_sigma_zero_eta_s_is_tight():
    for beta in (0.0, 0.5, 0.9):
        hp = lmt.theorem1_stepsizes(L=2.0, sigma=0.0, n=4, Q=5, T=50,
                                    delta_f=0.7, beta=beta)
        assert hp.eta_s == pytest.approx((1.0 - beta) / math.sqrt(6.0 * C0),
                                         rel=1e-12)


def test_theorem1_monotone_in_horizon_and_warns_with_noise():
    with pytest.warns(UserWarning, match="eta_s"):
        a = lmt.theorem1_stepsizes(L=1.0, sigma=1.0, n=10, Q=2, T=100,
                                   delta_f=1.0, beta=0.5)
    with pytest.warns(UserWarning, match="eta_s"):
        b = lmt.theorem1_stepsizes(L=1.0, sigma=1.0, n=10, Q=2, T=200,
                                   delta_f=1.0, beta=0.5)
    assert b.eta_hat < a.eta_hat
    # doubling T scales the noise part of the denominator by sqrt(2)
    noise_a = 1.0 / a.eta_hat - 30.0 * math.sqrt(3.0 * C0 * (1 + 63 * C0)) / 0.5
    noise_b = 1.0 / b.eta_hat - 30.0 * math.sqrt(3.0 * C0 * (1 + 63 * C0)) / 0.5
    assert noise_b == pytest.approx(noise_a * math.sqrt(2.0), rel=1e-9)


def test_theorem1_rejects_bad_inputs():
    with pytest.raises(ValueError):
        lmt.theorem1_stepsizes(L=0.0, sigma=0.0, n=1, Q=1, T=1, delta_f=1.0,
                               beta=0.0)
    with pytest.raises(ValueError):
        lmt.theorem1_stepsizes(L=1.0, sigma=0.0, n=1, Q=1, T=1, delta_f=-1.0,
                               beta=0.0)
    with pytest.raises(ValueError):
        lmt.theorem1_stepsizes(L=1.0, sigma=0.0, n=1, Q=1, T=1, delta_f=1.0,
                               beta=1.0)


def test_theorem2_values():
    single = lmtsim.build_complete_mixing(1)  # lam = 0
    hp = lmt.theorem2_stepsizes(mu=1.0, Q=1, T=100, mix=single)
    assert hp.eta_a == pytest.approx(0.01, abs=1e-15)
    assert hp.beta == pytest.approx(math.sqrt(0.5), abs=1e-14)
    assert hp.eta_s == pytest.approx((1.0 - math.sqrt(0.5)) / math.sqrt(210.0),
                                     rel=1e-12)
    longer = lmt.theorem2_stepsizes(mu=1.0, Q=1, T=1000, mix=single)
    assert longer.eta_a < hp.eta_a
    with pytest.raises(ValueError):
        lmt.theorem2_stepsizes(mu=0.0, Q=1, T=10, mix=single)
    with pytest.raises(ValueError):
        lmt.theorem2_stepsizes(mu=1.0, Q=0, T=10, mix=single)


def test_q_star_values():
    assert q_star(0.5, 0.0, 4, 0.1) == 1
    # sqrt(1-lam)=0.05, sigma^2=100, n=10, eps^2=0.01 -> 50
    assert q_star(1.0 - 0.0025, 10.0, 10, 0.1) == 50
    assert q_star(0.9, 1.0, 100, 10.0) == 1
    with pytest.raises(ValueError):
        q_star(0.5, 1.0, 4, 0.0)
    with pytest.raises(ValueError):
        q_star(1.0, 1.0, 4, 0.1)


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        lmt.HyperParams(Q=0, eta_a=0.1, eta_s=0.1, beta=0.0)
    with pytest.raises(ValueError):
        lmt.HyperParams(Q=1, eta_a=-0.1, eta_s=0.1, beta=0.0)
    with pytest.raises(ValueError):
        lmt.HyperParams(Q=1, eta_a=0.1, eta_s=0.1, beta=1.0)
    with pytest.raises(ValueError, match=r"a stack's Q must not increase, got \[2, 4\]"):
        lmt.HyperParams(Q=np.array([2, 4]).reshape(-1, 1, 1, 1),
                        eta_a=np.array([0.1, 0.05]).reshape(-1, 1, 1, 1), eta_s=0.1, beta=0.0)
    hp = lmt.HyperParams(Q=7, eta_a=0.3, eta_s=0.11, beta=0.2)
    assert hp.eta_hat == 0.3 * 0.11 * 7


def test_a_replaced_stack_plans_its_own_local_steps():
    # the runs of local steps are cached on the HyperParams, so a stack whose
    # points left it plans anew, and the stack it came from keeps its plan
    on_points = (-1, 1, 1, 1)
    hp = lmt.HyperParams(Q=np.array([8, 4, 4, 1]).reshape(on_points),
                         eta_a=np.array([0.1, 0.2, 0.3, 0.8]).reshape(on_points),
                         eta_s=0.5, beta=0.0)
    runs = ((..., 0, 1), (slice(3), 1, 4), (slice(1), 4, 8))
    assert hp.local_runs == runs
    fewer = replace(hp, Q=np.array([4, 1]).reshape(on_points),
                    eta_a=np.array([0.2, 0.8]).reshape(on_points))
    assert fewer.local_runs == ((..., 0, 1), (slice(1), 1, 4))
    assert fewer.points == ((4, 0.2), (1, 0.8))
    assert fewer.eta_a_Q.ravel().tolist() == [0.2 * 4, 0.8 * 1]
    assert fewer.eta_hat_of_means.shape == (2, 1, 1)
    assert hp.local_runs == runs and hp.points[0] == (8, 0.1)
    assert replace(hp, Q=1, eta_a=0.1).local_runs == ((..., 0, 1),)


def test_check_momentum_warns_below_consensus_rate():
    with pytest.warns(UserWarning, match="momentum"):
        lmt.check_momentum(0.1, 0.9)
    lmt.check_momentum(0.95, 0.9)  # no warning
