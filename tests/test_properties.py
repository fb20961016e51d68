"""Properties of every method's round, over random connected graphs.

Graphs carry lazy Metropolis-Hastings weights ``(I + W_mh) / 2``, which are
symmetric, doubly stochastic and positive semidefinite for any connected
graph.  Every method runs through the one state and round convention:
``lmt.init_state(method, X0)`` and a round that returns a new state, on
one trial ``(n, p)`` or a batch of trials ``(k, n, p)``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lmtsim import baselines as bl
from lmtsim import lmt
from lmtsim import objectives as obj
from lmtsim import topology as tp
from lmtsim.config import METHOD_CHOICES
from lmtsim.streams import TrialStreams

_EXAMPLES = settings(max_examples=50, deadline=None)


def one_round(method, state, oracle, mix, hp, streams=None):
    if method == "lmt":
        return lmt.lmt_round(state, oracle, mix, hp, streams)
    if method == "naive_lmt":
        return lmt.naive_local_momentum_round(state, oracle, mix, hp, streams)
    return bl.baseline_round(bl.BaselineSpec(method=method, hp=hp), state,
                             oracle, mix, streams)


@st.composite
def lazy_metropolis_mixing(draw):
    """A random spanning tree plus random extra edges on 2 to 8 agents."""
    n = draw(st.integers(2, 8))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=n)))
    A = np.zeros((n, n))
    for i, j in edges:
        A[i, j] = A[j, i] = 1.0
    deg = A.sum(axis=1)
    W = A / (1.0 + np.maximum.outer(deg, deg))
    W[np.diag_indices(n)] = 1.0 - W.sum(axis=1)
    return tp.from_weights(0.5 * (np.eye(n) + W))


def quad(n, seed, sigma):
    return obj.quadratic_pl_oracle(n=n, p=3, mu_min=0.2, L=1.0, sigma=sigma,
                                   rng_seed=seed)


@_EXAMPLES
@given(mix=lazy_metropolis_mixing(), seed=st.integers(0, 2**16),
       eta_a=st.floats(0.05, 0.5), eta_s=st.floats(0.05, 1.0))
def test_first_round_parity_from_consensus_start(mix, seed, eta_a, eta_s):
    oracle = quad(mix.n, seed, sigma=0.0)
    x0 = np.random.default_rng(seed).normal(size=3)
    X0 = np.tile(x0, (mix.n, 1))
    hp = lmt.HyperParams(Q=1, eta_a=eta_a, eta_s=eta_s, beta=0.0,
                         eta_w=tp.lca_params(mix.lam).eta_w)
    expected = x0 - hp.eta_hat * oracle.global_gradient(x0)
    for method in METHOD_CHOICES:
        mean = one_round(method, lmt.init_state(method, X0), oracle, mix, hp)["X"].mean(axis=0)
        assert np.abs(mean - expected).max() <= 1e-12 * (1.0 + np.abs(x0).max()), method


@_EXAMPLES
@given(mix=lazy_metropolis_mixing(), seed=st.integers(0, 2**16),
       Q=st.integers(1, 3), beta=st.floats(0.0, 0.9))
def test_corrections_mean_zero_and_tracking_mean(mix, seed, Q, beta):
    oracle = quad(mix.n, seed, sigma=0.5)
    X0 = np.random.default_rng(seed).normal(size=(mix.n, 3))
    hp = lmt.HyperParams(Q=Q, eta_a=0.05, eta_s=0.3, beta=beta,
                         eta_w=tp.lca_params(mix.lam).eta_w)
    for method in ("lmt", "naive_lmt", "kgt", "scaffold"):
        key = "C" if method in ("lmt", "naive_lmt") else "c"
        state = lmt.init_state(method, X0)
        streams = TrialStreams(seed, 0)
        for _ in range(10):
            state = one_round(method, state, oracle, mix, hp, streams)
            drift = state[key].mean(axis=0)
            if method == "scaffold":
                drift = drift - state["c_server"]
            assert np.abs(drift).max() <= 1e-10 * (1.0 + np.abs(state[key]).max()), method
            if method == "lmt":
                gap = state["Y"].mean(axis=0) - state["Z"].mean(axis=0)
                assert np.abs(gap).max() <= 1e-10 * (1.0 + np.abs(state["Z"]).max())


@_EXAMPLES
@given(mix=lazy_metropolis_mixing(), seed=st.integers(0, 2**16),
       beta=st.floats(0.0, 0.9))
def test_naive_lmt_equals_lmt_at_q1(mix, seed, beta):
    oracle = quad(mix.n, seed, sigma=1.0)
    X0 = np.random.default_rng(seed).normal(size=(mix.n, 3))
    hp = lmt.HyperParams(Q=1, eta_a=0.05, eta_s=0.2, beta=beta,
                         eta_w=tp.lca_params(mix.lam).eta_w)
    a, b = lmt.init_state("lmt", X0), lmt.init_state("naive_lmt", X0)
    sa, sb = TrialStreams(seed, 0), TrialStreams(seed, 0)
    for _ in range(10):
        a = one_round("lmt", a, oracle, mix, hp, sa)
        b = one_round("naive_lmt", b, oracle, mix, hp, sb)
        for key in ("X", "Z"):
            assert np.abs(a[key] - b[key]).max() <= 1e-12 * (1.0 + np.abs(a[key]).max())


@pytest.mark.parametrize("method", METHOD_CHOICES)
def test_round_leaves_its_input_state_unchanged(method):
    mix = tp.build_ring_mixing(5)
    oracle = quad(5, seed=1, sigma=0.5)
    hp = lmt.HyperParams(Q=2, eta_a=0.05, eta_s=0.3, beta=0.5,
                         eta_w=tp.lca_params(mix.lam).eta_w)
    streams = TrialStreams(9, 0)
    X0 = np.random.default_rng(2).normal(size=(5, 3))
    # one round first, so every array of the input is non-trivial
    state = one_round(method, lmt.init_state(method, X0), oracle, mix, hp, streams)
    before = {k: np.copy(v) for k, v in state.items()}
    one_round(method, state, oracle, mix, hp, streams)
    assert state.keys() == before.keys()
    for key, value in before.items():
        assert np.asarray(state[key]).tobytes() == value.tobytes(), (method, key)


def logistic(n, seed, batch):
    data = obj.make_synthetic_classification(8 * n, 3, seed)
    return obj.logistic_l2_oracle(obj.partition_heterogeneous(data, n), batch=batch)


@settings(max_examples=25, deadline=None)
@given(mix=lazy_metropolis_mixing(), seed=st.integers(0, 2**16),
       trials=st.lists(st.integers(0, 99), min_size=1, max_size=4, unique=True),
       oracle_kind=st.sampled_from(["quad_noisy", "quad_exact", "logistic_minibatch",
                                    "logistic_full"]),
       Q=st.integers(1, 3), beta=st.floats(0.0, 0.9))
def test_batched_round_equals_each_trials_round(mix, seed, trials, oracle_kind, Q, beta):
    oracle = {"quad_noisy": lambda: quad(mix.n, seed, sigma=0.5),
              "quad_exact": lambda: quad(mix.n, seed, sigma=0.0),
              "logistic_minibatch": lambda: logistic(mix.n, seed, batch=3),
              "logistic_full": lambda: logistic(mix.n, seed, batch=None)}[oracle_kind]()
    hp = lmt.HyperParams(Q=Q, eta_a=0.05, eta_s=0.3, beta=beta,
                         eta_w=tp.lca_params(mix.lam).eta_w)
    X0 = np.random.default_rng(seed).normal(size=(len(trials), mix.n, 3))
    batch_streams = TrialStreams(seed, trials)
    for method in METHOD_CHOICES:
        batch = lmt.init_state(method, X0)
        alone = [lmt.init_state(method, X0[j].copy()) for j in range(len(trials))]
        # two rounds, so the second starts from non-trivial memory arrays
        for _ in range(2):
            batch = one_round(method, batch, oracle, mix, hp, batch_streams)
            alone = [one_round(method, state, oracle, mix, hp, TrialStreams(seed, trial))
                     for state, trial in zip(alone, trials)]
            assert batch.keys() == alone[0].keys()
            for j, state in enumerate(alone):
                assert batch["t"] == state["t"]
                for key in state.keys() - {"t"}:
                    assert batch[key][j].tobytes() == state[key].tobytes(), (method, key, j)
