"""Properties of every method's round, over random connected graphs, and
of whole runs under an exact rescaling of the objective.

Graphs carry lazy Metropolis-Hastings weights ``(I + W_mh) / 2``, which are
symmetric, doubly stochastic and positive semidefinite for any connected
graph.  Every method runs through the one state and round convention:
``lmt.init_state(method, X0)`` and a round that returns a new state, on
one trial ``(n, p)`` or a batch of trials ``(k, n, p)``.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lmtsim import baselines as bl
from lmtsim import diagnostics as dg
from lmtsim import harness, lmt
from lmtsim import objectives as obj
from lmtsim import topology as tp
from lmtsim.config import METHOD_CHOICES, ExperimentConfig
from lmtsim.streams import TrialStreams

from helpers import run_point

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


@_EXAMPLES
@given(mix=lazy_metropolis_mixing())
def test_mixing_matrix_carries_its_lca_constants(mix):
    assert 0.0 <= mix.lam < 1.0
    # lam * lam, correctly rounded; lam ** 2 goes through pow(), which can miss
    assert mix.eta_w == 1.0 / (1.0 + math.sqrt(1.0 - mix.lam * mix.lam))
    assert mix.rho_w ** 2 == pytest.approx(mix.eta_w, abs=1e-14)


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
    hp = lmt.HyperParams(Q=1, eta_a=eta_a, eta_s=eta_s, beta=0.0)
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
    hp = lmt.HyperParams(Q=Q, eta_a=0.05, eta_s=0.3, beta=beta)
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
    hp = lmt.HyperParams(Q=1, eta_a=0.05, eta_s=0.2, beta=beta)
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
    hp = lmt.HyperParams(Q=2, eta_a=0.05, eta_s=0.3, beta=0.5)
    streams = TrialStreams(9, 0)
    X0 = np.random.default_rng(2).normal(size=(5, 3))
    # one round first, so every array of the input is non-trivial
    state = one_round(method, lmt.init_state(method, X0), oracle, mix, hp, streams)
    before = {k: np.copy(v) for k, v in state.items()}
    one_round(method, state, oracle, mix, hp, streams)
    assert state.keys() == before.keys()
    for key, value in before.items():
        assert np.asarray(state[key]).tobytes() == value.tobytes(), (method, key)


def read_only(value):
    """Mark every array in the dict or tuple ``value`` read-only; returns
    ``value``."""
    for array in value.values() if isinstance(value, dict) else value or ():
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    return value


@pytest.mark.parametrize("method", METHOD_CHOICES)
def test_round_writes_into_no_array_of_its_input(method):
    # the harness may compute a round's input metrics on a second thread
    # while the round and the metrics of the round before run, and a round
    # forms its steps in place, so any write into the arrays they share
    # must raise here, on every kind of oracle
    mix = tp.build_ring_mixing(5)
    hp = lmt.HyperParams(Q=2, eta_a=0.05, eta_s=0.3, beta=0.5)
    X0 = np.random.default_rng(2).normal(size=(2, 5, 3))
    for kind in ORACLE_KINDS:
        oracle = make_oracle(kind, 5, seed=4)
        if oracle.f_star is None:  # so the gaps are computed too
            oracle.f_star = dg.solve_f_star(oracle)
        streams = TrialStreams(9, [0, 1])
        state = read_only(lmt.init_state(method, X0))
        carry = x_bar_prev = None
        # two rounds, so the second's metrics take a carry and a previous mean
        for _ in range(2):
            new = read_only(one_round(method, state, oracle, mix, hp, streams))
            inputs = read_only(dg.input_metrics(oracle, hp, state, x_bar_prev))
            row, carry = dg.round_metrics(oracle, hp, mix, state, new, carry, inputs)
            assert "opt_gap_mean" in row, kind
            read_only(carry)
            x_bar_prev, state = inputs[0], new


def logistic(n, seed, batch):
    data = obj.make_synthetic_classification(8 * n, 3, seed)
    return obj.LogisticOracle(obj.partition_heterogeneous(data, n), "l2", 0.2, batch)


ORACLE_KINDS = ("quad_noisy", "quad_exact", "logistic_minibatch", "logistic_full")


def make_oracle(kind, n, seed):
    return {"quad_noisy": lambda: quad(n, seed, sigma=0.5),
            "quad_exact": lambda: quad(n, seed, sigma=0.0),
            "logistic_minibatch": lambda: logistic(n, seed, batch=3),
            "logistic_full": lambda: logistic(n, seed, batch=None)}[kind]()


@settings(max_examples=25, deadline=None)
@given(mix=lazy_metropolis_mixing(), seed=st.integers(0, 2**16),
       trials=st.lists(st.integers(0, 99), min_size=1, max_size=4, unique=True),
       oracle_kind=st.sampled_from(ORACLE_KINDS),
       Q=st.integers(1, 3), beta=st.floats(0.0, 0.9))
def test_batched_round_equals_each_trials_round(mix, seed, trials, oracle_kind, Q, beta):
    oracle = make_oracle(oracle_kind, mix.n, seed)
    hp = lmt.HyperParams(Q=Q, eta_a=0.05, eta_s=0.3, beta=beta)
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


def test_a_two_point_stack_steps_each_point_as_it_steps_alone():
    # Q = 3 and Q = 1 in one stack: its second and third local steps are
    # taken by the first point alone, on the draws that point takes alone
    n, p, trials = 4, 3, (0, 5)
    mix = tp.build_ring_mixing(n)
    oracle = quad(n, 17, sigma=0.5)
    X0 = np.random.default_rng(17).normal(size=(len(trials), n, p))
    solo = [lmt.HyperParams(Q=3, eta_a=0.05, eta_s=0.4, beta=0.5),
            lmt.HyperParams(Q=1, eta_a=0.15, eta_s=0.4, beta=0.5)]
    on_points = (-1, 1, 1, 1)
    stack = dataclasses.replace(solo[0], Q=np.array([3, 1]).reshape(on_points),
                                eta_a=np.array([0.05, 0.15]).reshape(on_points))
    for method in METHOD_CHOICES:
        stacked = lmt.init_state(method, np.stack([X0, X0]))
        alone = [lmt.init_state(method, X0) for _ in solo]
        stack_streams = TrialStreams(17, trials)
        solo_streams = [TrialStreams(17, trials) for _ in solo]
        for _ in range(3):
            stacked = one_round(method, stacked, oracle, mix, stack, stack_streams)
            alone = [one_round(method, state, oracle, mix, hp, streams)
                     for state, hp, streams in zip(alone, solo, solo_streams)]
            for k, state in enumerate(alone):
                assert stacked["t"] == state["t"]
                for key in state.keys() - {"t"}:
                    assert stacked[key][k].tobytes() == state[key].tobytes(), (method, key, k)


class DoubledOracle:
    """``inner`` with its objective doubled: gradients, gaps, ``f_star``,
    ``mu`` and ``L`` are exactly twice the inner oracle's, from the same
    draws.  Nothing else is delegated, so any other use fails."""

    def __init__(self, inner):
        self._inner = inner
        self.n_agents, self.dim = inner.n_agents, inner.dim
        self.L = 2.0 * inner.L
        self.mu = None if inner.mu is None else 2.0 * inner.mu
        self.f_star = None if inner.f_star is None else 2.0 * inner.f_star

    def draw(self, streams, t, Q):
        return self._inner.draw(streams, t, Q)

    def stochastic_gradient_matrix(self, X, draws_step):
        return 2.0 * self._inner.stochastic_gradient_matrix(X, draws_step)

    def full_gradients_at(self, x):
        return 2.0 * self._inner.full_gradients_at(x)

    def global_gradient(self, x):
        return 2.0 * self._inner.global_gradient(x)

    def opt_gap(self, X):
        return 2.0 * self._inner.opt_gap(X)


#: the factor of each metric when the objective doubles and ``eta_a`` halves
_RESCALED = {"consensus_x": 1.0, "d_bar_drift": 1.0,
             "opt_gap_mean": 2.0, "lyapunov_surrogate": 2.0,
             "grad_norm_avg": 4.0, "z_dev": 4.0, "consensus_y": 4.0}


@pytest.mark.parametrize("objective", [
    dict(objective_kind="quadratic_pl", quad_dim=4, quad_sigma=0.5),
    dict(objective_kind="logistic_l2", data_source="synthetic", batch=2),
    dict(objective_kind="logistic_nonconvex", data_source="synthetic", batch=None)],
    ids=["noisy_quadratic", "minibatch_ridge_logistic", "fullbatch_nonconvex_logistic"])
def test_doubled_objective_at_half_the_local_step_scales_every_metric_exactly(objective):
    # doubling every gradient and halving the local step leaves every
    # iterate bit for bit as it was, since both are exact powers of two;
    # a step size or correction in the wrong units breaks that
    cfg = ExperimentConfig(n=8, synthetic_samples=64, synthetic_features=4,
                           schedule="explicit", Q=3, eta_a=0.05, eta_s=0.5, T=20,
                           trials=3, seed=4, init="gauss", **objective)
    cfg.validate()
    mix = harness.build_mixing(cfg)
    oracle = harness.build_oracle(cfg, mix.n)
    hp = harness.resolve_hyperparams(cfg, oracle, mix)
    half = dataclasses.replace(hp, eta_a=hp.eta_a / 2)
    for method in METHOD_CHOICES:
        run = dataclasses.replace(cfg, method=method)
        plain, plain_at = run_point(run, mix, oracle, hp, [0, 1, 2])
        doubled, doubled_at = run_point(run, mix, DoubledOracle(oracle), half, [0, 1, 2])
        assert plain_at == doubled_at == [None] * 3, method
        assert plain.keys() == doubled.keys() == _RESCALED.keys()
        for name, factor in _RESCALED.items():
            nan = np.isnan(plain[name])
            assert np.array_equal(np.isnan(doubled[name]), nan), (method, name)
            assert (doubled[name][~nan].tobytes()
                    == (factor * plain[name][~nan]).tobytes()), (method, name)


def relabelled_oracles(kind, n, seed, perm):
    """A deterministic oracle over ``n`` agents and the same oracle with its
    agents relabelled: agent i of the second is agent ``perm[i]`` of the
    first.  Logistic shards differ in size, so the relabelling also splits
    the runs of equal shard sizes the oracle groups agents by."""
    if kind == "quadratic":
        oracle = quad(n, seed, sigma=0.0)
        return oracle, obj.QuadraticOracle(oracle.A[perm], oracle.b[perm])
    parts = obj.partition_heterogeneous(
        obj.make_synthetic_classification(8 * n + n // 2, 3, seed), n)
    shuffled = obj.PartitionedDataset(tuple(parts.shards[j] for j in perm))
    return (obj.LogisticOracle(parts, "l2", 0.2, None),
            obj.LogisticOracle(shuffled, "l2", 0.2, None))


@settings(max_examples=20, deadline=None)
@given(mix=lazy_metropolis_mixing(), seed=st.integers(0, 2**16),
       kind=st.sampled_from(["quadratic", "logistic"]), Q=st.integers(1, 3),
       beta=st.floats(0.0, 0.9))
def test_relabelling_the_agents_permutes_the_trajectory(mix, seed, kind, Q, beta):
    # W -> P W P', the local functions and X0 permuted alike: every method
    # must run the same trajectory with its agents relabelled.  Only the
    # summation order of the mixing products changes, so within 1e-12.
    rng = np.random.default_rng(seed)
    perm = rng.permutation(mix.n)
    oracle, oracle_p = relabelled_oracles(kind, mix.n, seed, perm)
    mix_p = tp.from_weights(mix.weights[np.ix_(perm, perm)])
    hp = lmt.HyperParams(Q=Q, eta_a=0.05, eta_s=0.3, beta=beta)
    X0 = rng.normal(size=(mix.n, 3))
    for method in METHOD_CHOICES:
        state, state_p = lmt.init_state(method, X0), lmt.init_state(method, X0[perm])
        for _ in range(50):
            state = one_round(method, state, oracle, mix, hp)
            state_p = one_round(method, state_p, oracle_p, mix_p, hp)
        assert state.keys() == state_p.keys()
        for key in state.keys() - {"t"}:
            # per-agent arrays are (n, p); scaffold's server arrays are (p,)
            expected = state[key][perm] if np.ndim(state[key]) == 2 else state[key]
            scale = 1.0 + np.abs(expected).max()
            assert np.abs(state_p[key] - expected).max() <= 1e-12 * scale, (method, key)
