import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import fresh_stream
from lmtsim import objectives as obj
from lmtsim.config import ExperimentConfig
from lmtsim.harness import run_experiment
from lmtsim.streams import _PURPOSE_INIT, TrialStreams, _key

_U64 = st.integers(0, 2**64 - 1)


def test_reseated_stream_matches_fresh_construction():
    streams = TrialStreams(master_seed=424242, trial=3)
    for rnd in [0, 17, 999, 2**31, 17]:
        assert np.array_equal(streams.gradient(rnd).normal(size=6),
                              fresh_stream(424242, 3, rnd).normal(size=6))
    for agent in [0, 5, 31]:
        init = fresh_stream(424242, 3, 0, agent, purpose=_PURPOSE_INIT)
        assert np.array_equal(streams.init_state(agent).normal(size=6), init.normal(size=6))


def test_streams_are_distinct_across_coordinates():
    streams = TrialStreams(7, 0)
    draws = {("round", r): tuple(streams.gradient(r).normal(size=4)) for r in range(6)}
    draws.update({("agent", a): tuple(streams.init_state(a).normal(size=4)) for a in range(6)})
    assert len(set(draws.values())) == len(draws)
    other_trial = TrialStreams(7, 1).gradient(0).normal(size=4)
    assert not np.array_equal(other_trial, np.array(draws[("round", 0)]))
    other_seed = TrialStreams(8, 0).gradient(0).normal(size=4)
    assert not np.array_equal(other_seed, np.array(draws[("round", 0)]))


def test_init_stream_independent_of_gradient_stream():
    streams = TrialStreams(7, 0)
    a = streams.init_state(0).normal(size=4)
    b = streams.gradient(0).normal(size=4)
    assert not np.array_equal(a, b)


def test_order_of_access_does_not_matter():
    s1 = TrialStreams(11, 2)
    first = s1.gradient(5).normal(size=5)
    _ = s1.gradient(0).normal(size=5)
    again = s1.gradient(5).normal(size=5)
    assert np.array_equal(first, again)


def test_batched_streams_match_each_trials_streams():
    trials = [3, 0, 8]
    batch = TrialStreams(2**64 - 1, trials)
    assert batch.shape == (3,) and TrialStreams(5, 3).shape == ()
    # in an order that switches trials at every call
    for rnd, slot, agent in [(12, 2, 3), (0, 0, 1), (12, 2, 3), (4, 1, 0), (4, 1, 2)]:
        trial = trials[slot]
        alone = TrialStreams(2**64 - 1, trial).gradient(rnd).normal(size=3)
        assert np.array_equal(batch.gradient(rnd, slot).normal(size=3), alone)
        assert np.array_equal(alone, fresh_stream(2**64 - 1, trial, rnd).normal(size=3))
        init = fresh_stream(2**64 - 1, trial, 0, agent, purpose=_PURPOSE_INIT)
        assert np.array_equal(batch.init_state(agent, slot).normal(size=3), init.normal(size=3))


_SALT = 0x9E3779B97F4A7C15


@settings(max_examples=200, deadline=None)
@given(seed=_U64, trials=st.lists(st.integers(0, 2**32), min_size=1, max_size=3),
       rounds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))
def test_philox_block_matches_numpy(seed, trials, rounds):
    # the documented stream of (trial, round): key [seed, trial ^ salt],
    # counter [0, 0, round << 32, 0]; its first block is numpy's own
    streams = TrialStreams(seed, trials)
    for rnd in rounds:
        for slot, trial in enumerate(trials):
            philox = np.random.Philox(
                key=np.array([seed, trial ^ _SALT], dtype=np.uint64),
                counter=np.array([0, 0, rnd << 32, 0], dtype=np.uint64))
            block = streams.gradient(rnd, slot).bit_generator.random_raw(4)
            assert np.array_equal(block, philox.random_raw(4)), (rnd, slot)


def test_gradient_words_match_each_site_stream():
    seed, trials = 2**64 - 1, [3, 0, 8]
    streams = TrialStreams(seed, trials)
    # switching trials and rounds at every call, after draws that leave a
    # 32-bit half or a partly used block behind, and between init streams
    for rnd, slot in [(12, 2), (0, 0), (12, 2), (4, 1), (2**32 - 1, 0), (4, 1)]:
        gen = streams.gradient(rnd, slot)
        words = gen.bit_generator.random_raw(9)  # across a block boundary
        assert np.array_equal(words, fresh_stream(seed, trials[slot], rnd)
                              .bit_generator.random_raw(9)), (rnd, slot)
        gen.integers(0, 5, size=3)
        streams.init_state(slot, slot).integers(0, 5)
        halves = streams.gradient(rnd, slot).integers(0, 2**31, size=5)
        assert np.array_equal(halves, fresh_stream(seed, trials[slot], rnd)
                              .integers(0, 2**31, size=5)), (rnd, slot)


def _shard_sizes(n):
    return 2 + np.arange(n) % 3  # shards of 2, 3 and 4 rows


def _oracle(kind, n):
    if kind == "quadratic":
        return obj.quadratic_pl_oracle(n=n, p=3, mu_min=0.2, L=1.0, sigma=0.5, rng_seed=1)
    rng = np.random.default_rng(n)
    shards = tuple((rng.normal(size=(s, 3)), np.where(rng.random(s) < 0.5, -1.0, 1.0))
                   for s in _shard_sizes(n))
    return obj.LogisticOracle(obj.PartitionedDataset(shards=shards), "l2", 0.2, 2)


def _documented(oracle, seed, trial, rnd, Q):
    """One trial's draws of round ``rnd``, made as documented: one call on a
    new ``Generator(Philox(key, counter))`` of the round's stream, laid out
    (step, agent, ...)."""
    gen = np.random.Generator(np.random.Philox(
        key=_key(seed, trial), counter=np.array([0, 0, rnd << 32, 0], dtype=np.uint64)))
    n = oracle.n_agents
    if isinstance(oracle, obj.QuadraticOracle):
        return gen.normal(0.0, oracle.sigma / np.sqrt(oracle.dim), size=(Q, n, oracle.dim))
    sizes = _shard_sizes(n)
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    return offsets[:, None] + gen.integers(0, sizes[:, None], size=(Q, n, oracle.batch))


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["quadratic", "logistic"]), seed=_U64,
       trials=st.lists(st.integers(0, 2**32), min_size=1, max_size=3, unique=True),
       n=st.integers(1, 5), Q=st.integers(1, 8), rnd=st.integers(0, 2**20))
def test_oracle_draws_equal_a_fresh_generator_per_trial_and_round(kind, seed, trials, n, Q,
                                                                  rnd):
    oracle = _oracle(kind, n)
    batch = oracle.draw(TrialStreams(seed, trials), rnd, Q)
    assert batch.shape[:3] == (Q, len(trials), n)
    for slot, trial in enumerate(trials):
        expected = _documented(oracle, seed, trial, rnd, Q)
        assert batch[:, slot].tobytes() == expected.tobytes(), slot
        alone = oracle.draw(TrialStreams(seed, trial), rnd, Q)
        assert alone.tobytes() == expected.tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=_U64, trials=st.lists(st.integers(0, 2**32), min_size=1, max_size=3),
       batch=st.booleans(), Q=st.integers(1, 8), n=st.integers(1, 4), p=st.integers(1, 13),
       start=st.integers(0, 300))
def test_gradient_normals_equal_each_sites_normals(seed, trials, batch, Q, n, p, start):
    # one TrialStreams serving round after round, as a run uses it
    oracle = obj.quadratic_pl_oracle(n=n, p=p, mu_min=0.2, L=1.0, sigma=0.5, rng_seed=1)
    streams = TrialStreams(seed, trials if batch else trials[0], steps=Q)
    for rnd in (start, start + 1, start + 2, start):
        noise = oracle.draw(streams, rnd, Q)
        assert noise.shape == (Q,) + streams.shape + (n, p) and not noise.flags.writeable
        sites = noise.reshape(Q, -1, n, p)
        for slot, trial in enumerate(streams.trials):
            expected = fresh_stream(seed, trial, rnd).normal(0.0, 0.5 / np.sqrt(p),
                                                             size=(Q, n, p))
            assert sites[:, slot].tobytes() == expected.tobytes(), (rnd, slot)


def test_round_integers_match_numpy_across_block_boundaries():
    sizes = np.array([40, 41, 17, 23, 1000])  # at least the largest batch
    shards = tuple((np.ones((s, 2)), np.ones(s)) for s in sizes)
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    for b in (1, 2, 7, 8, 9, 17):
        oracle = obj.LogisticOracle(obj.PartitionedDataset(shards=shards), "l2", 0.2, b)
        expected = offsets[:, None] + fresh_stream(5, 1, 4).integers(
            0, sizes[:, None], size=(4, len(sizes), b))
        # 1 to 4 steps: their ends fall at every place in a Philox block
        for Q in range(1, 5):
            rows = oracle.draw(TrialStreams(5, 1), 4, Q)
            assert rows.shape == (Q, len(sizes), b)
            assert np.array_equal(rows, expected[:Q]), (b, Q)


@pytest.mark.parametrize("p", [8, 12])
def test_normal_sites_rarely_need_their_own_generator(monkeypatch, p):
    # no site needs one: every gradient draw of a run goes through
    # TrialStreams.gradient, once for each (trial, round)
    calls = []
    gradient = TrialStreams.gradient

    def counted(self, rnd, slot=0):
        calls.append((rnd, self.trials[slot]))
        return gradient(self, rnd, slot)

    monkeypatch.setattr(TrialStreams, "gradient", counted)
    T, Q, trials, n = 40, 8, 8, 10
    run_experiment(ExperimentConfig.from_mapping({
        "topology.n": str(n), "objective.dim": str(p), "objective.sigma": "0.5",
        "schedule": "figure1", "hyper.Q": str(Q), "run.T": str(T),
        "run.trials": str(trials)}))
    assert sorted(calls) == [(rnd, j) for rnd in range(T) for j in range(trials)]


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
def test_a_draw_for_fewer_steps_is_the_leading_steps_of_a_draw_for_more(kind):
    oracle = _oracle(kind, 4)
    for rnd in (0, 1, 37):
        most = oracle.draw(TrialStreams(5, [1, 0]), rnd, 8)
        for Q in range(1, 8):
            fewer = oracle.draw(TrialStreams(5, [1, 0]), rnd, Q)
            assert fewer.tobytes() == most[:Q].tobytes(), (rnd, Q)


def test_gradient_words_are_served_from_read_only_chunks():
    # a round's draws are one read-only block, the chunk every request for
    # that round is served from
    made = []

    def draw(gen, steps):
        made.append(steps)
        return gen.standard_normal((steps, 2))

    def alone_draw(gen, steps):
        return gen.standard_normal((steps, 2))

    shared = TrialStreams(9, [4, 1], steps=3)
    for rnd in range(4):
        for steps in (1, 3, 2):
            got = shared.round_draws(rnd, steps, draw)
            alone = TrialStreams(9, [4, 1]).round_draws(rnd, steps, alone_draw)
            assert got.shape == alone.shape == (steps, 2, 2)
            assert got.tobytes() == alone.tobytes(), (rnd, steps)
            assert not got.flags.writeable
    # each round's draws made once for each trial, for the most steps
    assert made == [3] * 8
    # another draw at a round already served is made anew
    shared.round_draws(3, 1, alone_draw)
    shared.round_draws(3, 1, draw)
    assert made == [3] * 10
