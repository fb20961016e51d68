import numpy as np
from hypothesis import given, settings, strategies as st

from helpers import fresh_stream
from lmtsim.streams import _PURPOSE_INIT, TrialStreams, bounded_uint32, philox4x64

_U64 = st.integers(0, 2**64 - 1)


def test_reseated_stream_matches_fresh_construction():
    streams = TrialStreams(master_seed=424242, trial=3)
    for agent, rnd, step in [(0, 0, 0), (5, 17, 2), (31, 999, 0), (5, 17, 3)]:
        borrowed = streams.gradient(agent, rnd, step).normal(size=6)
        fresh = fresh_stream(424242, 3, agent, rnd, step).normal(size=6)
        assert np.array_equal(borrowed, fresh)


def test_streams_are_distinct_across_coordinates():
    streams = TrialStreams(7, 0)
    draws = {}
    coords = [(a, r, s) for a in range(3) for r in range(3) for s in range(2)]
    for c in coords:
        draws[c] = tuple(streams.gradient(*c).normal(size=4))
    assert len(set(draws.values())) == len(coords)
    other_trial = TrialStreams(7, 1).gradient(0, 0, 0).normal(size=4)
    assert not np.array_equal(other_trial, np.array(draws[(0, 0, 0)]))
    other_seed = TrialStreams(8, 0).gradient(0, 0, 0).normal(size=4)
    assert not np.array_equal(other_seed, np.array(draws[(0, 0, 0)]))


def test_init_stream_independent_of_gradient_stream():
    streams = TrialStreams(7, 0)
    a = streams.init_state(0).normal(size=4)
    b = streams.gradient(0, 0, 0).normal(size=4)
    assert not np.array_equal(a, b)


def test_order_of_access_does_not_matter():
    s1 = TrialStreams(11, 2)
    first = s1.gradient(2, 5, 1).normal(size=5)
    _ = s1.gradient(0, 0, 0).normal(size=5)
    again = s1.gradient(2, 5, 1).normal(size=5)
    assert np.array_equal(first, again)


def _bumped(counter):
    """The 256-bit counter plus one, as numpy's Philox increments it."""
    value = (sum(w << (64 * j) for j, w in enumerate(counter)) + 1) % 2**256
    return [(value >> (64 * j)) & (2**64 - 1) for j in range(4)]


@settings(max_examples=200, deadline=None)
@given(key=st.tuples(_U64, _U64),
       counters=st.lists(st.tuples(_U64, _U64, _U64, _U64), min_size=1, max_size=6))
def test_philox_block_matches_numpy(key, counters):
    k = np.array(key, dtype=np.uint64)
    blocks = philox4x64(np.array([_bumped(c) for c in counters], dtype=np.uint64), k)
    for c, block in zip(counters, blocks):
        expected = np.random.Philox(counter=np.array(c, dtype=np.uint64), key=k).random_raw(4)
        assert np.array_equal(block, expected)


def test_gradient_words_match_each_site_stream():
    streams = TrialStreams(2**64 - 1, 3)
    words = streams.gradient_words(12, 3, 5, 9)
    assert words.shape == (3, 5, 9)
    for step in range(3):
        for i in range(5):
            raw = fresh_stream(2**64 - 1, 3, i, 12, step).bit_generator.random_raw(9)
            assert np.array_equal(words[step, i], raw)


def test_batched_streams_match_each_trials_streams():
    trials = [3, 0, 8]
    batch = TrialStreams(2**64 - 1, trials)
    assert batch.shape == (3,) and TrialStreams(5, 3).shape == ()
    words = batch.gradient_words(12, 2, 4, 5)
    assert words.shape == (2, 3, 4, 5)
    for slot, trial in enumerate(trials):
        alone = TrialStreams(2**64 - 1, trial).gradient_words(12, 2, 4, 5)
        assert np.array_equal(words[:, slot], alone)
    # per-site streams, in an order that switches trials at every call
    for step, slot, i in [(1, 2, 3), (0, 0, 1), (1, 2, 3), (0, 1, 0), (0, 1, 2)]:
        expected = fresh_stream(2**64 - 1, trials[slot], i, 12, step)
        assert np.array_equal(batch.gradient(i, 12, step, slot).normal(size=3),
                              expected.normal(size=3))
        init = fresh_stream(2**64 - 1, trials[slot], i, 0, 0, purpose=_PURPOSE_INIT)
        assert np.array_equal(batch.init_state(i, slot).normal(size=3), init.normal(size=3))


def test_round_integers_match_numpy_across_block_boundaries():
    sizes = np.array([40, 41, 1, 7, 1000])
    streams = TrialStreams(5, 1)
    for b in (1, 2, 7, 8, 9, 17):
        words = streams.gradient_words(4, 3, len(sizes), (b + 1) // 2)
        values, rejected = bounded_uint32(words, sizes, b)
        assert values.shape == (3, len(sizes), b) and not rejected.any()
        for step in range(3):
            for i, s in enumerate(sizes):
                expected = fresh_stream(5, 1, i, 4, step).integers(0, s, size=b)
                assert np.array_equal(values[step, i], expected)


def _halves_consumed(gen):
    """32-bit outputs a fresh Philox-backed generator has handed out."""
    state = gen.bit_generator.state
    blocks = int(state["state"]["counter"][0])
    return 2 * (4 * (blocks - 1) + state["buffer_pos"]) - state["has_uint32"]


def test_lemire_rejections_are_flagged_exactly():
    # threshold (2**32 - s) % s = 2**30: a quarter of all draws is rejected
    s = 3 * 2**30
    streams = TrialStreams(9, 0)
    for b in (1, 2, 7):
        words = streams.gradient_words(0, 10, 8, (b + 1) // 2)
        values, rejected = bounded_uint32(words, np.full(8, s), b)
        assert 0 < rejected.sum() < rejected.size
        for step in range(10):
            for i in range(8):
                gen = fresh_stream(9, 0, i, 0, step)
                expected = gen.integers(0, s, size=b)
                assert rejected[step, i] == (_halves_consumed(gen) > b)
                if not rejected[step, i]:
                    assert np.array_equal(values[step, i], expected)
