import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import fresh_stream
from lmtsim.streams import (_CHUNK_BLOCKS, _PURPOSE_INIT, TrialStreams, _ziggurat_tables,
                            bounded_uint32, philox4x64, standard_normal)

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


def test_gradient_words_are_served_from_read_only_chunks():
    seed, trials = 2**64 - 1, [3, 0]
    streams = TrialStreams(seed, trials)

    def check(rnd, steps, agents, words):
        got = streams.gradient_words(rnd, steps, agents, words)
        assert got.shape == (steps, len(trials), agents, words)
        assert not got.flags.writeable
        for step in range(steps):
            for slot, trial in enumerate(trials):
                for i in range(agents):
                    raw = fresh_stream(seed, trial, i, rnd, step).bit_generator.random_raw(words)
                    assert np.array_equal(got[step, slot, i], raw), (rnd, step, slot, i)

    # 2 steps x 2 trials x 5 agents x 3 blocks: 60 blocks a round
    per_chunk = _CHUNK_BLOCKS // 60
    for rnd in range(per_chunk + 2):  # across the first chunk boundary
        check(rnd, 2, 5, 9)
    check(3, 2, 5, 9)  # an earlier round
    check(4, 2, 5, 3)  # another layout, then back
    check(4, 2, 5, 9)
    check(5, 8, 1, 1)


def _untemper(y):
    """Inverse of MT19937's output tempering on 32-bit values."""
    y = y ^ (y >> np.uint64(18))
    y = y ^ ((y << np.uint64(15)) & np.uint64(0xEFC60000))
    r = y
    for _ in range(4):
        r = y ^ ((r << np.uint64(7)) & np.uint64(0x9D2C5680))
    r &= np.uint64(0xFFFFFFFF)
    z = r
    for _ in range(2):
        z = r ^ (z >> np.uint64(11))
    return z


def _generator_replaying(words):
    """A numpy generator whose next 64-bit outputs are ``words``: an
    MT19937 whose state holds their untempered 32-bit halves, high first."""
    words = np.asarray(words, dtype=np.uint64)
    halves = np.stack([words >> np.uint64(32), words & np.uint64(0xFFFFFFFF)], axis=-1)
    key = np.zeros(624, dtype=np.uint64)
    key[:2 * len(words)] = _untemper(halves.ravel())
    bg = np.random.MT19937(0)
    bg.state = {**bg.state, "state": {"key": key.astype(np.uint32), "pos": 0}}
    return np.random.Generator(bg)


def test_ziggurat_fast_path_matches_numpy_at_every_layer_boundary():
    ki, _ = _ziggurat_tables()
    layer = np.arange(256, dtype=np.uint64)
    cases = []  # every layer: magnitudes 0, ki - 1 and ki, both signs
    for rabs in (np.zeros(256, dtype=np.uint64), np.maximum(ki, 1) - np.uint64(1), ki):
        for sign in (0, 1):
            cases.append(layer | np.uint64(sign << 8) | (rabs << np.uint64(9)))
    words = np.concatenate(cases)[:, None]
    values, rejected = standard_normal(words)
    filler = np.random.Philox(1).random_raw(200)
    for w, value, flagged in zip(words[:, 0], values[:, 0], rejected):
        gen = _generator_replaying(np.concatenate([[w], filler]))
        expected = gen.standard_normal()
        assert flagged == (gen.bit_generator.state["state"]["pos"] > 2), hex(w)
        if not flagged:
            assert np.float64(expected).tobytes() == value.tobytes(), hex(w)
    assert 0 < rejected.sum() < len(rejected)


@pytest.mark.parametrize("p", [1, 4, 5, 13])
def test_ziggurat_draws_are_numpy_normals_or_flagged(p):
    streams = TrialStreams(9, 0)
    values, rejected = standard_normal(streams.gradient_words(0, 10, 8, p))
    assert values.shape == (10, 8, p) and rejected.shape == (10, 8)
    for step in range(10):
        for i in range(8):
            gen = fresh_stream(9, 0, i, 0, step)
            expected = gen.standard_normal(p)
            state = gen.bit_generator.state
            words_used = 4 * (int(state["state"]["counter"][0]) - 1) + state["buffer_pos"]
            assert rejected[step, i] == (words_used > p)
            if not rejected[step, i]:
                assert values[step, i].tobytes() == expected.tobytes()


_TOOL = Path(__file__).resolve().parents[1] / "tools" / "make_ziggurat_tables.py"


def test_committed_ziggurat_tables_equal_numpys():
    spec = importlib.util.spec_from_file_location("make_ziggurat_tables", _TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    if not tool.ARCHIVE.is_file():
        pytest.skip(f"numpy ships no {tool.ARCHIVE.name} here")
    extracted = tool.extract()
    committed = np.load(tool.OUT)
    assert committed.dtype == extracted.dtype == tool.DTYPE
    assert committed.tobytes() == extracted.tobytes()
    ki, wi = _ziggurat_tables()
    assert np.array_equal(ki, committed["ki"]) and np.array_equal(wi, committed["wi"])
    assert not ki.flags.writeable and not wi.flags.writeable
