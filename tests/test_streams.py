import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import fresh_stream
from lmtsim.config import ExperimentConfig
from lmtsim.harness import run_experiment
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
    ki, _, _ = _ziggurat_tables()
    layer = np.arange(256, dtype=np.uint64)
    cases = []  # every layer: magnitudes 0, ki - 1 and ki, both signs
    for rabs in (np.zeros(256, dtype=np.uint64), np.maximum(ki, 1) - np.uint64(1), ki):
        for sign in (0, 1):
            cases.append(layer | np.uint64(sign << 8) | (rabs << np.uint64(9)))
    words = np.concatenate(cases)[:, None]
    # one word a stream: a slow word has no word left for its test
    values, short = standard_normal(words, 1)
    filler = np.random.Philox(1).random_raw(200)
    for w, value, flagged in zip(words[:, 0], values[:, 0], short):
        gen = _generator_replaying(np.concatenate([[w], filler]))
        expected = gen.standard_normal()
        assert flagged == (gen.bit_generator.state["state"]["pos"] > 2), hex(w)
        if not flagged:
            assert np.float64(expected).tobytes() == value.tobytes(), hex(w)
    assert 0 < short.sum() < len(short)


def _words_used(gen):
    """64-bit outputs a fresh Philox-backed generator has handed out."""
    state = gen.bit_generator.state
    return 4 * (int(state["state"]["counter"][0]) - 1) + state["buffer_pos"]


@pytest.mark.parametrize("p", [1, 4, 5, 13])
def test_ziggurat_draws_are_numpy_normals_or_flagged(p):
    streams = TrialStreams(9, 0)
    width = 4 * -(-p // 4)  # the words of whole Philox blocks
    values, short = standard_normal(streams.gradient_words(0, 10, 8, width), p)
    assert values.shape == (10, 8, p) and short.shape == (10, 8)
    for step in range(10):
        for i in range(8):
            gen = fresh_stream(9, 0, i, 0, step)
            expected = gen.standard_normal(p)
            assert short[step, i] == (_words_used(gen) > width)
            if not short[step, i]:
                assert values[step, i].tobytes() == expected.tobytes()


def test_slow_path_matches_numpy_on_real_philox_sites():
    """Sites of real Philox streams whose first slow word is a wedge that
    stands, a wedge that is rejected or a tail word, and sites whose words
    run out, all against the generator of each site."""
    seed, trials, steps, agents, count, width = 3, [0, 1], 40, 50, 10, 12
    streams = TrialStreams(seed, trials)
    words = streams.gradient_words(0, steps, agents, width)
    values, short = standard_normal(words, count)
    ki, wi, _ = _ziggurat_tables()
    layer = (words & np.uint64(0xFF)).astype(np.intp)
    rabs = (words >> np.uint64(9)) & np.uint64(2**52 - 1)
    slow = rabs >= ki[layer]
    first = np.where(slow.any(axis=-1), slow.argmax(axis=-1), width)
    seen = dict.fromkeys(["fast", "wedge_stands", "wedge_rejected", "tail", "short"], 0)
    for site in np.ndindex(short.shape):
        step, slot, i = site
        gen = fresh_stream(seed, trials[slot], i, 0, step)
        expected = gen.standard_normal(count)
        assert short[site] == (_words_used(gen) > width), site
        s = first[site]
        if short[site]:
            seen["short"] += 1
            continue
        assert values[site].tobytes() == expected.tobytes(), site
        if s >= count:
            seen["fast"] += 1
        elif layer[site][s] == 0:
            seen["tail"] += 1
        else:
            fast_value = float(rabs[site][s]) * wi[layer[site][s]]
            stands = abs(expected[s]) == fast_value
            seen["wedge_stands" if stands else "wedge_rejected"] += 1
    assert min(seen.values()) > 0, seen


@settings(max_examples=40, deadline=None)
@given(seed=_U64, trials=st.lists(st.integers(0, 2**32), min_size=1, max_size=3),
       Q=st.integers(1, 8), agents=st.integers(1, 4), p=st.integers(1, 13),
       start=st.integers(0, 300), batch=st.booleans())
def test_gradient_normals_equal_each_sites_normals(seed, trials, Q, agents, p, start, batch):
    streams = TrialStreams(seed, trials if batch else trials[0])
    # a chunk starts at the first round asked for; ask across its end
    per_chunk = max(1, _CHUNK_BLOCKS // (Q * len(streams.trials) * agents * (p // 4 + 1)))
    for rnd in (start, start + per_chunk - 1, start + per_chunk):
        got = streams.gradient_normals(rnd, Q, agents, p)
        assert got.shape == (Q,) + streams.shape + (agents, p) and not got.flags.writeable
        sites = got.reshape(Q, -1, agents, p)
        for step in range(Q):
            for slot, trial in enumerate(streams.trials):
                for i in range(agents):
                    expected = fresh_stream(seed, trial, i, rnd, step).standard_normal(p)
                    assert sites[step, slot, i].tobytes() == expected.tobytes()


@pytest.mark.parametrize("p", [8, 12])
def test_normal_sites_rarely_need_their_own_generator(monkeypatch, p):
    # a multiple of 4 fills whole blocks; the spare block keeps a site with
    # a slow word from running out of words (12% and 17% of sites ran out
    # without it)
    calls = []
    gradient = TrialStreams.gradient

    def counted(self, *site):
        calls.append(site)
        return gradient(self, *site)

    monkeypatch.setattr(TrialStreams, "gradient", counted)
    T, Q, trials, n = 40, 8, 8, 10
    run_experiment(ExperimentConfig.from_mapping({
        "topology.n": str(n), "objective.dim": str(p), "objective.sigma": "0.5",
        "schedule": "figure1", "hyper.Q": str(Q), "run.T": str(T),
        "run.trials": str(trials)}))
    assert 0 < len(calls) < 0.01 * T * Q * trials * n


_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_U64_MASK = 2**64 - 1


def _philox_inverse(block, key):
    """The counter whose Philox4x64-10 block is ``block``: the ten rounds
    undone, each multiplier inverted modulo 2**64."""
    x = [int(w) for w in block]
    inverse = [pow(m, -1, 2**64) for m in _PHILOX_M]
    for r in reversed(range(10)):
        k0 = (int(key[0]) + r * _PHILOX_W[0]) & _U64_MASK
        k1 = (int(key[1]) + r * _PHILOX_W[1]) & _U64_MASK
        c0 = (x[3] * inverse[0]) & _U64_MASK
        c2 = (x[1] * inverse[1]) & _U64_MASK
        c1 = x[0] ^ ((c2 * _PHILOX_M[1]) >> 64) ^ k0
        c3 = x[2] ^ ((c0 * _PHILOX_M[0]) >> 64) ^ k1
        x = [c0, c1, c2, c3]
    return x


def _philox_replaying(block):
    """A Philox generator whose first four words are ``block``."""
    key = np.array([12345, 678], dtype=np.uint64)
    counter = sum(c << (64 * j) for j, c in enumerate(_philox_inverse(block, key))) - 1
    counter = [(counter >> (64 * j)) & _U64_MASK for j in range(4)]
    return np.random.Generator(np.random.Philox(counter=np.array(counter, dtype=np.uint64),
                                                key=key))


def test_philox_replaying_hands_out_the_chosen_block():
    block = [1, 2**64 - 1, 0xDEADBEEF, 7]
    assert _philox_replaying(block).bit_generator.random_raw(4).tolist() == block


def _wedge_near_ties():
    """Wedge words whose test value lies between numpy's SIMD ``exp`` and
    the C library's ``exp`` of ``-x^2/2``: (slow word, uniform word)."""
    ki, wi, fi = _ziggurat_tables()
    ties = {}
    for lay in range(1, 255):
        for rabs in range(int(ki[lay]), 2**52, 2**52 // 997):
            x = rabs * wi[lay]
            libm, simd = math.exp(-0.5 * x * x), float(np.exp(np.float64(-0.5 * x * x)))
            if libm == simd or (simd > libm) in ties:
                continue
            # the 53-bit uniform m / 2**53 whose test value just reaches min(libm, simd)
            step = fi[lay - 1] - fi[lay]
            m = int((min(libm, simd) - fi[lay]) / step * 2.0**53)
            while step * (m * 2.0**-53) + fi[lay] < min(libm, simd):
                m += 1
            while step * ((m - 1) * 2.0**-53) + fi[lay] >= min(libm, simd):
                m -= 1
            if not 0 <= m < 2**53 or step * (m * 2.0**-53) + fi[lay] >= max(libm, simd):
                continue
            ties[simd > libm] = (lay | (rabs << 9), m << 11)
            if len(ties) == 2:
                return list(ties.values())
    raise AssertionError("numpy's exp equals the C library's on every probed wedge")


@pytest.mark.parametrize("case", range(2))
def test_wedge_test_uses_the_c_library_exp_on_near_ties(case):
    slow_word, uniform_word = _wedge_near_ties()[case]
    fast_word = 5 | (12345 << 9)  # layer 5, far below ki[5]
    block = [slow_word, uniform_word, fast_word, fast_word | 1 << 8]
    gen = _philox_replaying(block)
    words = gen.bit_generator.random_raw(8)
    gen = _philox_replaying(block)
    values, short = standard_normal(words[None], 3)
    assert not short[0]
    assert values[0].tobytes() == gen.standard_normal(3).tobytes()


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
    tables = _ziggurat_tables()
    for name, table in zip(("ki", "wi", "fi"), tables):
        assert np.array_equal(table, committed[name]), name
        assert not table.flags.writeable
