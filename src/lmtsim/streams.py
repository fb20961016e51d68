"""Counter-based random streams for reproducible multi-agent simulation.

Every stochastic draw in a run is attributed to a tuple
(master_seed, trial, agent, round, local_step).  Each tuple owns an
independent Philox stream whose 256-bit counter encodes the tuple, so
trajectories are identical no matter in which order agents or trials are
executed, serially, in parallel or as one batch.

A round's minibatch indices, for every trial of a batch, come from one
vectorised evaluation of the Philox4x64-10 block function over the
counters and keys of all its draw sites
(:meth:`TrialStreams.gradient_words`) and numpy's Lemire rule for bounded
integers (:func:`bounded_uint32`); a round's Gaussian noise comes from the
same words and numpy's ziggurat, fast path, wedge and tail
(:meth:`TrialStreams.gradient_normals`, :func:`standard_normal`).  All
three are bit-equal to ``np.random.Philox``, ``Generator.integers`` and
``Generator.standard_normal``, so these draws are the ones the per-site
generators would make.
"""

from __future__ import annotations

import functools
import math
from pathlib import Path

import numpy as np

# purpose tags, packed into the high bits of the local-step word so that
# gradient draws and state-initialization draws never share a stream
_PURPOSE_GRADIENT = 0
_PURPOSE_INIT = 1

_KEY_SALT = 0x9E3779B97F4A7C15  # fixed second key word

# Philox4x64 multipliers and Weyl key increments (Salmon et al., SC 2011),
# as columns that act on the (c0, c2) word pair
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & _LOW32, _PHILOX_M >> _SHIFT32

#: Philox blocks per chunk of :meth:`TrialStreams.gradient_words` and
#: :meth:`TrialStreams.gradient_normals`.  A Philox call's fixed cost is
#: that of some 1,400 blocks (about 0.33 ms plus 0.23 us a block on a
#: 2-core x86_64 VM), so the words of consecutive rounds are computed
#: together; past about 8,192 blocks the cost per block nearly doubles, as
#: the working set outgrows the cache
_CHUNK_BLOCKS = 8192


def _key(master_seed: int, trial: int) -> np.ndarray:
    return np.array([master_seed & 0xFFFFFFFFFFFFFFFF,
                     (trial ^ _KEY_SALT) & 0xFFFFFFFFFFFFFFFF],
                    dtype=np.uint64)


def _mulhilo(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products ``a * _PHILOX_M``,
    the high word assembled from 32-bit halves (Hacker's Delight, mulhu)."""
    a_lo, a_hi = a & _LOW32, a >> _SHIFT32
    t = a_hi * _PHILOX_M_LO + ((a_lo * _PHILOX_M_LO) >> _SHIFT32)
    w = a_lo * _PHILOX_M_HI + (t & _LOW32)
    return a_hi * _PHILOX_M_HI + (t >> _SHIFT32) + (w >> _SHIFT32), a * _PHILOX_M


def philox4x64(counters: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Philox4x64-10 block function over an array of counters.

    ``counters`` is a uint64 array of shape ``(..., 4)`` and ``key`` holds
    uint64 key pairs along its last axis, broadcast against
    ``counters[..., :2]``; returns the uint64 blocks, shape ``(..., 4)``.
    A ``np.random.Philox`` bumps its counter before each block, so its
    first four ``random_raw`` outputs are the block of its counter plus one.
    """
    # rows: (c0, c2), the multiplied words, and (c1, c3), the xored ones
    even = np.stack([counters[..., 0], counters[..., 2]]).reshape(2, -1)
    odd = np.stack([counters[..., 1], counters[..., 3]]).reshape(2, -1)
    key = np.broadcast_to(np.asarray(key, dtype=np.uint64), counters.shape[:-1] + (2,))
    k = np.moveaxis(key, -1, 0).reshape(2, -1)
    for r in range(_PHILOX_ROUNDS):
        if r:
            k = k + _PHILOX_W
        hi, lo = _mulhilo(even)
        even, odd = hi[::-1] ^ odd ^ k, lo[::-1]
    return np.stack([even[0], odd[0], even[1], odd[1]], axis=-1).reshape(counters.shape)


def bounded_uint32(words: np.ndarray, bound: np.ndarray,
                   count: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's Lemire rule for ``count`` integers in ``[0, bound)`` per stream.

    ``words`` holds each stream's first 64-bit outputs along its last axis;
    draw j uses their 32-bit half j, low half first, as
    ``Generator.integers(0, bound, size=count)`` does for
    ``1 <= bound <= 2**32``.  ``bound`` broadcasts against ``words[..., 0]``.
    Returns ``(values, rejected)``: ``values[..., j]`` is draw j, and
    ``rejected`` flags the streams where numpy would have rejected a draw;
    their values are not numpy's and must be redrawn.
    """
    halves = np.stack([words & _LOW32, words >> _SHIFT32], axis=-1)
    halves = halves.reshape(words.shape[:-1] + (-1,))[..., :count]
    bound = np.asarray(bound, dtype=np.uint64)
    m = halves * bound[..., None]
    threshold = ((np.uint64(2**32) - bound) % bound)[..., None]
    return (m >> _SHIFT32).astype(np.int64), ((m & _LOW32) < threshold).any(axis=-1)


@functools.cache
def _ziggurat_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """numpy's ziggurat tables ``(ki, wi, fi)``, read-only, as written by
    ``tools/make_ziggurat_tables.py`` from numpy's own object code."""
    tables = np.load(Path(__file__).with_name("ziggurat_tables.npy"))
    tables.flags.writeable = False
    return tables["ki"], tables["wi"], tables["fi"]


# the tail of numpy's normal ziggurat starts at r (``ziggurat_nor_r``)
_ZIGGURAT_R = 3.6541528853610087963519472518
_ZIGGURAT_INV_R = 0.27366123732975827203338247596
_SIGN_BIT = np.uint64(1 << 63)


def _uniform(word: int) -> float:
    """The double a Philox ``next_double`` makes of one 64-bit word."""
    return (word >> 11) * 2.0**-53


def standard_normal(words: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's ziggurat, ``count`` standard normals per stream of words.

    ``words`` holds each stream's first 64-bit outputs along its last axis,
    at least ``count`` of them.  Draw j is the j-th value
    ``Generator.standard_normal`` returns from that stream (Marsaglia and
    Tsang, J. Stat. Softw. 5(8), 2000).  A word takes the fast path when
    ``rabs = (w >> 9) & (2**52 - 1)`` is below ``ki[w & 0xff]``: its value
    is ``rabs * wi[w & 0xff]``, negated when bit 8 is set.  That value
    depends on the word alone, so only the streams with a slow word among
    their first ``count`` words are walked (:func:`_slow_path`).  Returns
    ``(values, short)``: ``short`` flags the streams whose words ran out
    before their ``count`` draws; their values must be redrawn.
    """
    ki, wi, _ = _ziggurat_tables()
    layer = (words & np.uint64(0xFF)).astype(np.intp)
    rabs = (words >> np.uint64(9)) & np.uint64(2**52 - 1)
    values = rabs.astype(np.float64) * wi[layer]
    # bit 8 of each word into the sign bit: the fast path's negation
    values.view(np.uint64)[...] ^= (words << np.uint64(55)) & _SIGN_BIT
    slow = rabs >= ki[layer]
    short = np.zeros(values.shape[:-1], dtype=bool)
    rows = np.flatnonzero(slow[..., :count].any(axis=-1))
    if rows.size:
        width = words.shape[-1]
        walked = [a.reshape(-1, width)[rows] for a in (words, values, slow, layer)]
        drawn, short.ravel()[rows] = _slow_path(*walked, count)
        values.reshape(-1, width)[rows, :count] = drawn
    return values[..., :count], short


def _slow_path(words, values, slow, layer, count):
    """Draws ``(rows, count)`` of streams ``(rows, width)`` that have a slow
    word, and the rows whose words ran out (see :func:`standard_normal`).

    numpy tests a slow word of layer ``l > 0`` against the wedge with the
    next word as a uniform ``U``: the fast-path value stands if
    ``(fi[l-1] - fi[l]) U + fi[l] < exp(-x^2/2)``, else the draw starts
    over.  A slow word of layer 0 goes to the tail, which spends pairs of
    words until one is accepted.  Both use the C library's ``exp`` and
    ``log1p``, as numpy does.  Which words a slow word spends does not
    depend on where it stands in its stream, so every slow word is tested
    as if read, and the words read are then found from what the read ones
    spend."""
    rows, width = words.shape
    fi = _ziggurat_tables()[2]
    at = np.arange(width)
    draws = ~slow  # words that make a draw if read
    spends = at + slow  # the last word each word spends
    # wedge
    f = np.flatnonzero(slow & (layer != 0))
    lay, x = layer.take(f), values.take(f)
    u = (words.take(f + 1, mode="clip") >> np.uint64(11)) * 2.0**-53
    bound = np.fromiter(map(math.exp, (-0.5 * x * x).tolist()), float, len(f))
    draws.ravel()[f] = (fi[lay - 1] - fi[lay]) * u + fi[lay] < bound
    draws[:, -1] = ~slow[:, -1]  # a slow last word has no word left for its test
    # tail: xx = -log1p(-U1) / r and yy = -log1p(-U2) until 2 yy > xx^2; the
    # value r + xx takes the sign of bit 8 of rabs, bit 17 of the word
    for r, c in zip(*np.nonzero(slow & (layer == 0))):
        stream = words[r].tolist()
        spends[r, c] = width  # unless a pair is accepted within the stream
        for first in range(c + 1, width - 1, 2):
            xx = -_ZIGGURAT_INV_R * math.log1p(-_uniform(stream[first]))
            yy = -math.log1p(-_uniform(stream[first + 1]))
            if yy + yy > xx * xx:
                value = _ZIGGURAT_R + xx
                values[r, c] = -value if stream[c] >> 17 & 1 else value
                draws[r, c], spends[r, c] = True, first + 1
                break
    # a word is read unless a read word before it spends it: count the
    # spends of every slow word, then of the slow words found read, until
    # those are the ones counted
    counted = slow
    while True:
        reach = np.maximum.accumulate(np.where(counted, spends, -1), axis=1)
        read = np.ones_like(slow)
        read[:, 1:] = reach[:, :-1] < at[1:]
        if np.array_equal(read & slow, counted):
            break
        counted = read & slow
    draws &= read
    made = np.cumsum(draws, axis=1)
    short = made[:, -1] < count
    pick = draws & (made <= count)
    pick[short] = at < count
    return values[pick].reshape(rows, count), short


class TrialStreams:
    """All random streams of one master seed and one trial, or of a batch
    of trials.

    ``trial`` is one trial index, or a sequence of them for a batch run on
    a leading array axis: then :attr:`shape` is ``(len(trial),)``, arrays of
    draws carry that axis after their step axis, and the per-site streams
    take the ``slot`` of their trial in the batch.  ``gradient`` and
    ``init_state`` return a *borrowed* generator that is only valid until
    the next call on the same ``TrialStreams``.  It produces exactly the
    draws of a new ``np.random.Philox`` whose counter encodes the site;
    reusing one underlying Philox object merely avoids construction cost.
    Its first chunk of draws is sized for ``steps``, the most local steps a round asks for.
    """

    def __init__(self, master_seed: int, trial, steps: int = 1):
        self.master_seed = int(master_seed)
        self.shape = np.shape(trial)
        self.trials = tuple(int(j) for j in np.ravel(trial))
        self._keys = np.stack([_key(self.master_seed, j) for j in self.trials])
        self._bg = np.random.Philox(counter=np.zeros(4, dtype=np.uint64), key=self._keys[0])
        self._gen = np.random.Generator(self._bg)
        # the state of a fresh Philox (empty buffer, no cached 32-bit half),
        # its words in int lists: the state setter reads them one at a
        # time, about twice as fast from a list as from an array.  The
        # generator never writes to this dict, so reseating rewrites only
        # its key and the identifying counter words.  counter[0] is the
        # free-running word the generator itself consumes and counter[3] is
        # unused; both stay zero, and the identifying words live above
        # counter[0] so streams can never collide.
        self._counter = [0, 0, 0, 0]
        self._key_words = self._keys[0].tolist()
        self._state = {**self._bg.state, "buffer": [0, 0, 0, 0],
                       "state": {"counter": self._counter, "key": self._key_words}}
        self._slot = 0
        # (first round, layout, chunk) of the last chunk, and the most steps asked
        self._chunk = None
        self._steps = steps

    def _reseat(self, agent: int, rnd: int, step: int, purpose: int,
                slot: int) -> np.random.Generator:
        if slot != self._slot:
            self._key_words[:] = self._keys[slot].tolist()
            self._slot = slot
        self._counter[1] = step | (purpose << 48)
        self._counter[2] = agent | (rnd << 32)
        self._bg.state = self._state
        return self._gen

    def gradient(self, agent: int, rnd: int, step: int, slot: int = 0) -> np.random.Generator:
        """Stream feeding the stochastic-gradient draw of one local step."""
        return self._reseat(agent, rnd, step, _PURPOSE_GRADIENT, slot)

    def init_state(self, agent: int, slot: int = 0) -> np.random.Generator:
        """Stream feeding the optional random initialization of one agent."""
        return self._reseat(agent, 0, 0, _PURPOSE_INIT, slot)

    def gradient_words(self, rnd: int, steps: int, agents: int, words: int) -> np.ndarray:
        """First ``words`` 64-bit outputs of the gradient streams of round
        ``rnd``, shape ``(steps, *shape, agents, words)``: entry
        ``[step, slot, i]`` equals
        ``self.gradient(i, rnd, step, slot).bit_generator.random_raw(words)``.

        The words of consecutive rounds from ``rnd`` on are computed in one
        Philox call, up to ``_CHUNK_BLOCKS`` blocks, and later requests of
        the same layout are served from that chunk, those for fewer local
        steps by its leading steps.  The result is a read-only view into it.
        """
        return self._served(rnd, steps, ("words", agents, words),
                            lambda first, raw: raw[..., :words])

    def gradient_normals(self, rnd: int, steps: int, agents: int, count: int) -> np.ndarray:
        """Standard normals of the gradient streams of round ``rnd``, shape
        ``(steps, *shape, agents, count)``: entry ``[step, slot, i]`` equals
        ``self.gradient(i, rnd, step, slot).standard_normal(count)``.

        Chunked and served as :meth:`gradient_words`, from whole Philox blocks
        with a word to spare a site, by :func:`standard_normal`; a site
        whose words run out is drawn through its own generator.
        """
        def normals(first, raw):
            values, short = standard_normal(raw, count)
            for site in zip(*np.nonzero(short)):
                r, step, *slot, i = map(int, site)
                self.gradient(i, first + r, step, *slot).standard_normal(out=values[site])
            return values

        return self._served(rnd, steps, ("normals", agents, count), normals)

    def _served(self, rnd: int, steps: int, layout: tuple, finish) -> np.ndarray:
        """The first ``steps`` local steps of round ``rnd`` of the last chunk
        if it has ``layout = (kind, agents, per_site)``, that round and as
        many steps, else of a new chunk from ``rnd`` on, for the most steps
        asked for so far: ``finish(first_round, words)`` turns the words of
        whole blocks, shape ``(rounds, steps, *shape, agents, 4 * blocks)``,
        into the chunk."""
        if self._chunk is not None:
            first, chunk_layout, chunk = self._chunk
            if (chunk_layout == layout and first <= rnd < first + len(chunk)
                    and steps <= chunk.shape[1]):
                return chunk[rnd - first, :steps]
        self._steps = most = max(steps, self._steps)
        kind, agents, per_site = layout
        # a spare word a site for the extra draws of a slow normal
        blocks = per_site // 4 + 1 if kind == "normals" else -(-per_site // 4)
        rounds = max(1, _CHUNK_BLOCKS // (most * len(self.trials) * agents * blocks))
        counters = np.zeros((rounds, most) + self.shape + (agents, blocks, 4), dtype=np.uint64)
        counters[..., 0] = np.arange(1, blocks + 1, dtype=np.uint64)
        # the words _reseat packs for each (agent, rnd, step) site
        steps_word = np.arange(most, dtype=np.uint64) | np.uint64(_PURPOSE_GRADIENT << 48)
        counters[..., 1] = steps_word.reshape((1, most) + (1,) * (counters.ndim - 3))
        rounds_word = np.arange(rnd, rnd + rounds, dtype=np.uint64) << _SHIFT32
        counters[..., 2] = (rounds_word.reshape((rounds,) + (1,) * (counters.ndim - 2))
                            | np.arange(agents, dtype=np.uint64)[:, None])
        keys = self._keys.reshape(self.shape + (1, 1, 2))
        out = philox4x64(counters, keys)
        chunk = finish(rnd, out.reshape(counters.shape[:-2] + (4 * blocks,)))
        chunk.flags.writeable = False
        self._chunk = (rnd, layout, chunk)
        return chunk[0, :steps]
