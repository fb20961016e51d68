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
integers (:func:`bounded_uint32`).  Both are bit-equal to ``np.random.Philox``
and ``Generator.integers``, so these draws are the ones the per-site
generators would make.
"""

from __future__ import annotations

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
    """

    def __init__(self, master_seed: int, trial):
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
        ``self.gradient(i, rnd, step, slot).bit_generator.random_raw(words)``."""
        blocks = -(-words // 4)
        counters = np.zeros((steps,) + self.shape + (agents, blocks, 4), dtype=np.uint64)
        counters[..., 0] = np.arange(1, blocks + 1, dtype=np.uint64)
        # the words _reseat packs for each (agent, rnd, step) site
        steps_word = np.arange(steps, dtype=np.uint64) | np.uint64(_PURPOSE_GRADIENT << 48)
        counters[..., 1] = steps_word.reshape((steps,) + (1,) * (counters.ndim - 2))
        counters[..., 2] = (np.arange(agents, dtype=np.uint64)
                            | np.uint64(rnd << 32))[:, None]
        keys = self._keys.reshape(self.shape + (1, 1, 2))
        out = philox4x64(counters, keys)
        return out.reshape(counters.shape[:-2] + (4 * blocks,))[..., :words]
