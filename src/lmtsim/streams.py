"""Counter-based random streams for reproducible multi-agent simulation.

Every stochastic gradient draw in a run is attributed to a pair (trial,
round), and each pair owns an independent ``np.random.Philox`` stream: its
key encodes (master_seed, trial) and its 256-bit counter encodes the round
and the purpose of the draws.  A round's draws come from one ``Generator``
call on its stream for all local steps and agents, laid out (step, agent,
...), so trajectories are identical no matter in which order trials are
executed, serially, in parallel or as one batch.  The optional random
initial iterates come from one stream per (trial, agent) of their own
purpose.

Philox's streams are stable across numpy versions (NEP 19), but the
values ``Generator`` methods make of them are not: a numpy upgrade may move
every stochastic trace.  ``meta.txt`` records the numpy version, and the
golden traces would show such a change.
"""

from __future__ import annotations

import numpy as np

# purpose tags, packed into the high bits of the counter's second word so
# that gradient draws and state-initialization draws never share a stream
_PURPOSE_GRADIENT = 0
_PURPOSE_INIT = 1

_KEY_SALT = 0x9E3779B97F4A7C15  # fixed second key word


def _key(master_seed: int, trial: int) -> np.ndarray:
    return np.array([master_seed & 0xFFFFFFFFFFFFFFFF,
                     (trial ^ _KEY_SALT) & 0xFFFFFFFFFFFFFFFF],
                    dtype=np.uint64)


class TrialStreams:
    """All random streams of one master seed and one trial, or of a batch
    of trials.

    ``trial`` is one trial index, or a sequence of them for a batch run on
    a leading array axis: then :attr:`shape` is ``(len(trial),)``, arrays of
    draws carry that axis after their step axis, and the streams take the
    ``slot`` of their trial in the batch.  ``gradient`` and ``init_state``
    return a *borrowed* generator that is only valid until the next call on
    the same ``TrialStreams``.  It produces exactly the draws of a new
    ``np.random.Philox`` whose counter encodes the stream; reusing one
    underlying Philox object merely avoids construction cost.
    """

    def __init__(self, master_seed: int, trial):
        self.master_seed = int(master_seed)
        self.shape = np.shape(trial)
        # as Python ints: numpy would read [0, 2**63 + 1] as float64
        self.trials = (int(trial),) if self.shape == () else tuple(int(j) for j in trial)
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
        # ((round, draw), block) of the last round's draws
        self._cache = None

    def _reseat(self, agent: int, rnd: int, purpose: int, slot: int) -> np.random.Generator:
        if slot != self._slot:
            self._key_words[:] = self._keys[slot].tolist()
            self._slot = slot
        self._counter[1] = purpose << 48
        self._counter[2] = agent | (rnd << 32)
        self._bg.state = self._state
        return self._gen

    def gradient(self, rnd: int, slot: int = 0) -> np.random.Generator:
        """Stream feeding the stochastic-gradient draws of one round."""
        return self._reseat(0, rnd, _PURPOSE_GRADIENT, slot)

    def init_state(self, agent: int, slot: int = 0) -> np.random.Generator:
        """Stream feeding the optional random initialization of one agent."""
        return self._reseat(agent, 0, _PURPOSE_INIT, slot)

    def round_draws(self, rnd: int, steps: int, draw) -> np.ndarray:
        """The draws ``draw`` makes for the first ``steps`` local steps of
        round ``rnd``, ``(steps, *shape, ...)``, read-only.

        ``draw(gen, steps)`` makes one trial's draws for ``steps`` steps,
        laid out (step, agent, ...), from that trial's stream :meth:`gradient`.
        Every trial's draws are made together and kept until a request for
        another round, another ``draw`` or more steps: a request for fewer
        steps takes their leading steps, which are the draws of a request
        for as many.
        """
        if self._cache is not None:
            (cached_rnd, cached_draw), block = self._cache
            if cached_rnd == rnd and cached_draw == draw and steps <= len(block):
                return block[:steps]
        drawn = [draw(self.gradient(rnd, slot), steps) for slot in range(len(self.trials))]
        block = np.stack(drawn, axis=1).reshape((steps,) + self.shape + drawn[0].shape[1:])
        block.flags.writeable = False
        self._cache = (rnd, draw), block
        return block[:steps]
