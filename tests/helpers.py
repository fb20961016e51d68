"""Shared reference implementations and instrumentation for the tests.

Everything here is deliberately written from the update equations directly
(no reuse of the library's round functions) so tests compare two
independent code paths.
"""

from __future__ import annotations

import numpy as np

from lmtsim import lca_params
from lmtsim.streams import _PURPOSE_GRADIENT, TrialStreams, _key


def fresh_stream(master_seed, trial, agent, rnd, step, purpose=_PURPOSE_GRADIENT):
    """A new, independent generator for one draw site, built from the
    stream layout directly: counter ``[0, step | purpose << 48,
    agent | rnd << 32, 0]`` under the key of (master_seed, trial)."""
    counter = np.array([0, step | (purpose << 48), agent | (rnd << 32), 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter,
                                                key=_key(master_seed, trial)))


def dsmt_reference(X0, mix, hp, oracle, master_seed, trial, rounds):
    """Single-local-step momentum tracking with accelerated consensus.

    Tracking variables are propagated directly through the augmented
    operator (no correction variables), one stochastic gradient per agent
    per round, drawn from the same streams the main driver would use.
    Returns the iterate matrix after ``rounds`` rounds.
    """
    streams = TrialStreams(master_seed, trial)
    lca = lca_params(mix.lam)
    n, p = X0.shape
    X, X_mem = X0.copy(), X0.copy()
    Z = np.zeros((n, p))
    Y = Y_mem = None
    eta_hat = hp.eta_hat
    for t in range(rounds):
        G = np.stack([oracle.stochastic_gradient(i, X[i], streams.gradient(i, t, 0))
                      for i in range(n)])
        Z_new = hp.beta * Z + (1.0 - hp.beta) * G
        if t == 0:
            Y, Y_mem = Z_new.copy(), Z_new.copy()
        else:
            diff = Z_new - Z
            Y, Y_mem = ((1.0 + lca.eta_w) * (mix.weights @ Y)
                        - lca.eta_w * Y_mem + diff,
                        Y + diff)
        D = X - eta_hat * Y
        D_mem = X_mem - eta_hat * Y
        X, X_mem = (1.0 + lca.eta_w) * (mix.weights @ D) - lca.eta_w * D_mem, D
        Z = Z_new
    return X


class RecordingOracle:
    """Wrap an oracle and record every stochastic gradient it returns."""

    def __init__(self, inner):
        self._inner = inner
        self.drawn = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def stochastic_gradient(self, i, x, rng):
        g = self._inner.stochastic_gradient(i, x, rng)
        self.drawn.append(g.copy())
        return g

    def stochastic_gradient_matrix(self, X, draws_step):
        G = self._inner.stochastic_gradient_matrix(X, draws_step)
        self.drawn.extend(G.copy())
        return G


def finite_difference_gradient(func, x, scale=1e-6):
    """Central differences with the step tied to the iterate magnitude."""
    h = scale * (1.0 + float(np.linalg.norm(x)))
    grad = np.empty_like(x, dtype=float)
    for q in range(x.size):
        e = np.zeros_like(x, dtype=float)
        e[q] = h
        grad[q] = (func(x + e) - func(x - e)) / (2.0 * h)
    return grad
