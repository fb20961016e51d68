"""Shared reference implementations and instrumentation for the tests.

The references are deliberately written from the update equations
directly (no reuse of the library's round functions) so tests compare two
independent code paths; ``run_point`` alone drives the library's own
round loop, for tests of one point's per-trial metrics.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.special import expit, log_expit

from lmtsim import harness
from lmtsim.streams import _PURPOSE_GRADIENT, TrialStreams, _key


def fresh_stream(master_seed, trial, rnd, agent=0, purpose=_PURPOSE_GRADIENT):
    """A new, independent generator for one stream, built from the stream
    layout directly: counter ``[0, purpose << 48, agent | rnd << 32, 0]``
    under the key of (master_seed, trial).  The gradient stream of a round
    has agent 0; the initial iterate of an agent comes from round 0 and
    ``_PURPOSE_INIT``."""
    counter = np.array([0, purpose << 48, agent | (rnd << 32), 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter,
                                                key=_key(master_seed, trial)))


def round_sites(master_seed, trial, rnd, Q, n, draw):
    """``draw(gen, i)`` for every local step and agent ``i`` of round ``rnd``
    of one trial, ``[step][i]``, one draw at a time from the round's fresh
    stream ``gen``, in the order a round lays its draws out: step by step,
    and within a step agent by agent."""
    gen = fresh_stream(master_seed, trial, rnd)
    return [[draw(gen, i) for i in range(n)] for _ in range(Q)]


def run_point(cfg, mix, oracle, hp, trials):
    """Per-trial metrics and divergence rounds of ``trials`` of one point,
    run as one batch by ``harness._point_rounds`` to its end, under the
    round loop's error state, with the gap on a worker thread wherever
    ``harness._gap_on_worker`` puts it."""
    worker = ThreadPoolExecutor(max_workers=1) if harness._gap_on_worker(oracle) else None
    rounds = harness._point_rounds(cfg, mix, oracle, hp, TrialStreams(cfg.seed, trials),
                                   worker)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            while True:
                next(rounds)
    except StopIteration as stop:
        return stop.value
    finally:
        if worker:
            worker.shutdown(cancel_futures=True)


class LogisticReference:
    """Per-agent logistic functions ``f_i`` written from the shards: the
    mean of ``log(1 + exp(-(v u).x))`` over agent i's label-signed rows
    ``v u``, plus the ridge (``l2``) or bounded nonconvex regularizer."""

    def __init__(self, parts, reg, coeff, batch=None):
        self.signed = [l[:, None] * f for f, l in parts.shards]
        self.reg, self.coeff, self.batch = reg, coeff, batch

    def _reg_value(self, x):
        if self.reg == "l2":
            return 0.5 * self.coeff * float(x @ x)
        xs = x * x
        return 0.5 * self.coeff * float(np.sum(xs / (1.0 + xs)))

    def _reg_gradient(self, x):
        if self.reg == "l2":
            return self.coeff * x
        return self.coeff * x / (1.0 + x * x) ** 2

    def value(self, i, x):
        return float(np.mean(-log_expit(self.signed[i] @ x))) + self._reg_value(x)

    @staticmethod
    def _data_gradient(S, x):
        return -(S.T @ expit(-(S @ x))) / S.shape[0]

    def gradient(self, i, x):
        return self._data_gradient(self.signed[i], x) + self._reg_gradient(x)

    def stochastic_gradient(self, i, x, rng):
        """Gradient over ``batch`` rows of the shard drawn with replacement
        by ``rng.integers``; the exact gradient in full-batch mode."""
        if self.batch is None:
            return self.gradient(i, x)
        S = self.signed[i]
        rows = S[rng.integers(0, S.shape[0], size=self.batch)]
        return self._data_gradient(rows, x) + self._reg_gradient(x)


class QuadraticReference:
    """Per-agent ``f_i(x) = (x - b_i)' A_i (x - b_i) / 2`` with isotropic
    Gaussian gradient noise of total standard deviation ``sigma``."""

    def __init__(self, A, b, sigma):
        self.A, self.b, self.sigma = A, b, sigma

    def value(self, i, x):
        d = x - self.b[i]
        return 0.5 * float(d @ self.A[i] @ d)

    def gradient(self, i, x):
        return self.A[i] @ (x - self.b[i])

    def stochastic_gradient(self, i, x, rng):
        g = self.gradient(i, x)
        if self.sigma == 0.0:
            return g
        return g + rng.normal(0.0, self.sigma / np.sqrt(x.size), size=x.size)


def quadratic_values_at_rows(oracle, X):
    """Global objective of the quadratic ``oracle`` at each row of ``X``:
    ``(..., rows)`` for ``X`` of shape ``(..., rows, p)``."""
    d = X[..., :, None, :] - oracle.b              # (..., rows, n, p)
    return 0.5 * np.einsum("...rip,ipq,...riq->...r", d, oracle.A, d) / oracle.n_agents


def local_reference(oracle, parts=None):
    """The per-agent reference of ``oracle``: a quadratic one, or a
    logistic one over the shards ``parts`` it was built from."""
    if parts is None:
        return QuadraticReference(oracle.A, oracle.b, oracle.sigma)
    return LogisticReference(parts, oracle.reg, oracle.coeff, oracle.batch)


def dsmt_reference(X0, mix, hp, oracle, master_seed, trial, rounds):
    """Single-local-step momentum tracking with accelerated consensus.

    Tracking variables are propagated directly through the augmented
    operator (no correction variables), one stochastic gradient per agent
    per round of the quadratic ``oracle``, built from its ``A`` and ``b``
    and drawn, agent by agent, from a fresh generator of each round's
    stream (:func:`fresh_stream`).  Returns the iterate matrix after
    ``rounds`` rounds.
    """
    reference = local_reference(oracle)
    n, p = X0.shape
    X, X_mem = X0.copy(), X0.copy()
    Z = np.zeros((n, p))
    Y = Y_mem = None
    eta_hat = hp.eta_hat
    for t in range(rounds):
        gen = fresh_stream(master_seed, trial, t)
        G = np.stack([reference.stochastic_gradient(i, X[i], gen) for i in range(n)])
        Z_new = hp.beta * Z + (1.0 - hp.beta) * G
        if t == 0:
            Y, Y_mem = Z_new.copy(), Z_new.copy()
        else:
            diff = Z_new - Z
            Y, Y_mem = ((1.0 + mix.eta_w) * (mix.weights @ Y)
                        - mix.eta_w * Y_mem + diff,
                        Y + diff)
        D = X - eta_hat * Y
        D_mem = X_mem - eta_hat * Y
        X, X_mem = (1.0 + mix.eta_w) * (mix.weights @ D) - mix.eta_w * D_mem, D
        Z = Z_new
    return X


class RecordingOracle:
    """Wrap an oracle and record every stochastic gradient it returns."""

    def __init__(self, inner):
        self._inner = inner
        self.drawn = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

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


def q_star(lam, sigma, n, epsilon):
    """Smallest number of local steps that saturates the communication
    budget: ``ceil(sqrt(1 - lam) sigma^2 / (n epsilon^2))``, at least 1."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"lam must lie in [0, 1), got {lam}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    raw = math.sqrt(1.0 - lam) * sigma * sigma / (n * epsilon * epsilon)
    return max(1, math.ceil(raw))


def save_mixing_csv(matrix, path):
    """Write the weights of ``matrix`` as dense CSV, one row per line, at
    full precision: the format ``topology.load_mixing_csv`` reads."""
    with open(path, "w", encoding="ascii") as fh:
        for row in matrix.weights:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")
