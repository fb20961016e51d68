"""Measurable per-round quantities: consensus errors, gradient norms,
optimality gaps, the momentum-compensated auxiliary point, and a
single-trajectory Lyapunov surrogate.

The surrogate evaluates the analysis Lyapunov function with its
expectation-level consensus bounds replaced by the realized consensus
norms of the trajectory, so it is a diagnostic, not a certified bound;
output metadata labels it accordingly.
"""

from __future__ import annotations

import math

import numpy as np

from .lmt import HyperParams
from .topology import C0, MixingMatrix

#: CSV column order shared by writers and readers
TRACE_COLUMNS = ("t", "consensus_x", "consensus_y",
                 "grad_norm_avg", "grad_norm_avg_std",
                 "opt_gap_mean", "opt_gap_mean_std",
                 "z_dev", "lyapunov_surrogate", "d_bar_drift")


def consensus_error(M: np.ndarray, x_bar: np.ndarray | None = None):
    """Squared Frobenius distance of the rows of ``M`` from ``x_bar``, by default
    their mean; one value per trial when ``M`` of shape ``(..., n, p)`` has leading axes."""
    M = np.asarray(M, dtype=float)
    centered = M - (axis_mean(M, -2) if x_bar is None else x_bar)[..., None, :]
    return np.add.reduce(centered * centered, (-2, -1))


def axis_mean(M: np.ndarray, axis: int) -> np.ndarray:
    """``M.mean(axis)`` bit for bit, without the Python wrapper that costs a
    few microseconds a call on small per-round arrays."""
    return np.add.reduce(M, axis) / M.shape[axis]


def squared_norms(V: np.ndarray) -> np.ndarray:
    """``v @ v`` of every vector along the last axis of ``V``."""
    return (V[..., None, :] @ V[..., :, None])[..., 0, 0]


def d_bar_sequence(x_bar_t: np.ndarray, x_bar_prev: np.ndarray | None,
                   beta: float) -> np.ndarray:
    """Momentum-compensated auxiliary point.

    Equals the averaged iterate in round 0 (``x_bar_prev`` None);
    afterwards ``x_bar_t / (1 - beta) - beta x_bar_{t-1} / (1 - beta)``,
    which removes the momentum lag so the sequence moves like plain SGD on
    the averaged gradients.  Needs ``beta < 1``, as :class:`HyperParams`
    guarantees.
    """
    if x_bar_prev is None:
        return np.asarray(x_bar_t, dtype=float).copy()
    return (np.asarray(x_bar_t) - beta * np.asarray(x_bar_prev)) / (1.0 - beta)


def lyapunov_surrogate(*, gap: float, z_bar_sq: float, consensus_x: float,
                       consensus_y: float, z_dev: float, hp: HyperParams, L: float,
                       rho_w: float, n: int) -> float:
    """Single-trajectory evaluation of the descent Lyapunov function at the
    optimality gap ``gap = F(d_bar) - f_star`` of the auxiliary point.

    Consensus terms use the realized ``|Pi x|^2`` and ``|Pi y|^2`` of this
    trajectory in place of their expectation-level upper bounds.  The
    trajectory terms may be arrays, one entry per trial.
    """
    eta_hat = hp.eta_hat
    one_minus_beta = 1.0 - hp.beta
    one_minus_rho = 1.0 - rho_w
    aq2 = hp.eta_a ** 2 * hp.Q ** 2
    return (
        gap
        + 4.0 * eta_hat ** 3 * L * L / one_minus_beta ** 3 * z_bar_sq
        + 11.0 * eta_hat * L * L / (n * one_minus_rho) * consensus_x
        + 21.0 * eta_hat * aq2 * L * L / (n * one_minus_rho) * consensus_y
        + 6.0 * (1.0 + 63.0 * C0) * eta_hat * aq2 * L * L
        / (n * one_minus_beta) * z_dev
    )


# numpy's error state is context-local and a worker thread starts from the
# default, so this enters the round loop's own for a diverging trial
@np.errstate(over="ignore", invalid="ignore")
def input_metrics(oracle, hp: HyperParams, state: dict,
                  x_bar_prev: np.ndarray | None) -> tuple:
    """The part of :func:`round_metrics` that reads only the round's input
    ``state`` and the previous round's mean iterate ``x_bar_prev`` (None in
    round 0): the mean iterate ``x_bar``, the auxiliary point ``d_bar``
    (None without ``Z``), and the gaps at the rows of ``X`` and at
    ``d_bar`` (None without ``f_star``, the second also without ``d_bar``).
    It writes nothing, so it may run on another thread while the round
    that reads ``state`` computes the next one.
    """
    X = state["X"]
    x_bar = axis_mean(X, -2)
    d_bar = gap = d_bar_gap = None
    if "Z" in state:
        d_bar = d_bar_sequence(x_bar, x_bar_prev, hp.beta)
    if oracle.f_star is not None:
        gap = oracle.opt_gap(X)
        if d_bar is not None:
            d_bar_gap = oracle.opt_gap(d_bar[..., None, :])
    return x_bar, d_bar, gap, d_bar_gap


def round_metrics(oracle, hp: HyperParams, mix: MixingMatrix, state: dict, new: dict,
                  carry: tuple | None, inputs: tuple) -> tuple[dict, tuple | None]:
    """Metrics of the round that took ``state`` to ``new``, one value per
    trial, and the carry ``(d_bar, r_bar)`` the next call takes (None in
    round 0, and always without ``Z``); ``inputs`` is :func:`input_metrics`
    of ``state``.  A metric is computed exactly when the arrays it needs
    exist: the tracking metrics need ``Z`` in the state, the gap and the
    surrogate need ``oracle.f_star``.  Squared norms are stacked ``v @ v``
    products, bit-equal to one ``v @ v`` per trial: numpy hands each
    stacked vector product to the same BLAS dot.
    """
    x_bar, d_bar, gap, d_bar_gap = inputs
    X = state["X"]
    grads_at_mean = oracle.full_gradients_at(x_bar)
    g_bar = axis_mean(grads_at_mean, -2)
    row = {"consensus_x": consensus_error(X, x_bar),
           "grad_norm_avg": squared_norms(g_bar)}
    if gap is not None:
        row["opt_gap_mean"] = gap
    if d_bar is None:
        return row, None
    dev = state["Z"] - grads_at_mean
    row["z_dev"] = np.add.reduce(dev * dev, (-2, -1))
    if carry is None:
        row["d_bar_drift"] = np.zeros(len(x_bar))
    else:
        d_prev, r_bar_prev = carry
        resid = d_bar - (d_prev - hp.eta_hat * r_bar_prev)
        row["d_bar_drift"] = np.sqrt(squared_norms(resid))
    row["consensus_y"] = consensus_error(new["Y"])
    if d_bar_gap is not None:
        row["lyapunov_surrogate"] = lyapunov_surrogate(
            gap=d_bar_gap, z_bar_sq=squared_norms(axis_mean(state["Z"], -2)),
            consensus_x=row["consensus_x"], consensus_y=row["consensus_y"],
            z_dev=row["z_dev"], hp=hp, L=oracle.L, rho_w=mix.rho_w, n=oracle.n_agents)
    return row, (d_bar, axis_mean(new["G_avg"], -2))


#: gradient-norm target and iteration budget of :func:`solve_f_star`
_F_STAR_TOL = 1e-10
_F_STAR_MAX_ITER = 2_000_000
#: the first iteration at which :func:`solve_f_star` projects its pace
_F_STAR_PROBE = 1024


def solve_f_star(oracle) -> float:
    """High-accuracy centralized minimum of the global objective.

    Deterministic full-gradient descent from the origin with a fixed step,
    run until the global gradient norm drops below 1e-10.  Intended for
    strongly convex objectives (ridge-regularized logistic); raises if the
    tolerance is not reached, or, from iteration 1024 on, as soon as
    :func:`_projected_iterations` puts the gradient norm's fall to the
    larger of the tolerance and ``mu |x|`` beyond the budget.  On data that
    a hyperplane separates, the norm falls like ``1 / k`` until about
    ``mu |x|``, where the ridge takes over.
    """
    mu = oracle.mu or 0.0
    step = 2.0 / (oracle.L + mu) if mu else 1.0 / oracle.L
    x = np.zeros(oracle.dim)
    at_half = drop = None  # the norm at the last power of two, and its log-drop
    for k in range(1, _F_STAR_MAX_ITER + 1):
        g = oracle.global_gradient(x)
        norm = math.sqrt(float(g @ g))
        if norm <= _F_STAR_TOL:
            return float(oracle.global_value(x))
        if k & (k - 1) == 0:  # a power of two
            last, drop = drop, math.log(at_half / norm) if at_half else None
            at_half = norm
            floor = max(_F_STAR_TOL, mu * math.sqrt(float(x @ x)))
            if (k >= _F_STAR_PROBE and norm > floor
                    and _projected_iterations(k, norm / floor, drop, last) > _F_STAR_MAX_ITER):
                raise RuntimeError(
                    f"full-gradient solve would not reach |grad| <= {_F_STAR_TOL} within "
                    f"{_F_STAR_MAX_ITER} iterations at its pace (|grad| = {norm:.3g} "
                    f"after {k})")
        x = x - step * g
    raise RuntimeError(f"full-gradient solve did not reach |grad| <= {_F_STAR_TOL} "
                       f"within {_F_STAR_MAX_ITER} iterations")


def _projected_iterations(k: int, ratio: float, drop: float, last: float) -> float:
    """The iteration at which gradient descent will have cut the gradient
    norm by ``ratio`` more than at iteration ``k``, if the log-drop of the
    norm over each doubling of the iteration count keeps growing by the
    factor ``drop / last`` (at least 1) of its last two: ``drop`` over
    ``k / 2`` to ``k``, ``last`` over the doubling before.  A geometric rate
    doubles the drop, so it is projected exactly; a norm that falls like
    ``C / k`` keeps it at ``log 2``.  Infinite without progress, or beyond
    the budget."""
    if drop <= 0:
        return math.inf
    growth = max(1.0, drop / last) if last > 0 else 1.0
    left = math.log(ratio)
    while k <= _F_STAR_MAX_ITER:
        drop *= growth
        if left <= drop:  # within the next doubling, where the log falls linearly
            return k * (1.0 + left / drop)
        left -= drop
        k *= 2
    return math.inf
