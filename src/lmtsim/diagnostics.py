"""Measurable per-round quantities: consensus errors, gradient norms,
optimality gaps, the momentum-compensated auxiliary point, and a
single-trajectory Lyapunov surrogate.

The surrogate evaluates the analysis Lyapunov function with its
expectation-level consensus bounds replaced by the realized consensus
norms of the trajectory, so it is a diagnostic, not a certified bound;
output metadata labels it accordingly.
"""

from __future__ import annotations

import functools
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
    few microseconds a call on small per-round arrays.

    The mean over the agent axis -2 of rows longer than one entry is an
    einsum, which adds the rows in ``np.add.reduce``'s order at about half
    its cost per call on a stack's arrays.  Precondition: the last axis of
    ``M`` has a smaller stride than the agent axis, as in a C-ordered array
    and its slices.  Where the agent axis has the smallest stride, both sum
    it in blocks of their own, so that it goes, as every other axis and
    rows of one entry do, through ``np.add.reduce``.
    """
    if axis == -2 and M.shape[-1] > 1:
        return np.einsum("...ij->...j", M) / M.shape[-2]
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
    trajectory terms may be arrays, one entry per trial, or per point and
    trial for a stack's ``hp``, whose every point's weights are its own
    ``HyperParams``' floats.
    """
    z_bar, x, y, z = _surrogate_weights(hp.points, hp.eta_s, hp.beta, L, rho_w, n,
                                        np.shape(hp.Q)[:np.ndim(gap)])
    return gap + z_bar * z_bar_sq + x * consensus_x + y * consensus_y + z * z_dev


@functools.lru_cache(maxsize=64)
def _surrogate_weights(points: tuple, eta_s: float, beta: float, L: float, rho_w: float,
                       n: int, shape: tuple) -> np.ndarray:
    """The weights of ``|z_bar|^2``, ``|Pi x|^2``, ``|Pi y|^2`` and ``z_dev``
    in :func:`lyapunov_surrogate` at each ``(Q, eta_a)`` of ``points``, on
    Python floats: one row per weight, then the point axis ``shape``.  Cached
    by value, as each round of a stack asks for the same, so read-only."""
    weights = []
    for Q, eta_a in points:
        eta_hat, aq2 = eta_a * eta_s * Q, eta_a ** 2 * Q ** 2
        weights.append((4.0 * eta_hat ** 3 * L * L / (1.0 - beta) ** 3,
                        11.0 * eta_hat * L * L / (n * (1.0 - rho_w)),
                        21.0 * eta_hat * aq2 * L * L / (n * (1.0 - rho_w)),
                        6.0 * (1.0 + 63.0 * C0) * eta_hat * aq2 * L * L / (n * (1.0 - beta))))
    weights = np.array(weights).T.reshape((4,) + shape)
    weights.flags.writeable = False
    return weights


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
        row["d_bar_drift"] = np.zeros(x_bar.shape[:-1])
    else:
        d_prev, r_bar_prev = carry
        resid = d_bar - (d_prev - hp.eta_hat_of_means * r_bar_prev)
        row["d_bar_drift"] = np.sqrt(squared_norms(resid))
    row["consensus_y"] = consensus_error(new["Y"])
    if d_bar_gap is not None:
        row["lyapunov_surrogate"] = lyapunov_surrogate(
            gap=d_bar_gap, z_bar_sq=squared_norms(axis_mean(state["Z"], -2)),
            consensus_x=row["consensus_x"], consensus_y=row["consensus_y"],
            z_dev=row["z_dev"], hp=hp, L=oracle.L, rho_w=mix.rho_w, n=oracle.n_agents)
    return row, (d_bar, axis_mean(new["G_avg"], -2))


#: gradient-norm target and Newton-step cap of :func:`solve_f_star`
_F_STAR_TOL = 1e-10
_F_STAR_MAX_STEPS = 100


def solve_f_star(oracle) -> float:
    """Centralized minimum of a strongly convex global objective (ridge
    logistic): damped Newton from the origin on ``oracle.global_hessian``,
    backtracking on ``global_value`` (Boyd and Vandenberghe, *Convex
    Optimization*, section 9.5).

    Returns ``F(x)`` at the first iterate with gradient norm ``|g| <= 1e-10``
    and Newton decrement ``g' H^-1 g <= 2 eps |F(x)|`` under the Hessian ``H``
    of the step that reached it: the decrement, about twice ``F(x) - f_star``,
    certifies a tiny minimum where the norm does not.  Raises RuntimeError
    after 100 steps, and numpy's LinAlgError on a singular Hessian.
    """
    eps = np.finfo(float).eps
    x = np.zeros(oracle.dim)
    value = oracle.global_value(x)
    H = None
    for _ in range(_F_STAR_MAX_STEPS):
        g = oracle.global_gradient(x)
        if (math.sqrt(float(g @ g)) <= _F_STAR_TOL and H is not None
                and float(g @ np.linalg.solve(H, g)) <= 2.0 * eps * abs(value)):
            return value
        H = oracle.global_hessian(x)
        step = np.linalg.solve(H, g)
        decrement = float(g @ step)
        # Armijo's test at a quarter of the decrement, until the drop it asks
        # for is below the rounding of F, where every step size may fail it
        t = 1.0
        while ((new := oracle.global_value(x - t * step)) > value - t * decrement / 4
               and t * decrement > 2.0 * eps * abs(value)):
            t /= 2
        x, value = x - t * step, new
    raise RuntimeError(f"Newton's method did not converge within {_F_STAR_MAX_STEPS} steps")
