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
from .topology import C0, LcaParams

#: CSV column order shared by writers and readers
TRACE_COLUMNS = ("t", "consensus_x", "consensus_y",
                 "grad_norm_avg", "grad_norm_avg_std",
                 "opt_gap_mean", "opt_gap_mean_std",
                 "z_dev", "lyapunov_surrogate", "d_bar_drift")


def consensus_error(M: np.ndarray):
    """Squared Frobenius distance of the rows of ``M`` from their mean; one
    value per trial when ``M`` of shape ``(..., n, p)`` has leading axes."""
    M = np.asarray(M, dtype=float)
    centered = M - M.mean(axis=-2, keepdims=True)
    return np.sum(centered * centered, axis=(-2, -1))


def d_bar_sequence(x_bar_t: np.ndarray, x_bar_prev: np.ndarray | None,
                   beta: float, t: int) -> np.ndarray:
    """Momentum-compensated auxiliary point.

    Equals the averaged iterate at ``t = 0``; afterwards
    ``x_bar_t / (1 - beta) - beta x_bar_{t-1} / (1 - beta)``, which removes
    the momentum lag so the sequence moves like plain SGD on the averaged
    gradients.
    """
    if beta >= 1.0:
        raise ValueError(f"beta must be < 1, got {beta}")
    if t == 0:
        return np.asarray(x_bar_t, dtype=float).copy()
    if x_bar_prev is None:
        raise ValueError("x_bar_prev is required for t >= 1")
    return (np.asarray(x_bar_t) - beta * np.asarray(x_bar_prev)) / (1.0 - beta)


def lyapunov_surrogate(*, f_dbar: float, f_star: float, z_bar_sq: float,
                       consensus_x: float, consensus_y: float, z_dev: float,
                       hp: HyperParams, L: float, lca: LcaParams,
                       n: int) -> float:
    """Single-trajectory evaluation of the descent Lyapunov function.

    Consensus terms use the realized ``|Pi x|^2`` and ``|Pi y|^2`` of this
    trajectory in place of their expectation-level upper bounds.  The
    trajectory terms may be arrays, one entry per trial.
    """
    if f_star is None:
        raise ValueError("lyapunov surrogate needs f_star")
    eta_hat = hp.eta_hat
    one_minus_beta = 1.0 - hp.beta
    one_minus_rho = 1.0 - lca.rho_w
    aq2 = hp.eta_a ** 2 * hp.Q ** 2
    return (
        (f_dbar - f_star)
        + 4.0 * eta_hat ** 3 * L * L / one_minus_beta ** 3 * z_bar_sq
        + 11.0 * eta_hat * L * L / (n * one_minus_rho) * consensus_x
        + 21.0 * eta_hat * aq2 * L * L / (n * one_minus_rho) * consensus_y
        + 6.0 * (1.0 + 63.0 * C0) * eta_hat * aq2 * L * L
        / (n * one_minus_beta) * z_dev
    )


#: gradient-norm target and iteration budget of :func:`solve_f_star`
_F_STAR_TOL = 1e-10
_F_STAR_MAX_ITER = 2_000_000


def solve_f_star(oracle) -> float:
    """High-accuracy centralized minimum of the global objective.

    Deterministic full-gradient descent from the origin with a fixed step,
    run until the global gradient norm drops below 1e-10.  Intended for
    strongly convex objectives (ridge-regularized logistic); raises if the
    tolerance is not reached.
    """
    step = 2.0 / (oracle.L + oracle.mu) if oracle.mu else 1.0 / oracle.L
    x = np.zeros(oracle.dim)
    for _ in range(_F_STAR_MAX_ITER):
        g = oracle.global_gradient(x)
        if math.sqrt(float(g @ g)) <= _F_STAR_TOL:
            return float(oracle.global_value(x))
        x = x - step * g
    raise RuntimeError(f"full-gradient solve did not reach |grad| <= {_F_STAR_TOL} "
                       f"within {_F_STAR_MAX_ITER} iterations")
