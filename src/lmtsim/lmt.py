"""Local momentum tracking: the round update, method states, and schedules.

One communication round consists of four phases:

1. every agent runs ``Q`` corrected stochastic-gradient steps locally;
2. the average of the local gradients is folded into a momentum buffer;
3. tracking variables and mean-zero corrections are refreshed through one
   accelerated gossip exchange, so each agent's search direction follows
   the network-wide momentum despite heterogeneous data;
4. iterates take an outer step along the tracking direction and mix with
   the accelerated consensus operator (current + memory iterate).

Exact identities maintained by the round (used heavily in tests): the
row-mean of the tracking variables equals the row-mean of the updated
momentum, the averaged iterate moves by exactly ``eta_hat`` times the
averaged tracking direction, and corrections stay mean-zero.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .topology import C0, MixingMatrix, lca_mix
from .streams import TrialStreams


@dataclass(frozen=True)
class HyperParams:
    """Round hyperparameters.

    ``eta_a`` is the local step, ``eta_s`` the outer step, ``beta`` the
    momentum coefficient, ``eta_w`` the consensus-acceleration weight.
    The composite step ``eta_hat = eta_a * eta_s * Q`` governs the motion
    of the averaged iterate.
    """

    Q: int
    eta_a: float
    eta_s: float
    beta: float
    eta_w: float

    def __post_init__(self) -> None:
        if self.Q < 1:
            raise ValueError(f"Q must be >= 1, got {self.Q}")
        if self.eta_a <= 0 or self.eta_s <= 0:
            raise ValueError(f"step sizes must be positive, got "
                             f"eta_a={self.eta_a}, eta_s={self.eta_s}")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must lie in [0, 1), got {self.beta}")
        if not 0.0 <= self.eta_w < 1.0:
            raise ValueError(f"eta_w must lie in [0, 1), got {self.eta_w}")

    @property
    def eta_hat(self) -> float:
        return self.eta_a * self.eta_s * self.Q


def init_state(method: str, X0: np.ndarray) -> dict:
    """Fresh state of ``method`` at the initial iterates ``X0``.

    Every method's state is a dict of the iterates ``"X"`` (n, p), the
    round counter ``"t"`` and the method's own arrays: memory iterate
    ``X_l`` (``X0``), momentum ``Z`` and corrections ``C``, ``C_prev``
    (zero) for lmt and naive_lmt; last local end points ``psi`` (``X0``)
    for led; corrections ``c`` for kgt; momentum ``m`` for pdsgdm; server
    model ``x_server`` (the mean of ``X0``, where every agent starts),
    server and agent variates ``c_server`` and ``c`` for scaffold.  Round
    functions return a new state and leave their input unchanged.

    ``X0`` of shape ``(..., n, p)`` starts a batch of independent trials:
    every array of the state then carries the same leading axes, and each
    round acts on every trial's slice exactly as on that trial alone.
    """
    X0 = np.asarray(X0, dtype=float)
    if X0.ndim < 2:
        raise ValueError(f"X0 must be (n, p) or (..., n, p), got shape {X0.shape}")
    if not np.all(np.isfinite(X0)):
        raise ValueError("X0 contains non-finite entries")
    zeros = np.zeros_like(X0)
    state = {"X": X0.copy(), "t": 0}
    if method in ("lmt", "naive_lmt"):
        state.update(X_l=X0.copy(), Z=zeros, C=zeros.copy(), C_prev=zeros.copy())
    elif method == "led":
        state["psi"] = X0.copy()
    elif method == "kgt":
        state["c"] = zeros
    elif method == "pdsgdm":
        state["m"] = zeros
    elif method == "scaffold":
        x_server = X0.mean(axis=-2)
        state.update(X=agent_copies(x_server, X0.shape[-2]),
                     x_server=x_server, c_server=np.zeros_like(x_server), c=zeros)
    return state


def agent_copies(x: np.ndarray, n: int) -> np.ndarray:
    """``n`` agent rows holding the point ``x``: ``(..., n, p)`` for ``x``
    of shape ``(..., p)``."""
    return np.repeat(x[..., None, :], n, axis=-2)


def local_steps(X: np.ndarray, shift: np.ndarray | None, eta: float, oracle,
                streams: TrialStreams | None, t: int, Q: int):
    """Run ``Q`` local steps ``X <- X - eta (G + shift)`` for every agent.

    ``G`` stacks the agents' stochastic gradients at the current local
    iterates, drawn from the streams of round ``t`` and the step's index;
    ``shift=None`` takes plain stochastic-gradient steps.  Returns
    ``(X_Q, G_sum)``: the end points and the sum of the drawn gradients.
    """
    G_sum = np.zeros_like(X)
    for draws_step in oracle.draw(streams, t, Q):
        G = oracle.stochastic_gradient_matrix(X, draws_step)
        G_sum += G
        if shift is not None:  # in the oracle's new array, as (G + shift) * eta
            G += shift
        G *= eta
        X = X - G
    return X, G_sum


def local_update_phase(state: dict, oracle, hp: HyperParams,
                       streams: TrialStreams | None):
    """Run ``Q`` corrected stochastic-gradient steps for every agent.

    Returns ``(X_Q, R, G_sum_avg)`` where ``R`` recovers the per-agent
    average of the drawn gradients from the net local movement, and
    ``G_sum_avg`` is the same average accumulated directly.
    """
    X, C = state["X"], state["C"]
    X_Q, G_sum = local_steps(X, C, hp.eta_a, oracle, streams, state["t"], hp.Q)
    R = (X - X_Q) / (hp.eta_a * hp.Q) - C
    return X_Q, R, G_sum / hp.Q


def tracking_and_correction(state: dict, Z_next: np.ndarray,
                            W: MixingMatrix, eta_w: float):
    """Refresh tracking directions and corrections through one exchange.

    Returns ``(Y, Y_l, C_next)`` with ``Y = Z_next + C``,
    ``Y_l = Z_next + C_prev`` and
    ``C_next = C - Y + (1 + eta_w) W Y - eta_w Y_l``.
    Corrections stay mean-zero because ``W`` is doubly stochastic.
    """
    Y = Z_next + state["C"]
    Y_l = Z_next + state["C_prev"]
    C_next = state["C"] - Y + (1.0 + eta_w) * (W.weights @ Y) - eta_w * Y_l
    return Y, Y_l, C_next


def accelerated_consensus(state: dict, Y: np.ndarray, hp: HyperParams,
                          W: MixingMatrix):
    """Outer step along ``Y`` followed by one accelerated mixing step.

    Applies the augmented consensus operator to the stacked pair
    ``(X - eta_hat Y, X_l - eta_hat Y)`` and returns the new (current,
    memory) pair.  With ``eta_w = 0`` this is plain mixing of the stepped
    iterates.
    """
    D = state["X"] - hp.eta_hat * Y
    return lca_mix(W, hp.eta_w, D, state["X_l"] - hp.eta_hat * Y), D


def _track_and_mix(state: dict, M: np.ndarray, Z_next: np.ndarray,
                   G_avg: np.ndarray, W: MixingMatrix, hp: HyperParams) -> dict:
    """Tail of both tracking rounds: tracking and correction from the
    momentum average ``M``, then the outer step and LCA mixing.  The new
    state keeps, for the diagnostics, the tracking directions ``Y`` and
    the per-agent mean ``G_avg`` of the round's drawn gradients."""
    Y, _, C_next = tracking_and_correction(state, M, W, hp.eta_w)
    X_next, X_l_next = accelerated_consensus(state, Y, hp, W)
    return {"X": X_next, "t": state["t"] + 1, "X_l": X_l_next, "Z": Z_next,
            "C": C_next, "C_prev": state["C"], "Y": Y, "G_avg": G_avg}


def lmt_round(state: dict, oracle, W: MixingMatrix, hp: HyperParams,
              streams: TrialStreams | None = None) -> dict:
    """One full communication round of local momentum tracking."""
    _, R, G_avg = local_update_phase(state, oracle, hp, streams)
    Z_next = hp.beta * state["Z"] + (1.0 - hp.beta) * R
    return _track_and_mix(state, Z_next, Z_next, G_avg, W, hp)


def naive_local_momentum_round(state: dict, oracle, W: MixingMatrix,
                               hp: HyperParams,
                               streams: TrialStreams | None = None) -> dict:
    """Negative control: refresh the momentum buffer at every local step.

    Each local step folds its gradient into the momentum immediately and
    descends along the momentum; the tracking variables then follow the
    round-average of the momentum buffers.  For ``Q = 1``, or for
    ``beta = 0`` at any ``Q``, this coincides with :func:`lmt_round`; for
    ``Q > 1`` with momentum it loses the variance damping of the
    aggregated update and settles at a higher noise floor.
    """
    X_cur = state["X"]
    Z_run = state["Z"]
    M_sum = np.zeros_like(X_cur)
    G_sum = np.zeros_like(X_cur)
    for draws_step in oracle.draw(streams, state["t"], hp.Q):
        G = oracle.stochastic_gradient_matrix(X_cur, draws_step)
        G_sum += G
        Z_run = hp.beta * Z_run + (1.0 - hp.beta) * G
        M_sum += Z_run
        X_cur = X_cur - hp.eta_a * (Z_run + state["C"])
    return _track_and_mix(state, M_sum / hp.Q, Z_run, G_sum / hp.Q, W, hp)


# ---------------------------------------------------------------------------
# step-size schedules

#: 1 + 63 * C0, a constant recurring in the schedules below
_C1 = 1.0 + 63.0 * C0


def theorem1_stepsizes(L: float, sigma: float, n: int, Q: int, T: int,
                       delta_f: float, beta: float, eta_w: float) -> HyperParams:
    """Horizon-aware schedule for the smooth nonconvex regime.

    ``eta_hat`` and ``eta_a`` follow the published closed forms; ``eta_s``
    is back-solved from ``eta_hat = eta_a * eta_s * Q``.  At ``sigma = 0``
    the back-solved ``eta_s`` equals its admissible cap
    ``(1 - beta) / sqrt(6 c0)`` exactly; for ``sigma > 0`` it exceeds the
    cap (the closed-form pair is not jointly consistent with the cap), in
    which case a warning is emitted and the published pair is kept.
    """
    if L <= 0 or delta_f <= 0:
        raise ValueError(f"need L > 0 and delta_f > 0, got L={L}, delta_f={delta_f}")
    if n < 1 or Q < 1 or T < 1:
        raise ValueError(f"need n, Q, T >= 1, got n={n}, Q={Q}, T={T}")
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must lie in [0, 1), got {beta}")

    noise_hat = math.sqrt(3.0 * L * sigma * sigma * T / (8.0 * n * Q * delta_f))
    eta_hat = 1.0 / (noise_hat + 30.0 * math.sqrt(3.0 * C0 * _C1) * L / (1.0 - beta))
    noise_a = math.sqrt(3.0 * Q * L * sigma * sigma * T / (8.0 * delta_f))
    eta_a = 1.0 / (noise_a + 15.0 * math.sqrt(2.0 * _C1) * Q * L)
    eta_s = eta_hat / (eta_a * Q)
    cap = (1.0 - beta) / math.sqrt(6.0 * C0)
    if eta_s > cap * (1.0 + 1e-9):
        warnings.warn(
            f"back-solved eta_s={eta_s:.4e} exceeds admissible cap {cap:.4e}; "
            "keeping the closed-form pair", stacklevel=2)
    return HyperParams(Q=Q, eta_a=eta_a, eta_s=eta_s, beta=beta, eta_w=eta_w)


def theorem2_stepsizes(mu: float, Q: int, T: int, mix: MixingMatrix) -> HyperParams:
    """Horizon-aware schedule for the PL regime on the graph of ``mix``.

    ``eta_a = 1/(Q mu T)``, ``eta_s = (1 - rho_w)/sqrt(15 c0)``, momentum
    pinned to the consensus contraction rate ``rho_w``.
    """
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    if Q < 1 or T < 1:
        raise ValueError(f"need Q, T >= 1, got Q={Q}, T={T}")
    eta_a = 1.0 / (Q * mu * T)
    eta_s = (1.0 - mix.rho_w) / math.sqrt(15.0 * C0)
    return HyperParams(Q=Q, eta_a=eta_a, eta_s=eta_s, beta=mix.rho_w,
                       eta_w=mix.eta_w)


def check_momentum(beta: float, rho_w: float) -> None:
    """Warn when the momentum coefficient is below the consensus rate;
    the convergence guarantees assume ``beta >= rho_w``."""
    if beta < rho_w - 1e-12:
        warnings.warn(f"momentum beta={beta:.4f} is below the consensus "
                      f"contraction rate rho_w={rho_w:.4f}", stacklevel=2)
