"""Comparison methods behind the same round-driver interface.

All methods are run under the effective-stepsize parity rule: stepsizes
are mapped per method so the averaged iterate follows
``x_mean_{t+1} = x_mean_t - eta_hat * g_mean_t`` with the same composite
step ``eta_hat = eta_a * eta_s * Q``, where ``g_mean_t`` averages the
gradients each method draws along its own local paths.

Update rules follow the methods' original descriptions:

* ``local_dsgd`` -- local SGD steps followed by one gossip mixing
  (Koloskova et al., 2020, "A unified theory of decentralized SGD").
* ``led`` -- local steps inside an exact-diffusion correction loop
  (Alghunaim, 2024, "Local exact-diffusion"); bias-corrected combine
  ``x <- W(psi_new + x - psi_old)``.
* ``kgt`` -- corrected local steps with gradient tracking applied only at
  communication (Liu et al., 2024, "Decentralized gradient tracking with
  local updates").
* ``pdsgdm`` -- heavy-ball momentum SGD with periodic averaging of both
  iterates and momentum buffers (Gao & Huang, 2020).
* ``scaffold`` -- server-mediated control variates, full participation,
  option-II variate update (Karimireddy et al., 2020).  Communication is
  effectively complete-graph; the mixing matrix is ignored.

These implementations are validated through parity and degeneracy
properties (reduction to known centralized methods at complete mixing),
not against the originals' code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lmt import HyperParams, local_steps, round_draws
from .topology import MixingMatrix
from .streams import TrialStreams

METHODS = ("local_dsgd", "led", "kgt", "pdsgdm", "scaffold")


@dataclass(frozen=True)
class BaselineSpec:
    """A baseline method plus the shared (pre-parity) hyperparameters."""

    method: str
    hp: HyperParams

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown baseline method {self.method!r}; "
                             f"expected one of {METHODS}")


@dataclass
class BaselineState:
    """Iterates plus method-specific auxiliary matrices."""

    X: np.ndarray
    t: int
    aux: dict[str, np.ndarray] = field(default_factory=dict)


def stepsize_parity_map(eta_a: float, eta_s: float, beta: float,
                        method: str) -> tuple[float, float]:
    """Map the shared (local, outer) stepsizes onto a method.

    Returns the method's ``(local, outer)`` pair.  Methods with a single
    flat stepsize get it in the local slot and outer 1.
    """
    if method in ("kgt", "scaffold"):
        return eta_a, eta_s
    if method == "led":
        return eta_a * eta_s, 1.0
    if method == "local_dsgd":
        return eta_a * eta_s, 1.0
    if method == "pdsgdm":
        return eta_a * eta_s * (1.0 - beta), 1.0
    raise ValueError(f"unknown baseline method {method!r}")


def init_baseline_state(spec: BaselineSpec, X0: np.ndarray) -> BaselineState:
    X0 = np.asarray(X0, dtype=float)
    if not np.all(np.isfinite(X0)):
        raise ValueError("X0 contains non-finite entries")
    zeros = np.zeros_like(X0)
    aux: dict[str, np.ndarray] = {}
    if spec.method == "led":
        aux["psi"] = X0.copy()
    elif spec.method == "kgt":
        aux["c"] = zeros.copy()
    elif spec.method == "pdsgdm":
        aux["m"] = zeros.copy()
    elif spec.method == "scaffold":
        aux["x_server"] = X0.mean(axis=0)
        aux["c_server"] = np.zeros(X0.shape[1])
        aux["c"] = zeros.copy()
        X0 = np.broadcast_to(aux["x_server"], X0.shape).copy()
    return BaselineState(X=X0.copy(), t=0, aux=aux)


def baseline_round(spec: BaselineSpec, state: BaselineState, oracle,
                   W: MixingMatrix,
                   streams: TrialStreams | None = None) -> BaselineState:
    """One communication round (Q local steps + one exchange) of ``spec.method``."""
    local, outer = stepsize_parity_map(spec.hp.eta_a, spec.hp.eta_s,
                                       spec.hp.beta, spec.method)
    step = _ROUNDS[spec.method]
    return step(spec.hp.Q, local, outer, spec.hp.beta, state, oracle, W, streams)


def _round_local_dsgd(Q, local, outer, beta, state, oracle, W, streams):
    X, _ = local_steps(state.X, None, local, oracle, streams, state.t, Q)
    return BaselineState(X=W.weights @ X, t=state.t + 1, aux={})


def _round_led(Q, local, outer, beta, state, oracle, W, streams):
    psi_new, _ = local_steps(state.X, None, local, oracle, streams, state.t, Q)
    combined = W.weights @ (psi_new + state.X - state.aux["psi"])
    return BaselineState(X=combined, t=state.t + 1, aux={"psi": psi_new})


def _round_kgt(Q, local, outer, beta, state, oracle, W, streams):
    C = state.aux["c"]
    Y, _ = local_steps(state.X, C, local, oracle, streams, state.t, Q)
    delta = Y - state.X
    mixed_delta = W.weights @ delta
    X_next = W.weights @ state.X + outer * mixed_delta
    # tracking at communication only: corrections converge to the drift
    # compensation  (mean gradient) - (own gradient)
    C_next = C + (delta - mixed_delta) / (Q * local)
    return BaselineState(X=X_next, t=state.t + 1, aux={"c": C_next})


def _round_pdsgdm(Q, local, outer, beta, state, oracle, W, streams):
    X = state.X.copy()
    M = state.aux["m"].copy()
    for draws_step in round_draws(oracle, streams, state.t, Q):
        G = oracle.stochastic_gradient_matrix(X, draws_step)
        M = beta * M + G
        X = X - local * M
    return BaselineState(X=W.weights @ X, t=state.t + 1,
                         aux={"m": W.weights @ M})


def _round_scaffold(Q, local, outer, beta, state, oracle, W, streams):
    x = state.aux["x_server"]
    c = state.aux["c_server"]
    C = state.aux["c"]
    n = oracle.n_agents
    Y = np.broadcast_to(x, (n, x.shape[0])).copy()
    # its own loop: local_steps would form G + (c - C), which rounds
    # differently from G - C + c
    for draws_step in round_draws(oracle, streams, state.t, Q):
        G = oracle.stochastic_gradient_matrix(Y, draws_step)
        Y = Y - local * (G - C + c)
    delta_y = Y - x
    C_next = C - c + (x - Y) / (Q * local)
    x_next = x + outer * delta_y.mean(axis=0)
    c_next = c + (C_next - C).mean(axis=0)
    X_next = np.broadcast_to(x_next, (n, x.shape[0])).copy()
    return BaselineState(X=X_next, t=state.t + 1,
                         aux={"x_server": x_next, "c_server": c_next, "c": C_next})


_ROUNDS = {
    "local_dsgd": _round_local_dsgd,
    "led": _round_led,
    "kgt": _round_kgt,
    "pdsgdm": _round_pdsgdm,
    "scaffold": _round_scaffold,
}
