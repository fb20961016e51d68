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

from dataclasses import dataclass

from .lmt import HyperParams, agent_copies, local_steps, round_draws
from .topology import MixingMatrix
from .streams import TrialStreams


@dataclass(frozen=True)
class BaselineSpec:
    """A baseline method plus the shared (pre-parity) hyperparameters."""

    method: str
    hp: HyperParams


def stepsize_parity_map(eta_a: float, eta_s: float, beta: float,
                        method: str) -> tuple[float, float]:
    """Map the shared (local, outer) stepsizes onto a method.

    Returns the method's ``(local, outer)`` pair.  Methods with a single
    flat stepsize get it in the local slot and outer 1.
    """
    if method in ("kgt", "scaffold"):
        return eta_a, eta_s
    if method in ("led", "local_dsgd"):
        return eta_a * eta_s, 1.0
    if method == "pdsgdm":
        return eta_a * eta_s * (1.0 - beta), 1.0
    raise ValueError(f"unknown baseline method {method!r}")


def baseline_round(spec: BaselineSpec, state: dict, oracle, W: MixingMatrix,
                   streams: TrialStreams | None = None) -> dict:
    """One communication round (Q local steps + one exchange) of
    ``spec.method``, from a state built by :func:`lmtsim.lmt.init_state`."""
    hp, method = spec.hp, spec.method
    local, outer = stepsize_parity_map(hp.eta_a, hp.eta_s, hp.beta, method)
    args = (state, oracle, W, streams, hp.Q, local)
    if method == "local_dsgd":
        return _round_local_dsgd(*args)
    if method == "led":
        return _round_led(*args)
    if method == "kgt":
        return _round_kgt(*args, outer)
    if method == "pdsgdm":
        return _round_pdsgdm(*args, hp.beta)
    return _round_scaffold(*args, outer)


def _round_local_dsgd(state, oracle, W, streams, Q, local):
    X, _ = local_steps(state["X"], None, local, oracle, streams, state["t"], Q)
    return {"X": W.weights @ X, "t": state["t"] + 1}


def _round_led(state, oracle, W, streams, Q, local):
    psi_new, _ = local_steps(state["X"], None, local, oracle, streams, state["t"], Q)
    combined = W.weights @ (psi_new + state["X"] - state["psi"])
    return {"X": combined, "t": state["t"] + 1, "psi": psi_new}


def _round_kgt(state, oracle, W, streams, Q, local, outer):
    X, C = state["X"], state["c"]
    Y, _ = local_steps(X, C, local, oracle, streams, state["t"], Q)
    delta = Y - X
    mixed_delta = W.weights @ delta
    X_next = W.weights @ X + outer * mixed_delta
    # tracking at communication only: corrections converge to the drift
    # compensation  (mean gradient) - (own gradient)
    C_next = C + (delta - mixed_delta) / (Q * local)
    return {"X": X_next, "t": state["t"] + 1, "c": C_next}


def _round_pdsgdm(state, oracle, W, streams, Q, local, beta):
    X = state["X"]
    M = state["m"]
    for draws_step in round_draws(oracle, streams, state["t"], Q):
        G = oracle.stochastic_gradient_matrix(X, draws_step)
        M = beta * M + G
        X = X - local * M
    return {"X": W.weights @ X, "t": state["t"] + 1, "m": W.weights @ M}


def _round_scaffold(state, oracle, W, streams, Q, local, outer):
    x = state["x_server"]
    c = state["c_server"]
    C = state["c"]
    n = oracle.n_agents
    Y = agent_copies(x, n)
    # its own loop: local_steps would form G + (c - C), which rounds
    # differently from G - C + c
    for draws_step in round_draws(oracle, streams, state["t"], Q):
        G = oracle.stochastic_gradient_matrix(Y, draws_step)
        Y = Y - local * (G - C + c[..., None, :])
    delta_y = Y - x[..., None, :]
    C_next = C - c[..., None, :] + (x[..., None, :] - Y) / (Q * local)
    x_next = x + outer * delta_y.mean(axis=-2)
    c_next = c + (C_next - C).mean(axis=-2)
    X_next = agent_copies(x_next, n)
    return {"X": X_next, "t": state["t"] + 1,
            "x_server": x_next, "c_server": c_next, "c": C_next}
