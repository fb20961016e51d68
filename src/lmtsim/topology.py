"""Mixing matrices, spectral quantities, and the accelerated consensus operator.

A mixing matrix encodes one gossip-averaging round over an undirected
communication graph.  Valid matrices are symmetric, doubly stochastic,
nonnegative, and positive semidefinite; their consensus speed is governed
by the spectral gap ``1 - lam`` where ``lam`` is the second-largest
eigenvalue magnitude.

One step of loopless Chebyshev-accelerated consensus (LCA) maps a
(current, memory) pair of iterate matrices ``(top, bottom)`` to
``((1 + eta_w) W top - eta_w bottom, top)``; :func:`lca_mix` computes its
new current block, the new memory block being ``top`` itself.  With
``eta_w = 1/(1 + sqrt(1 - lam^2))`` the disagreement component of the pair
contracts at rate ``rho_w = sqrt(eta_w)`` per application, up to the
constant factor :data:`C0`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

#: contraction constant of the accelerated consensus operator
C0 = 14.0

SYMMETRY_TOL = 1e-12
STOCHASTIC_TOL = 1e-12
NONNEGATIVE_TOL = -1e-12
PSD_TOL = -1e-12
CONNECTED_TOL = 1e-12


class MixingMatrixError(ValueError):
    """A candidate weight matrix violates a mixing-matrix invariant."""


@dataclass(frozen=True)
class MixingMatrix:
    """A validated gossip weight matrix together with its spectral data.

    Attributes:
        n: number of agents.
        weights: ``(n, n)`` symmetric doubly-stochastic PSD matrix,
            marked read-only.
        lam: spectral norm of ``weights - ones/n``, in ``[0, 1]``.
        spectral_gap: ``1 - lam``.
    """

    n: int
    weights: np.ndarray = field(repr=False)
    lam: float
    spectral_gap: float


@dataclass(frozen=True)
class LcaParams:
    """Constants of the accelerated consensus step derived from ``lam``."""

    eta_w: float
    rho_w: float
    c0: float = C0


def validate_weights(weights: np.ndarray) -> np.ndarray:
    """Check all mixing-matrix invariants, returning the matrix as float64.

    Raises :class:`MixingMatrixError` naming the first violated invariant:
    squareness, symmetry, entry nonnegativity, row sums, or positive
    semidefiniteness.
    """
    W = np.asarray(weights, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise MixingMatrixError(f"weights must be square, got shape {W.shape}")
    if not np.all(np.isfinite(W)):
        raise MixingMatrixError("weights contain non-finite entries")
    if not np.allclose(W, W.T, rtol=0.0, atol=SYMMETRY_TOL):
        raise MixingMatrixError("weights not symmetric (|w_ij - w_ji| > 1e-12)")
    if W.min() < NONNEGATIVE_TOL:
        raise MixingMatrixError(f"weights have negative entry {W.min():.3e}")
    row_err = np.abs(W.sum(axis=1) - 1.0).max()
    if row_err > STOCHASTIC_TOL:
        raise MixingMatrixError(f"rows do not sum to 1 (max error {row_err:.3e})")
    eigvals = np.linalg.eigvalsh(0.5 * (W + W.T))
    if eigvals[0] < PSD_TOL:
        raise MixingMatrixError(
            f"weights not positive semidefinite (min eigenvalue {eigvals[0]:.3e})")
    return W


def spectral_quantities(weights: np.ndarray) -> tuple[float, float]:
    """Return ``(lam, spectral_gap)`` of a validated weight matrix.

    ``lam`` is the largest eigenvalue magnitude of ``weights - ones/n``,
    computed by dense symmetric eigendecomposition.  A disconnected graph
    yields ``lam = 1`` and a warning rather than an error.
    """
    W = validate_weights(weights)
    n = W.shape[0]
    deviation = W - np.ones((n, n)) / n
    eigvals = np.linalg.eigvalsh(0.5 * (deviation + deviation.T))
    lam = float(np.abs(eigvals).max()) if n > 1 else 0.0
    if lam >= 1.0 - CONNECTED_TOL:
        warnings.warn("graph not connected: second eigenvalue magnitude is 1",
                      stacklevel=2)
        lam = min(lam, 1.0)
    return lam, 1.0 - lam


def from_weights(weights: np.ndarray) -> MixingMatrix:
    """Validate an arbitrary weight matrix and wrap it as a MixingMatrix."""
    lam, gap = spectral_quantities(weights)
    W = np.array(weights, dtype=float)
    W.setflags(write=False)
    return MixingMatrix(n=W.shape[0], weights=W, lam=lam, spectral_gap=gap)


def build_ring_mixing(n: int) -> MixingMatrix:
    """Lazy uniform ring: ``W = (I + W0)/2`` with ``W0`` giving weight 1/3
    to self and each of the two ring neighbours.

    The lazy half-step makes the matrix positive semidefinite for every
    ``n >= 3``.
    """
    if n < 3:
        raise MixingMatrixError(f"ring topology needs n >= 3 agents, got {n}")
    W0 = np.zeros((n, n))
    idx = np.arange(n)
    W0[idx, idx] = 1.0 / 3.0
    W0[idx, (idx + 1) % n] += 1.0 / 3.0
    W0[idx, (idx - 1) % n] += 1.0 / 3.0
    return from_weights(0.5 * (np.eye(n) + W0))


def build_complete_mixing(n: int) -> MixingMatrix:
    """Complete-graph averaging matrix ``ones/n`` (one round reaches consensus)."""
    if n < 1:
        raise MixingMatrixError(f"complete topology needs n >= 1 agents, got {n}")
    return from_weights(np.full((n, n), 1.0 / n))


def lca_params(lam: float) -> LcaParams:
    """Accelerated-consensus constants for a graph with eigenvalue ``lam``."""
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"lam must lie in [0, 1), got {lam}")
    eta_w = 1.0 / (1.0 + math.sqrt(1.0 - lam * lam))
    return LcaParams(eta_w=eta_w, rho_w=math.sqrt(eta_w))


def lca_mix(W: MixingMatrix, eta_w: float, top: np.ndarray,
            bottom: np.ndarray) -> np.ndarray:
    """New current block ``(1 + eta_w) W top - eta_w bottom`` of one
    application of the 2n x 2n accelerated consensus operator to the
    (current, memory) pair ``(top, bottom)``; the new memory block is
    ``top``.  With ``eta_w = 0`` this reduces to plain mixing of ``top``.
    """
    return (1.0 + eta_w) * (W.weights @ top) - eta_w * bottom


def save_mixing_csv(matrix: MixingMatrix, path: str) -> None:
    """Write the weight matrix as dense CSV, one row per line, full precision."""
    with open(path, "w", encoding="ascii") as fh:
        for row in matrix.weights:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


def load_mixing_csv(path: str) -> MixingMatrix:
    """Load and validate a dense CSV weight matrix written by :func:`save_mixing_csv`."""
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([float(tok) for tok in line.split(",")])
            except ValueError as exc:
                raise MixingMatrixError(f"{path}:{lineno}: unparseable entry ({exc})")
    if not rows:
        raise MixingMatrixError(f"{path}: empty mixing-matrix file")
    lengths = {len(r) for r in rows}
    if len(lengths) != 1:
        raise MixingMatrixError(f"{path}: ragged rows with lengths {sorted(lengths)}")
    return from_weights(np.array(rows, dtype=float))
