"""Per-agent objectives: gradient oracles, data ingestion, and partitioning.

An oracle owns the local functions ``f_i`` of all agents and serves, for
all agents at once, their exact and unbiased stochastic gradients, and
values and optimality gaps of the global objective.  Stochastic
minibatches are sampled with replacement inside each agent's shard, so
draws are i.i.d. across local steps; ``batch=None`` switches an oracle to
deterministic full-batch mode (zero gradient noise).
"""

from __future__ import annotations

import abc
import functools
import importlib.machinery
import importlib.util
import itertools
import os
import sys
from dataclasses import dataclass

import numpy as np

from .diagnostics import axis_mean, squared_norms
from .streams import TrialStreams


class DatasetError(ValueError):
    """Raised for unusable datasets or malformed data files."""


@dataclass(frozen=True)
class Dataset:
    """Dense two-class dataset with labels already remapped to -1/+1."""

    features: np.ndarray  # (m, p)
    labels: np.ndarray    # (m,) valued in {-1.0, +1.0}

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class PartitionedDataset:
    """Per-agent shards of a dataset; disjoint and jointly exhaustive."""

    shards: tuple[tuple[np.ndarray, np.ndarray], ...]

    @property
    def n_agents(self) -> int:
        return len(self.shards)

    @property
    def dim(self) -> int:
        return self.shards[0][0].shape[1]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(feat.shape[0] for feat, _ in self.shards)


def _remap_labels(raw: np.ndarray, origin: str) -> np.ndarray:
    """Map the two raw label values onto {-1, +1} by their sorted order."""
    values = np.unique(raw)
    if len(values) > 2:
        raise DatasetError(
            f"{origin}: {len(values)} distinct labels found, only two-class data supported")
    if len(values) < 2:
        # degenerate single-class file: map everything to +1
        return np.ones(raw.shape[0])
    return np.where(raw == values[0], -1.0, 1.0)


def _finite(token: str) -> float:
    """``float(token)``, refusing the ``inf`` and ``nan`` no loss can use."""
    if not np.isfinite(value := float(token)):
        raise ValueError(f"non-finite value {token!r}")
    return value


def load_libsvm(path: str) -> Dataset:
    """Read a LIBSVM text file into dense features.

    Each line is ``label index:value ...`` with 1-based feature indices;
    absent indices are zero.  Two distinct label values are required and
    are remapped to -1/+1 by sorted order.
    """
    labels: list[float] = []
    entries: list[list[tuple[int, float]]] = []
    max_index = 0
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                labels.append(_finite(parts[0]))
                row = []
                for tok in parts[1:]:
                    idx_str, val_str = tok.split(":", 1)
                    idx = int(idx_str)
                    if idx < 1:
                        raise ValueError(f"feature index {idx} < 1")
                    row.append((idx, _finite(val_str)))
                    max_index = max(max_index, idx)
                entries.append(row)
            except (ValueError, IndexError) as exc:
                raise DatasetError(f"{path}:{lineno}: malformed LIBSVM line ({exc})")
    if not entries:
        raise DatasetError(f"{path}: empty dataset file")
    features = np.zeros((len(entries), max(max_index, 1)))
    for i, row in enumerate(entries):
        for idx, val in row:
            features[i, idx - 1] = val
    return Dataset(features=features, labels=_remap_labels(np.array(labels), path))


def load_csv(path: str) -> Dataset:
    """Read a headerless CSV whose trailing column is the class label."""
    rows: list[list[float]] = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                values = [_finite(tok) for tok in line.split(",")]
            except ValueError as exc:
                raise DatasetError(f"{path}:{lineno}: malformed CSV line ({exc})")
            if len(values) < 2:
                raise DatasetError(f"{path}:{lineno}: need at least one feature and a label")
            rows.append(values)
    if not rows:
        raise DatasetError(f"{path}: empty dataset file")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DatasetError(f"{path}: inconsistent column counts {sorted(widths)}")
    arr = np.array(rows)
    return Dataset(features=arr[:, :-1], labels=_remap_labels(arr[:, -1], path))


def make_synthetic_classification(samples: int, features: int, seed: int) -> Dataset:
    """Two Gaussian clouds on opposite sides of a random hyperplane, their
    means ``+-direction`` two units apart.

    Feature rows are scaled to unit RMS norm so logistic smoothness
    constants stay O(1) regardless of dimension.
    """
    if samples < 2 or features < 1:
        raise DatasetError("need samples >= 2 and features >= 1")
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=features)
    direction /= np.linalg.norm(direction)
    labels = np.where(np.arange(samples) % 2 == 0, 1.0, -1.0)
    X = rng.normal(size=(samples, features)) + labels[:, None] * direction
    X /= np.sqrt(np.mean(np.sum(X * X, axis=1)))
    return Dataset(features=X, labels=labels)


def partition_heterogeneous(data: Dataset, n: int) -> PartitionedDataset:
    """Sort by label, then split into ``n`` contiguous shards.

    Shard sizes differ by at most one (earlier shards take the remainder).
    The stable sort keeps the original order within each class, so the
    split is deterministic.
    """
    m = data.n_samples
    if n < 1:
        raise DatasetError(f"need at least one agent, got {n}")
    if n > m:
        raise DatasetError(f"cannot split {m} samples among {n} agents")
    order = np.argsort(data.labels, kind="stable")
    feats = data.features[order]
    labs = data.labels[order]
    base, extra = divmod(m, n)
    shards = []
    start = 0
    for i in range(n):
        size = base + (1 if i < extra else 0)
        shards.append((feats[start:start + size].copy(), labs[start:start + size].copy()))
        start += size
    return PartitionedDataset(shards=tuple(shards))


class GradientOracle(abc.ABC):
    """Interface every objective family implements.

    Attributes:
        n_agents: number of local functions.
        dim: iterate dimension p.
        sigma: upper bound on the stochastic-gradient standard deviation
            (0 in deterministic mode).
        L: smoothness constant of the local functions.
        mu: strong-convexity / PL modulus of the global function, if known.
        f_star: global minimum value, if known.
        gap_is_data_pass: whether :meth:`opt_gap` passes over every sample,
            so that it pays to run it on a second core beside the round.
    """

    n_agents: int
    dim: int
    sigma: float
    L: float
    mu: float | None = None
    f_star: float | None = None
    gap_is_data_pass: bool = False

    @abc.abstractmethod
    def global_value(self, x: np.ndarray) -> float:
        """Global objective, the mean of the f_i, at one point x."""

    def global_gradient(self, x: np.ndarray) -> np.ndarray:
        return self.full_gradients_at(x).mean(axis=-2)

    @abc.abstractmethod
    def full_gradients_at(self, x: np.ndarray) -> np.ndarray:
        """All agents' exact gradients evaluated at the same point:
        ``(..., n, p)`` for points ``x`` of shape ``(..., p)``."""

    @abc.abstractmethod
    def draw(self, streams: TrialStreams | None, t: int, Q: int) -> np.ndarray | list[None]:
        """All random draws of round ``t``, one leading entry per local step,
        then the trial axes of ``streams.shape``: each trial's draws come
        from its stream ``streams.gradient(t, slot)``, laid out (step,
        agent, ...).  ``[None] * Q`` in deterministic mode, where
        ``streams`` may be None."""

    @abc.abstractmethod
    def stochastic_gradient_matrix(self, X: np.ndarray,
                                   draws_step: np.ndarray | None) -> np.ndarray:
        """Stacked stochastic gradients in a new array, agent i evaluated at
        row ``X[..., i, :]``; ``X`` is ``(n, p)`` or carries leading trial axes.

        ``draws_step`` is one local step's entry of :meth:`draw` (None in
        deterministic mode).
        """

    @abc.abstractmethod
    def opt_gap(self, X: np.ndarray) -> np.ndarray:
        """Optimality gap ``F(x) - f_star`` averaged over the rows of ``X``:
        shape ``X.shape[:-2]`` for ``X`` of shape ``(..., rows, p)``."""


#: the compiled module of scipy that defines ``expit`` and ``log_expit``
_UFUNC_MODULE = "scipy.special._special_ufuncs"


@functools.cache
def _logistic_ufuncs() -> tuple[np.ufunc, np.ufunc]:
    """scipy's ``expit`` and ``log_expit`` ufuncs.

    ``scipy.special``'s initializer loads some 300 modules, a second
    OpenBLAS and about 16 MiB, and takes about 0.1 s, so unless it is
    already imported these come from the one compiled module that defines
    them, loaded from its file beside scipy's ``__init__.py`` (found
    without importing scipy) and registered under its own name: a later
    ``import scipy.special`` returns these very objects.  Where that file
    is missing or lacks either name, the public import serves them.
    """
    module = (sys.modules.get("scipy.special") or sys.modules.get(_UFUNC_MODULE)
              or _load_ufunc_module())
    if not (hasattr(module, "expit") and hasattr(module, "log_expit")):
        import scipy.special as module
    return module.expit, module.log_expit


def _load_ufunc_module():
    """:data:`_UFUNC_MODULE` loaded from its file, or None if not found."""
    scipy_spec = importlib.util.find_spec("scipy")
    parts = _UFUNC_MODULE.split(".")[1:]
    for folder in (scipy_spec and scipy_spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folder, *parts) + suffix
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(_UFUNC_MODULE, path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                sys.modules[_UFUNC_MODULE] = module
                return module
    return None


def logistic_loss_inplace(z: np.ndarray) -> np.ndarray:
    """``log(1 + exp(z))`` of every negated margin ``z = -m``, as
    ``log1p(exp(-|z|)) + max(z, 0)``.

    The same formula as ``-log_expit(m)``, on numpy's vectorised ``exp``
    and ``log1p``: within 4 ulp of ``np.logaddexp(0, -m)``, exact at
    +-inf, NaN and +-0, but its last ulp depends on numpy's CPU dispatch.
    Overwrites ``z``; one new array of its shape.
    """
    loss = np.abs(z)
    np.negative(loss, out=loss)
    np.exp(loss, out=loss)
    np.log1p(loss, out=loss)
    loss += np.maximum(z, 0.0, out=z)
    return loss


class LogisticOracle(GradientOracle):
    """Binary logistic loss over per-agent shards with a configurable
    regularizer: ridge ``coeff/2 ||x||^2`` (``l2``) or the bounded nonconvex
    penalty ``coeff/2 sum_q x_q^2 / (1 + x_q^2)`` (``nonconvex``).

    Data term of f_i: mean over the shard of log(1 + exp(-v u.x)).
    """

    gap_is_data_pass = True

    def __init__(self, data: PartitionedDataset, reg: str, coeff: float,
                 batch: int | None):
        if coeff < 0:
            raise ValueError(f"regularizer coefficient must be >= 0, got {coeff}")
        if reg not in ("l2", "nonconvex"):
            raise ValueError(f"unknown regularizer {reg!r}")
        sizes = data.sizes
        if min(sizes) == 0:
            raise DatasetError("every agent needs a nonempty shard")
        if batch is not None:
            if batch < 1:
                raise ValueError(f"batch must be >= 1, got {batch}")
            if batch > min(sizes):
                raise ValueError(
                    f"batch {batch} exceeds smallest shard size {min(sizes)}")
        self._expit, self._log_expit = _logistic_ufuncs()
        self.reg = reg
        self.coeff = float(coeff)
        self.batch = batch
        self.n_agents = data.n_agents
        self.dim = data.dim

        # negated label-signed features -v * u: with labels +-1 every product
        # with them is exact, and IEEE rounding is symmetric in sign, so the
        # negated margins -v * (U @ x) take one product, bit-equal to the
        # negation of v * (U @ x), and the labels need no array of their own
        self._signed = np.concatenate([-l[:, None] * f for f, l in data.shards])
        self._offsets = np.concatenate([[0], np.cumsum(sizes)])
        self._sizes = np.array(sizes)
        # runs of consecutive agents with equal shard sizes, each with its
        # rows of ``_signed`` viewed as an (agents, size, p) stack
        self._runs = []
        first = 0
        for size, run in itertools.groupby(sizes):
            k = len(list(run))
            rows = self._signed[self._offsets[first]:self._offsets[first + k]]
            self._runs.append((slice(first, first + k), rows.reshape(k, size, self.dim)))
            first += k

        sq = np.sum(self._signed ** 2, axis=1)
        mean_sq = np.array([sq[self._offsets[i]:self._offsets[i + 1]].mean()
                            for i in range(self.n_agents)])
        self.L = float(mean_sq.max() / 4.0 + self.coeff)
        self.mu = self.coeff if reg == "l2" else None
        self.sigma = 0.0 if batch is None else float(np.sqrt(mean_sq.max() / batch))
        # per-sample weights of the global objective (shards are averaged
        # internally, agents are averaged with weight 1/n)
        self._global_weights = np.concatenate(
            [np.full(s, 1.0 / (self.n_agents * s)) for s in sizes])

    def _reg_values(self, X: np.ndarray) -> np.ndarray:
        """The regularizer at each point along the last axis of ``X``; bit-equal
        to one ``x @ x`` or ``np.sum`` per point."""
        if self.reg == "l2":
            return 0.5 * self.coeff * squared_norms(X)
        xs = X * X
        return 0.5 * self.coeff * np.sum(xs / (1.0 + xs), axis=-1)

    def _reg_gradient(self, x: np.ndarray) -> np.ndarray:
        if self.reg == "l2":
            return self.coeff * x
        return self.coeff * x / (1.0 + x * x) ** 2

    def _exact_gradients(self, X: np.ndarray) -> np.ndarray:
        """Exact gradients of all agents, agent i at row ``X[..., i, :]``.

        One stacked product per run of equal shard sizes: numpy's matmul
        makes the same BLAS call for each agent of the stack as for that
        agent alone, so every entry equals the per-agent ``-(S_i.T @
        expit(-(S_i @ x))) / size + reg'(x)`` on rows ``S_i = v u`` bit for bit.
        """
        G = np.empty(X.shape)
        for agents, S in self._runs:
            slope = S @ X[..., agents, :, None]
            self._expit(slope, out=slope)  # = 1 / (1 + exp(margin))
            np.divide(S.swapaxes(-1, -2) @ slope, S.shape[1], out=G[..., agents, :, None])
        return np.add(G, self._reg_gradient(X), out=G)

    def full_gradients_at(self, x: np.ndarray) -> np.ndarray:
        # a copy, not a broadcast view: the regularizer's passes run faster on it
        return self._exact_gradients(np.repeat(x[..., None, :], self.n_agents, axis=-2))

    def global_value(self, x: np.ndarray) -> float:
        # each agent's mean loss, then the mean over agents; -log_expit(m)
        # is log(1 + exp(-m)), bit-equal to logaddexp(0, -m); kept exact
        # here, as it sets f_star and the schedules' delta_f
        losses = np.concatenate(
            [np.mean(-self._log_expit(-(S @ x)), axis=-1) for _, S in self._runs])
        return float(np.mean(losses + self._reg_values(x)))

    def global_hessian(self, x: np.ndarray) -> np.ndarray:
        """Hessian of the ridge (``l2``) global objective at one point x."""
        s = self._expit(self._signed @ x)
        curvature = self._global_weights * s * (1.0 - s)
        H = self.coeff * np.eye(self.dim)
        # 128 rows at a time: a scaled copy of all fig1's rows adds 2% to its peak memory
        for i in range(0, len(s), 128):
            rows = self._signed[i:i + 128]
            H += rows.T @ (curvature[i:i + 128, None] * rows)
        return H

    def draw(self, streams: TrialStreams | None, t: int, Q: int) -> np.ndarray | list[None]:
        """The round's minibatch rows, ``(Q, *streams.shape, n, batch)``
        indices into the stacked shards: each trial's
        ``streams.gradient(t, slot).integers(0, shard sizes, size=(Q, n,
        batch))``, row ``[step, slot, i]`` offset to shard i.  ``[None] * Q``
        in full-batch mode."""
        if self.batch is None:
            return [None] * Q
        if streams is None:
            raise ValueError("minibatch oracle needs random streams")
        return streams.round_draws(t, Q, self._rows)

    def _rows(self, gen: np.random.Generator, steps: int) -> np.ndarray:
        """One trial's minibatch rows for ``steps`` local steps, from its
        round's stream ``gen``."""
        return self._offsets[:-1, None] + gen.integers(
            0, self._sizes[:, None], size=(steps, self.n_agents, self.batch))

    def stochastic_gradient_matrix(self, X: np.ndarray,
                                   draws_step: np.ndarray | None) -> np.ndarray:
        if draws_step is None:
            return self._exact_gradients(X)
        S = self._signed[draws_step]
        slope = self._expit(np.einsum("...abp,...ap->...ab", S, X))
        return np.einsum("...ab,...abp->...ap", slope, S) / self.batch + self._reg_gradient(X)

    def global_values_at_rows(self, X: np.ndarray) -> np.ndarray:
        """Global objective evaluated at each row of ``X``: ``(..., n)`` for
        ``X`` of shape ``(..., n, p)``."""
        # one product per trial: a single product over the rows of all
        # trials rounds differently
        values = []
        for Xt in X.reshape(-1, X.shape[-2], self.dim):
            losses = self._global_weights @ logistic_loss_inplace(self._signed @ Xt.T)
            values.append(losses + self._reg_values(Xt))
        return np.array(values).reshape(X.shape[:-1])

    def opt_gap(self, X: np.ndarray) -> np.ndarray:
        """The difference ``F(x) - f_star`` of two numbers near ``f_star``,
        with a floor of about 1e-16 times ``f_star``."""
        return axis_mean(self.global_values_at_rows(X), -1) - self.f_star


class QuadraticOracle(GradientOracle):
    """Heterogeneous quadratics ``f_i(x) = (x - b_i)' A_i (x - b_i) / 2``
    with optional isotropic Gaussian gradient noise.

    The minimizer and minimum of the global average are available in
    closed form, so the oracle exposes ``f_star`` exactly.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, sigma: float = 0.0):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        if A.ndim != 3 or A.shape[1] != A.shape[2] or b.shape != A.shape[:2]:
            raise ValueError(f"need A of shape (n, p, p) and b of shape (n, p), "
                             f"got {A.shape} and {b.shape}")
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        self.A = A
        self.b = b
        self.n_agents, self.dim = b.shape
        self.sigma = float(sigma)
        self._hessian = A.mean(axis=0)
        eigvals = np.linalg.eigvalsh(self._hessian)
        self.mu = float(eigvals[0])
        self.L = float(max(np.linalg.eigvalsh(Ai)[-1] for Ai in A))
        rhs = np.einsum("ipq,iq->p", A, b) / self.n_agents
        self.x_star = np.linalg.solve(self._hessian, rhs)
        self.f_star = self.global_value(self.x_star)
        self._hessian_root = np.linalg.cholesky(self._hessian)
        self._noise_scale = self.sigma / np.sqrt(self.dim)
        self._Ab = np.einsum("ipq,iq->ip", A, b)

    def full_gradients_at(self, x: np.ndarray) -> np.ndarray:
        return np.matvec(self.A, x[..., None, :]) - self._Ab

    def draw(self, streams: TrialStreams | None, t: int, Q: int) -> np.ndarray | list[None]:
        """The round's gradient noise, ``(Q, *streams.shape, n, p)``: what
        each trial's ``streams.gradient(t, slot).normal(0.0, sigma /
        sqrt(p), size=(Q, n, p))`` returns, as its standard normals scaled
        by ``sigma / sqrt(p)`` once for the whole block.  ``[None] * Q`` when
        the oracle is noiseless."""
        if self.sigma == 0.0:
            return [None] * Q
        if streams is None:
            raise ValueError("noisy oracle needs random streams")
        return streams.round_draws(t, Q, self._noise, self._noise_scale)

    def _noise(self, gen: np.random.Generator, steps: int) -> np.ndarray:
        """One trial's standard normals for ``steps`` local steps, from its
        round's stream ``gen``."""
        return gen.standard_normal(size=(steps, self.n_agents, self.dim))

    def stochastic_gradient_matrix(self, X: np.ndarray,
                                   draws_step: np.ndarray | None) -> np.ndarray:
        G = np.matvec(self.A, X - self.b)
        return G if draws_step is None else np.add(G, draws_step, out=G)

    def opt_gap(self, X: np.ndarray) -> np.ndarray:
        """``0.5 (x - x_star)' H (x - x_star)`` averaged over the rows of
        ``X``, as half the squared norm of ``(x - x_star) @ C`` for the
        Cholesky factor ``H = C C'``: non-negative by construction and
        accurate to relative precision near the optimum, where
        ``F(x) - f_star`` is not."""
        root = (X - self.x_star) @ self._hessian_root
        return 0.5 * axis_mean(np.add.reduce(root * root, -1), -1)

    def global_hessian(self, x: np.ndarray) -> np.ndarray:
        """The global objective's Hessian, the same at every x."""
        return self._hessian

    def global_value(self, x: np.ndarray) -> float:
        d = x[None, :] - self.b
        return 0.5 * float(np.einsum("ip,ipq,iq->", d, self.A, d)) / self.n_agents


def quadratic_pl_oracle(n: int, p: int, mu_min: float, L: float, sigma: float,
                        rng_seed: int, center: bool = False) -> QuadraticOracle:
    """Random heterogeneous quadratic testbed.

    The global Hessian has eigenvalues spanning ``[mu_min, L]`` exactly, so
    the global objective is ``mu_min``-strongly convex (hence PL with
    modulus ``mu_min``).  Per-agent curvatures receive mean-zero
    perturbations small enough to keep every ``A_i`` positive definite;
    the shifts ``b_i`` are standard Gaussian.  With ``center=True`` the
    shifts are translated so the global minimizer is the origin, which is
    convenient for steady-state noise measurements.
    """
    if not 0 < mu_min <= L:
        raise ValueError(f"need 0 < mu_min <= L, got mu_min={mu_min}, L={L}")
    rng = np.random.default_rng(rng_seed)
    basis, _ = np.linalg.qr(rng.normal(size=(p, p)))
    spectrum = np.linspace(mu_min, L, p) if p > 1 else np.array([mu_min])
    H = (basis * spectrum) @ basis.T
    H = 0.5 * (H + H.T)

    A = np.broadcast_to(H, (n, p, p)).copy()
    if n > 1:
        G = rng.normal(size=(n, p, p))
        G = 0.5 * (G + np.transpose(G, (0, 2, 1)))
        G -= G.mean(axis=0)
        norms = np.array([np.linalg.norm(Gi, ord=2) for Gi in G])
        scale = 0.45 * mu_min / max(norms.max(), 1e-300)
        A += scale * G
    b = rng.normal(size=(n, p))

    oracle = QuadraticOracle(A, b, sigma=sigma)
    if center:
        oracle = QuadraticOracle(A, b - oracle.x_star, sigma=sigma)
    return oracle
