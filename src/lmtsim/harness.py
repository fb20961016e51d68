"""Config-driven experiment runner.

Builds topology, oracle, and method from an :class:`ExperimentConfig`,
runs ``T`` communication rounds over several seeded trials as one batch on
a leading array axis, aggregates the per-round metrics across trials, and
writes a ``trace.csv`` plus plain text metadata.  Sweeps rerun the
experiment along one axis (local steps, agent count, or method) and
summarize final-window behaviour.

Everything is deterministic given (config, seed): random streams are
derived per (trial, round), every kernel treats each trial of the batch
as it would that trial alone, and trials are aggregated in fixed order.
"""

from __future__ import annotations

import math
import os
import platform
import sys
import time
import warnings
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import __version__
from . import baselines as bl
from . import blas
from . import diagnostics as dg
from . import lmt
from . import objectives as obj
from . import topology as tp
from .config import SWEEP_AXES, ConfigError, ExperimentConfig, parse_value
from .streams import TrialStreams


@dataclass
class ResultTable:
    """Per-round metrics averaged across trials (one run of one method)."""

    label: str
    columns: dict[str, np.ndarray]
    diverged_at: int | None = None  # first round with non-finite iterates or metrics

    @property
    def rounds(self) -> int:
        return len(self.columns["t"])

    def final_window(self, metric: str, frac: float = 0.1) -> float:
        """Mean of ``metric`` over the last ``frac`` fraction of rounds."""
        col = self.columns[metric]
        k = max(1, math.ceil(frac * len(col)))
        return float(np.mean(col[-k:]))

    def to_csv(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(",".join(dg.TRACE_COLUMNS) + "\n")
            line = "%d" + ",%.17g" * (len(dg.TRACE_COLUMNS) - 1) + "\n"
            rows = zip(*(self.columns[name].tolist() for name in dg.TRACE_COLUMNS))
            fh.write("".join(line % row for row in rows))

    @staticmethod
    def from_csv(path: str, label: str | None = None) -> "ResultTable":
        """The table of a ``trace.csv``, labelled ``label`` or else by the name
        of its directory, the run's (such as a sweep point's ``point_Q_Q1``)."""
        rows = []
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().strip().split(",")
            if tuple(header) != dg.TRACE_COLUMNS:
                raise ValueError(f"{path}: unexpected trace header {header}")
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                fields = line.strip().split(",")
                try:
                    if len(fields) != len(header):
                        raise ValueError(f"{len(fields)} fields, the header has {len(header)}")
                    rows.append([float(c) for c in fields])
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
        if not rows:
            raise ValueError(f"{path}: empty trace")
        data = np.array(rows)
        columns = {name: data[:, j] for j, name in enumerate(dg.TRACE_COLUMNS)}
        default = os.path.basename(os.path.dirname(os.path.abspath(path)))
        return ResultTable(label=label or default, columns=columns)


def build_mixing(cfg: ExperimentConfig) -> tp.MixingMatrix:
    if cfg.topology_kind == "ring":
        return tp.build_ring_mixing(cfg.n)
    if cfg.topology_kind == "complete":
        return tp.build_complete_mixing(cfg.n)
    return tp.load_mixing_csv(cfg.topology_path)


def build_oracle(cfg: ExperimentConfig, n: int) -> obj.GradientOracle:
    """The oracle of ``cfg`` over ``n`` agents, its ``f_star`` set whenever
    it is known: closed form for the quadratic, one Newton solve for
    ridge logistic regression with ``rho > 0``."""
    if cfg.objective_kind == "quadratic_pl":
        try:
            return obj.quadratic_pl_oracle(n=n, p=cfg.quad_dim, mu_min=cfg.quad_mu,
                                           L=cfg.quad_l, sigma=cfg.quad_sigma,
                                           rng_seed=cfg.quad_seed, center=cfg.quad_center)
        except np.linalg.LinAlgError:
            raise ConfigError(f"objective.mu: {cfg.quad_mu!r} is too small against "
                              f"objective.L = {cfg.quad_l!r} for a Hessian that is "
                              f"positive definite in floating point") from None
    if cfg.data_source == "synthetic":
        data = obj.make_synthetic_classification(cfg.synthetic_samples,
                                                 cfg.synthetic_features,
                                                 cfg.synthetic_seed)
    else:
        fmt = cfg.data_format
        if fmt is None:
            fmt = "csv" if cfg.data_source.endswith(".csv") else "libsvm"
        loader = obj.load_csv if fmt == "csv" else obj.load_libsvm
        data = loader(cfg.data_source)
        # the sizes a synthetic set has are checked by ExperimentConfig.validate
        if data.n_samples < n:
            raise ConfigError(f"objective.data: cannot split {data.n_samples} samples "
                              f"among {n} agents")
        if cfg.batch is not None and cfg.batch > (shard := data.n_samples // n):
            raise ConfigError(f"objective.batch: must be <= the smallest shard, "
                              f"{shard} samples, got {cfg.batch}")
    shards = obj.partition_heterogeneous(data, n)
    if cfg.objective_kind == "logistic_nonconvex":
        return obj.LogisticOracle(shards, "nonconvex", cfg.omega, cfg.batch)
    oracle = obj.LogisticOracle(shards, "l2", cfg.rho, cfg.batch)
    if cfg.rho > 0:
        try:
            oracle.f_star = dg.solve_f_star(oracle)
        except (RuntimeError, np.linalg.LinAlgError) as exc:
            # the ridge sets the Hessian's condition number
            raise ConfigError(f"objective.rho: {cfg.rho!r} is too small for this data: "
                              f"{exc}") from None
    return oracle


def resolve_hyperparams(cfg: ExperimentConfig, oracle: obj.GradientOracle,
                        mix: tp.MixingMatrix) -> lmt.HyperParams:
    """Turn a schedule tag into concrete round hyperparameters, and warn
    when a momentum method's ``beta`` lies below ``rho_w``."""
    hp = _schedule(cfg, oracle, mix)
    if cfg.method in ("lmt", "naive_lmt", "pdsgdm"):
        lmt.check_momentum(hp.beta, mix.rho_w)
    return hp


def _schedule(cfg: ExperimentConfig, oracle: obj.GradientOracle,
              mix: tp.MixingMatrix) -> lmt.HyperParams:
    """The round hyperparameters of ``cfg``'s schedule tag."""
    if mix.lam >= 1.0:
        raise ConfigError("topology.path: graph not connected (lambda = 1), "
                          "so its agents never reach consensus")
    beta = cfg.beta if cfg.beta is not None else mix.rho_w
    if cfg.schedule == "explicit":
        return lmt.HyperParams(Q=cfg.Q, eta_a=cfg.eta_a, eta_s=cfg.eta_s, beta=beta)
    if cfg.schedule == "figure1":
        return lmt.HyperParams(Q=cfg.Q, eta_a=0.25 / cfg.Q, eta_s=0.1, beta=beta)
    if cfg.schedule == "theorem1":
        delta_f = cfg.delta_f
        if delta_f is None:
            if oracle.f_star is None:
                raise ConfigError("schedule.delta_f: required when the oracle "
                                  "does not expose its minimum")
            delta_f = oracle.global_value(np.zeros(oracle.dim)) - oracle.f_star
            if delta_f <= 0:
                delta_f = 1.0
        return lmt.theorem1_stepsizes(L=oracle.L, sigma=oracle.sigma, n=oracle.n_agents,
                                      Q=cfg.Q, T=cfg.T, delta_f=delta_f, beta=beta)
    # theorem2
    if not oracle.mu or oracle.mu <= 0:
        raise ConfigError("schedule: theorem2 needs an oracle with a positive "
                          "strong convexity / PL modulus")
    return lmt.theorem2_stepsizes(mu=oracle.mu, Q=cfg.Q, T=cfg.T, mix=mix)


def _initial_iterates(cfg: ExperimentConfig, n: int, p: int,
                      streams: TrialStreams) -> np.ndarray:
    """Initial iterates of the batch of ``streams``, (trials, n, p)."""
    trials = len(streams.trials)
    if cfg.init == "zeros":
        return np.zeros((trials, n, p))
    X0 = np.empty((trials, n, p))
    for slot in range(trials):
        for i in range(n):
            X0[slot, i] = cfg.init_scale * streams.init_state(i, slot).normal(size=p)
    return X0


#: the per-round metrics, each averaged across trials
_METRICS = tuple(name for name in dg.TRACE_COLUMNS
                 if name != "t" and not name.endswith("_std"))


def _gap_on_worker(oracle: obj.GradientOracle) -> bool:
    """Whether :func:`diagnostics.input_metrics` runs on a worker thread,
    queued a round ahead of the round loop: only for a gap that passes over
    the data, which costs more than the hand-over, and on two or more CPUs,
    since on one the two threads only take turns."""
    if oracle.f_star is None or not getattr(oracle, "gap_is_data_pass", False):
        return False
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return cpus >= 2


def _stack(hps: list[lmt.HyperParams], ndim: int) -> lmt.HyperParams:
    """One :class:`lmt.HyperParams` for the points ``hps`` of a stack whose
    states have ``ndim`` axes: their ``Q`` and ``eta_a`` on a leading point
    axis, and for a stack of one, its point's own floats."""
    if len(hps) == 1:
        return hps[0]
    on_points = (-1,) + (1,) * (ndim - 1)
    return replace(hps[0], Q=np.array([h.Q for h in hps]).reshape(on_points),
                   eta_a=np.array([h.eta_a for h in hps]).reshape(on_points))


def _input_metrics_on_worker(*args) -> tuple:
    """:func:`diagnostics.input_metrics` in the round loop's error state,
    which a worker thread does not inherit: numpy's is context-local."""
    with np.errstate(over="ignore", invalid="ignore"):
        return dg.input_metrics(*args)


def _point_rounds(cfg: ExperimentConfig, mix: tp.MixingMatrix,
                  oracle: obj.GradientOracle, hps: list[lmt.HyperParams],
                  streams: TrialStreams, worker):
    """The rounds of a stack of points, one a step of this generator: the
    points of ``cfg``'s method with hyperparameters ``hps``, whose ``Q``
    must not increase, run as one state whose leading axes are points,
    then the trials of ``streams`` (:func:`lmt.init_state`).  It returns
    one pair per point: its per-round metrics (one row per trial, one
    column per round), and each trial's first round whose metrics the
    method defines are not finite, or ``T`` if only the iterates of the
    last round are not (None if every round's are).  A trial's rows from
    that round on are NaN.  A point leaves the stack after the round in
    which the last of its trials diverged, and the loop stops after the
    round in which the last trial of the last point did.  Given ``worker``,
    an executor, round t + 1's :func:`diagnostics.input_metrics` is queued
    on it as soon as round t has returned its state, and round t's metrics
    and stop still come before round t + 1 runs."""
    shape = (len(hps), len(streams.trials))
    at = np.full(shape, cfg.T + 1)  # each trial's divergence round, T + 1 for none
    live = slice(None)  # the points in the stack: all, then the indices of those left

    X0 = _initial_iterates(cfg, oracle.n_agents, oracle.dim, streams)
    state = lmt.init_state(cfg.method, np.repeat(X0[None], len(hps), axis=0))
    hp = _stack(hps, state["X"].ndim)
    spec = bl.BaselineSpec(method=cfg.method, hp=hp)
    carry = x_bar_prev = out = None
    if worker:
        pending = worker.submit(_input_metrics_on_worker, oracle, hp, state, None)
        cut = None  # the points left of the state the pending gap reads
    for t in range(cfg.T):
        # looked up at each call, so wrappers put on the module attributes
        # (such as the benchmark's layer timers) see every round
        if cfg.method == "lmt":
            new = lmt.lmt_round(state, oracle, mix, hp, streams)
        elif cfg.method == "naive_lmt":
            new = lmt.naive_local_momentum_round(state, oracle, mix, hp, streams)
        else:
            new = bl.baseline_round(spec, state, oracle, mix, streams)
        if worker:
            # round t + 1's gap reads only ``new`` and this round's mean
            # iterate, so it is queued behind round t's before that is
            # collected, and the worker goes from one gap to the next
            queued = (worker.submit(_input_metrics_on_worker, oracle, hp, new,
                                    dg.axis_mean(state["X"], -2))
                      if t + 1 < cfg.T else None)
            inputs, pending = pending.result(), queued
            if cut is not None:
                inputs, cut = tuple(v if v is None else v[cut] for v in inputs), None
        else:
            inputs = dg.input_metrics(oracle, hp, state, x_bar_prev)
        row, carry = dg.round_metrics(oracle, hp, mix, state, new, carry, inputs)
        x_bar_prev, state = inputs[0], new
        if out is None:
            # ``row`` holds exactly the metrics the method defines, each of
            # shape (points, trials): (metric, point, trial, round)
            names = list(row)
            out = np.full((len(names),) + shape + (cfg.T,), np.nan)
        block = out[..., t]
        block[:, live] = list(row.values())
        rows = block[:, live]
        if not np.isfinite(rows).all():
            stack_at = at[live]
            stack_at[~np.isfinite(rows).all(axis=0) & (stack_at > cfg.T)] = t
            at[live] = stack_at
            gone = (stack_at <= t).all(axis=1)
            if gone.all():
                break
            if gone.any():
                keep = ~gone
                live = np.arange(len(hps))[live][keep]
                hp = _stack([hps[j] for j in live], state["X"].ndim)
                spec = bl.BaselineSpec(method=cfg.method, hp=hp)
                state = {key: v[keep] if isinstance(v, np.ndarray) else v
                         for key, v in state.items()}
                carry = carry and tuple(v[keep] for v in carry)
                x_bar_prev = x_bar_prev[keep]
                if worker:
                    cut = keep
        yield

    # non-finite iterates make the next round's ``consensus_x`` non-finite,
    # so only those the last round returned need a check of their own
    stack_at = at[live]
    stack_at[(stack_at > cfg.T) & ~np.isfinite(state["X"]).all(axis=(-2, -1))] = cfg.T
    at[live] = stack_at
    for values in out:
        values[np.arange(cfg.T) >= at[..., None]] = np.nan
    return [({name: out[names.index(name), k] if name in names
              else np.full(shape[1:] + (cfg.T,), np.nan) for name in _METRICS},
             [int(a) if a <= cfg.T else None for a in at[k]]) for k in range(len(hps))]


def run_experiment(cfg: ExperimentConfig,
                   label: str | None = None) -> ResultTable:
    """Run one experiment (all trials) and return the aggregated table.

    Runs on one OpenBLAS thread unless ``OPENBLAS_NUM_THREADS`` is set (see
    :func:`blas.single_threaded`).  Writes ``trace.csv`` and ``meta.txt``
    into ``cfg.outdir`` when set.  ``meta.txt`` lists the warnings the run
    raised; they still reach the caller, each once, when the run ends.
    """
    return _run_group(cfg, lambda mix, oracle: [(cfg, label or cfg.method)])[0]


def _run_group(cfg: ExperimentConfig, points_of, progress: tuple[int, int] | None = None,
               dirs: tuple = ()) -> list[ResultTable]:
    """The tables of the ``(cfg, label)`` points that ``points_of`` makes
    from the mixing matrix and oracle built from ``cfg``, points that
    differ from it only in what :func:`resolve_hyperparams` and the rounds
    read.  All of it runs on one OpenBLAS thread, on one
    :class:`TrialStreams` and gap worker.  The points that share their
    method, ``eta_s`` and ``beta`` (the points of a Q sweep) run as one
    stack, by their ``Q`` from the largest down (:func:`_point_rounds`);
    the stacks run side by side, one round of every live stack before the
    next round of any.  Each point's ``meta.txt`` lists the warnings of
    the build, of its hyperparameters and of its stack's rounds, not those
    of ``points_of``; all reach the caller, each once, when the group ends.
    Each point makes its output directory, and the group the directories
    ``dirs`` (a sweep's other points'), before the first round; each point
    writes its outputs after the last, and, given ``progress`` (its first
    index and the sweep's size), a line with the group's seconds so far."""
    started = time.perf_counter()
    raised = []
    try:
        with warnings.catch_warnings(record=True) as raised, \
                blas.single_threaded() as blas_threads:
            mix = build_mixing(cfg)
            oracle = build_oracle(cfg, mix.n)
            shared = raised[:]
            points = points_of(mix, oracle)
            hps, heard = [], []
            for point, _ in points:
                seen = len(raised)
                # a context of its own: a warning an earlier point raised is recorded again
                with warnings.catch_warnings():
                    hps.append(resolve_hyperparams(point, oracle, mix))
                heard.append(shared + raised[seen:])
            try:  # before the first round, so that no round is lost to it
                for path in [*(point.outdir for point, _ in points), *dirs]:
                    if path:
                        os.makedirs(path, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"output.dir: cannot make {exc.filename!r} a "
                                  f"directory: {exc.strerror}") from None
            streams = TrialStreams(cfg.seed, list(range(cfg.trials)))
            worker = None
            if threaded := _gap_on_worker(oracle):
                from concurrent.futures import ThreadPoolExecutor
                worker = ThreadPoolExecutor(max_workers=1)
            stacks = {}
            for j in sorted(range(len(points)), key=lambda j: -hps[j].Q):
                hp = hps[j]
                stacks.setdefault((points[j][0].method, hp.eta_s, hp.beta), []).append(j)
            live = {tuple(js): _point_rounds(points[js[0]][0], mix, oracle,
                                             [hps[j] for j in js], streams, worker)
                    for js in stacks.values()}
            results = [None] * len(points)
            try:
                # entered here, since a generator entering it across a
                # ``yield`` would reset it under the other stacks
                with np.errstate(over="ignore", invalid="ignore"):
                    while live:
                        for js, run in list(live.items()):
                            seen = len(raised)
                            try:
                                next(run)
                            except StopIteration as stop:
                                for j, result in zip(js, stop.value):
                                    results[j] = result
                                del live[js]
                            for j in js:
                                heard[j] += raised[seen:]
            finally:
                # a gap queued for a round that never runs belongs to no
                # row, so it is dropped unread, with any exception it raised
                if worker:
                    worker.shutdown(cancel_futures=True)
    finally:
        for w in raised:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno,
                                   source=w.source)
    tables = []
    for k, ((point, label), (per_trial, diverged)) in enumerate(zip(points, results)):
        # the mean of every metric, and the std of those the trace schema
        # carries, so a table holds the same columns in memory as on disk
        columns: dict[str, np.ndarray] = {"t": np.arange(point.T, dtype=float)}
        for name in _METRICS:
            stacked = per_trial[name]
            # rounds reaching 2**256 are scaled by an exact power of two, so
            # finite trials overflow neither the sum nor the squares
            _, exp = np.frexp(np.abs(stacked).max(axis=0))
            scale = np.ldexp(1.0, np.where(exp > 256, exp - 1, 0))
            scaled = stacked / scale
            columns[name] = scaled.mean(axis=0) * scale
            if name + "_std" in dg.TRACE_COLUMNS:
                columns[name + "_std"] = scaled.std(axis=0) * scale
        diverged_at = min((t for t in diverged if t is not None), default=None)
        tables.append(ResultTable(label=label, columns=columns, diverged_at=diverged_at))
        if point.outdir:
            tables[-1].to_csv(os.path.join(point.outdir, "trace.csv"))
            _write_meta(point, mix, oracle, hps[k], diverged_at,
                        [str(w.message) for w in heard[k]], blas_threads,
                        threaded, os.path.join(point.outdir, "meta.txt"))
        if progress:
            print(f"sweep {label}: point {progress[0] + k}/{progress[1]} done in "
                  f"{time.perf_counter() - started:.2f} s", file=sys.stderr)
    return tables


def _write_meta(cfg: ExperimentConfig, mix: tp.MixingMatrix,
                oracle: obj.GradientOracle, hp: lmt.HyperParams,
                diverged_at: int | None, raised: list[str], blas_threads: int | None,
                threaded: bool, path: str) -> None:
    lines = [
        f"fingerprint = {cfg.fingerprint()}",
        f"seed = {cfg.seed}",
        f"version = {__version__}",
        f"method = {cfg.method}",
        f"schedule = {cfg.schedule}",
        f"n = {mix.n}",
        f"lambda = {mix.lam!r}",
        f"spectral_gap = {mix.spectral_gap!r}",
        f"eta_w = {mix.eta_w!r}",
        f"rho_w = {mix.rho_w!r}",
        f"Q = {hp.Q}",
        f"eta_a = {hp.eta_a!r}",
        f"eta_s = {hp.eta_s!r}",
        f"eta_hat = {hp.eta_hat!r}",
        f"beta = {hp.beta!r}",
        f"T = {cfg.T}",
        f"trials = {cfg.trials}",
        f"f_star = {'unknown' if oracle.f_star is None else repr(oracle.f_star)}",
        f"diverged_at = {'none' if diverged_at is None else diverged_at}",
        f"gap_thread = {'worker' if threaded else 'inline'}",
        f"blas_threads = {'unknown' if blas_threads is None else blas_threads}",
        "lyapunov_note = surrogate: realized consensus norms replace "
        "expectation-level bounds",
        f"warnings = {len(raised)}",
        *(f"warning_{k} = {message}" for k, message in enumerate(raised, 1)),
        *_library_lines(),
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _library_lines() -> list[str]:
    """The libraries a run's numbers depend on: the logistic opt gap's last
    ulp follows numpy's SIMD dispatch, every product the BLAS."""
    import scipy  # only for its version; quadratic runs need no scipy otherwise
    build = np.show_config(mode="dicts")
    lib = build.get("Build Dependencies", {}).get("blas", {})
    return [
        f"python = {platform.python_version()}",
        f"numpy = {np.__version__}",
        f"scipy = {scipy.__version__}",
        f"blas = {lib.get('name', 'unknown')} {lib.get('version', 'unknown')}",
        f"blas_core = {blas.corename()}",
        f"numpy_simd = {' '.join(build.get('SIMD Extensions', {}).get('found', []))}",
    ]


def run_sweep(cfg: ExperimentConfig, axis: str, values: list) -> tuple[list[ResultTable], dict]:
    """Rerun the experiment along one axis and summarize final windows.

    ``Q`` sweeps hold the composite step ``eta_hat`` fixed: stepsizes are
    resolved once on the base config, then the local step is rescaled as
    ``eta_a = eta_hat / (eta_s Q)`` per point.  ``n`` sweeps re-resolve
    everything per point (the graph changes); ``method`` sweeps share the
    resolved stepsizes through the parity map.  For ``Q`` sweeps the
    summary carries the log-log slope of the final-window gradient metric
    against ``Q``.  The points of a ``Q`` or ``method`` sweep run side by
    side as one group (:func:`_run_group`); each point of an ``n`` sweep is
    a group of its own.  Every point's output directory is made before the
    first group's rounds.  Each finished point prints one line to stderr:
    its label, its index out of the total and its group's seconds so far.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")
    if not values:
        raise ConfigError("sweep needs at least one axis value")
    # every point is checked before any runs, so a bad value names its field
    values = [parse_value(axis, str(v)) for v in values]
    if len(set(values)) < len(values):
        key = ExperimentConfig.__dataclass_fields__[axis].metadata["key"]
        raise ConfigError(f"{key}: sweep values must be distinct, got {values}")
    for value in values:
        replace(cfg, **{axis: value}).validate()
    labels = {value: value if axis == "method" else f"{axis}={value}" for value in values}
    outdirs = {value: cfg.outdir and os.path.join(cfg.outdir,
                                                  f"point_{axis}_{label.replace('=', '')}")
               for value, label in labels.items()}

    def points(group: list, mix: tp.MixingMatrix, oracle: obj.GradientOracle) -> list:
        """The ``(cfg, label)`` points of the values ``group``, from the
        mixing matrix and oracle their group built: a Q point runs the base
        config's schedule, resolved on them, with its local step rescaled.
        Only the points check their momentum, so each of them warns once."""
        base = _schedule(cfg, oracle, mix) if axis == "Q" else None
        made = []
        for value in group:
            point = replace(cfg, **{axis: value, "outdir": outdirs[value]})
            if axis == "Q":
                point = replace(point, schedule="explicit",
                                eta_a=base.eta_hat / (base.eta_s * value),
                                eta_s=base.eta_s, beta=base.beta)
            made.append((point, labels[value]))
        return made

    # the points of a Q or method sweep share their graph and oracle, so
    # they run as one group, built from its first point; each n changes both
    size = 1 if axis == "n" else len(values)
    tables: list[ResultTable] = []
    for first in range(0, len(values), size):
        group = values[first:first + size]
        # the first group makes every point's directory before its rounds
        tables += _run_group(replace(cfg, **{axis: group[0]}), partial(points, group),
                             (first + 1, len(values)), () if first else tuple(outdirs.values()))
    rows = [{"axis": axis, "value": value,
             "final_grad_norm_avg": table.final_window("grad_norm_avg"),
             "final_opt_gap_mean": table.final_window("opt_gap_mean"),
             "final_consensus_x": table.final_window("consensus_x")}
            for value, table in zip(values, tables)]

    summary: dict = {"axis": axis, "rows": rows}
    if axis == "Q":
        qs = np.array([float(r["value"]) for r in rows])
        finals = np.array([r["final_grad_norm_avg"] for r in rows])
        if len(qs) >= 2 and np.all(finals > 0):
            slope = float(np.polyfit(np.log(qs), np.log(finals), 1)[0])
            summary["loglog_slope_grad_norm_avg"] = slope

    if cfg.outdir:  # made with its points' directories
        _write_summary_csv(summary, os.path.join(cfg.outdir, "summary.csv"))
    return tables, summary


def _write_summary_csv(summary: dict, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        if "loglog_slope_grad_norm_avg" in summary:
            fh.write(f"# loglog_slope_grad_norm_avg = "
                     f"{summary['loglog_slope_grad_norm_avg']:.6f}\n")
        fh.write("axis,value,final_grad_norm_avg,final_opt_gap_mean,"
                 "final_consensus_x\n")
        for row in summary["rows"]:
            fh.write(f"{row['axis']},{row['value']},"
                     f"{format(row['final_grad_norm_avg'], '.17g')},"
                     f"{format(row['final_opt_gap_mean'], '.17g')},"
                     f"{format(row['final_consensus_x'], '.17g')}\n")
