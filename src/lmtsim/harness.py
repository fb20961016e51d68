"""Config-driven experiment runner.

Builds topology, oracle, and method from an :class:`ExperimentConfig`,
runs ``T`` communication rounds over several seeded trials as one batch on
a leading array axis, aggregates the per-round metrics across trials, and
writes a ``trace.csv`` plus plain text metadata.  Sweeps rerun the
experiment along one axis (local steps, agent count, or method) and
summarize final-window behaviour.

Everything is deterministic given (config, seed): random streams are
derived per (trial, agent, round, local step), every kernel treats each
trial of the batch as it would that trial alone, and trials are
aggregated in fixed order.
"""

from __future__ import annotations

import math
import os
import platform
import sys
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from . import baselines as bl
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
            for row in range(self.rounds):
                cells = []
                for name in dg.TRACE_COLUMNS:
                    v = self.columns[name][row]
                    cells.append(str(int(v)) if name == "t" else format(float(v), ".17g"))
                fh.write(",".join(cells) + "\n")

    @staticmethod
    def from_csv(path: str, label: str | None = None) -> "ResultTable":
        """The table of a ``trace.csv``, labelled ``label`` or else by the name
        of its directory, the run's (such as a sweep point's ``point_Q_Q1``)."""
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().strip().split(",")
            if tuple(header) != dg.TRACE_COLUMNS:
                raise ValueError(f"{path}: unexpected trace header {header}")
            rows = [line.strip().split(",") for line in fh if line.strip()]
        if not rows:
            raise ValueError(f"{path}: empty trace")
        data = np.array([[float(c) for c in row] for row in rows])
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
    it is known: closed form for the quadratic, one full-gradient solve for
    ridge logistic regression with ``rho > 0``."""
    if cfg.objective_kind == "quadratic_pl":
        return obj.quadratic_pl_oracle(n=n, p=cfg.quad_dim, mu_min=cfg.quad_mu,
                                       L=cfg.quad_l, sigma=cfg.quad_sigma,
                                       rng_seed=cfg.quad_seed, center=cfg.quad_center)
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
    shards = obj.partition_heterogeneous(data, n)
    if cfg.objective_kind == "logistic_nonconvex":
        return obj.LogisticOracle(shards, "nonconvex", cfg.omega, cfg.batch)
    oracle = obj.LogisticOracle(shards, "l2", cfg.rho, cfg.batch)
    if cfg.rho > 0:
        oracle.f_star = dg.solve_f_star(oracle)
    return oracle


def resolve_hyperparams(cfg: ExperimentConfig, oracle: obj.GradientOracle,
                        mix: tp.MixingMatrix) -> lmt.HyperParams:
    """Turn a schedule tag into concrete round hyperparameters."""
    if mix.lam >= 1.0:
        raise ConfigError("topology.path: graph not connected (lambda = 1), "
                          "so its agents never reach consensus")
    beta = cfg.beta if cfg.beta is not None else mix.rho_w
    if cfg.schedule == "explicit":
        hp = lmt.HyperParams(Q=cfg.Q, eta_a=cfg.eta_a, eta_s=cfg.eta_s,
                             beta=beta, eta_w=mix.eta_w)
    elif cfg.schedule == "figure1":
        hp = lmt.HyperParams(Q=cfg.Q, eta_a=0.25 / cfg.Q, eta_s=0.1,
                             beta=beta, eta_w=mix.eta_w)
    elif cfg.schedule == "theorem1":
        delta_f = cfg.delta_f
        if delta_f is None:
            if oracle.f_star is None:
                raise ConfigError("schedule.delta_f: required when the oracle "
                                  "does not expose its minimum")
            delta_f = oracle.global_value(np.zeros(oracle.dim)) - oracle.f_star
            if delta_f <= 0:
                delta_f = 1.0
        hp = lmt.theorem1_stepsizes(L=oracle.L, sigma=oracle.sigma, n=oracle.n_agents,
                                    Q=cfg.Q, T=cfg.T, delta_f=delta_f, beta=beta,
                                    eta_w=mix.eta_w)
    else:  # theorem2
        if not oracle.mu or oracle.mu <= 0:
            raise ConfigError("schedule: theorem2 needs an oracle with a positive "
                              "strong convexity / PL modulus")
        hp = lmt.theorem2_stepsizes(mu=oracle.mu, Q=cfg.Q, T=cfg.T, mix=mix)
    if cfg.method in ("lmt", "naive_lmt", "pdsgdm"):
        lmt.check_momentum(hp.beta, mix.rho_w)
    return hp


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


def _gap_worker(oracle: obj.GradientOracle):
    """A one-thread executor for :func:`diagnostics.input_metrics`, which
    reads only a round's input and so may run beside the round, or None:
    a gap that is no pass over the data costs more to hand over than it
    saves, and on one CPU the two threads only take turns."""
    if oracle.f_star is None or not getattr(oracle, "gap_is_data_pass", False):
        return None
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    if cpus < 2:
        return None
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(max_workers=1)


@np.errstate(over="ignore", invalid="ignore")
def _run_trials(cfg: ExperimentConfig, mix: tp.MixingMatrix,
                oracle: obj.GradientOracle, hp: lmt.HyperParams,
                trials: list[int]) -> tuple[dict[str, np.ndarray], list[int | None]]:
    """Per-round metrics of ``trials``, run as one batch on a leading array
    axis (one row per trial, one column per round), and each trial's first
    round whose metrics the method defines are not finite, or ``T`` if only
    the iterates of the last round are not (None if every round's are).  A
    trial's rows from that round on are NaN; the loop stops after the round
    in which the last trial diverged.

    Every kernel acts on each trial's slice exactly as on that trial alone,
    so a trial's metrics do not depend on the batch it runs in, and a
    diverged trial's inf and NaN values stay in its own slice.
    """
    k = len(trials)
    out = {name: np.full((k, cfg.T), np.nan) for name in _METRICS}
    at = np.full(k, cfg.T + 1)  # each trial's divergence round, T + 1 for none

    streams = TrialStreams(cfg.seed, trials)
    X0 = _initial_iterates(cfg, oracle.n_agents, oracle.dim, streams)
    state = lmt.init_state(cfg.method, X0)
    spec = bl.BaselineSpec(method=cfg.method, hp=hp)
    carry = None
    worker = _gap_worker(oracle)
    try:
        for t in range(cfg.T):
            if worker:
                pending = worker.submit(dg.input_metrics, oracle, hp, state, carry)
            # looked up at each call, so wrappers put on the module attributes
            # (such as the benchmark's layer timers) see every round
            if cfg.method == "lmt":
                new = lmt.lmt_round(state, oracle, mix, hp, streams)
            elif cfg.method == "naive_lmt":
                new = lmt.naive_local_momentum_round(state, oracle, mix, hp, streams)
            else:
                new = bl.baseline_round(spec, state, oracle, mix, streams)
            inputs = (pending.result() if worker
                      else dg.input_metrics(oracle, hp, state, carry))
            row, carry = dg.round_metrics(oracle, hp, mix, state, new, carry, inputs)
            state = new
            # ``row`` holds exactly the metrics the method defines
            for name, values in row.items():
                out[name][:, t] = values
            bad = ~np.all([np.isfinite(v) for v in row.values()], axis=0)
            at[bad & (at > cfg.T)] = t
            if (at <= t).all():
                break
    finally:
        if worker:
            worker.shutdown()

    # non-finite iterates make the next round's ``consensus_x`` non-finite,
    # so only those the last round returned need a check of their own
    at[(at > cfg.T) & ~np.isfinite(state["X"]).all(axis=(-2, -1))] = cfg.T
    for values in out.values():
        values[np.arange(cfg.T) >= at[:, None]] = np.nan
    return out, [int(a) if a <= cfg.T else None for a in at]


def run_experiment(cfg: ExperimentConfig,
                   label: str | None = None) -> ResultTable:
    """Run one experiment (all trials) and return the aggregated table.

    Writes ``trace.csv`` and ``meta.txt`` into ``cfg.outdir`` when set.
    ``meta.txt`` lists the warnings the run raised; they still reach the
    caller, each once, when the run ends.
    """
    raised = []
    try:
        with warnings.catch_warnings(record=True) as raised:
            mix = build_mixing(cfg)
            oracle = build_oracle(cfg, mix.n)
            hp = resolve_hyperparams(cfg, oracle, mix)
            per_trial, diverged = _run_trials(cfg, mix, oracle, hp, list(range(cfg.trials)))
    finally:
        for w in raised:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno,
                                   source=w.source)
    diverged_at = min((t for t in diverged if t is not None), default=None)

    # the mean of every metric, and the std of those the trace schema
    # carries, so a table holds the same columns in memory as on disk
    columns: dict[str, np.ndarray] = {"t": np.arange(cfg.T, dtype=float)}
    for name in _METRICS:
        stacked = per_trial[name]
        # rounds whose magnitude reaches 2**256 are scaled by an exact power
        # of two, so finite trials overflow neither the sum nor the squares;
        # the others are divided by 1 and stay bit for bit as they were
        _, exp = np.frexp(np.abs(stacked).max(axis=0))
        scale = np.ldexp(1.0, np.where(exp > 256, exp - 1, 0))
        scaled = stacked / scale
        columns[name] = scaled.mean(axis=0) * scale
        if name + "_std" in dg.TRACE_COLUMNS:
            columns[name + "_std"] = scaled.std(axis=0) * scale

    table = ResultTable(label=label or cfg.method, columns=columns, diverged_at=diverged_at)
    if cfg.outdir:
        os.makedirs(cfg.outdir, exist_ok=True)
        table.to_csv(os.path.join(cfg.outdir, "trace.csv"))
        _write_meta(cfg, mix, oracle, hp, diverged_at, [str(w.message) for w in raised],
                    os.path.join(cfg.outdir, "meta.txt"))
    return table


def _write_meta(cfg: ExperimentConfig, mix: tp.MixingMatrix,
                oracle: obj.GradientOracle, hp: lmt.HyperParams,
                diverged_at: int | None, raised: list[str], path: str) -> None:
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
    blas = build.get("Build Dependencies", {}).get("blas", {})
    return [
        f"python = {platform.python_version()}",
        f"numpy = {np.__version__}",
        f"scipy = {scipy.__version__}",
        f"blas = {blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
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
    against ``Q``.  Each finished point prints one line to stderr: its
    label, its index out of the total and its seconds.
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

    tables: list[ResultTable] = []
    rows: list[dict] = []
    base_outdir = cfg.outdir

    base_hp: lmt.HyperParams | None = None
    if axis == "Q":
        mix = build_mixing(cfg)
        oracle = build_oracle(cfg, mix.n)
        base_hp = resolve_hyperparams(cfg, oracle, mix)

    for index, value in enumerate(values, start=1):
        started = time.perf_counter()
        point = replace(cfg, **{axis: value})
        if axis == "Q":
            point = replace(point, schedule="explicit",
                            eta_a=base_hp.eta_hat / (base_hp.eta_s * value),
                            eta_s=base_hp.eta_s, beta=base_hp.beta)
        label = value if axis == "method" else f"{axis}={value}"
        if base_outdir:
            point = replace(point, outdir=os.path.join(
                base_outdir, f"point_{axis}_{label.replace('=', '')}"))
        table = run_experiment(point, label=label)
        print(f"sweep {label}: point {index}/{len(values)} done in "
              f"{time.perf_counter() - started:.2f} s", file=sys.stderr)
        tables.append(table)
        rows.append({
            "axis": axis,
            "value": value,
            "final_grad_norm_avg": table.final_window("grad_norm_avg"),
            "final_opt_gap_mean": table.final_window("opt_gap_mean"),
            "final_consensus_x": table.final_window("consensus_x"),
        })

    summary: dict = {"axis": axis, "rows": rows}
    if axis == "Q":
        qs = np.array([float(r["value"]) for r in rows])
        finals = np.array([r["final_grad_norm_avg"] for r in rows])
        if len(qs) >= 2 and np.all(finals > 0):
            slope = float(np.polyfit(np.log(qs), np.log(finals), 1)[0])
            summary["loglog_slope_grad_norm_avg"] = slope

    if base_outdir:
        os.makedirs(base_outdir, exist_ok=True)
        _write_summary_csv(summary, os.path.join(base_outdir, "summary.csv"))
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
