"""Workloads, timing, output checks and provenance of the lmtsim benchmark.

lmtsim is timed from outside, through its public entry points
(``harness.run_sweep``, ``cli.main``, ``plotting.emit_plot``).  Set-up and
output writing are timed by wrapping a few coarse public functions.  The
traced mode also wraps the public functions of every module and derives
per-layer self times from the recorded spans.  README.md in this directory
lists every workload and metric.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import warnings
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from lmtsim import cli, harness, plotting
from lmtsim.config import ExperimentConfig, parse_config_text

from spans import Patches, PhaseClock, SpanRecorder

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"

#: trace.csv schema of lmtsim; the digest covers these columns in this order
TRACE_COLUMNS = ("t", "consensus_x", "consensus_y",
                 "grad_norm_avg", "grad_norm_avg_std",
                 "opt_gap_mean", "opt_gap_mean_std",
                 "z_dev", "lyapunov_surrogate", "d_bar_drift")


class BenchmarkError(RuntimeError):
    """The benchmark cannot measure this version of the program."""


# ---------------------------------------------------------------------------
# workloads

class Workload:
    """One closed-loop batch job.  ``sizes`` holds the benchmark size and
    the tiny size used for warm-up and the self-check."""

    name: str
    default_seed: int
    sizes: dict[str, dict]
    #: lmtsim config, formatted with the seed and one of ``sizes``
    text: str
    #: trace columns every run of the workload must fill with finite values
    required: tuple[str, ...]
    #: one label per experiment run of an execution
    labels: tuple[str, ...]

    def rounds(self, size: dict) -> int:
        """Communication rounds simulated by one execution."""
        return len(self.labels) * size["trials"] * size["T"]

    def prepare(self, seed: int, size: dict, workdir: Path):
        """Inputs of one execution, built before timing starts."""
        return ExperimentConfig.from_mapping(
            parse_config_text(self.text.format(seed=seed, **size)))

    def execute(self, prepared, outdir: Path):
        """The timed part: what a user of lmtsim runs and waits for."""
        raise NotImplementedError

    def collect(self, executed, outdir: Path) -> list[tuple[str, object, str | None]]:
        """(label, ResultTable or None, error or None) per experiment run."""
        return [(t.label, t, None) for t in executed]

    def check(self, tables: dict) -> tuple[bool, str]:
        """The workload's property, on the tables of one execution."""
        raise NotImplementedError


class Fig1(Workload):
    name = "fig1-ring50-logistic"
    default_seed = 7
    sizes = {"bench": dict(n=50, samples=2000, p=50, T=300, trials=1),
             "tiny": dict(n=4, samples=80, p=5, T=4, trials=1)}
    required = ("t", "consensus_x", "grad_norm_avg", "opt_gap_mean")
    methods = labels = ("lmt", "led", "kgt", "local_dsgd", "pdsgdm", "scaffold")
    beaten = ("led", "kgt", "local_dsgd", "pdsgdm")
    text = """
        topology.kind = ring
        topology.n = {n}
        objective.kind = logistic_l2
        objective.data = synthetic
        objective.synthetic.samples = {samples}
        objective.synthetic.features = {p}
        objective.synthetic.seed = {seed}
        objective.rho = 0.2
        objective.batch = 1
        method = lmt
        schedule = figure1
        hyper.Q = 10
        run.T = {T}
        run.trials = {trials}
        run.seed = {seed}
    """

    def execute(self, cfg, outdir):
        tables, _ = harness.run_sweep(replace(cfg, outdir=str(outdir)),
                                      "method", list(self.methods))
        plotting.emit_plot(tables, "opt_gap_mean", str(outdir / "opt_gap.svg"))
        return tables

    def check(self, tables):
        gaps = {m: tables[m].final_window("opt_gap_mean") for m in self.methods}
        ok = all(gaps["lmt"] <= gaps[m] for m in self.beaten)
        return ok, "final-window opt_gap_mean " + ", ".join(
            f"{m}={g:.4e}" for m, g in gaps.items())


class QSweep(Workload):
    name = "qsweep-ring10-quad"
    default_seed = 21
    sizes = {"bench": dict(n=10, p=10, T=500, trials=8),
             "tiny": dict(n=3, p=3, T=6, trials=1)}
    required = ("t", "consensus_x", "grad_norm_avg", "opt_gap_mean")
    qs = (1, 2, 4, 8)
    labels = tuple(f"Q={q}" for q in qs)
    slope_range = (-1.3, -0.7)
    text = """
        topology.kind = ring
        topology.n = {n}
        objective.kind = quadratic_pl
        objective.dim = {p}
        objective.mu = 1.0
        objective.L = 1.0
        objective.sigma = 1.0
        objective.seed = {seed}
        objective.center = true
        method = lmt
        schedule = theorem1
        schedule.delta_f = 1.0
        hyper.Q = 1
        hyper.beta = 0.0
        run.T = {T}
        run.trials = {trials}
        run.seed = {seed}
    """

    def execute(self, cfg, outdir):
        tables, _ = harness.run_sweep(replace(cfg, outdir=str(outdir)),
                                      "Q", list(self.qs))
        return tables

    def check(self, tables):
        finals = [tables[f"Q={q}"].final_window("grad_norm_avg") for q in self.qs]
        if min(finals) <= 0:
            return False, f"non-positive final grad_norm_avg {finals}"
        slope = float(np.polyfit(np.log(self.qs), np.log(finals), 1)[0])
        lo, hi = self.slope_range
        return lo <= slope <= hi, f"log-log slope {slope:.4f} (need [{lo}, {hi}])"


class FullBatch(Workload):
    name = "fullbatch-ring50-nonconvex"
    default_seed = 7
    sizes = {"bench": dict(n=50, samples=2000, p=50, T=300, trials=1),
             "tiny": dict(n=4, samples=80, p=5, T=4, trials=1)}
    required = ("t", "consensus_x", "consensus_y", "grad_norm_avg", "z_dev")
    methods = labels = ("lmt", "naive_lmt")
    text = """
        topology.kind = ring
        topology.n = {n}
        objective.kind = logistic_nonconvex
        objective.data = synthetic
        objective.synthetic.samples = {samples}
        objective.synthetic.features = {p}
        objective.synthetic.seed = {seed}
        objective.omega = 0.05
        objective.batch = full
        method = {method}
        schedule = figure1
        hyper.Q = 10
        run.T = {T}
        run.trials = {trials}
        run.seed = {seed}
    """

    def prepare(self, seed, size, workdir):
        paths = {}
        for method in self.methods:
            text = self.text.format(seed=seed, method=method, **size)
            ExperimentConfig.from_mapping(parse_config_text(text))  # fail early
            path = workdir / f"{self.name}-{method}-{seed}-{size['T']}.cfg"
            path.write_text(text)
            paths[method] = str(path)
        return paths

    def execute(self, paths, outdir):
        codes = {}
        for method, path in paths.items():
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = cli.main(["run", path, "--out", str(outdir / method)])
            codes[method] = (code, err.getvalue().strip())
        return codes

    def collect(self, codes, outdir):
        runs = []
        for method, (code, err) in codes.items():
            trace = outdir / method / "trace.csv"
            if code != 0:
                runs.append((method, None, f"lmtsim run exited {code}: {err}"))
            elif not trace.is_file():
                runs.append((method, None, "lmtsim run wrote no trace.csv"))
            else:
                runs.append((method, harness.ResultTable.from_csv(str(trace),
                                                                  label=method), None))
        return runs

    def check(self, tables):
        ends = {m: (tables[m].columns["grad_norm_avg"][0],
                    tables[m].columns["grad_norm_avg"][-1]) for m in self.methods}
        ok = all(last < first for first, last in ends.values())
        return ok, "grad_norm_avg round 0 -> final " + ", ".join(
            f"{m}: {a:.4e} -> {b:.4e}" for m, (a, b) in ends.items())


WORKLOADS = {w.name: w for w in (Fig1(), QSweep(), FullBatch())}


# ---------------------------------------------------------------------------
# checks

def nonfinite_columns(table, required: tuple[str, ...]) -> list[str]:
    """Trace columns that break the finiteness rule: a required column must
    be finite everywhere; any other column is all NaN (the method does not
    define it) or finite everywhere."""
    bad = []
    for name in TRACE_COLUMNS:
        col = table.columns.get(name)
        if col is None:
            if name in required:
                bad.append(f"{name} missing")
            continue
        col = np.asarray(col, dtype=float)
        finite = np.isfinite(col)
        if finite.all() or (name not in required and np.isnan(col).all()):
            continue
        bad.append(name)
    return bad


def trace_digest(tables: list) -> str:
    """SHA-256 over label and trace columns of every table, in order."""
    h = hashlib.sha256()
    for table in tables:
        h.update(table.label.encode())
        for name in TRACE_COLUMNS:
            col = np.asarray(table.columns[name], dtype="<f8")
            h.update(np.where(np.isnan(col), np.nan, col).tobytes())
    return h.hexdigest()


#: rows of every trace column kept in reference.json: every tenth of the run
CHECKPOINT_FRACTIONS = np.linspace(0.0, 1.0, 11)


def checkpoints(tables: list) -> dict:
    """Every trace column of every table at CHECKPOINT_FRACTIONS of its rows."""
    out = {}
    for table in tables:
        rows = sorted(set((CHECKPOINT_FRACTIONS * (table.rounds - 1)).round().astype(int)))
        out[table.label] = {name: [_jsonable(table.columns[name][r]) for r in rows]
                            for name in TRACE_COLUMNS}
    return out


def _jsonable(v) -> float | None:
    v = float(v)
    return v if math.isfinite(v) else None


#: checkpoint values below this magnitude on both sides are rounding noise
#: (identity residuals such as d_bar_drift) and are left out of the deviation
DEVIATION_FLOOR = 1e-12


def max_rel_deviation(got: dict, ref: dict) -> float | None:
    """Largest relative difference between two checkpoint sets; None when
    their shapes differ or a finite value faces a non-finite one."""
    worst = 0.0
    if got.keys() != ref.keys():
        return None
    for label, cols in ref.items():
        for name, ref_vals in cols.items():
            vals = got[label].get(name)
            if vals is None or len(vals) != len(ref_vals):
                return None
            for a, b in zip(vals, ref_vals):
                if a is None or b is None:
                    if a is not b:
                        return None
                elif max(abs(a), abs(b)) >= DEVIATION_FLOOR:
                    worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    return worst


def reference_key(workload: str, seed: int) -> str:
    return f"{workload} seed {seed}"


def load_reference(workload: str, seed: int) -> dict | None:
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(reference_key(workload, seed))


# ---------------------------------------------------------------------------
# timing hooks

#: coarse calls timed in every run: (module, target, phase)
PHASE_HOOKS = (
    ("lmtsim.harness", "build_mixing", "setup"),
    ("lmtsim.harness", "build_oracle", "setup"),
    ("lmtsim.harness", "resolve_hyperparams", "setup"),
    ("lmtsim.diagnostics", "solve_f_star", "setup"),
    ("lmtsim.harness", "ResultTable.to_csv", "write"),
    ("lmtsim.plotting", "emit_plot", "write"),
)


def _baseline_method(args, kwargs) -> str:
    spec = args[0] if args else kwargs.get("spec")
    return getattr(spec, "method", "unknown")


#: callables wrapped in the traced run: (module, target, span name, suffix)
SPAN_HOOKS = (
    ("lmtsim.streams", "TrialStreams.gradient", "streams.gradient", None),
    ("lmtsim.objectives", "*.stochastic_gradient_matrix",
     "objectives.stochastic_gradient_matrix", None),
    ("lmtsim.objectives", "*.global_values_at_rows",
     "objectives.global_values_at_rows", None),
    ("lmtsim.objectives", "*.full_gradients_at", "objectives.full_gradients_at", None),
    ("lmtsim.objectives", "*.global_gradient", "objectives.global_gradient", None),
    ("lmtsim.objectives", "*.global_value", "objectives.global_value", None),
    ("lmtsim.harness", "build_oracle", "objectives.build_oracle", None),
    ("lmtsim.harness", "build_mixing", "topology.build_mixing", None),
    ("lmtsim.lmt", "lmt_round", "lmt.lmt_round", None),
    ("lmtsim.lmt", "naive_local_momentum_round", "lmt.naive_local_momentum_round", None),
    ("lmtsim.lmt", "local_update_phase", "lmt.local_update_phase", None),
    ("lmtsim.lmt", "tracking_and_correction", "lmt.tracking_and_correction", None),
    ("lmtsim.lmt", "accelerated_consensus", "lmt.accelerated_consensus", None),
    ("lmtsim.baselines", "baseline_round", "baselines.baseline_round", _baseline_method),
    ("lmtsim.diagnostics", "consensus_error", "diagnostics.consensus_error", None),
    ("lmtsim.diagnostics", "d_bar_sequence", "diagnostics.d_bar_sequence", None),
    ("lmtsim.diagnostics", "lyapunov_surrogate", "diagnostics.lyapunov_surrogate", None),
    ("lmtsim.diagnostics", "solve_f_star", "diagnostics.solve_f_star", None),
    ("lmtsim.harness", "resolve_hyperparams", "harness.resolve_hyperparams", None),
    ("lmtsim.harness", "run_experiment", "harness.run_experiment", None),
    ("lmtsim.harness", "run_sweep", "harness.run_sweep", None),
    ("lmtsim.harness", "ResultTable.to_csv", "harness.to_csv", None),
    ("lmtsim.plotting", "emit_plot", "plotting.emit_plot", None),
    ("lmtsim.cli", "main", "cli.main", None),
    ("lmtsim.config", "ExperimentConfig.from_file", "config.from_file", None),
)

BASELINES = ("local_dsgd", "led", "kgt", "pdsgdm", "scaffold")

#: per-layer metrics: (metric, span name, statistic, unit).  A span name
#: ending in "." sums every span with that prefix.
LAYER_METRICS = (
    ("streams.gradient.us_per_call", "streams.gradient", "us_per_call", "us"),
    ("streams.gradient.calls", "streams.gradient", "calls", "count"),
    ("objectives.stochastic_gradient_matrix.self_us",
     "objectives.stochastic_gradient_matrix", "self_us", "us"),
    ("objectives.stochastic_gradient_matrix.calls",
     "objectives.stochastic_gradient_matrix", "calls", "count"),
    ("objectives.global_values_at_rows.us_per_call",
     "objectives.global_values_at_rows", "us_per_call", "us"),
    ("objectives.global_values_at_rows.calls",
     "objectives.global_values_at_rows", "calls", "count"),
    ("objectives.full_gradients_at.us_per_call",
     "objectives.full_gradients_at", "us_per_call", "us"),
    ("objectives.full_gradients_at.calls", "objectives.full_gradients_at", "calls", "count"),
    ("objectives.global_gradient.us_per_call",
     "objectives.global_gradient", "us_per_call", "us"),
    ("objectives.global_value.us_per_call", "objectives.global_value", "us_per_call", "us"),
    ("objectives.global_value.calls", "objectives.global_value", "calls", "count"),
    ("lmt.lmt_round.self_us", "lmt.lmt_round", "self_us", "us"),
    ("lmt.lmt_round.calls", "lmt.lmt_round", "calls", "count"),
    ("lmt.naive_local_momentum_round.self_us",
     "lmt.naive_local_momentum_round", "self_us", "us"),
    ("lmt.naive_local_momentum_round.calls",
     "lmt.naive_local_momentum_round", "calls", "count"),
    ("lmt.local_update_phase.self_us", "lmt.local_update_phase", "self_us", "us"),
    ("lmt.tracking_and_correction.us_per_call",
     "lmt.tracking_and_correction", "us_per_call", "us"),
    ("lmt.accelerated_consensus.us_per_call",
     "lmt.accelerated_consensus", "us_per_call", "us"),
    *((f"baselines.baseline_round.self_us.{m}", f"baselines.baseline_round.{m}",
       "self_us", "us") for m in BASELINES),
    ("baselines.baseline_round.calls", "baselines.baseline_round.", "calls", "count"),
    ("diagnostics.consensus_error.us_per_call",
     "diagnostics.consensus_error", "us_per_call", "us"),
    ("diagnostics.d_bar_sequence.us_per_call",
     "diagnostics.d_bar_sequence", "us_per_call", "us"),
    ("diagnostics.lyapunov_surrogate.us_per_call",
     "diagnostics.lyapunov_surrogate", "us_per_call", "us"),
    ("diagnostics.lyapunov_surrogate.calls",
     "diagnostics.lyapunov_surrogate", "calls", "count"),
    ("harness.run_experiment.self_us_per_round",
     "harness.run_experiment", "self_us_per_round", "us"),
    ("harness.run_experiment.calls", "harness.run_experiment", "calls", "count"),
    ("topology.build_mixing.ms", "topology.build_mixing", "ms", "ms"),
    ("objectives.build_oracle.ms", "objectives.build_oracle", "ms", "ms"),
    ("harness.resolve_hyperparams.ms", "harness.resolve_hyperparams", "ms", "ms"),
    ("diagnostics.solve_f_star.ms", "diagnostics.solve_f_star", "ms", "ms"),
    ("diagnostics.solve_f_star.calls", "diagnostics.solve_f_star", "calls", "count"),
    ("harness.to_csv.ms", "harness.to_csv", "ms", "ms"),
    ("plotting.emit_plot.ms", "plotting.emit_plot", "ms", "ms"),
    ("config.from_file.ms", "config.from_file", "ms", "ms"),
)

#: derived from the traced and untraced runs rather than from one span
TRACE_METRICS = (("trace.overhead_frac", "frac"),)

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("rounds_per_s", "1/s"),
              ("peak_rss_mb", "MiB"))


def _install_phase_clock(patches: Patches, clock: PhaseClock) -> None:
    for module, target, phase in PHASE_HOOKS:
        if not patches.wrap(module, target, clock.timer(phase)):
            raise BenchmarkError(f"cannot time {phase}: {module}.{target} "
                                 "is gone")


def _install_spans(patches: Patches, rec: SpanRecorder) -> None:
    # a hook that wraps nothing would read as a layer with no cost at all
    gone = [f"{module}.{target}" for module, target, span, suffix in SPAN_HOOKS
            if not patches.wrap(module, target, rec.span(span, suffix))]
    if gone:
        raise BenchmarkError("cannot trace layers, callables are gone: "
                             + ", ".join(gone))


def layer_metrics(stats: dict, rounds: int) -> dict[str, float]:
    """Per-layer metrics of one traced execution from its span totals."""
    out = {}
    for metric, span, stat, _unit in LAYER_METRICS:
        if span.endswith("."):
            hits = [v for k, v in stats.items() if k.startswith(span)]
        else:
            hits = [stats[span]] if span in stats else []
        calls = sum(h[0] for h in hits)
        incl = sum(h[1] for h in hits)
        own = sum(h[2] for h in hits)
        if stat == "calls":
            out[metric] = calls
        elif stat == "ms":
            out[metric] = incl * 1e3
        elif stat == "self_us_per_round":
            out[metric] = own * 1e6 / rounds
        elif calls == 0:
            out[metric] = 0.0
        else:
            out[metric] = (incl if stat == "us_per_call" else own) * 1e6 / calls
    return out


# ---------------------------------------------------------------------------
# provenance

def _blas_threads_in_use() -> int | None:
    import ctypes
    import glob
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance() -> dict:
    """Machine, library and source identity recorded with every result."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    sources = sorted((ROOT / "src").rglob("*.py"))
    src_hash = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        src_hash.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_in_use": _blas_threads_in_use(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": src_hash.hexdigest(),
        "src_lines": lines,
    }


# ---------------------------------------------------------------------------
# measurement

#: median seconds of one calibration kernel pass on the machine the bounds
#: were set on (a shared 2-core x86_64 VM, OpenBLAS on 1 thread)
KERNEL_REFERENCE_S = 0.053


def calibration_kernel() -> list[float]:
    """Seconds of five passes over a fixed mix of interpreter, small-array
    and BLAS work, like the workloads' own.

    It is independent of lmtsim, so it measures only how fast the machine
    runs at the moment.  The shared machine the bounds were set on changed
    speed by up to 2.8 times within an hour, in CPU time as much as in wall
    time; timings divided by this kernel's time do not drift with it.
    """
    rng = np.random.default_rng(0)
    data = rng.standard_normal((2000, 50))
    x = rng.standard_normal((50, 50))
    w = np.full((10, 10), 0.1)
    passes = []
    for _ in range(5):
        v = np.ones((10, 10))
        counts: dict[int, int] = {}
        t0 = perf_counter()
        for i in range(320_000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        for _ in range(5_200):
            v = 0.9 * (w @ v) + 0.01 * rng.standard_normal((10, 10))
        for _ in range(120):
            data @ x
        passes.append(perf_counter() - t0)
    return passes


def execute_once(wl: Workload, prepared, outdir: Path) -> dict:
    """One timed execution plus its untimed output collection."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = perf_counter()
        try:
            executed, error = wl.execute(prepared, outdir), None
        except Exception as exc:  # noqa: BLE001 - a failing run is counted
            executed, error = None, f"{type(exc).__name__}: {exc}"
        wall = perf_counter() - t0
    if error is None:
        try:
            runs = wl.collect(executed, outdir)
        except Exception as exc:  # noqa: BLE001 - unreadable outputs are counted
            error = f"{type(exc).__name__}: {exc}"
    if error is not None:
        runs = [(label, None, error) for label in wl.labels]
    shutil.rmtree(outdir, ignore_errors=True)
    return {"wall": wall, "runs": runs, "warnings": len(caught)}


def check_outputs(wl: Workload, runs: list) -> dict:
    """Correctness of one execution: failed runs, property, digest."""
    failures = {}
    for label, table, error in runs:
        if error is not None:
            failures[label] = error
            continue
        bad = nonfinite_columns(table, wl.required)
        if bad:
            failures[label] = "non-finite trace columns: " + ", ".join(bad)
    tables = [t for _, t, _ in runs if t is not None]
    prop = None
    if not failures:
        ok, prop = wl.check({t.label: t for t in tables})
        if not ok:
            failures = {label: "property failed: " + prop for label, _, _ in runs}
    return {"failures": failures, "property": prop,
            "digest": trace_digest(tables) if len(tables) == len(runs) else None,
            "checkpoints": checkpoints(tables) if len(tables) == len(runs) else None}


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def run(workload: str, seed: int, seconds: float, trace: bool,
        size_name: str = "bench") -> tuple[dict, dict]:
    """Run one workload for about ``seconds`` seconds.

    Returns the result object (``correct``, ``attempted``, ``failed``,
    ``metrics``) and a detail object with quartiles, checks and provenance.
    With ``trace`` false the metrics are the end-to-end ones; with
    ``trace`` true, untraced and traced executions alternate and the
    metrics are the per-layer ones.
    """
    wl = WORKLOADS[workload]
    size = wl.sizes[size_name]
    rounds = wl.rounds(size)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    clock, rec = PhaseClock(), SpanRecorder()
    # raw seconds per untraced execution, and calibration kernel passes
    # before the first execution, between executions and after the last
    raw: dict[str, list[float]] = {"wall_s": [], "setup_s": [], "write_s": []}
    kernels: list[float] = []
    traced_walls: list[float] = []
    layers: list[dict] = []
    checks: list[dict] = []
    try:
        prepared = wl.prepare(seed, size, workdir)
        if size_name != "tiny":
            warm = wl.prepare(seed, wl.sizes["tiny"], workdir)
            execute_once(wl, warm, workdir / "warmup")

        start = perf_counter()
        last = {False: 0.0, True: 0.0}
        k = 0
        while True:
            traced = trace and k % 2 == 1
            elapsed = perf_counter() - start
            need_more = k < (2 if trace else 1)
            if not need_more and elapsed + last[traced] > seconds:
                break
            outdir = workdir / f"rep{k}"
            if not trace:
                kernels += calibration_kernel()
            with Patches() as patches:
                if traced:
                    rec.reset()
                    rec.run_id = k
                    _install_spans(patches, rec)
                else:
                    clock.reset()
                    _install_phase_clock(patches, clock)
                res = execute_once(wl, prepared, outdir)
            last[traced] = res["wall"]
            checks.append(check_outputs(wl, res["runs"]) | {"warnings": res["warnings"]})
            if traced:
                traced_walls.append(res["wall"])
                layers.append(layer_metrics(rec.totals(), rounds))
            else:
                raw["wall_s"].append(res["wall"])
                raw["setup_s"].append(clock.seconds.get("setup", 0.0))
                raw["write_s"].append(clock.seconds.get("write", 0.0))
            k += 1
        if not trace:
            kernels += calibration_kernel()
        else:
            spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.npz"
            rec.dump(str(spans_path))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = len(checks) * len(wl.labels)
    failed = sum(len(c["failures"]) for c in checks)
    digests = {c["digest"] for c in checks}
    if len(digests) > 1:
        # a run is a pure function of config and seed: repeats must agree
        failed = attempted
    reference = load_reference(workload, seed) if size_name == "bench" else None
    first = checks[0]
    detail = {
        "workload": workload, "seed": seed, "trace": int(trace), "size": size_name,
        "executions": len(checks), "rounds_per_execution": rounds,
        "failed_frac": failed / attempted,
        "failures": sorted({f"{label}: {why}" for c in checks
                            for label, why in c["failures"].items()}),
        "property": first["property"],
        "warnings_per_execution": first["warnings"],
        "digest": first["digest"],
        "repeat_digests_agree": len(digests) == 1,
        "reference_digest_match": (None if reference is None
                                   else reference["digest"] == first["digest"]),
        "reference_max_rel_dev": (None if reference is None or first["checkpoints"] is None
                                  else max_rel_deviation(first["checkpoints"],
                                                         reference["checkpoints"])),
        "provenance": provenance(),
    }
    units = dict(END_TO_END) | {m: u for m, _, _, u in LAYER_METRICS} | dict(TRACE_METRICS)
    if trace:
        # median_low keeps exact call counts whole numbers
        values = {m: statistics.median_low(l[m] for l in layers) for m in layers[0]}
        untraced = statistics.median(raw["wall_s"])
        values["trace.overhead_frac"] = statistics.median(traced_walls) / untraced - 1.0
        detail["traced_wall_s"] = _quartiles(traced_walls)
        detail["untraced_wall_s"] = _quartiles(raw["wall_s"])
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        # rescaled to the speed of the machine the bounds were set on; the
        # median over all kernel passes of the run ignores a short stall
        scale = KERNEL_REFERENCE_S / statistics.median(kernels)
        ref = {m: [x * scale for x in v] for m, v in raw.items()}
        ref["rounds_per_s"] = [rounds / (w - s - o) for w, s, o in
                               zip(ref["wall_s"], ref["setup_s"], ref["write_s"])]
        values = {m: statistics.median(ref[m]) for m in ("wall_s", "setup_s", "rounds_per_s")}
        values["peak_rss_mb"] = peak_rss_mb
        detail["quartiles"] = {m: _quartiles(v) for m, v in ref.items()}
        detail["raw_quartiles"] = {m: _quartiles(v) for m, v in raw.items()}
        detail["kernel_s"] = _quartiles(kernels)
    metrics = {m: {"value": v, "unit": units[m]} for m, v in values.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, detail


def print_summary(result: dict, detail: dict) -> None:
    """Human-readable lines and the detail object, printed before the result."""
    print(f"# {detail['workload']} seed={detail['seed']} trace={detail['trace']} "
          f"executions={detail['executions']} failed_frac={detail['failed_frac']:.3g}")
    for name, m in result["metrics"].items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(detail))
