import os
import re
import subprocess
import sys

import numpy as np
import pytest

from helpers import save_mixing_csv
from lmtsim import cli, harness, lmt
from lmtsim.topology import build_ring_mixing

QUICK_CFG = """
topology.kind = ring
topology.n = 5
objective.kind = quadratic_pl
objective.dim = 3
objective.mu = 0.3
objective.L = 1.0
objective.sigma = 0.2
method = lmt
schedule = figure1
hyper.Q = 2
run.T = 10
run.trials = 2
run.seed = 1
"""


def write_cfg(tmp_path, text=QUICK_CFG, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_spectra_ring(capsys):
    assert cli.main(["spectra", "ring", "100"]) == 0
    out = capsys.readouterr().out
    fields = dict(line.split(" = ") for line in out.strip().splitlines())
    gap = float(fields["spectral_gap"])
    assert 6.27e-4 <= gap <= 6.93e-4
    assert 0.9 < float(fields["rho_w"]) < 1.0


def test_spectra_complete_and_file(tmp_path, capsys):
    assert cli.main(["spectra", "complete", "7"]) == 0
    out = capsys.readouterr().out
    assert "spectral_gap = 1.0" in out

    path = tmp_path / "w.csv"
    save_mixing_csv(build_ring_mixing(6), str(path))
    assert cli.main(["spectra", "file", str(path)]) == 0
    assert "lambda" in capsys.readouterr().out


def test_spectra_invalid_inputs(capsys):
    assert cli.main(["spectra", "ring", "2"]) == 2
    assert "error" in capsys.readouterr().err
    assert cli.main(["spectra", "file", "no_such.csv"]) == 2


def test_run_and_plot_commands(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    assert (out / "trace.csv").exists()
    assert (out / "meta.txt").exists()
    capsys.readouterr()

    svg = tmp_path / "fig.svg"
    assert cli.main(["plot", str(out / "trace.csv"), "--metric",
                     "grad_norm_avg", "--out", str(svg)]) == 0
    assert svg.read_text().startswith("<svg")

    # a ragged or non-numeric row is named by its file and line
    trace = out / "trace.csv"
    lines = trace.read_text().splitlines()
    for last, fault in [(",".join(lines[-1].split(",")[:4]), "4 fields, the header has 10"),
                        ("x" + lines[-1][1:], "could not convert string to float: 'x'")]:
        trace.write_text("\n".join(lines[:-1] + [last]) + "\n")
        assert cli.main(["plot", str(trace), "--out", str(svg)]) == 2
        assert capsys.readouterr().err == f"error: {trace}:{len(lines)}: {fault}\n"
    # a wrong header, and a header with no rows, are named by their file
    for text, fault in [("t,consensus_x\n0,1\n", "unexpected trace header ['t', 'consensus_x']"),
                        (lines[0] + "\n", "empty trace")]:
        trace.write_text(text)
        assert cli.main(["plot", str(trace), "--out", str(svg)]) == 2
        assert capsys.readouterr().err == f"error: {trace}: {fault}\n"


def test_sweep_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", cfg, "--axis", "Q", "--values", "1,2",
                     "--out", str(out)]) == 0
    assert (out / "summary.csv").exists()
    stdout = capsys.readouterr().out
    assert "loglog slope" in stdout


def test_plot_legend_names_each_sweep_point(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert cli.main(["sweep", write_cfg(tmp_path), "--axis", "Q", "--values", "1,2",
                     "--out", str(out)]) == 0
    svg = tmp_path / "q.svg"
    assert cli.main(["plot", str(out / "point_Q_Q1" / "trace.csv"),
                     str(out / "point_Q_Q2" / "trace.csv"), "--out", str(svg)]) == 0
    legend = re.findall(r'<text x="[^"]*" y="[^"]*" font-size="11">([^<]*)</text>',
                        svg.read_text())
    assert legend == ["point_Q_Q1", "point_Q_Q2"]


# a graph read from a file fixes the agent count
FILE_TOPOLOGY_CFG = QUICK_CFG.replace("topology.kind = ring", "topology.kind = file\n"
                                      "topology.path = W.csv").replace("topology.n = 5\n", "")

# six samples cannot be split among seven agents
SIX_SAMPLES_CFG = """
topology.kind = ring
topology.n = 3
objective.kind = logistic_l2
objective.data = synthetic
objective.synthetic.samples = 6
objective.synthetic.features = 2
method = lmt
schedule = figure1
run.T = 5
run.trials = 1
"""


# a ridge of 1e-12 on eight samples in ten dimensions, which a hyperplane separates
TINY_RIDGE_CFG = """
topology.kind = ring
topology.n = 4
objective.kind = logistic_l2
objective.data = synthetic
objective.synthetic.samples = 8
objective.synthetic.features = 10
objective.rho = 1e-12
method = lmt
schedule = figure1
hyper.Q = 2
run.T = 2
"""


# two blocks of two agents each: a graph that is not connected
TWO_BLOCKS = "0.5,0.5,0,0\n0.5,0.5,0,0\n0,0,0.5,0.5\n0,0,0.5,0.5\n"


def test_spectra_of_a_disconnected_graph_prints_undefined(tmp_path, capsys):
    path = tmp_path / "W.csv"
    path.write_text(TWO_BLOCKS)
    with pytest.warns(UserWarning, match="not connected"):
        assert cli.main(["spectra", "file", str(path)]) == 0
    fields = dict(line.split(" = ") for line in capsys.readouterr().out.strip().splitlines())
    assert fields["lambda"] == "1.0"
    assert fields["spectral_gap"] == "0.0"
    assert fields["eta_w"] == fields["rho_w"] == "undefined (graph not connected)"


@pytest.mark.parametrize("command", [
    ["run"], ["sweep", "--axis", "Q", "--values", "1,2"],
    ["sweep", "--axis", "method", "--values", "lmt,led"]], ids=["run", "sweep-Q", "sweep-method"])
def test_a_disconnected_graph_exits_2_before_any_round_runs(tmp_path, capsys, command):
    (tmp_path / "W.csv").write_text(TWO_BLOCKS)
    cfg = write_cfg(tmp_path, FILE_TOPOLOGY_CFG)
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="not connected"):
        assert cli.main([command[0], cfg, *command[1:], "--out", str(out)]) == 2
    assert "error: topology.path:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("axis, values, field, text", [
    pytest.param(*row, id="-".join(row[:3])) for row in [
        ("Q", "1,0", "hyper.Q", QUICK_CFG), ("Q", "1,2.5", "hyper.Q", QUICK_CFG),
        ("n", "5,2", "topology.n", QUICK_CFG),
        ("method", "lmt,sgd", "method", QUICK_CFG),
        ("n", "5,9", "topology.n", FILE_TOPOLOGY_CFG),
        ("n", "3,7", "objective.synthetic.samples", SIX_SAMPLES_CFG),
        ("Q", "2,02,4", "hyper.Q", QUICK_CFG),
        ("method", "lmt,led,lmt", "method", QUICK_CFG)]])
def test_sweep_rejects_a_bad_axis_value_before_any_point_runs(tmp_path, capsys, axis,
                                                               values, field, text):
    save_mixing_csv(build_ring_mixing(5), str(tmp_path / "W.csv"))
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", cfg, "--axis", axis, "--values", values,
                     "--out", str(out)]) == 2
    assert f"error: {field}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field, text", [
    pytest.param(field, text, id=field) for field, text in [
        ("schedule.delta_f",
         QUICK_CFG.replace("schedule = figure1", "schedule = theorem1\nschedule.delta_f = -1")),
        ("objective.synthetic.features",
         SIX_SAMPLES_CFG.replace("features = 2", "features = 0")),
        ("objective.batch", SIX_SAMPLES_CFG + "objective.batch = 3\n"),
        # numpy's generators take no negative seed, while a negative run.seed runs
        ("objective.seed", QUICK_CFG + "objective.seed = -1\n"),
        ("objective.synthetic.seed", SIX_SAMPLES_CFG + "objective.synthetic.seed = -1\n"),
        # 8 samples cannot span 10 features, so the f_star solve's Hessian
        # is singular once the ridge is below its rounding
        ("objective.rho", TINY_RIDGE_CFG.replace("rho = 1e-12", "rho = 1e-100"))]])
def test_out_of_range_keys_exit_2_before_any_round_runs(tmp_path, monkeypatch, capsys,
                                                        field, text):
    runs = []
    monkeypatch.setattr(harness, "_point_rounds", lambda *args: runs.append(args))
    assert cli.main(["run", write_cfg(tmp_path, text)]) == 2
    assert f"error: {field}:" in capsys.readouterr().err
    assert runs == []


@pytest.mark.parametrize("agents, batch, field", [(5, 1, "objective.data"),
                                                  (3, 2, "objective.batch")])
def test_a_data_file_too_small_for_its_agents_or_batch_exits_2(tmp_path, capsys, agents,
                                                               batch, field):
    # four samples: the sizes of a data file are known only once it is read
    (tmp_path / "data.csv").write_text("0.1,0.2,1\n0.3,-0.1,2\n-0.2,0.4,1\n0.5,0.0,2\n")
    text = (SIX_SAMPLES_CFG.replace("objective.data = synthetic", "objective.data = data.csv")
            .replace("topology.n = 3", f"topology.n = {agents}")
            + f"objective.batch = {batch}\n")
    assert cli.main(["run", write_cfg(tmp_path, text)]) == 2
    assert f"error: {field}:" in capsys.readouterr().err


INF_FEATURE_CSV = "0.1,0.2,1\ninf,-0.1,2\n-0.2,0.4,1\n0.5,0.0,2\n"


@pytest.mark.parametrize("kind, name, text", [
    pytest.param("logistic_l2", "data.csv", INF_FEATURE_CSV, id="csv-l2"),
    pytest.param("logistic_nonconvex", "data.csv", INF_FEATURE_CSV, id="csv-nonconvex"),
    pytest.param("logistic_l2", "data.libsvm", "1 1:0.1\n2 1:0.3 2:nan\n1 2:0.4\n2 1:0.5\n",
                 id="libsvm-l2")])
def test_a_non_finite_number_in_a_data_file_exits_2_before_any_round_runs(
        tmp_path, monkeypatch, capsys, kind, name, text):
    (tmp_path / name).write_text(text)
    cfg = (SIX_SAMPLES_CFG.replace("objective.data = synthetic", f"objective.data = {name}")
           .replace("objective.kind = logistic_l2", f"objective.kind = {kind}"))
    runs = []
    monkeypatch.setattr(harness, "_point_rounds", lambda *args: runs.append(args))
    assert cli.main(["run", write_cfg(tmp_path, cfg)]) == 2
    assert re.fullmatch(f"error: {re.escape(str(tmp_path / name))}:2: .*non-finite value "
                        f"'(inf|nan)'\\)\n", capsys.readouterr().err)
    assert runs == []


@pytest.mark.parametrize("command", [["run"], ["sweep", "--axis", "Q", "--values", "1,2"]],
                         ids=["run", "sweep-Q"])
@pytest.mark.parametrize("out", ["afile", os.path.join("afile", "sub")])
def test_an_unusable_output_dir_exits_2_before_any_round_runs(tmp_path, monkeypatch, capsys,
                                                              command, out):
    (tmp_path / "afile").write_text("")

    def no_round(*args):
        raise AssertionError("a round ran")

    monkeypatch.setattr(lmt, "lmt_round", no_round)
    out = str(tmp_path / out)
    assert cli.main([command[0], write_cfg(tmp_path), *command[1:], "--out", out]) == 2
    assert capsys.readouterr().err.startswith(f"error: output.dir: cannot make '{out}")


# separable data, where only the ridge keeps the f_star solve's Hessian
# nonsingular, and data whose own curvature does
@pytest.mark.parametrize("samples, features, rho", [(8, 10, "1e-12"), (8, 10, "3e-7"),
                                                    (200, 20, "1e-12")])
def test_a_tiny_ridge_runs(tmp_path, samples, features, rho):
    text = (TINY_RIDGE_CFG.replace("samples = 8", f"samples = {samples}")
            .replace("features = 10", f"features = {features}")
            .replace("rho = 1e-12", f"rho = {rho}"))
    assert cli.main(["run", write_cfg(tmp_path, text)]) == 0


def test_config_error_exit_code(tmp_path, capsys):
    bad = write_cfg(tmp_path, text="method = nonsense\n", name="bad.cfg")
    assert cli.main(["run", bad]) == 2
    assert "error" in capsys.readouterr().err
    assert cli.main(["run", str(tmp_path / "missing.cfg")]) == 2


def test_runtime_error_exit_code(tmp_path, monkeypatch, capsys):
    cfg = write_cfg(tmp_path)

    def boom(config):
        raise RuntimeError("deliberate failure")

    monkeypatch.setattr(harness, "run_experiment", boom)
    assert cli.main(["run", cfg]) == 3
    assert "deliberate failure" in capsys.readouterr().err


DIVERGING_CFG = """
topology.kind = ring
topology.n = 5
objective.kind = quadratic_pl
method = lmt
schedule = explicit
hyper.eta_a = 50
hyper.eta_s = 1
hyper.Q = 2
run.T = 200
"""


def test_diverging_run_stops_records_and_exits_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, DIVERGING_CFG)
    out = tmp_path / "run"
    assert cli.main(["run", cfg, "--out", str(out)]) == 3
    assert "diverged" in capsys.readouterr().err
    meta = dict(line.split(" = ", 1) for line in
                (out / "meta.txt").read_text().splitlines())
    at = int(meta["diverged_at"])
    assert 0 < at < 200
    rows = np.genfromtxt(out / "trace.csv", delimiter=",", skip_header=1)
    assert rows.shape[0] == 200
    assert np.isnan(rows[at:, 1:]).all()
    assert not np.isnan(rows[at - 1, 1])

    sweep_out = tmp_path / "sweep"
    assert cli.main(["sweep", cfg, "--axis", "Q", "--values", "2",
                     "--out", str(sweep_out)]) == 3
    assert (sweep_out / "summary.csv").is_file()


# iterates stay finite for longer than the squared metrics do
OVERFLOWING_CFG = DIVERGING_CFG.replace("hyper.eta_a = 50", "hyper.eta_a = 100").replace(
    "hyper.Q = 2", "hyper.Q = 1")


def test_overflowing_metrics_stop_the_run_and_exit_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, OVERFLOWING_CFG)
    out = tmp_path / "run"
    assert cli.main(["run", cfg, "--out", str(out)]) == 3
    assert "diverged" in capsys.readouterr().err
    meta = dict(line.split(" = ", 1) for line in
                (out / "meta.txt").read_text().splitlines())
    at = int(meta["diverged_at"])
    assert 0 < at < 200
    rows = np.genfromtxt(out / "trace.csv", delimiter=",", skip_header=1)
    assert rows.shape[0] == 200
    assert np.isnan(rows[at:, 1:]).all()
    assert np.isfinite(rows[:at, 1]).all()


# a ridge-logistic step so long that the iterates overflow within a few
# rounds; without momentum there is no surrogate to overflow first, so the
# round in which it diverges squares iterates beyond float64 in its gap too
DIVERGING_LOGISTIC_CFG = """
topology.kind = ring
topology.n = 5
objective.kind = logistic_l2
objective.data = synthetic
objective.synthetic.samples = 60
objective.synthetic.features = 6
objective.batch = 1
method = local_dsgd
schedule = explicit
hyper.eta_a = 1e10
hyper.eta_s = 1
hyper.Q = 2
run.T = 40
run.trials = 2
"""


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverging_logistic_run_stops_records_and_exits_3(tmp_path, capsys):
    # its gap may run on a second thread, which must also ignore overflow
    cfg = write_cfg(tmp_path, DIVERGING_LOGISTIC_CFG)
    out = tmp_path / "run"
    assert cli.main(["run", cfg, "--out", str(out)]) == 3
    assert "diverged" in capsys.readouterr().err
    meta = dict(line.split(" = ", 1) for line in
                (out / "meta.txt").read_text().splitlines())
    at = int(meta["diverged_at"])
    assert 0 < at < 40
    rows = np.genfromtxt(out / "trace.csv", delimiter=",", skip_header=1)
    assert np.isnan(rows[at:, 1:]).all()
    assert np.isfinite(rows[:at, 1]).all()


# ten trials whose values stay finite up to divergence, while from round 60
# on their sums or squares lie beyond float64
AVERAGING_CFG = """
topology.kind = ring
topology.n = 5
objective.kind = quadratic_pl
objective.dim = 4
objective.mu = 0.2
objective.L = 1.0
objective.sigma = 0.5
objective.seed = 3
method = lmt
schedule = explicit
hyper.eta_a = 100
hyper.eta_s = 1
hyper.Q = 1
run.T = 200
run.trials = 10
run.seed = 11
"""


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_trial_mean_and_std_stay_finite_until_divergence(tmp_path, capsys):
    cfg = write_cfg(tmp_path, AVERAGING_CFG)
    out = tmp_path / "run"
    assert cli.main(["run", cfg, "--out", str(out)]) == 3
    assert "diverged" in capsys.readouterr().err
    meta = dict(line.split(" = ", 1) for line in
                (out / "meta.txt").read_text().splitlines())
    at = int(meta["diverged_at"])
    assert at > 100
    rows = np.genfromtxt(out / "trace.csv", delimiter=",", skip_header=1)
    assert np.isfinite(rows[:at]).all()


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "lmtsim.cli", "spectra", "ring", "50"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0
    assert "spectral_gap" in proc.stdout


GUARD_SCRIPT = """
import os, sys
from lmtsim import cli, objectives
tmp, cfg = sys.argv[1], sys.argv[2]
assert cli.main(["spectra", "ring", "10"]) == 0
scipy_modules = [m for m in sys.modules if m.split(".")[0] == "scipy"]
assert not scipy_modules, scipy_modules
out = os.path.join(tmp, "out")
assert cli.main(["run", cfg, "--out", out]) == 0
assert cli.main(["plot", os.path.join(out, "trace.csv"), "--metric", "grad_norm_avg",
                 "--out", os.path.join(tmp, "fig.svg")]) == 0
assert "scipy.special" not in sys.modules
data = objectives.make_synthetic_classification(8, 2, seed=0)
oracle = objectives.LogisticOracle(objectives.partition_heterogeneous(data, 2), "l2", 0.1, None)
# the oracle loads scipy's logistic ufuncs alone: no scipy.special, and no
# OpenBLAS beside numpy's
assert "scipy.special" not in sys.modules
if os.path.exists("/proc/self/maps"):
    with open("/proc/self/maps") as fh:
        blas = {line.split()[-1] for line in fh if "openblas" in line}
    assert len(blas) == 1 and "numpy.libs" in blas.pop(), blas
import scipy.special
assert scipy.special.expit is oracle._expit
assert scipy.special.log_expit is oracle._log_expit
"""


def _run_script(script, *args):
    return subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})


def test_no_command_or_oracle_imports_scipy_special(tmp_path):
    cfg = write_cfg(tmp_path, QUICK_CFG.replace("run.T = 10", "run.T = 3"))
    proc = _run_script(GUARD_SCRIPT, str(tmp_path), str(cfg))
    assert proc.returncode == 0, proc.stderr


#: builds an oracle after the set-up lines, and checks it holds the ufuncs
#: of ``scipy.special`` and computes with them
_ORACLE_AFTER = """
import sys
from lmtsim import objectives
{setup}
data = objectives.make_synthetic_classification(8, 2, seed=0)
oracle = objectives.LogisticOracle(objectives.partition_heterogeneous(data, 2), "l2", 0.1, None)
assert "scipy.special" in sys.modules
import scipy.special
assert oracle._expit is scipy.special.expit
assert oracle._log_expit is scipy.special.log_expit
assert oracle.global_value(data.features[0]) > 0
"""


@pytest.mark.parametrize("setup", [
    "import scipy.special",
    # a scipy without the module file: the public import serves the ufuncs
    "objectives._UFUNC_MODULE = 'scipy.special._no_such_module'",
], ids=["scipy_special_first", "module_file_missing"])
def test_an_oracle_takes_the_ufuncs_of_scipy_special_where_it_must(setup):
    proc = _run_script(_ORACLE_AFTER.format(setup=setup))
    assert proc.returncode == 0, proc.stderr
