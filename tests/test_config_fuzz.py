"""Config fuzz: every key of ``config.KEYS``, at tiny sizes and at edge
values, through ``lmtsim run``.

Each example is a valid tiny config (a ring of at most 6 agents, at most
3 rounds, at most 40 samples) with up to three keys set to a drawn value.
The run exits 0; or 2 with a message that starts with the key at fault or
a ``file:line``; or 3 for a run whose iterates diverged.  It never ends in
any other runtime error, and it takes at most 2 s.

Positive scales are drawn from 1e-3 to 10 besides the edges; tiny ridges
on separable data, where the ``f_star`` solve is ill-conditioned, are
pinned as examples.
"""

import contextlib
import io
import os
import re
import tempfile
import time
import warnings

from hypothesis import example, given, settings, strategies as st

from lmtsim import cli
from lmtsim.config import (INIT_CHOICES, KEYS, METHOD_CHOICES, OBJECTIVE_CHOICES,
                           SCHEDULE_CHOICES, TOPOLOGY_CHOICES)

EDGES = ("0", "-1", "1e-300", "1e300", "nan", "inf")

#: seconds one example may take
BUDGET_S = 2.0


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _numbers(lo, hi):
    return st.floats(lo, hi).map(repr)


def _words(*choices):
    return st.sampled_from(choices)


#: the values drawn for each key besides :data:`EDGES`; each example runs in
#: its own directory, which holds the config and its input files
VALUES = {
    "topology.kind": _words(*TOPOLOGY_CHOICES, "star"),
    "topology.n": _ints(1, 6),
    "topology.path": _words("W.csv", "missing.csv"),
    "objective.kind": _words(*OBJECTIVE_CHOICES, "ridge"),
    "objective.data": _words("synthetic", "data.csv", "data.svm", "missing.csv"),
    "objective.format": _words("libsvm", "csv", "json"),
    "objective.synthetic.samples": _ints(1, 40),
    "objective.synthetic.features": _ints(1, 10),
    "objective.synthetic.seed": _ints(0, 9),
    "objective.rho": _numbers(1e-3, 10.0),
    "objective.omega": _numbers(1e-3, 10.0),
    "objective.batch": _words("full") | _ints(1, 4),
    "objective.dim": _ints(1, 4),
    "objective.mu": _numbers(1e-3, 10.0),
    "objective.L": _numbers(1e-3, 10.0),
    "objective.sigma": _numbers(1e-3, 10.0),
    "objective.seed": _ints(0, 9),
    "objective.center": _words("true", "false", "maybe"),
    "method": _words(*METHOD_CHOICES, "sgd"),
    "schedule": _words(*SCHEDULE_CHOICES, "constant"),
    "hyper.Q": _ints(1, 3),
    "hyper.eta_a": _numbers(1e-3, 10.0),
    "hyper.eta_s": _numbers(1e-3, 10.0),
    "hyper.beta": _numbers(0.0, 1.0),
    "schedule.delta_f": _numbers(1e-3, 10.0),
    "run.T": _ints(1, 3),
    "run.trials": _ints(1, 3),
    "run.seed": _ints(0, 99),
    "run.init": _words(*INIT_CHOICES, "ones"),
    "run.init_scale": _numbers(1e-3, 10.0),
    "output.dir": _words("out"),
}

#: valid tiny configs that the drawn keys change
BASES = [
    {"topology.kind": "ring", "topology.n": "4", "objective.kind": "quadratic_pl",
     "objective.dim": "2", "objective.sigma": "0.1", "method": "lmt",
     "schedule": "figure1", "hyper.Q": "2", "run.T": "3", "run.trials": "2"},
    {"topology.kind": "ring", "topology.n": "4", "objective.kind": "logistic_l2",
     "objective.data": "synthetic", "objective.synthetic.samples": "24",
     "objective.synthetic.features": "3", "objective.rho": "0.1", "method": "kgt",
     "schedule": "figure1", "hyper.Q": "2", "run.T": "3", "run.trials": "2"},
    {"topology.kind": "file", "topology.path": "W.csv",
     "objective.kind": "logistic_nonconvex", "objective.data": "data.csv",
     "objective.batch": "full", "method": "scaffold", "schedule": "explicit",
     "hyper.eta_a": "0.1", "hyper.eta_s": "0.5", "run.T": "3", "run.trials": "1",
     "run.init": "gauss"},
]

#: a ring of four agents with weights 1/2 and 1/4
RING4 = "".join(",".join("0.5" if i == j else "0.25" if abs(i - j) in (1, 3) else "0"
                         for j in range(4)) + "\n" for i in range(4))
#: twelve samples of three features, with labels 1 and 2 in the last column
DATA = [(f"{0.1 * i:.1f}", f"{(-1) ** i * 0.3:.1f}", f"{0.05 * i * i:.2f}", str(1 + i % 2))
        for i in range(12)]


def _write_inputs(tmp):
    with open(os.path.join(tmp, "W.csv"), "w") as fh:
        fh.write(RING4)
    with open(os.path.join(tmp, "data.csv"), "w") as fh:
        fh.writelines(",".join(row) + "\n" for row in DATA)
    with open(os.path.join(tmp, "data.svm"), "w") as fh:
        fh.writelines(f"{row[3]} 1:{row[0]} 2:{row[1]} 3:{row[2]}\n" for row in DATA)


configs = st.tuples(
    st.sampled_from(BASES),
    st.lists(st.sampled_from(sorted(VALUES)), unique=True, max_size=3).flatmap(
        lambda keys: st.fixed_dictionaries(
            {key: VALUES[key] | st.sampled_from(EDGES) for key in keys})))

_KEYED = re.compile(r"error: (?P<key>[\w.]+)( / [\w.]+)*: ")
_FILE_LINE = re.compile(r"error: [^:\n]+:\d+: ")


def test_every_key_is_drawn():
    assert set(VALUES) == set(KEYS)


@settings(derandomize=True, max_examples=1000, deadline=None, database=None)
@given(configs)
# configs that once failed: separable data under tiny ridges, where the
# f_star solve is ill-conditioned; a Hessian that is not positive definite
# in floating point; and a minibatch larger than the smallest shard of a
# data file
@example((BASES[1], {"objective.synthetic.samples": "8",
                     "objective.synthetic.features": "10", "objective.rho": "1e-12"}))
@example((BASES[1], {"objective.synthetic.samples": "8",
                     "objective.synthetic.features": "10", "objective.rho": "3e-7"}))
@example((BASES[0], {"objective.mu": "1e-300"}))
@example((BASES[2], {"objective.batch": "4"}))
def test_a_run_exits_0_or_names_its_fault(config):
    base, drawn = config
    text = "".join(f"{key} = {value}\n" for key, value in {**base, **drawn}.items())
    err = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # output.dir is relative to the working directory, so every output
        # of the run lands in the example's own directory
        os.chdir(tmp)
        try:
            _write_inputs(tmp)
            with open("exp.cfg", "w") as fh:
                fh.write(text)
            started = time.perf_counter()
            with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("ignore", UserWarning)
                code = cli.main(["run", "exp.cfg"])
            elapsed = time.perf_counter() - started
        finally:
            os.chdir(cwd)
    message = err.getvalue()
    assert elapsed < BUDGET_S, (elapsed, text)
    if code == 2:
        keyed = _KEYED.match(message)
        assert (keyed and keyed["key"] in KEYS) or _FILE_LINE.match(message), (message, text)
    elif code == 3:
        assert "diverged: iterates or metrics not finite" in message, (message, text)
    else:
        assert code == 0, (code, message, text)
