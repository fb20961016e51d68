"""Golden traces: every method on every objective reproduces its committed digest.

The digests in ``golden/traces.json`` pin each run bit for bit.  When a
digest differs, the message names the first checkpoint (row, column) that
moved, so a refactor that changed results shows where the runs part.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden.make_golden import (GOLDEN, METHODS, OBJECTIVES, case_key,
                                checkpoints, digest, run_case)

_TESTS = Path(__file__).resolve().parent

_GOLDEN = json.loads(GOLDEN.read_text())


def _first_divergence(got: dict, ref: dict, rows: list[int]) -> str:
    for k, row in enumerate(rows):
        for name in sorted(ref):
            a, b = got[name][k], ref[name][k]
            if a != b:
                return f"first checkpoint that moved: row {row}, {name}: {a!r} != golden {b!r}"
    return "checkpoints equal; the change lies between checkpoint rows or in their last bits"


def test_golden_covers_every_method_and_objective():
    assert set(_GOLDEN) == {case_key(m, o) for m in METHODS for o in OBJECTIVES}


@pytest.mark.parametrize("objective", list(OBJECTIVES))
@pytest.mark.parametrize("method", METHODS)
def test_golden_trace(method, objective):
    ref = _GOLDEN[case_key(method, objective)]
    table = run_case(method, objective)
    got = digest(table)
    assert got == ref["sha256"], _first_divergence(checkpoints(table),
                                                   ref["checkpoints"], ref["rows"])


#: prints a golden case's digest and the OpenBLAS thread counts its rounds ran at
_THREADED_CASE = """
import sys
from golden.make_golden import digest, run_case
from lmtsim import blas, lmt
seen = set()
lmt_round = lmt.lmt_round
def watched(*args):
    seen.add(blas.threads())
    return lmt_round(*args)
lmt.lmt_round = watched
print(digest(run_case(sys.argv[1], sys.argv[2])), *sorted(seen, key=str))
"""


def _digest_with_blas_threads(threads: int, method: str, objective: str) -> str:
    """The case's digest, run in a process whose environment sets ``threads``
    OpenBLAS threads, which the run keeps; asserts that its rounds ran at
    that count, as the OpenBLAS shim reads it."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join([str(_TESTS), str(_TESTS.parent / "src")])}
    proc = subprocess.run([sys.executable, "-c", _THREADED_CASE, method, objective],
                          capture_output=True, text=True, timeout=120, env=env, check=True)
    got, *seen = proc.stdout.split()
    assert seen == [str(threads)], (threads, seen)
    return got


def test_trace_digest_does_not_depend_on_blas_threads():
    # one minibatch and one exact-gradient case
    for method, objective in [("lmt", "logistic_l2"), ("lmt", "logistic_nonconvex_fullbatch")]:
        ref = _GOLDEN[case_key(method, objective)]["sha256"]
        assert _digest_with_blas_threads(1, method, objective) == ref, objective
        assert _digest_with_blas_threads(2, method, objective) == ref, objective
