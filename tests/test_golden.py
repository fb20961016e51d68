"""Golden traces: every method on every objective reproduces its committed digest.

The digests in ``golden/traces.json`` pin each run bit for bit.  When a
digest differs, the message names the first checkpoint (row, column) that
moved, so a refactor that changed results shows where the runs part.
"""

import json

import pytest

from golden.make_golden import (GOLDEN, METHODS, OBJECTIVES, case_key,
                                checkpoints, digest, run_case)

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
