"""Check that the test suite kills a fixed list of hand-made mutants.

Usage: python3 tools/mutation_check.py

Each entry of ``MUTANTS`` names a file under ``src/``, a text that occurs
exactly once in ``src/`` (``tests/test_mutation_check.py`` checks this),
the text that replaces it, and the fast tests that should fail once it
is replaced.  For each mutant the script copies ``src/``, ``tests/``,
``tools/`` and ``pyproject.toml`` into a temporary directory, applies the one
replacement there and runs only the named tests.  A mutant is killed when
those tests fail, and survives when they pass.  The unmutated copy runs
every named test first, so a kill is never a test that fails anyway.

Prints one line per mutant and the count killed; exits 1 if a mutant
survives, its text is not found once, or its tests cannot run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: (file, original text, mutant text, test selection): each selection is
#: pytest node ids, or a file followed by ``-k`` and an expression
MUTANTS = (
    # the step scaled before its gradient is summed
    ("src/lmtsim/lmt.py",
     "        G_sum += G\n"
     "        if shift is not None:  # in the oracle's new array, as (G + shift) * eta\n"
     "            G += shift\n"
     "        G *= eta\n",
     "        G *= eta\n"
     "        G_sum += G\n"
     "        if shift is not None:  # in the oracle's new array, as (G + shift) * eta\n"
     "            G += shift\n",
     ["tests/test_lmt.py"]),
    # the step subtracted in place, from the round's input iterates
    ("src/lmtsim/lmt.py", "        X = X - G\n", "        X -= G\n",
     ["tests/test_properties.py::test_round_writes_into_no_array_of_its_input"]),
    # the mean a caller passes ignored
    ("src/lmtsim/diagnostics.py",
     "(axis_mean(M, -2) if x_bar is None else x_bar)", "axis_mean(M, -2)",
     ["tests/test_diagnostics.py::test_consensus_error_measures_from_the_mean_it_is_given"]),
    # a group's first chunk sized for its first point's Q
    ("src/lmtsim/harness.py", "max(h.Q for h in hps)", "hps[0].Q",
     ["tests/test_sweep_groups.py::test_a_q_sweep_computes_the_draws_of_its_largest_q"]),
    # a round's finiteness reduced over its trials instead of its metrics
    ("src/lmtsim/harness.py", "np.isfinite(list(row.values())).all(axis=0)",
     "np.isfinite(list(row.values())).all(axis=1)",
     ["tests/test_harness.py", "-k", "diverg"]),
    # the quadratic's noise added twice
    ("src/lmtsim/objectives.py", "np.add(G, draws_step, out=G)",
     "np.add(np.add(G, draws_step, out=G), draws_step, out=G)",
     ["tests/test_objectives.py", "-k", "quadratic"]),
    # the exact logistic gradient's data term not negated
    ("src/lmtsim/objectives.py",
     "np.divide(np.negative(g, out=g), S.shape[1], out=G[..., agents, :, None])",
     "np.divide(g, S.shape[1], out=G[..., agents, :, None])",
     ["tests/test_objectives.py", "-k", "gradient"]),
    # the in-place logistic loss with max for min
    ("src/lmtsim/objectives.py", "loss -= np.minimum(margins, 0.0, out=margins)",
     "loss -= np.maximum(margins, 0.0, out=margins)",
     ["tests/test_objectives.py", "-k", "loss or values"]),
    # a rejected minibatch site kept, not redrawn from its own stream
    ("src/lmtsim/objectives.py",
     "for step, slot, i in zip(*np.nonzero(rejected.reshape(Q, -1, self.n_agents))):",
     "for step, slot, i in zip(*np.nonzero(rejected.reshape(Q, -1, self.n_agents) & False)):",
     ["tests/test_objectives.py", "-k", "draws or redrawn"]),
    # the logistic gap scaled by 1 + 1e-9
    ("src/lmtsim/objectives.py",
     "return axis_mean(self.global_values_at_rows(X), -1) - self.f_star",
     "return (axis_mean(self.global_values_at_rows(X), -1) - self.f_star) * (1 + 1e-9)",
     ["tests/test_golden.py", "-k", "logistic_l2"]),
    # the ziggurat's fast-path sign from bit 9, not bit 8
    ("src/lmtsim/streams.py", "(words << np.uint64(55)) & _SIGN_BIT",
     "(words << np.uint64(54)) & _SIGN_BIT",
     ["tests/test_streams.py", "-k", "ziggurat"]),
    # the wedge test against the lower layer's edge, fi[l] for fi[l-1]
    ("src/lmtsim/streams.py", "(fi[lay - 1] - fi[lay]) * u + fi[lay] < bound",
     "(fi[lay] - fi[lay]) * u + fi[lay] < bound",
     ["tests/test_streams.py", "-k", "slow_path or ziggurat"]),
    # the wedge bound from numpy's vectorised exp, not the C library's
    ("src/lmtsim/streams.py",
     "bound = np.fromiter(map(math.exp, (-0.5 * x * x).tolist()), float, len(f))",
     "bound = np.exp(-0.5 * x * x)",
     ["tests/test_streams.py::test_wedge_test_uses_the_c_library_exp_on_near_ties"]),
    # the tail's sign from bit 8 of the word, not bit 17
    ("src/lmtsim/streams.py", "-value if stream[c] >> 17 & 1 else value",
     "-value if stream[c] >> 8 & 1 else value",
     ["tests/test_streams.py", "-k", "slow_path"]),
    # a chunk of draws left writeable
    ("src/lmtsim/streams.py", "        chunk.flags.writeable = False\n", "",
     ["tests/test_streams.py", "-k", "read_only"]),
    # K-GT's corrections divided by Q alone
    ("src/lmtsim/baselines.py", "C_next = C + (delta - mixed_delta) / (Q * local)",
     "C_next = C + (delta - mixed_delta) / Q",
     ["tests/test_baselines.py"]),
)


def src_count(original: str) -> int:
    """How often ``original`` occurs in the sources under ``src/``."""
    return sum(path.read_text(encoding="utf-8").count(original)
               for path in sorted((ROOT / "src").rglob("*.py")))


def _run(copy: Path, selection: list[str]) -> int:
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "-o", "addopts=", *selection]
    return subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    faults = 0
    for file, original, _, _ in MUTANTS:
        if src_count(original) != 1 or original not in (ROOT / file).read_text(encoding="utf-8"):
            print(f"not found once in {file}: {original!r}")
            faults += 1
    if faults:
        return 1
    with tempfile.TemporaryDirectory(prefix="mutation_check_") as tmp:
        copy = Path(tmp)
        for name in ("src", "tests", "tools"):
            shutil.copytree(ROOT / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        for _, _, _, selection in MUTANTS:
            if _run(copy, selection) != 0:
                print(f"fails unmutated: {' '.join(selection)}")
                return 1
        killed = 0
        for file, original, mutant, selection in MUTANTS:
            path = copy / file
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace(original, mutant), encoding="utf-8")
            try:
                code = _run(copy, selection)
            finally:
                path.write_text(text, encoding="utf-8")
            # pytest exits 1 when tests failed; anything else means they did not run
            verdict = {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")
            killed += code == 1
            faults += code != 1
            print(f"{verdict}: {file}: {original.strip().splitlines()[0]}")
    print(f"killed {killed} of {len(MUTANTS)}")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
