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
     "            G_sum_k += G\n"
     "            if shift_k is not None:  # in the oracle's new array, as (G + shift) * eta\n"
     "                G += shift_k\n"
     "            G *= eta_k\n",
     "            G *= eta_k\n"
     "            G_sum_k += G\n"
     "            if shift_k is not None:  # in the oracle's new array, as (G + shift) * eta\n"
     "                G += shift_k\n",
     ["tests/test_lmt.py"]),
    # the negative control's momentum weight applied before its gradient is summed
    ("src/lmtsim/lmt.py",
     "            G_sum_k += G\n"
     "            # in place, as Z <- beta Z + (1 - beta) G and X <- X - eta (Z + C)\n"
     "            G *= 1.0 - hp.beta\n",
     "            G *= 1.0 - hp.beta\n"
     "            G_sum_k += G\n"
     "            # in place, as Z <- beta Z + (1 - beta) G and X <- X - eta (Z + C)\n",
     ["tests/test_lmt.py", "-k", "naive"]),
    # the steps taken in place, on the round's input iterates
    ("src/lmtsim/lmt.py", "    X = X.copy()\n", "    X = np.asarray(X)\n",
     ["tests/test_properties.py::test_round_writes_into_no_array_of_its_input"]),
    # a stack's cached plan of local steps also has the points whose Q a run
    # starts at take it
    ("src/lmtsim/lmt.py", "active = sum(q > start for q in qs)",
     "active = sum(q >= start for q in qs)",
     ["tests/test_sweep_groups.py::test_every_sweep_point_writes_what_it_writes_alone"
      "[quadratic-Q]"]),
    # a run of steps that every point takes indexed as a prefix of the
    # leading axis, which on an unstacked state is its first agent
    ("src/lmtsim/lmt.py", "... if active == len(qs) else slice(active)", "slice(active)",
     ["tests/test_lmt.py", "-k", "local_phase"]),
    # a stack's results handed back in the caller's order, not the stack's
    ("src/lmtsim/harness.py", "for j, result in zip(js, stop.value):",
     "for j, result in zip(sorted(js), stop.value):",
     ["tests/test_sweep_groups.py::test_every_sweep_point_writes_what_it_writes_alone"
      "[quadratic-Q]"]),
    # every point of a stack given its first point's surrogate weights
    ("src/lmtsim/diagnostics.py", "for Q, eta_a in points:",
     "for Q, eta_a in points[:1] * len(points):",
     ["tests/test_diagnostics.py::test_a_stack_surrogate_equals_each_points_own_bit_for_bit"]),
    # a stack's surrogate weights laid out by point, read as by weight
    ("src/lmtsim/diagnostics.py", "np.array(weights).T.reshape(",
     "np.array(weights).reshape(",
     ["tests/test_diagnostics.py::test_a_stack_surrogate_equals_each_points_own_bit_for_bit"]),
    # the mean a caller passes ignored
    ("src/lmtsim/diagnostics.py",
     "(axis_mean(M, -2) if x_bar is None else x_bar)", "axis_mean(M, -2)",
     ["tests/test_diagnostics.py::test_consensus_error_measures_from_the_mean_it_is_given"]),
    # a round's finiteness reduced over its trials instead of its metrics
    ("src/lmtsim/harness.py", "stack_at[~np.isfinite(rows).all(axis=0)",
     "stack_at[~np.isfinite(rows).all(axis=1)",
     ["tests/test_harness.py", "-k", "diverg"]),
    # a point whose trials all diverged kept stepping in its stack
    ("src/lmtsim/harness.py", "            if gone.any():\n", "            if False:\n",
     ["tests/test_sweep_groups.py::"
      "test_a_stack_drops_each_point_after_the_round_its_last_trial_diverged_in"]),
    # the stack keeps a diverged point's state in place of a survivor's
    ("src/lmtsim/harness.py", "                keep = ~gone\n",
     "                keep = np.roll(~gone, 1)\n",
     ["tests/test_sweep_groups.py::test_every_sweep_point_writes_what_it_writes_alone"
      "[diverging-Q]"]),
    # the gap the worker queued before points left the stack read with them
    ("src/lmtsim/harness.py", "                    cut = keep\n", "                    pass\n",
     ["tests/test_sweep_groups.py::test_every_sweep_point_writes_what_it_writes_alone"
      "[diverging_logistic_worker-Q]"]),
    # the worker's gap without the round loop's error state
    ("src/lmtsim/harness.py",
     '    with np.errstate(over="ignore", invalid="ignore"):\n'
     "        return dg.input_metrics(*args)\n",
     "    return dg.input_metrics(*args)\n",
     ["tests/test_sweep_groups.py::test_every_sweep_point_writes_what_it_writes_alone"
      "[diverging_logistic_worker-Q]"]),
    # the agent mean taken over the other axis of a square stack
    ("src/lmtsim/diagnostics.py", 'np.einsum("...ij->...j", M)', 'np.einsum("...ij->...i", M)',
     ["tests/test_diagnostics.py", "-k", "agent_mean"]),
    # the quadratic's noise added twice
    ("src/lmtsim/objectives.py", "np.add(G, draws_step, out=G)",
     "np.add(np.add(G, draws_step, out=G), draws_step, out=G)",
     ["tests/test_objectives.py", "-k", "quadratic"]),
    # the exact logistic gradient's data term negated
    ("src/lmtsim/objectives.py",
     "np.divide(S.swapaxes(-1, -2) @ slope, S.shape[1]",
     "np.divide(-(S.swapaxes(-1, -2) @ slope), S.shape[1]",
     ["tests/test_objectives.py", "-k", "gradient"]),
    # the logistic rows stored label-signed, not negated
    ("src/lmtsim/objectives.py", "[-l[:, None] * f for f, l in data.shards]",
     "[l[:, None] * f for f, l in data.shards]",
     ["tests/test_objectives.py", "-k", "gradient"]),
    # the in-place logistic loss's correction term subtracted
    ("src/lmtsim/objectives.py", "loss += np.maximum(z, 0.0, out=z)",
     "loss -= np.maximum(z, 0.0, out=z)",
     ["tests/test_objectives.py", "-k", "loss or values"]),
    # the in-place logistic loss with min for max
    ("src/lmtsim/objectives.py", "np.maximum(z, 0.0, out=z)", "np.minimum(z, 0.0, out=z)",
     ["tests/test_objectives.py", "-k", "loss or values"]),
    # the logistic gap scaled by 1 + 1e-9
    ("src/lmtsim/objectives.py",
     "return axis_mean(self.global_values_at_rows(X), -1) - self.f_star",
     "return (axis_mean(self.global_values_at_rows(X), -1) - self.f_star) * (1 + 1e-9)",
     ["tests/test_golden.py", "-k", "logistic_l2"]),
    # a kept noise block scaled again for each stack that reads it
    ("src/lmtsim/streams.py", "                return block[:steps]\n",
     "                return block[:steps] * (1.0 if scale is None else scale)\n",
     ["tests/test_sweep_groups.py::"
      "test_two_stacks_that_read_one_noise_block_step_on_the_same_noise"]),
    # the round's noise block scaled twice when it is drawn
    ("src/lmtsim/streams.py", "            block *= scale\n",
     "            block *= scale\n            block *= scale\n",
     ["tests/test_objectives.py", "-k", "noise"]),
    # the round word of a stream's counter shifted by one bit
    ("src/lmtsim/streams.py", "self._counter[2] = agent | (rnd << 32)",
     "self._counter[2] = agent | (rnd << 31)",
     ["tests/test_streams.py", "-k", "fresh"]),
    # a trial of a batch drawing under the key of the slot before it
    ("src/lmtsim/streams.py", "self._key_words[:] = self._keys[slot].tolist()",
     "self._key_words[:] = self._keys[slot - 1].tolist()",
     ["tests/test_properties.py::test_batched_round_equals_each_trials_round"]),
    # a round's draws served to a request for another round
    ("src/lmtsim/streams.py",
     "if cached_rnd == rnd and cached_draw == draw and steps <= len(block):",
     "if cached_draw == draw and steps <= len(block):",
     ["tests/test_sweep_groups.py", "-k", "chunk"]),
    # the quadratic's noise laid out (agent, step) and read as (step, agent)
    ("src/lmtsim/objectives.py", "size=(steps, self.n_agents, self.dim))",
     "size=(self.n_agents, steps, self.dim)).swapaxes(0, 1)",
     ["tests/test_objectives.py", "-k", "noise"]),
    # the in-place logistic loss through log(1 + x), not log1p
    ("src/lmtsim/objectives.py", "np.log1p(loss, out=loss)", "np.log(1 + loss, out=loss)",
     ["tests/test_objectives.py", "-k", "loss"]),
    # agent 0's quadratic gradient scaled by 1 + 1e-9
    ("src/lmtsim/objectives.py",
     "        G = np.matvec(self.A, X - self.b)\n",
     "        G = np.matvec(self.A, X - self.b)\n"
     "        G[..., 0, :] *= 1 + 1e-9\n",
     ["tests/test_objectives.py", "-k", "quadratic"]),
    # the quadratic's full gradients with their constant term added
    ("src/lmtsim/objectives.py", "np.matvec(self.A, x[..., None, :]) - self._Ab",
     "np.matvec(self.A, x[..., None, :]) + self._Ab",
     ["tests/test_objectives.py::test_quadratic_gradients_equal_per_agent_products_bit_for_bit"]),
    # K-GT mixing a delta rolled by one agent
    ("src/lmtsim/baselines.py", "mixed_delta = W.weights @ delta",
     'mixed_delta = W.weights @ __import__("numpy").roll(delta, 1, axis=-2)',
     ["tests/test_baselines.py::test_kgt_round_on_a_ring_equals_per_agent_arithmetic"]),
    # PD-SGDM's momentum buffers left unmixed
    ("src/lmtsim/baselines.py", '"m": W.weights @ M', '"m": M',
     ["tests/test_baselines.py::test_pdsgdm_round_on_a_ring_equals_per_agent_arithmetic"]),
    # LED's combine without its bias correction
    ("src/lmtsim/baselines.py", 'W.weights @ (psi_new + state["X"] - state["psi"])',
     "W.weights @ psi_new",
     ["tests/test_baselines.py::test_led_round_on_a_ring_equals_per_agent_arithmetic"]),
    # K-GT's corrections divided by Q alone
    ("src/lmtsim/baselines.py", "C_next = C + (delta - mixed_delta) / (hp.Q * local)",
     "C_next = C + (delta - mixed_delta) / hp.Q",
     ["tests/test_baselines.py"]),
    # LMT's tracking tail replaced by a Local DSGD round at the same step
    ("src/lmtsim/lmt.py", "    return _track_and_mix(state, Z_next, Z_next, G_avg, W, hp)\n",
     "    X_Q, _ = local_steps(state[\"X\"], None, hp.eta_a * hp.eta_s, oracle, streams,\n"
     "                         state[\"t\"], hp.Q)\n"
     "    return {**state, \"X\": W.weights @ X_Q, \"t\": state[\"t\"] + 1}\n",
     ["tests/test_acceptance.py::test_criterion_05_deterministic_pl_convergence"]),
    # the LCA step at the contraction rate of the mixing matrix, not its weight
    ("src/lmtsim/topology.py",
     "return (1.0 + W.eta_w) * (W.weights @ top) - W.eta_w * bottom",
     "return (1.0 + W.rho_w) * (W.weights @ top) - W.rho_w * bottom",
     ["tests/test_topology.py::test_lca_contraction_short_suite"]),
    # the corrections' exchange at the contraction rate, not the LCA weight
    ("src/lmtsim/lmt.py",
     "(1.0 + W.eta_w) * (W.weights @ Y) - W.eta_w * Y_l",
     "(1.0 + W.rho_w) * (W.weights @ Y) - W.rho_w * Y_l",
     ["tests/test_lmt.py::test_tracking_scalar_recursion"]),
    # the ridge logistic Hessian without its ridge
    ("src/lmtsim/objectives.py", "H = self.coeff * np.eye(self.dim)",
     "H = np.zeros((self.dim, self.dim))",
     ["tests/test_diagnostics.py", "-k", "f_star"]),
    # the f_star solve stopped by the gradient norm alone
    ("src/lmtsim/diagnostics.py",
     "if (math.sqrt(float(g @ g)) <= _F_STAR_TOL and H is not None\n"
     "                and float(g @ np.linalg.solve(H, g)) <= 2.0 * eps * abs(value)):",
     "if math.sqrt(float(g @ g)) <= _F_STAR_TOL:",
     ["tests/test_diagnostics.py", "-k", "f_star"]),
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
