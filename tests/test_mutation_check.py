"""The mutants of ``tools/mutation_check.py`` still point at live code."""

import ast
import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "mutation_check.py"
_SPEC = importlib.util.spec_from_file_location("mutation_check", _PATH)
mutation_check = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutation_check)


def test_each_mutant_text_occurs_exactly_once_in_src():
    # a refactor that moves the mutated code must update the list, so no
    # mutant is dropped without notice
    lost = [(file, original) for file, original, mutant, _ in mutation_check.MUTANTS
            if mutation_check.src_count(original) != 1 or mutant == original
            or original not in (mutation_check.ROOT / file).read_text(encoding="utf-8")]
    assert not lost


def test_each_mutant_selects_tests_that_exist():
    # a renamed test file or function would make a selection fail only when
    # the whole tool runs
    stale = []
    for _, _, _, selection in mutation_check.MUTANTS:
        node_ids = [part for i, part in enumerate(selection)
                    if part != "-k" and (i == 0 or selection[i - 1] != "-k")]
        for node_id in node_ids:
            file, _, function = node_id.partition("::")
            path = mutation_check.ROOT / file
            defined = path.is_file() and {
                node.name for node in ast.parse(path.read_text(encoding="utf-8")).body
                if isinstance(node, ast.FunctionDef)}
            if not defined or (function and function.split("[")[0] not in defined):
                stale.append(node_id)
    assert not stale
