"""The package sums floors in one place, ``spectra._floor_sum``, in O(1)."""

import ast
from pathlib import Path

import coprimearray

PACKAGE = Path(coprimearray.__file__).resolve().parent

COMPREHENSIONS = (ast.GeneratorExp, ast.ListComp, ast.SetComp)


def _floor_sum_loops(tree):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "sum" and node.args
                and isinstance(node.args[0], COMPREHENSIONS)
                and any(isinstance(inner, ast.FloorDiv) for inner in ast.walk(node.args[0]))):
            yield node.lineno


def test_no_summed_floor_loops():
    # A sum of floor((m*k + x)/n) has a closed form (spectra._floor_sum);
    # a loop copy next to it costs O(N) per call and can drift from it.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(f"{path.name}:{line}" for line in _floor_sum_loops(tree))
    assert not found, f"sum() over floor divisions: {', '.join(found)}"
