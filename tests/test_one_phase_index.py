"""The half grid reduces phases mod 2G in one place, ``spectra._HalfGrid.index``.

That method reduces over about sqrt(G/2) values; a remainder by the
period anywhere else would run over all G/2 + 1 half-grid offsets again.
"""

import ast
from pathlib import Path

from coprimearray import spectra

ALLOWED = ("_HalfGrid", "index")


def _is_period(node):
    if isinstance(node, ast.Name):
        return node.id == "period"
    return (isinstance(node, ast.Attribute) and node.attr == "period"
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def _period_remainders(node, scope=()):
    """(line, enclosing class/function names) of each ``% period`` and ``%= period``."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            inner = scope + (child.name,)
        elif isinstance(child, ast.BinOp) and isinstance(child.op, ast.Mod) and _is_period(child.right):
            yield child.lineno, scope
        elif (isinstance(child, ast.AugAssign) and isinstance(child.op, ast.Mod)
              and _is_period(child.value)):
            yield child.lineno, scope
        yield from _period_remainders(child, inner)


def test_period_remainders_only_in_the_index():
    path = Path(spectra.__file__)
    found = [f"{path.name}:{line} in {'.'.join(scope) or 'module'}"
             for line, scope in _period_remainders(ast.parse(path.read_text()))
             if scope != ALLOWED]
    assert not found, f"remainder by the period outside _HalfGrid.index: {', '.join(found)}"
