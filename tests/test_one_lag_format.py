"""Lag-domain objects have one storage format: int64 count arrays over their lags."""

import ast
from pathlib import Path

import coprimearray

PACKAGE = Path(coprimearray.__file__).resolve().parent


def _other_formats(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "collections":
            if any(alias.name == "Counter" for alias in node.names):
                yield node.lineno, "collections.Counter"
        elif (isinstance(node, ast.Attribute) and node.attr == "Counter"
                and isinstance(node.value, ast.Name) and node.value.id == "collections"):
            yield node.lineno, "collections.Counter"
        elif (isinstance(node, ast.Attribute) and node.attr == "unique"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            yield node.lineno, "np.unique"
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            if any(alias.name == "unique" for alias in node.names):
                yield node.lineno, "np.unique"


def test_lags_are_counted_with_bincount():
    # Every lag range is bounded, so one bincount over it tallies a set, a
    # weight term or a window; a Counter or np.unique path beside it would
    # be a second format (and np.unique hashes large inputs slowly).
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(f"{path.name}:{line} {what}" for line, what in _other_formats(tree))
    assert not found, f"lag tallies outside the count-array format: {', '.join(found)}"
