"""The package's runtime checks must survive ``python -O``."""

import ast
from pathlib import Path

import coprimearray

PACKAGE = Path(coprimearray.__file__).resolve().parent


def test_no_assert_statements_in_package():
    # ``python -O`` strips assert statements; runtime checks raise
    # ConsistencyError (or another package error) instead.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the package: {', '.join(found)}"
