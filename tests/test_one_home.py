"""Each function and class of the package is imported from the module that defines it."""

import ast
import importlib
import inspect
from pathlib import Path

import coprimearray

PACKAGE = Path(coprimearray.__file__).resolve().parent


def _relative_imports(tree):
    """(module, name, line) of every ``from .module import name``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                yield node.module, alias.name, node.lineno


def test_names_imported_from_their_home():
    # A module that passes on a name it imported is a second home for it;
    # importing through such a re-export lets the two homes drift apart.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for module, name, line in _relative_imports(tree):
            home = f"{coprimearray.__name__}.{module}"
            value = getattr(importlib.import_module(home), name)
            if inspect.isclass(value) or inspect.isroutine(value):
                if value.__module__ != home:
                    found.append(f"{path.name}:{line} {name} from .{module} (defined in {value.__module__})")
    assert not found, f"names imported through a re-export: {', '.join(found)}"
