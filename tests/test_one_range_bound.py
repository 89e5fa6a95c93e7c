"""Each lag range's bound has one home: ``sets.lag_limit`` and ``sets._index_limits``."""

import ast
from pathlib import Path

import coprimearray

PACKAGE = Path(coprimearray.__file__).resolve().parent

LIMIT_ATTRIBUTES = {"full_lag_limit", "continuous_lag_limit", "prototype_lag_limit"}


def test_range_limits_read_only_in_pair_and_sets():
    # Every other module asks sets.lag_limit or sets._index_limits, so the
    # three ranges cannot drift apart between the weights, the closed-form
    # windows and the estimator.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("pair.py", "sets.py"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(
            f"{path.name}:{node.lineno} {node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in LIMIT_ATTRIBUTES
        )
    assert not found, f"range limits read outside pair.py and sets.py: {', '.join(found)}"
