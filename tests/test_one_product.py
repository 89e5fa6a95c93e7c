"""The package has one matrix product, in the blocked Gram of ``estimator``."""

import ast
from pathlib import Path

import coprimearray

PACKAGE = Path(coprimearray.__file__).resolve().parent
PRODUCT_FUNCTIONS = ("matmul", "dot", "einsum")


def _products(tree):
    """(line, enclosing function) of every matrix product in a module."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        is_product = (
            (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult))
            or (isinstance(node, ast.Attribute) and node.attr in PRODUCT_FUNCTIONS)
            or (isinstance(node, ast.Name) and node.id in PRODUCT_FUNCTIONS)
            or (isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("numpy")
                and any(alias.name in PRODUCT_FUNCTIONS for alias in node.names))
        )
        if is_product:
            found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_one_matrix_product_in_the_blocked_gram():
    # estimator._gram keeps every block below the size at which OpenBLAS
    # hands a product to its threads; a product elsewhere would not.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend((path.name, function, line) for line, function in _products(tree))
    assert [(name, function) for name, function, _ in found] == [("estimator.py", "_gram")], found
