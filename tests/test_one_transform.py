"""The package's lag-to-frequency transforms live in ``spectra``: one complex, one real."""

import ast
from pathlib import Path

import coprimearray

PACKAGE = Path(coprimearray.__file__).resolve().parent


def _fft_references(tree):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "fft"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("numpy.fft") or (
                node.module == "numpy" and any(alias.name == "fft" for alias in node.names)
            ):
                yield node.lineno
        elif isinstance(node, ast.Import):
            if any(alias.name.startswith("numpy.fft") for alias in node.names):
                yield node.lineno


def test_fft_only_in_spectra():
    # spectra._lag_transform serves both the correlogram and the window
    # oracle; a second FFT path elsewhere would let the two drift apart.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "spectra.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(f"{path.name}:{line}" for line in _fft_references(tree))
    assert not found, f"np.fft outside spectra.py: {', '.join(found)}"


#: The complex transform behind ``_lag_transform`` and the estimator, and
#: the real transform of an even window's lag counts.
FFT_FUNCTIONS = ("_grid_transform", "_even_transform")


def test_fft_in_spectra_only_in_its_transforms():
    # A third FFT path would be a third arithmetic to keep in agreement.
    path = PACKAGE / "spectra.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"spectra.py:{line}" for node in tree.body
             if not (isinstance(node, ast.FunctionDef) and node.name in FFT_FUNCTIONS)
             for line in _fft_references(node)]
    assert not found, f"np.fft outside {' and '.join(FFT_FUNCTIONS)}: {', '.join(found)}"
    defined = {node.name: list(_fft_references(node)) for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name in FFT_FUNCTIONS}
    assert sorted(defined) == sorted(FFT_FUNCTIONS) and all(defined.values())
