"""The package has one lag-to-frequency transform, in ``spectra``."""

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
