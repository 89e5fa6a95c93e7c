"""Span tracer: wraps the public functions of each coprimearray layer.

The wrappers are installed from the benchmark's own files, at every module
of the package that binds a layer function (``cli`` and ``estimator``
import ``spectra`` names directly, for example), so every call is seen no
matter which module the caller looks the name up in.  The program itself is
not changed.

A span is ``(name, start_ns, end_ns, parent, op)`` with ``name`` in the form
``layer.function``, the same stage names an in-program trace can reuse.
Spans are kept in memory and written out when the run ends.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

PACKAGE = "coprimearray"

#: The layers are the package's modules.  ``pair``, ``validation`` and
#: ``errors`` are too thin to time alone; their cost lands in their callers.
LAYERS = ("estimator", "spectra", "weights", "sets", "metrics", "cli")

#: Public methods traced as ``layer.method``.
METHODS = {"estimator": {"CoprimeCorrelogram": ("fit", "transform", "fit_transform", "peaks")}}


def _grid_size(grid) -> int:
    return grid if isinstance(grid, int) else grid.size


def _pair_products(positions, limit: int) -> int:
    """Ordered sample pairs with lag in [0, limit]: the products one snapshot needs."""
    return sum(1 for a in positions for b in positions if 0 <= a - b <= limit)


class Tracer:
    """Collects spans, computed work counts and exceptions, per operation."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | None = None
        self.ops: list[int] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.errors: Counter = Counter()  # (span name, exception type) -> count
        self._stack: list[int] = []
        self._raised: BaseException | None = None
        self._matrix_keys: dict[int, set] = defaultdict(set)
        self._products: dict[tuple, int] = {}

    # --- operations -------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self.ops.append(op)

    def end_op(self) -> None:
        self.op = None

    def add_count(self, name: str, value: int) -> None:
        self.counts[self.op][name] += value

    def add_error(self, name: str, kind: str) -> None:
        self.errors[(name, kind)] += 1

    # --- wrapping ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions at every module binding them."""
        layers = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        bindings = [
            module for name, module in list(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for layer, module in layers.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                traced = self._wrap(f"{layer}.{attr}", fn)
                for binder in bindings:
                    for key, value in list(vars(binder).items()):
                        if value is fn:
                            setattr(binder, key, traced)
            for class_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, class_name)
                for method in methods:
                    setattr(cls, method, self._wrap(f"{layer}.{method}", getattr(cls, method)))

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.remove(index)

    def _fail(self, name: str, exc: BaseException) -> None:
        # Count an exception once, in the innermost span it escaped from.
        if exc is not self._raised:
            self._raised = exc
            self.add_error(name, type(exc).__name__)

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)

        if inspect.isgeneratorfunction(fn):
            # The span runs from the first item until the generator is
            # exhausted or closed.
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                index = self._open(name)
                try:
                    yield from fn(*args, **kwargs)
                except Exception as exc:
                    self._fail(name, exc)
                    raise
                finally:
                    self._close(index)

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._fail(name, exc)
                raise
            finally:
                self._close(index)
            if name in _COUNTERS:
                _COUNTERS[name](self, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    # --- computed counts --------------------------------------------------

    def _count_autocorrelation(self, arguments, result) -> None:
        positions = tuple(int(p) for p in arguments["data"].positions)
        limit = (len(result.lags) - 1) // 2
        key = (positions, limit)
        if key not in self._products:
            self._products[key] = _pair_products(positions, limit)
        self.add_count("estimator.pair_products", self._products[key])

    def _count_correlogram(self, arguments, result) -> None:
        size = _grid_size(arguments["grid"])
        lags = len(arguments["estimate"].lags)
        self.add_count("estimator.transform_macs", size * lags)
        key = (size, lags)
        if key not in self._matrix_keys[self.op]:
            self._matrix_keys[self.op].add(key)
            self.add_count("estimator.phase_matrix_bytes", 16 * size * lags)

    def _count_dtft(self, arguments, result) -> None:
        self.add_count("spectra.dtft_macs", len(arguments["counts"]) * _grid_size(arguments["grid"]))

    # --- export, import and summary ----------------------------------------

    def export(self) -> dict:
        return {
            "spans": self.spans,
            "counts": [[op, name, value] for op, counter in self.counts.items()
                       for name, value in counter.items()],
            "errors": [[name, kind, n] for (name, kind), n in self.errors.items()],
        }

    def absorb(self, data: dict) -> None:
        """Add a child process's export, with its spans under the current operation."""
        offset = len(self.spans)
        for name, start, end, parent, _ in data["spans"]:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, self.op])
        for _, name, value in data["counts"]:
            self.add_count(name, value)
        for name, kind, n in data["errors"]:
            self.errors[(name, kind)] += n

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for name, start, end, parent, op in self.spans:
                record = {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "op": op}
                handle.write(json.dumps(record) + "\n")

    def per_op(self) -> dict[str, dict[int, list]]:
        """span name -> op -> [inclusive ns, self ns, calls], over traced ops."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        table: dict[str, dict[int, list]] = defaultdict(dict)
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            if op is None:
                continue
            row = table[name].setdefault(op, [0, 0, 0])
            row[0] += end - start
            row[1] += end - start - child_ns[index]
            row[2] += 1
        return table

    def span_stat(self, table, name: str, stat: str) -> float:
        """``ms``: inclusive time, ``self_ms``: self time, each per operation and
        median over the operations that call the function (0 when none does);
        ``calls``: calls per operation."""
        rows = table.get(name, {})
        if stat == "calls":
            return sum(row[2] for row in rows.values()) / len(self.ops)
        if not rows:
            return 0.0
        column = 0 if stat == "ms" else 1
        return statistics.median(row[column] for row in rows.values()) / 1e6

    def count_per_op(self, name: str) -> float:
        return sum(self.counts[op][name] for op in self.ops) / len(self.ops)

    def errors_per_op(self, layer: str) -> float:
        total = sum(n for (name, _), n in self.errors.items() if name.startswith(layer + "."))
        return total / len(self.ops)


_COUNTERS = {
    "estimator.autocorrelation": Tracer._count_autocorrelation,
    "estimator.correlogram": Tracer._count_correlogram,
    "spectra.dtft_of_window": Tracer._count_dtft,
}
