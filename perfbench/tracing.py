"""In-process tracing of hamcolor's public functions, for the traced run.

Each traced function is rebound, in every hamcolor module that holds it,
to a wrapper that records a span (name, start, end, parent) in memory and
counts the call.  ``branch_relation`` is called hundreds of thousands of
times on the greedy path, so it is only counted.  A span's self time is
its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

# metric prefix -> (module, attribute path) of the traced function
SPANS = {
    "cli.run": ("hamcolor.cli", "run"),
    "graphs.from_json": ("hamcolor.graphs", "from_json"),
    "graphs.block_cut_tree": ("hamcolor.graphs", "BlockGraph.block_cut_tree"),
    "detour.detour_profile": ("hamcolor.detour", "detour_profile"),
    "detour.detour_matrix": ("hamcolor.detour", "detour_matrix"),
    "families.symmetric_coordinates": ("hamcolor.families", "symmetric_coordinates"),
    "coloring.sym_ordering": ("hamcolor.coloring", "sym_ordering"),
    "coloring.coloring_from_ordering": ("hamcolor.coloring", "coloring_from_ordering"),
    "coloring.greedy_ordering": ("hamcolor.coloring", "greedy_ordering"),
    "coloring.validate_coloring": ("hamcolor.coloring", "validate_coloring"),
    "exact.greedy_min_coloring": ("hamcolor.exact", "greedy_min_coloring_for_ordering"),
    "exact.exact_hc": ("hamcolor.exact", "exact_hc"),
}
COUNTS = {"detour.branch_relation": ("hamcolor.detour", "branch_relation")}


class Tracer:
    """Context manager: wraps the traced functions on entry, restores them on exit."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.calls: Counter[str] = Counter()
        self.matrix_bytes = 0
        self.violations = 0
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for name, target in SPANS.items():
            original = _resolve(target)
            self._rebind(target, original, self._span(name, original))
        for name, target in COUNTS.items():
            original = _resolve(target)
            self._rebind(target, original, self._count(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _rebind(self, target: tuple[str, str], original, wrapper) -> None:
        module, path = target
        owner_path = path.rpartition(".")[0]
        owners = [_resolve((module, owner_path))] if owner_path else []
        owners += [m for n, m in list(sys.modules.items()) if n.startswith("hamcolor")]
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._undo.append((owner, key, value))
                    setattr(owner, key, wrapper)

    def _span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.perf_counter(), None, self._open[-1] if self._open else -1]
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            self.calls[name] += 1
            if name == "detour.detour_matrix":
                self.matrix_bytes += _shape_bytes(result)
            elif name == "coloring.validate_coloring":
                self.violations += len(result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def self_times(self) -> Counter[str]:
        own = Counter()
        for name, start, end, parent in self.spans:
            own[name] += end - start
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        return own

    def records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
        ]


def _resolve(target: tuple[str, str]):
    module, path = target
    obj = importlib.import_module(module)
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _shape_bytes(array) -> int:
    count = 1
    for n in array.shape:
        count *= n
    return count * array.itemsize
