"""Span and count recording around calls into trapshift, from outside it.

trapshift binds most helpers by name at import time (``from scipy.optimize
import brentq`` inside ``trapshift.spectrum``), so a helper is wrapped under
the name its caller looks up, e.g. ``trapshift.spectrum.brentq``.  Spans are
kept in memory and written out once, by ``Tracer.dump``.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from pathlib import Path
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "dim")

    def __init__(self, name: str, parent: int, op: int, dim: int | None):
        self.name = name
        self.parent = parent
        self.op = op
        self.dim = dim
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _matrix_dim(args, kwargs) -> int | None:
    matrix = args[0] if args else kwargs.get("a")
    shape = getattr(matrix, "shape", None)
    return int(shape[0]) if shape else None


class Tracer:
    """Wraps module attributes so every call records a span and a count.

    The wrappers are in place only inside ``with tracer:``.  A span's parent
    is the span open when it started (-1 at the top); ``op`` is the index of
    the benchmark operation that caused it, shared by all spans of one
    operation.
    """

    def __init__(self, targets: tuple[str, ...]) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._slots = []
        for target in targets:
            module_name, attr = target.rsplit(".", 1)
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._slots.append((module, attr, original, self._wrapper(target, original, attr == "eigh")))

    def _wrapper(self, target: str, original, sized: bool):
        def wrapper(*args, **kwargs):
            span = Span(
                target,
                self._stack[-1] if self._stack else -1,
                self.op,
                _matrix_dim(args, kwargs) if sized else None,
            )
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
                self.counts[target] += 1

        return wrapper

    def __enter__(self) -> "Tracer":
        for module, attr, _, wrapper in self._slots:
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        for module, attr, original, _ in reversed(self._slots):
            setattr(module, attr, original)

    def dump(self, path: Path, header: dict) -> None:
        """Write the header, the counts and then one line per span, as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write(json.dumps({"header": header, "counts": dict(self.counts)}) + "\n")
            for span in self.spans:
                out.write(
                    json.dumps([span.name, span.start, span.end, span.parent, span.op, span.dim])
                    + "\n"
                )

    # ------------------------------------------------------------ analysis

    def named(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.name == name]

    def has_ancestor(self, index: int, names: set[str]) -> bool:
        parent = self.spans[index].parent
        while parent >= 0:
            if self.spans[parent].name in names:
                return True
            parent = self.spans[parent].parent
        return False

    def self_times(self, indices: list[int]) -> list[float]:
        """Durations of these spans minus the time their direct children cover."""
        covered: dict[int, float] = dict.fromkeys(indices, 0.0)
        for span in self.spans:
            if span.parent in covered:
                covered[span.parent] += span.duration
        return [self.spans[i].duration - covered[i] for i in indices]

    def busy(self, indices: list[int]) -> float:
        return sum(self.spans[i].duration for i in indices)
