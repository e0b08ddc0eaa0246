"""In-memory spans around the public functions of the k33free layers.

The tracer replaces a function both on its defining module and under every
name another ``k33free`` module bound with ``from ... import``, so calls the
package makes internally (``generate`` calling ``canon.canonical_with_stabilizer``,
``combine`` calling ``find_k33``) are recorded as well as the benchmark's own
calls.  Spans record name, start, end, parent span, the ``m``x``n`` input
shape where the first rectangle argument has one, and an optional work count;
self time is the span's duration minus the time its child spans cover.

Calls made in a forked pool worker are not recorded: the wrapper sees another
pid and calls the original function directly.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable


def _len_result(_args, result) -> int:
    return len(result)


def _stabilizer_elements(_args, result) -> int:
    return len(result[2])


def _system_rows(args, _result) -> int:
    return len(args[0].rows)


#: (module, function, work-count name or None, work-count function)
TARGETS: tuple[tuple[str, str, str | None, Callable | None], ...] = (
    ("canon", "canonical_with_stabilizer", "elements", _stabilizer_elements),
    ("canon", "canonical_form", None, None),
    ("canon", "symmetry_group", None, None),
    ("canon", "cell_orbits", None, None),
    ("generate", "classify_column", None, None),
    ("generate", "candidates", None, None),
    ("generate", "compatibility_graph", None, None),
    ("generate", "cliques_of_size", "cliques", _len_result),
    ("pattern", "find_k33", "witnesses", _len_result),
    ("pattern", "is_k33_free", None, None),
    ("combine", "block_patterns", "patterns", _len_result),
    ("combine", "switched_combination", None, None),
    ("combine", "search_k33_free_combination", None, None),
    ("gf2", "solve", "rows", _system_rows),
    ("gf2", "enumerate_solutions", "vectors", None),
    ("spectral", "check_eigenfunction", None, None),
    ("spectral", "min_trade_volume", None, None),
)

#: generators whose work must happen inside the span: consumed into a list
_GENERATORS = {"gf2.enumerate_solutions"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    shape: str | None
    count: int | None
    self_s: float


def _shape(args) -> str | None:
    if len(args) >= 2 and isinstance(args[0], int) and isinstance(args[1], int):
        return f"{args[1]}x{args[0]}"  # classify_column(n, m_max)
    for a in args[:2]:
        m, n = getattr(a, "m", None), getattr(a, "n", None)
        if isinstance(m, int) and isinstance(n, int):
            return f"{m}x{n}"
    return None


class Tracer:
    """Records spans while installed; ``uninstall`` restores every binding."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[list] = []  # [span index, child seconds]
        self._pid = os.getpid()
        self._undo: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        package = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "k33free" or name.startswith("k33free.")
        }
        for modname, fname, _, count_fn in TARGETS:
            original = getattr(package[f"k33free.{modname}"], fname)
            wrapper = self._wrap(f"{modname}.{fname}", original, count_fn)
            for mod in package.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()

    def reset(self) -> None:
        self.spans = []

    def _wrap(self, name: str, fn: Callable, count_fn: Callable | None) -> Callable:
        consume = name in _GENERATORS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            span = Span(name, 0.0, 0.0, parent, _shape(args), None, 0.0)
            self.spans.append(span)
            frame = [index, 0.0]
            self._stack.append(frame)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if consume:
                    result = list(result)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                duration = span.end - span.start
                span.self_s = duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration
            if consume:
                span.count = len(result)
                return iter(result)
            if count_fn is not None:
                span.count = count_fn(args, result)
            return result

        return wrapper

