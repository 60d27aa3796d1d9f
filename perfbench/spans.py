"""In-memory span recorder that traces the program from outside.

The program is never edited for tracing.  Instead ``Tracer.wrap`` replaces a
function at the module attribute its callers look it up by (for example
``optimizer.gp_fit``, which ``fit_surrogates`` resolves through the
``optimizer`` module's globals) with a wrapper that records one span per
call, and ``Tracer.unwrap_all`` puts the originals back.  Spans are kept in
memory and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Iterator


@dataclass(slots=True)
class Span:
    """One call across a layer boundary.

    ``parent`` is the index of the innermost span open when this one began
    (-1 for a root).  ``work`` is a per-site count (points predicted,
    likelihood evaluations) and ``tag`` a per-site outcome class.
    """

    name: str
    parent: int
    start_ns: int
    end_ns: int = 0
    error: str | None = None
    tag: str | None = None
    work: int = 0

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9


Annotate = Callable[[Span, tuple, Any], None]


class Tracer:
    """Records spans for the calls that pass through its wrappers.

    Single-threaded by design: the open-span stack assumes that calls nest,
    which holds for every workload (one closed-loop client, no threads).
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def _begin(self, name: str) -> Span:
        span = Span(name, self._open[-1] if self._open else -1, perf_counter_ns())
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        return span

    def _end(self, span: Span) -> None:
        span.end_ns = perf_counter_ns()
        self._open.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record a span around a block of the benchmark's own code."""
        span = self._begin(name)
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            self._end(span)

    def wrap(self, module: Any, attr: str, name: str, annotate: Annotate | None = None) -> None:
        """Replace ``module.attr`` with a wrapper recording a span named ``name``.

        ``annotate(span, args, result)`` runs after a call that returned, to
        fill in ``work`` or ``tag``.  An exception is recorded on the span by
        class name and re-raised unchanged.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self._begin(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._end(span)
            if annotate is not None:
                annotate(span, args, result)
            return result

        self._patches.append((module, attr, original))
        setattr(module, attr, traced)

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute to its original function."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def self_ns(self) -> list[int]:
        """Per-span self time: duration minus the time its child spans cover."""
        own = [s.end_ns - s.start_ns for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end_ns - s.start_ns
        return own

    def write(self, path: Path) -> None:
        """Write all spans as JSON lines; ``root`` identifies the request."""
        roots: list[int] = []
        own = self.self_ns()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for k, s in enumerate(self.spans):
                roots.append(k if s.parent < 0 else roots[s.parent])
                row = {
                    "id": k,
                    "name": s.name,
                    "parent": s.parent,
                    "root": roots[k],
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "self_ns": own[k],
                    "error": s.error,
                    "tag": s.tag,
                    "work": s.work,
                }
                fh.write(json.dumps(row) + "\n")
