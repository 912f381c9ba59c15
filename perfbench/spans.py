"""In-memory spans recorded around calls into lrcov's layers.

A span holds a name ``<layer>.<call>``, its start and end (perf_counter
seconds), the index of the span that was open when it started, and the id
of the run it belongs to.  Spans stay in memory until ``write`` dumps them
at the end of a benchmark run.

Instrumentation never edits lrcov's source: while ``recording`` is active,
each target module attribute (a function one layer imports from another)
is swapped for a wrapper that opens a span around the original, and every
original is put back on exit.  A target the module no longer has is listed
in ``missing`` instead of failing, so a refactor that renames a call shows
up in the run record rather than as a crash.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

LAYERS = ("simulate", "estimator", "fpca", "mc", "io", "cli", "kernels")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start, end, parent index or -1, run id)
        self.samples: dict[str, list] = defaultdict(list)  # measurements taken by hooks
        self.missing: set[str] = set()
        self._run_id = ""
        self._active = False
        self._stack: list[int] = []

    def span(self, name: str):
        return self._span(name) if self._active else nullcontext()

    @contextmanager
    def _span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), None, parent, self._run_id))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            name, start, _, parent, run_id = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent, run_id)

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    @contextmanager
    def recording(self, run_id: str, targets=()):
        """Record spans under ``run_id``; ``targets`` are (module, attr, span name, hook)."""
        patched = []
        for module, attr, name, hook in targets:
            original = getattr(module, attr, None)
            if original is None:
                self.missing.add(f"{module.__name__}.{attr}")
                continue
            if isinstance(original, type):
                replacement = _traced_context_class(original, self, name)
            else:
                replacement = self._wrap(original, name, hook)
            setattr(module, attr, replacement)
            patched.append((module, attr, original))
        self._run_id, self._active = run_id, True
        try:
            yield
        finally:
            self._active = False
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def _wrap(self, fn, name: str, hook):
        """``fn`` inside a span; ``hook(tracer, caller, args, seconds)`` runs after it closes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = self.parent_name()
            index = len(self.spans)
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                _, start, end, _, _ = self.spans[index]
                hook(self, caller, args, end - start)
            return result

        return traced

    def select(self, name: str, run_prefix: str, caller: str = "") -> list[float]:
        """Durations of spans called ``name`` in matching runs whose caller's name starts with ``caller``."""
        out = []
        for n, start, end, parent, run_id in self.spans:
            if n != name or not run_id.startswith(run_prefix):
                continue
            parent_name = self.spans[parent][0] if parent >= 0 else ""
            if parent_name.startswith(caller):
                out.append(end - start)
        return out

    def children_per_parent(self, child: str, parent_name: str, run_prefix: str) -> float:
        """Mean number of ``child`` spans directly under each ``parent_name`` span."""
        parents = {
            i for i, (n, _, _, _, r) in enumerate(self.spans)
            if n == parent_name and r.startswith(run_prefix)
        }
        if not parents:
            return 0.0
        hits = sum(1 for n, _, _, p, _ in self.spans if n == child and p in parents)
        return hits / len(parents)

    def self_times(self, run_prefix: str) -> tuple[dict, dict]:
        """Per-layer total self time, and self times per span name, in matching runs.

        A span's self time is its duration minus the time its direct children
        cover; calls are sequential in one thread, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers = dict.fromkeys(LAYERS, 0.0)
        by_name: dict[str, list] = defaultdict(list)
        for i, (name, start, end, _, run_id) in enumerate(self.spans):
            if run_id.startswith(run_prefix):
                own = (end - start) - child_time[i]
                layer = name.split(".", 1)[0]
                layers[layer] = layers.get(layer, 0.0) + own
                by_name[name].append(own)
        return layers, by_name

    def write(self, path: str) -> None:
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "run": r}
            for n, s, e, p, r in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, "missing": sorted(self.missing)}, fh)
            fh.write("\n")


def _traced_context_class(base: type, tracer: Tracer, name: str) -> type:
    """Subclass of a context-manager class whose ``with`` block is one span."""

    class Traced(base):
        def __enter__(self):
            self._span = tracer.span(name)
            self._span.__enter__()
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                self._span.__exit__(None, None, None)

    Traced.__name__ = Traced.__qualname__ = f"Traced{base.__name__}"
    return Traced
