"""Span tracing from outside the program: wrap public functions, time each call.

A span is (name, start, end, parent index); parent is -1 for a root span.
Spans are kept in memory and summarised per name into self time (duration
minus the part covered by child spans), inclusive time and call count, so
the self times of one root span's subtree add up to its duration exactly.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.first_args: dict[str, list] = {}
        self._open: list[int] = []

    def wrap(self, name: str, fn, record_first_arg: bool = False):
        """Return `fn` wrapped so every call records one span called `name`."""
        spans, open_, clock = self.spans, self._open, time.perf_counter
        args_seen = self.first_args.setdefault(name, []) if record_first_arg else None

        # Inlined rather than built on span(): a traced long-session
        # iteration makes about 230,000 of these calls.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(idx)
            if args_seen is not None and args:
                args_seen.append(args[0])
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    @contextmanager
    def span(self, name: str):
        """Record the body of a `with` block as one span."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else -1
        self._open.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[idx] = (name, start, end, parent)

    def summary(self) -> dict[str, dict]:
        """Per span name: self_s, total_s and calls over every recorded span."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict] = {}
        for idx, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
            row["self_s"] += end - start - child_s[idx]
            row["total_s"] += end - start
            row["calls"] += 1
        return out

    def clear(self) -> None:
        if self._open:
            raise RuntimeError("cannot clear spans while a span is open")
        self.spans.clear()
        for seen in self.first_args.values():
            seen.clear()


@contextmanager
def installed(tracer: Tracer, modules, targets):
    """Wrap each target for the duration of the block; yields missing targets.

    `modules` maps a module name to the module object; each target is
    (module name, dotted attribute path, span name[, record_first_arg]).
    Targets are patched under the names their callers look them up by, and
    a target the program no longer has is skipped and reported, not fatal.
    """
    undo = []
    missing = []
    try:
        for module_name, path, span_name, *flags in targets:
            owner = modules.get(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                missing.append(f"{module_name}.{path}")
                continue
            record = bool(flags and flags[0])
            if isinstance(raw, classmethod):
                patched = classmethod(tracer.wrap(span_name, raw.__func__, record))
            else:
                patched = tracer.wrap(span_name, raw, record)
            setattr(owner, attr, patched)
            undo.append((owner, attr, raw))
        yield missing
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)
