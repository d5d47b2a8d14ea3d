"""In-memory spans around calls into robinfem's public functions.

A span is (id, name, group, parent, start, end) plus optional counters.
Spans are kept in a list and written out once, when the run ends.  The
benchmark records them from outside the library: it either opens a span
around a call it makes itself, or temporarily rebinds a public function
in every loaded ``robinfem`` module so that library-internal callers
(for example ``run_convergence`` calling ``assemble``) go through a
wrapper that records the span.
"""

import contextlib
import functools
import sys
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self.group = None
        self._open = []

    @contextlib.contextmanager
    def span(self, name, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "group": self.group,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        rec.update(attrs)
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        except BaseException as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            self._open.pop()
            rec["end"] = time.perf_counter()

    @contextlib.contextmanager
    def patched(self, functions):
        """Rebind public functions in every loaded robinfem module.

        ``functions`` is a list of ``(span name, function, observe)``; the
        wrapper calls ``observe(span, args, result)`` after a successful
        call, so the caller can attach counters or keep the result.
        """
        wrappers = {id(fn): self._wrap(name, fn, observe) for name, fn, observe in functions}
        swaps = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "robinfem" and not mod_name.startswith("robinfem."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    swaps.append((module, attr, value))
                    setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, value in swaps:
                setattr(module, attr, value)

    def _wrap(self, name, fn, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(rec, args, result)
                return result

        return traced


def duration(span):
    return span["end"] - span["start"]


def self_times(spans):
    """Span id -> its duration minus the time covered by its children."""
    own = {s["id"]: duration(s) for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= duration(s)
    return own


def outermost(spans, name):
    """Spans called ``name`` that have no ancestor of the same name."""
    by_id = {s["id"]: s for s in spans}
    found = []
    for s in spans:
        if s["name"] != name:
            continue
        parent = s["parent"]
        while parent is not None and by_id[parent]["name"] != name:
            parent = by_id[parent]["parent"]
        if parent is None:
            found.append(s)
    return found
