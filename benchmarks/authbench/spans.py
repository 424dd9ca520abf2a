"""Outside-in span tracing for the authorization benchmark.

The benchmark times each layer of the Figure 2 pipeline *from its own
files*: :func:`instrument` replaces, for the duration of a traced
phase, the names that ``repro.core.engine`` and
``repro.metaalgebra.plan`` import (``parse_statement``,
``compile_query``, ``derive_mask_resilient``, ``meta_select``, ...)
and a few methods of the engine, its executor, its audit log and the
serving front end with wrappers that record one span per call.
Nothing inside ``src/`` changes; :meth:`Instrumentation.remove` puts
every original back.

A span carries a name, a start, an end, its parent span and a request
id shared by all spans of one request.  Spans stay in memory and are
written out (JSON lines) when the run ends.  A layer's *self* time is
its span's duration minus the time covered by its child spans (children
of one span run sequentially on the span's thread, so their durations
add).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.core.engine as engine_module
import repro.metaalgebra.plan as plan_module

#: Names imported by ``repro.core.engine`` -> layer they belong to.
ENGINE_IMPORTS: Dict[str, str] = {
    "parse_statement": "lang.parse",
    "compile_query": "calculus.compile",
    "canonical_plan_key": "metaalgebra.plan_key",
    "derive_mask_resilient": "metaalgebra.derive",
    "make_excuse": "extensions.excuse",
    "selfjoin_closure": "metaalgebra.selfjoin",
    "compile_mask": "core.compile_mask",
    "apply_mask_columnar": "core.apply_mask",
    "infer_permits": "core.infer_permits",
}

#: Names imported by ``repro.metaalgebra.plan`` -> layer.
PLAN_IMPORTS: Dict[str, str] = {
    "meta_product_streaming": "metaalgebra.product",
    "meta_product": "metaalgebra.product",
    "meta_select": "metaalgebra.select",
    "meta_project": "metaalgebra.project",
    "selfjoin_closure": "metaalgebra.selfjoin",
}

#: Every timed layer, in pipeline order.  Each reports ``<layer>.ms``
#: (mean self milliseconds per request) and ``<layer>.calls`` (calls
#: per request); ``core.engine`` reports its self time as
#: ``core.engine.self_ms`` — the engine code between the wrapped calls.
LAYERS: Tuple[str, ...] = (
    "serving.submit",
    "lang.parse",
    "calculus.compile",
    "metaalgebra.plan_key",
    "metaalgebra.derive",
    "metaalgebra.selfjoin",
    "extensions.excuse",
    "metaalgebra.product",
    "metaalgebra.select",
    "metaalgebra.project",
    "backends.execute",
    "core.compile_mask",
    "core.apply_mask",
    "core.stream",
    "core.infer_permits",
    "core.audit",
)


class _ThreadState(threading.local):
    def __init__(self) -> None:
        #: Open spans of this thread: [name, start, id, parent id,
        #: child seconds].
        self.stack: List[list] = []
        self.request = 0


class Tracer:
    """In-memory span recorder, safe to use from several threads.

    A closed span is stored as the tuple ``(name, start, end, id,
    parent id, request id, child seconds)`` — immutable and free of
    references, so a long traced run does not load the garbage
    collector with millions of tracked objects.  The parent id of a
    root span is -1.
    """

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.spans: List[Tuple[str, float, float, int, int, int, float]] = []
        #: Event counts recorded at the same boundaries (rows out of
        #: the backend, rows masked).
        self.counts: Dict[str, int] = defaultdict(int)
        self._state = _ThreadState()
        self._ids = itertools.count()
        self._requests = itertools.count(1)

    def begin_request(self) -> None:
        """Start a new request on this thread; later spans carry its
        id until the next call."""
        self._state.request = next(self._requests)

    def open(self, name: str) -> list:
        stack = self._state.stack
        parent = stack[-1][2] if stack else -1
        span = [name, self.clock(), next(self._ids), parent, 0.0]
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        end = self.clock()
        state = self._state
        state.stack.pop()
        if state.stack:
            state.stack[-1][4] += end - span[1]
        self.spans.append((span[0], span[1], end, span[2], span[3],
                           state.request, span[4]))

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def wrap(self, name: str, function: Callable[..., Any],
             on_result: Optional[Callable[[Any], None]] = None
             ) -> Callable[..., Any]:
        """``function`` with every call recorded as a ``name`` span."""
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = self.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self.close(span)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # ------------------------------------------------------------------
    # aggregation and output
    # ------------------------------------------------------------------

    def self_times(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Total self seconds and call count per span name."""
        seconds: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for name, start, end, _, _, _, children in self.spans:
            seconds[name] += end - start - children
            calls[name] += 1
        return seconds, calls

    def busy(self, *names: str) -> float:
        """Total duration of the spans called ``names``."""
        return sum(end - start for name, start, end, *_ in self.spans
                   if name in names)

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, ident, parent, request, _ in self.spans:
                out.write(json.dumps({
                    "id": ident, "name": name, "start": start,
                    "end": end, "parent": parent, "request": request,
                }) + "\n")


class Instrumentation:
    """Installed wrappers; :meth:`remove` restores the originals."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: List[Tuple[object, str, Any, bool]] = []

    def replace(self, owner: object, attribute: str, name: str,
                on_result: Optional[Callable[[Any], None]] = None
                ) -> None:
        original = getattr(owner, attribute)
        # Instance attributes shadow the class method; remember
        # whether one existed so removal does not leave a copy behind.
        own = attribute in getattr(owner, "__dict__", {})
        self._saved.append((owner, attribute, original, own))
        setattr(owner, attribute,
                self.tracer.wrap(name, original, on_result))

    def remove(self) -> None:
        for owner, attribute, original, own in reversed(self._saved):
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._saved.clear()


def instrument(tracer: Tracer, engine: Any,
               server: Any = None) -> Instrumentation:
    """Wrap the pipeline's layer boundaries around ``engine`` (and the
    ``server`` fronting it, if any).

    Module-level names are process-wide; engine, executor and audit
    wrappers are per instance.  Remove the instrumentation before
    building a reference engine.
    """
    installed = Instrumentation(tracer)
    for module, table in ((engine_module, ENGINE_IMPORTS),
                          (plan_module, PLAN_IMPORTS)):
        for attribute, layer in table.items():
            if attribute == "apply_mask_columnar":
                installed.replace(module, attribute, layer,
                                  tracer_rows(tracer, "core.apply_mask"))
            else:
                installed.replace(module, attribute, layer)

    def executed(outcome: Any) -> None:
        answer = getattr(outcome, "answer", None)
        if answer is not None:
            tracer.count("backends.rows_out", len(answer))

    installed.replace(engine, "authorize", "core.engine")
    installed.replace(engine, "authorize_batch", "core.engine")
    installed.replace(engine, "authorize_stream", "core.engine")
    installed.replace(engine, "_mask_chunk", "core.apply_mask",
                      tracer_rows(tracer, "core.apply_mask"))
    installed.replace(engine.executor, "execute", "backends.execute",
                      executed)
    installed.replace(engine.executor, "execute_stream",
                      "backends.execute")
    if engine.audit is not None:
        installed.replace(engine.audit, "record", "core.audit")
        installed.replace(engine.audit, "record_stream", "core.audit")
    if server is not None:
        installed.replace(server, "submit", "serving.submit")
    return installed


def tracer_rows(tracer: Tracer, layer: str) -> Callable[[Any], None]:
    """An ``on_result`` hook counting the rows a mask kernel returned."""
    key = f"{layer}.rows"

    def hook(rows: Any) -> None:
        tracer.count(key, len(rows))

    return hook
