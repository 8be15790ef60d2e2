"""Span tracing installed from the benchmark's side of the layer boundaries.

:class:`Tracer` wraps the public functions each layer exposes (the calls one
layer makes into the next) and records one span per call: name, start, end,
parent span, request id and thread.  Nothing under ``src/`` is edited; the
wrappers are installed for one traced window and removed afterwards, so the
untraced end-to-end runs execute the unmodified code.

Spans started on pool threads are parented to the span that submitted the
task: the ``WorkerPool.submit`` wrapper captures the submitter's span and
request id and the task re-activates them on the worker.

Python garbage collection is recorded as ``python.gc`` spans on the thread
that triggered it (via ``gc.callbacks``), so a pause is charged to the
collector and not to the layer it interrupted.

Self time.  A span's self time is its duration minus the part of it covered
by its child spans, children on pool threads included.  When spans on
several threads overlap in time (a verification task on each execute worker,
say), the wall clock they share is split evenly between them.  So the self
times of all layers plus ``unattributed`` (client time inside no span) add
up to the wall time of the traced window.  :func:`attribute_wall` computes
this with one sweep over the span boundaries.
"""

from __future__ import annotations

import functools
import gc
import gzip
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter
_MISSING = object()


@dataclass
class Span:
    """One recorded call.  ``end`` is ``None`` while the call is running."""

    id: int
    name: str
    start: float
    parent: Optional[int]
    request: Optional[int]
    thread: int
    end: Optional[float] = None
    rows: int = 0


class _Context(threading.local):
    span: Optional[int] = None
    request: Optional[int] = None


class Tracer:
    """Records spans in memory; written out once, after the window."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._context = _Context()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._gc_started: Dict[int, Tuple[float, int]] = {}
        self._gc_records: List[Tuple[float, float, Optional[int], Optional[int], int]] = []
        self.gc_gen2 = 0
        self.active = False

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def begin(self, name: str) -> Span:
        context = self._context
        span = Span(
            id=-1,
            name=name,
            start=_clock(),
            parent=context.span,
            request=context.request,
            thread=threading.get_ident(),
        )
        with self._lock:
            span.id = len(self.spans)
            self.spans.append(span)
        context.span = span.id
        return span

    def finish(self, span: Span) -> None:
        span.end = _clock()
        self._context.span = span.parent

    def set_request(self, request: Optional[int]) -> None:
        """Tag the spans the client thread records next with ``request``."""
        self._context.request = request

    def current(self) -> Optional[Span]:
        current = self._context.span
        return None if current is None else self.spans[current]

    # ------------------------------------------------------------------ #
    # Installing wrappers
    # ------------------------------------------------------------------ #
    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: "str | Callable[[Any], Optional[str]]",
        rows: Optional[Callable[[tuple, Any], int]] = None,
    ) -> None:
        """Record a span around every call of ``owner.attribute``.

        ``name`` is the span name, or a function of the call's first argument
        (the instance) returning it, ``None`` meaning "do not record".
        ``rows(args, result)`` optionally counts the rows the call handled.
        """
        original = owner.__dict__.get(attribute) or getattr(owner, attribute)
        tracer = self
        namer = name if callable(name) else (lambda _: name)

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span_name = namer(args[0] if args else None) if tracer.active else None
            if span_name is None:
                return original(*args, **kwargs)
            span = tracer.begin(span_name)
            try:
                result = original(*args, **kwargs)
                if rows is not None:
                    span.rows = rows(args, result)
                return result
            finally:
                tracer.finish(span)

        self._patch(owner, attribute, wrapper)

    def wrap_generator(self, owner: Any, attribute: str, name: str) -> None:
        """Record one span per ``next()`` of a generator method (lazy work)."""
        original = owner.__dict__[attribute]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any):
            iterator = original(*args, **kwargs)
            while True:
                if not tracer.active:
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                else:
                    span = tracer.begin(name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        tracer.finish(span)
                yield item

        self._patch(owner, attribute, wrapper)

    def wrap_submit(self, pool_cls: Any, name: str) -> None:
        """Propagate the submitter's span and request id into pool tasks."""
        original = pool_cls.__dict__["submit"]
        tracer = self

        @functools.wraps(original)
        def submit(pool: Any, fn: Callable, *args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return original(pool, fn, *args, **kwargs)
            span = tracer.begin(name)
            parent, request = span.parent, span.request
            tracer.finish(span)

            def task(*task_args: Any, **task_kwargs: Any) -> Any:
                context = tracer._context
                saved = (context.span, context.request)
                context.span, context.request = parent, request
                try:
                    return fn(*task_args, **task_kwargs)
                finally:
                    context.span, context.request = saved

            return original(pool, task, *args, **kwargs)

        self._patch(pool_cls, "submit", submit)

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._patches.append((owner, attribute, owner.__dict__.get(attribute, _MISSING)))
        setattr(owner, attribute, replacement)

    def _gc_callback(self, phase: str, info: Dict[str, Any]) -> None:
        if not self.active:
            return
        thread = threading.get_ident()
        if phase == "start":
            self._gc_started[thread] = (_clock(), info.get("generation", 0))
            return
        started = self._gc_started.pop(thread, None)
        if started is None:
            return
        start, generation = started
        context = self._context
        # No lock here: a collection can start inside ``begin`` while this
        # thread holds it.  ``list.append`` is atomic on its own.
        self._gc_records.append(
            (start, _clock(), context.span, context.request, thread)
        )
        if generation == 2:
            self.gc_gen2 += 1

    def all_spans(self) -> List[Span]:
        """Recorded spans plus one ``python.gc`` span per collection."""
        spans = list(self.spans)
        for start, end, parent, request, thread in self._gc_records:
            spans.append(
                Span(
                    id=len(spans), name="python.gc", start=start, parent=parent,
                    request=request, thread=thread, end=end,
                )
            )
        return spans

    def start(self) -> None:
        gc.callbacks.append(self._gc_callback)
        self.active = True

    def stop(self) -> None:
        self.active = False
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    def uninstall(self) -> None:
        """Restore every wrapped function (reverse order of installation)."""
        self.stop()
        while self._patches:
            owner, attribute, previous = self._patches.pop()
            if previous is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, previous)

    # ------------------------------------------------------------------ #
    # Output
    # ------------------------------------------------------------------ #
    def write(self, path: Path, origin: float) -> None:
        """Spans as gzipped JSON lines ``[id, name, start, end, parent,
        request, thread]``, times in seconds since ``origin``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.all_spans():
                handle.write(
                    json.dumps(
                        [
                            span.id, span.name, round(span.start - origin, 9),
                            None if span.end is None else round(span.end - origin, 9),
                            span.parent, span.request, span.thread,
                        ]
                    )
                )
                handle.write("\n")


def attribute_wall(
    spans: List[Span], window_start: float, window_end: float, waiting: frozenset = frozenset()
) -> Tuple[Dict[str, float], float]:
    """Split the window's wall time among span names by self time.

    Returns ``(self seconds per span name, unattributed seconds)``.  At every
    instant the active spans that have no active child share the instant
    evenly.  Spans named in ``waiting`` (a thread blocked on another thread's
    work) share only instants when no other span runs; an instant with no
    active span at all is unattributed.
    """
    events: List[Tuple[float, int, int]] = []
    for span in spans:
        if span.end is None:
            continue
        start = max(span.start, window_start)
        end = min(span.end, window_end)
        if end <= start:
            continue
        events.append((start, 1, span.id))
        events.append((end, 0, span.id))
    events.sort()
    by_id = {span.id: span for span in spans}
    active_children: Dict[int, int] = defaultdict(int)
    active: set = set()
    leaves: set = set()
    totals: Dict[str, float] = defaultdict(float)
    unattributed = 0.0
    previous = window_start
    for moment, kind, span_id in events:
        elapsed = moment - previous
        if elapsed > 0:
            working = [leaf for leaf in leaves if by_id[leaf].name not in waiting] or leaves
            if working:
                share = elapsed / len(working)
                for leaf in working:
                    totals[by_id[leaf].name] += share
            else:
                unattributed += elapsed
            previous = moment
        parent = by_id[span_id].parent
        parent_active = parent is not None and parent in active
        if kind == 1:
            active.add(span_id)
            leaves.add(span_id)
            if parent_active:
                active_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(span_id)
            leaves.discard(span_id)
            if parent_active:
                active_children[parent] -= 1
                if active_children[parent] == 0:
                    leaves.add(parent)
    if window_end > previous:
        unattributed += window_end - previous
    return dict(totals), unattributed
