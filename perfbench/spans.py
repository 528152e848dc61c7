"""Per-layer spans recorded from outside the program.

The traced run patches the public entry point of each ``src/repro``
module with a timing wrapper and puts the originals back afterwards,
so the program's own code is never edited.  A function is patched
under the name its caller looks it up by (``Parser`` calls
``repro.parser.core.tokenize``; the engine calls
``repro.engine.render_c``), methods on their class.

Spans are folded into per-layer totals as they close instead of being
stored one by one: each open span keeps the time its children used,
so on close its *self* time (duration minus children) is added to its
layer.  Every thread has its own stack and totals, merged when read,
so threads in the daemon never share a counter.  The self times of
all layers add up to the time spent under root spans, which is what
the coverage check compares with the measured wall time.

Build pool workers are separate processes, forked after the patches
are in place.  The wrapper around ``_build_one`` resets the worker's
copy of the recorder for each file and returns that file's totals
inside the result record; the wrapper around ``_expand_pending`` in
the parent takes them out again and adds them to
:attr:`SpanRecorder.worker`.
"""

from __future__ import annotations

import asyncio
import functools
import os
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

#: Record key under which a pool worker returns its span totals.
WORKER_KEY = "perfbench_spans"


class _ThreadTotals:
    __slots__ = ("stack", "self_s", "incl_s", "calls", "root_s")

    def __init__(self) -> None:
        #: Open spans: [layer, time used by children].
        self.stack: list[list[Any]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        #: Inclusive time, counted only for the outermost span of a
        #: layer on the stack (nested same-layer spans would count
        #: twice).
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.root_s = 0.0


class SpanRecorder:
    """Per-layer self time, inclusive time and call counts."""

    def __init__(self) -> None:
        self.owner_pid = os.getpid()
        self._local = threading.local()
        self._threads: list[_ThreadTotals] = []
        self._lock = threading.Lock()
        #: Totals returned by build pool workers (other processes).
        self.worker: dict[str, dict[str, float]] = _empty()

    def _totals(self) -> _ThreadTotals:
        totals = getattr(self._local, "totals", None)
        if totals is None:
            totals = self._local.totals = _ThreadTotals()
            with self._lock:
                self._threads.append(totals)
        return totals

    def reset(self) -> None:
        """Forget everything, open spans included (a forked worker
        starts with a copy of its parent's state)."""
        self._local = threading.local()
        self._threads = []
        self._lock = threading.Lock()
        self.worker = _empty()

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` timed as a span of ``layer``."""

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            totals = self._totals()
            stack = totals.stack
            entry = [layer, 0.0]
            stack.append(entry)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                totals.self_s[layer] += duration - entry[1]
                totals.calls[layer] += 1
                if not any(open_[0] == layer for open_ in stack):
                    totals.incl_s[layer] += duration
                if stack:
                    stack[-1][1] += duration
                else:
                    totals.root_s += duration

        return span

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Totals over every thread of this process:
        ``{"self_s": {...}, "incl_s": {...}, "calls": {...},
        "root_s": float}``."""
        out = _empty()
        with self._lock:
            threads = list(self._threads)
        for totals in threads:
            _merge(out, {
                "self_s": dict(totals.self_s),
                "incl_s": dict(totals.incl_s),
                "calls": dict(totals.calls),
                "root_s": totals.root_s,
            })
        return out

    def add_root(self, layer: str, seconds: float) -> None:
        """Count ``seconds`` as a root span of ``layer`` in this thread:
        time measured piecewise rather than around one call."""
        totals = self._totals()
        totals.self_s[layer] += seconds
        totals.incl_s[layer] += seconds
        totals.calls[layer] += 1
        totals.root_s += seconds

    def add_worker(self, totals: dict[str, Any]) -> None:
        _merge(self.worker, totals)


def _empty() -> dict[str, Any]:
    return {"self_s": {}, "incl_s": {}, "calls": {}, "root_s": 0.0}


def _merge(into: dict[str, Any], totals: dict[str, Any]) -> None:
    for part in ("self_s", "incl_s", "calls"):
        for name, value in totals[part].items():
            into[part][name] = into[part].get(name, 0) + value
    into["root_s"] += totals["root_s"]


def _targets() -> list[tuple[Any, str, Any]]:
    """(owner, attribute, layer) for every patched entry point."""
    import repro.driver.scheduler as scheduler
    import repro.engine as engine
    import repro.macros.codegen as codegen
    import repro.packages as packages
    import repro.parser.core as parser_core
    from repro.driver.diskcache import PersistentCache
    from repro.macros.cache import ExpansionCache
    from repro.macros.expander import Expander
    from repro.meta.interp import Interpreter
    from repro.server import Ms2Server

    return [
        (parser_core, "tokenize", "lexer"),
        (parser_core.Parser, "parse_program", "parser"),
        (Expander, "expand_invocation", "expander"),
        (ExpansionCache, "key_for", "cache.key"),
        (ExpansionCache, "replay", "cache.replay"),
        (ExpansionCache, "store", "cache.store"),
        (Interpreter, "call_macro", "meta.body"),
        (codegen.CompiledBody, "call", "meta.body"),
        (codegen, "get_compiled_body", "codegen.compile"),
        (packages, "register_named", "packages"),
        (engine, "render_c", "printer"),
        (engine.MacroProcessor, "__init__", "engine"),
        (engine.MacroProcessor, "expand", "engine"),
        (scheduler.BuildSession, "file_key", "driver.key"),
        (PersistentCache, "load", "driver.snapshot_load"),
        (PersistentCache, "store", "driver.snapshot_store"),
        (scheduler.BuildSession, "build_sources", "driver.pool"),
        (Ms2Server, "_run_work", "server.work"),
    ]


class Patches:
    """The installed wrappers; :meth:`restore` puts every original
    back.  Use as a context manager."""

    def __init__(self, recorder: SpanRecorder) -> None:
        import repro.driver.scheduler as scheduler

        self.recorder = recorder
        self._saved: list[tuple[Any, str, Any]] = []
        for owner, attr, layer in _targets():
            self._patch(
                owner, attr, recorder.wrap(layer, owner.__dict__[attr]))
        self._patch(
            scheduler, "_build_one",
            _worker_wrapper(recorder, scheduler._build_one)
        )
        self._patch(
            scheduler.BuildSession,
            "_expand_pending",
            _pending_wrapper(recorder, scheduler.BuildSession._expand_pending),
        )
        self._patch(
            asyncio.BaseEventLoop,
            "run_in_executor",
            _handoff_wrapper(recorder, asyncio.BaseEventLoop.run_in_executor),
        )

    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.restore()


def _worker_wrapper(recorder: SpanRecorder, build_one: Callable) -> Callable:
    @functools.wraps(build_one)
    def wrapper(task: Any, config: Any = None) -> dict:
        if os.getpid() == recorder.owner_pid:
            return build_one(task, config)
        recorder.reset()
        record = build_one(task, config)
        record[WORKER_KEY] = recorder.snapshot()
        return record

    return wrapper


def _pending_wrapper(
    recorder: SpanRecorder, expand_pending: Callable
) -> Callable:
    @functools.wraps(expand_pending)
    def wrapper(self: Any, pending: Any) -> Any:
        out = expand_pending(self, pending)
        for _, _, record in out:
            totals = record.pop(WORKER_KEY, None)
            if totals is not None:
                recorder.add_worker(totals)
        return out

    return recorder.wrap("driver.pool", wrapper)


def _handoff_wrapper(
    recorder: SpanRecorder, run_in_executor: Callable
) -> Callable:
    """The daemon's executor hand-off of a work request, as the
    ``server.handoff`` layer: from submission until an executor thread
    starts ``Ms2Server._run_work``, plus from its return until the
    awaiting dispatch coroutine resumes.  Both are waits for a free
    executor thread or for the GIL, inside the latency the daemon
    measures but outside every other span.  Every call site awaits
    the result at once, so a coroutine may stand in for the future."""

    @functools.wraps(run_in_executor)
    def wrapper(loop: Any, executor: Any, func: Callable, *args: Any) -> Any:
        if getattr(func, "__name__", None) != "_run_work":
            return run_in_executor(loop, executor, func, *args)
        submitted = perf_counter()
        marks: list[float] = []

        def timed(*call_args: Any) -> Any:
            marks.append(perf_counter())
            try:
                return func(*call_args)
            finally:
                marks.append(perf_counter())

        future = run_in_executor(loop, executor, timed, *args)

        async def resumed() -> Any:
            result = await future
            recorder.add_root(
                "server.handoff",
                (marks[0] - submitted) + (perf_counter() - marks[1]),
            )
            return result

        return resumed()

    return wrapper
