"""In-memory span tracing installed from the outside of the program.

The traced run wraps the public entry points of each layer (see
:func:`perfbench.layers.install`) with recording shims.  The program
itself is never edited: :meth:`Tracer.patch_method` and
:meth:`Tracer.patch_function` replace class attributes and module
globals, :meth:`Tracer.uninstall` puts the exact original objects back,
and the untraced run never installs anything.

Each span records its name, start, end, parent span and session id in
flat ``array`` columns, so a traced episode of a few hundred thousand
spans costs a few MiB, not hundreds.  The current span lives in a
:class:`contextvars.ContextVar`; asyncio gives every task its own copy
of the context, so concurrent sessions on one loop keep separate span
stacks.  Spans are aggregated only when the episode ends
(:meth:`Tracer.aggregate`); self time is a span's duration minus the
union of the intervals its children cover.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import sys
from array import array
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, ContextManager, Iterator

__all__ = ["SpanStats", "Tracer", "untraced"]

#: Index of the innermost open span in the current context (-1: none).
_CURRENT: contextvars.ContextVar[int] = contextvars.ContextVar(
    "perfbench_span", default=-1
)


@dataclass
class SpanStats:
    """Aggregates of every span of one name."""

    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    #: Time in spans of this name not nested inside another span of the
    #: same name (re-entrant layers such as nested validators).
    outer_s: float = 0.0
    outer_count: int = 0
    durations_s: list[float] = field(default_factory=list)


def untraced(tracer: "Tracer | None") -> ContextManager[None]:
    """``tracer.paused()``, or nothing when there is no tracer."""
    return nullcontext() if tracer is None else tracer.paused()


class Tracer:
    """Records spans around wrapped callables; see the module docstring."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._clear()
        self.counts: dict[str, int] = {}
        #: ``(owner, attribute, original)`` for every patched slot.
        self._patched: list[tuple[Any, str, Any]] = []
        self._next_sid = 0
        #: Root span index of each in-flight session, keyed by whatever
        #: the ``link`` callables look up (the network workload uses
        #: ``(initiator, responder)``).
        self.inflight: dict[Any, int] = {}
        #: While set, the shims call straight through (see :meth:`paused`).
        self._paused = False

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Record nothing in the block: work the benchmark does between
        rounds (timing a recovery) is not work of the traced rounds."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _clear(self) -> None:
        self._name = array("i")
        self._parent = array("i")
        self._sid = array("i")
        self._start = array("d")
        self._end = array("d")

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return name_id

    def new_session(self) -> int:
        self._next_sid += 1
        return self._next_sid

    def open(self, name_id: int, parent: int, sid: int) -> int:
        """Start a span; returns its index."""
        index = len(self._name)
        self._name.append(name_id)
        self._parent.append(parent)
        self._sid.append(sid)
        self._end.append(0.0)
        self._start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self._end[index] = perf_counter()

    def count(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def _enter(
        self, name_id: int, session_root: bool, link: Callable[..., Any] | None,
        args: tuple[Any, ...],
    ) -> tuple[int, contextvars.Token[int]]:
        parent = _CURRENT.get()
        if session_root:
            sid = self.new_session()
        elif parent >= 0:
            sid = self._sid[parent]
        else:
            sid = 0
        if parent < 0 and link is not None:
            # A span with no parent in this task may belong to a session
            # another task opened (a served request): the link callable
            # maps the call's arguments to that session's root span.
            linked = link(self, *args)
            if linked is not None:
                parent, sid = linked, self._sid[linked]
        index = self.open(name_id, parent, sid)
        return index, _CURRENT.set(index)

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        *,
        on_result: Callable[["Tracer", Any], None] | None = None,
        session_root: bool = False,
        link: Callable[..., Any] | None = None,
        only_nested: bool = False,
        on_enter: Callable[..., None] | None = None,
    ) -> Callable[..., Any]:
        """A recording shim around ``fn`` (sync or ``async def``).

        ``on_result(tracer, result)`` counts work from the return value;
        ``on_enter(tracer, index, *args)`` sees the new span's index and
        the call's arguments; ``session_root`` starts a new session id;
        ``link(tracer, *args)`` may name the span index a parentless call
        belongs to; ``only_nested`` skips calls made outside any span (a
        server's idle wait for the next request is not work).
        """
        name_id = self._name_id(name)
        tracer = self

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_shim(*args: Any, **kwargs: Any) -> Any:
                if tracer._paused or (only_nested and _CURRENT.get() < 0):
                    return await fn(*args, **kwargs)
                index, token = tracer._enter(name_id, session_root, link, args)
                if on_enter is not None:
                    on_enter(tracer, index, *args)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    tracer.close(index)
                    _CURRENT.reset(token)
                if on_result is not None:
                    on_result(tracer, result)
                return result

            return async_shim

        @functools.wraps(fn)
        def shim(*args: Any, **kwargs: Any) -> Any:
            if tracer._paused or (only_nested and _CURRENT.get() < 0):
                return fn(*args, **kwargs)
            index, token = tracer._enter(name_id, session_root, link, args)
            if on_enter is not None:
                on_enter(tracer, index, *args)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
                _CURRENT.reset(token)
            if on_result is not None:
                on_result(tracer, result)
            return result

        return shim

    # -- installing ---------------------------------------------------------

    def patch_method(self, cls: type, attr: str, name: str, **options: Any) -> None:
        original = cls.__dict__[attr]
        self._patched.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, **options))

    def patch_function(self, fn: Callable[..., Any], name: str, **options: Any) -> int:
        """Wrap ``fn`` in its defining module *and* in every loaded
        ``repro`` module that imported it by name; returns how many
        module globals were replaced."""
        shim = self.wrap(name, fn, **options)
        replaced = 0
        for module_name, module in sorted(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patched.append((module, attr, fn))
                    setattr(module, attr, shim)
                    replaced += 1
        return replaced

    def uninstall(self) -> None:
        """Restore every patched slot to its original object."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- aggregation --------------------------------------------------------

    def aggregate(self) -> dict[str, SpanStats]:
        """Per-name aggregates of every recorded span, then forget the
        spans (counts are kept until :meth:`reset_counts`)."""
        names, parents = self._name, self._parent
        starts, ends = self._start, self._end
        children: dict[int, list[int]] = {}
        for index, parent in enumerate(parents):
            if parent >= 0:
                children.setdefault(parent, []).append(index)
        stats: dict[str, SpanStats] = {}
        for index in range(len(names)):
            start, end = starts[index], ends[index]
            duration = end - start
            covered = 0.0
            kids = children.get(index)
            if kids:
                # Union of the children's intervals, clipped to ours:
                # cross-task children (a served request linked to the
                # session that sent it) may overlap one another.
                intervals = sorted(
                    (max(starts[k], start), min(ends[k], end)) for k in kids
                )
                run_start, run_end = intervals[0]
                for lo, hi in intervals[1:]:
                    if lo > run_end:
                        covered += max(0.0, run_end - run_start)
                        run_start, run_end = lo, hi
                    elif hi > run_end:
                        run_end = hi
                covered += max(0.0, run_end - run_start)
            name_id = names[index]
            entry = stats.get(self._names[name_id])
            if entry is None:
                entry = stats[self._names[name_id]] = SpanStats()
            entry.count += 1
            entry.total_s += duration
            entry.self_s += duration - covered
            entry.durations_s.append(duration)
            parent = parents[index]
            if parent < 0 or names[parent] != name_id:
                entry.outer_s += duration
                entry.outer_count += 1
        self._clear()
        return stats

    def reset_counts(self) -> None:
        self.counts = {}
        self.inflight = {}
