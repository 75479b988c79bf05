"""Hierarchical tracing: nested wall/CPU-time spans.

A :class:`Tracer` hands out ``with tracer.span("name", **tags)``
context managers; finished spans become immutable
:class:`SpanRecord` values carrying wall-clock and per-thread CPU
duration, the parent span (nesting is tracked per thread/context via
:mod:`contextvars`), and free-form scalar tags.

Span names are dotted paths (``mc.condition``, ``em.fit``); the name
alone decides which phase a span's time is charged to (see
:func:`repro.runtime.telemetry.analyze.phase_of`), so tags only carry
detail.

:meth:`Tracer.adopt` takes in spans another process recorded (the
fan-out helpers of :mod:`repro.runtime.fanout`) as children of the
calling thread's open span.

The :class:`NullTracer` singleton is the disabled default: its
``span`` returns one shared re-entrant no-op context manager, so
instrumented hot paths cost a function call and a dict allocation when
telemetry is off.
"""

from __future__ import annotations

import contextvars
import dataclasses
import itertools
import threading
import time
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

__all__ = ["NULL_TRACER", "NullTracer", "SpanRecord", "Tracer"]


@dataclass(frozen=True)
class SpanRecord:
    """One finished span.

    Attributes:
        name: Dotted span name (``"mc.condition"``).
        span_id: Unique id within the tracer (1-based).
        parent_id: Enclosing span's id, ``None`` for roots.
        start: Start offset in seconds since the tracer was created.
        wall: Wall-clock duration in seconds.
        cpu: CPU time consumed by the calling thread, in seconds.
        tags: Scalar tags.
        status: ``"ok"`` or ``"error:<ExceptionType>"``.
    """

    name: str
    span_id: int
    parent_id: int | None
    start: float
    wall: float
    cpu: float
    tags: dict = field(default_factory=dict)
    status: str = "ok"

    def to_dict(self) -> dict:
        """JSON-lines view (``type: "span"``)."""
        return {
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "wall": self.wall,
            "cpu": self.cpu,
            "tags": self.tags,
            "status": self.status,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "SpanRecord":
        """Inverse of :meth:`to_dict` (ignores the ``type`` key)."""
        return cls(
            name=record["name"],
            span_id=record["span_id"],
            parent_id=record.get("parent_id"),
            start=record.get("start", 0.0),
            wall=record.get("wall", 0.0),
            cpu=record.get("cpu", 0.0),
            tags=record.get("tags", {}),
            status=record.get("status", "ok"),
        )


class Tracer:
    """Collects hierarchical spans; thread-safe.

    Attributes:
        enabled: True for real tracers; :class:`NullTracer` overrides.
        epoch: ``time.perf_counter()`` when the tracer was created; a
            span's ``start`` is an offset from it.
    """

    enabled = True

    def __init__(
        self, *, sink: Callable[[SpanRecord], None] | None = None
    ) -> None:
        self._sink = sink
        self._lock = threading.Lock()
        self._records: list[SpanRecord] = []
        self._ids = itertools.count(1)
        self.epoch = time.perf_counter()
        # Per-thread (and per-asyncio-task) span stack for nesting.
        self._stack: contextvars.ContextVar[tuple[int, ...]] = (
            contextvars.ContextVar(f"repro_span_stack_{id(self)}", default=())
        )

    @contextmanager
    def _span(self, name: str, tags: dict) -> Iterator[dict]:
        span_id = next(self._ids)
        stack = self._stack.get()
        parent_id = stack[-1] if stack else None
        token = self._stack.set(stack + (span_id,))
        start_wall = time.perf_counter()
        start_cpu = time.thread_time()
        status = "ok"
        try:
            yield tags
        except BaseException as error:
            status = f"error:{type(error).__name__}"
            raise
        finally:
            wall = time.perf_counter() - start_wall
            cpu = time.thread_time() - start_cpu
            self._stack.reset(token)
            record = SpanRecord(
                name=name,
                span_id=span_id,
                parent_id=parent_id,
                start=start_wall - self.epoch,
                wall=wall,
                cpu=cpu,
                tags=tags,
                status=status,
            )
            self._record(record)

    def _record(self, record: SpanRecord) -> None:
        with self._lock:
            self._records.append(record)
        if self._sink is not None:
            self._sink(record)

    def span(self, name: str, **tags: object):
        """Context manager timing one named span.

        It yields the span's tags dict: a tag known only at the end
        (an iteration count) is set on it inside the ``with`` block.
        """
        return self._span(name, tags)

    def adopt(
        self, records: Sequence[SpanRecord], epoch: float, **tags: object
    ) -> None:
        """Take in spans another tracer recorded, in completion order.

        Ids are renumbered from this tracer's counter, the adopted
        roots become children of the calling thread's open span, and
        starts move from ``epoch`` (the other tracer's
        :attr:`epoch`) onto this tracer's clock; ``perf_counter`` is
        one system-wide clock, so this holds across processes.
        ``tags`` are added to every adopted span.
        """
        stack = self._stack.get()
        open_id = stack[-1] if stack else None
        ids = {record.span_id: next(self._ids) for record in records}
        for record in records:
            self._record(
                dataclasses.replace(
                    record,
                    span_id=ids[record.span_id],
                    parent_id=ids.get(record.parent_id, open_id),
                    start=record.start + epoch - self.epoch,
                    tags={**record.tags, **tags},
                )
            )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def records(self) -> tuple[SpanRecord, ...]:
        """All finished spans in completion order."""
        with self._lock:
            return tuple(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def total_wall(self) -> float:
        """Wall span of the whole trace (earliest start to last end)."""
        records = self.records()
        if not records:
            return 0.0
        start = min(record.start for record in records)
        end = max(record.start + record.wall for record in records)
        return end - start


#: Shared re-entrant no-op context manager (``nullcontext`` is
#: documented as reusable and re-entrant).
_NULL_SPAN = nullcontext()


class NullTracer(Tracer):
    """Disabled tracer: records nothing, costs almost nothing."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def span(self, name: str, **tags: object):
        return _NULL_SPAN


#: Process-wide disabled tracer used when no session is active.
NULL_TRACER = NullTracer()
