"""Event tracers: the real ring-buffer/JSONL tracer and the no-op default.

Two implementations share one duck-typed interface:

* :class:`NullTracer` (singleton :data:`NULL_TRACER`) — the default.
  ``enabled`` is ``False`` and the instrumented components skip their
  probe work entirely, so an untraced run pays nothing.
* :class:`Tracer` — keeps the most recent events in a bounded ring
  buffer (100k-op soaks stay cheap), optionally streams every event to a
  JSONL sink, and maintains running per-structure totals so a trace can
  be reconciled against :meth:`repro.hwsim.stats.StatsRegistry.total`
  without replaying the buffer.

**Attribution invariant.**  Each unit of memory traffic recorded by the
:class:`~repro.hwsim.stats.StatsRegistry` during a traced operation is
attributed to exactly one event: op events carry their own per-structure
deltas, and a span (e.g. a batched fast path) carries only the traffic
its child events did *not* claim.  Consequently
:meth:`Tracer.attributed_totals` equals the registry delta over the
traced window exactly — the acceptance check of the telemetry layer.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Callable, Dict, IO, Iterable, List, Optional, Union

from ..hwsim.stats import AccessStats, StatsRegistry
from .events import FOOTER_KIND, SPAN_KIND, TraceEvent


class _NullSpan:
    """Context manager that does nothing (shared singleton)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every probe is a no-op.

    Instrumented components check :attr:`enabled` once at attach time
    and skip instrumentation altogether when it is ``False``, so the
    null tracer's methods exist only for duck-typed callers that do not
    bother checking.
    """

    enabled = False

    def event(self, kind: str, **_kwargs: Any) -> None:
        """Discard the event."""

    def span(self, name: str, **_kwargs: Any) -> _NullSpan:
        """Return a no-op context manager."""
        return _NULL_SPAN

    def events(self, kind: Optional[str] = None) -> List[TraceEvent]:
        """Always empty."""
        return []

    @property
    def emitted(self) -> int:
        return 0

    @property
    def dropped(self) -> int:
        return 0

    def attributed_totals(self) -> Dict[str, AccessStats]:
        return {}

    def attributed_totals_by_component(
        self,
    ) -> Dict[str, Dict[str, AccessStats]]:
        return {}

    def write_header(self, header: Dict[str, Any]) -> None:
        """Discard the header."""

    def flush(self) -> None:
        """Nothing to flush."""

    def close(self) -> None:
        """Nothing to close."""


#: Shared disabled tracer used as the default everywhere.
NULL_TRACER = NullTracer()


class ComponentTracer:
    """A tracer view that stamps every event with a ``component`` attr.

    The sharded fabric attaches one of these per shard, all sharing a
    single inner :class:`Tracer`: shard-local circuit events keep their
    ordinary kinds and delta structure (so reconciliation, profiling,
    and monitoring work unchanged) but gain ``component="shardN"`` for
    per-shard attribution.  Spans are stamped the same way.  The adapter
    is intentionally thin — buffering, sinks, observers, and attributed
    totals all live on the shared inner tracer.
    """

    __slots__ = ("_inner", "component")

    def __init__(self, inner, component: str) -> None:
        self._inner = inner
        self.component = component

    @property
    def enabled(self) -> bool:
        """Mirrors the inner tracer (a disabled inner disables the view)."""
        return getattr(self._inner, "enabled", False)

    @property
    def inner(self):
        """The shared underlying tracer."""
        return self._inner

    def event(self, kind: str, **kwargs: Any) -> Any:
        """Emit via the inner tracer with the component stamped in."""
        kwargs.setdefault("component", self.component)
        return self._inner.event(kind, **kwargs)

    def span(self, name: str, **kwargs: Any) -> Any:
        """Open a span on the inner tracer with the component stamped in."""
        kwargs.setdefault("component", self.component)
        return self._inner.span(name, **kwargs)

    # Passthroughs for duck-typed callers that treat the view as a full
    # tracer (flush/close are shared-resource operations and therefore
    # deliberately NOT forwarded — the owner of the inner tracer closes it).
    def events(self, kind: Optional[str] = None) -> List[TraceEvent]:
        return self._inner.events(kind)

    @property
    def emitted(self) -> int:
        return self._inner.emitted

    @property
    def dropped(self) -> int:
        return self._inner.dropped

    def attributed_totals(self) -> Dict[str, AccessStats]:
        return self._inner.attributed_totals()

    def attributed_totals_by_component(
        self,
    ) -> Dict[str, Dict[str, AccessStats]]:
        return self._inner.attributed_totals_by_component()

    def flush(self) -> None:
        """No-op: the inner tracer's owner flushes it."""

    def close(self) -> None:
        """No-op: the inner tracer's owner closes it."""


class _Span:
    """One open span: snapshot on entry, self-delta attribution on exit."""

    __slots__ = ("_tracer", "name", "attrs", "_registry", "_snapshot", "span_id", "_attributed")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        registry: Optional[StatsRegistry],
        attrs: Dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self._registry = registry
        self._snapshot: Optional[Dict[str, AccessStats]] = None
        self.span_id: Optional[int] = None
        #: per-structure traffic already claimed by child events/spans
        self._attributed: Dict[str, AccessStats] = {}

    def _absorb(self, deltas: Dict[str, AccessStats]) -> None:
        for name, delta in deltas.items():
            slot = self._attributed.get(name)
            if slot is None:
                self._attributed[name] = delta.snapshot()
            else:
                slot.reads += delta.reads
                slot.writes += delta.writes

    def __enter__(self) -> "_Span":
        self.span_id = self._tracer._open_span(self)
        if self._registry is not None:
            self._snapshot = self._registry.snapshot_all()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        window: Dict[str, AccessStats] = {}
        if self._registry is not None and self._snapshot is not None:
            window = self._registry.deltas_since(self._snapshot)
        self_deltas: Dict[str, AccessStats] = {}
        for name, delta in window.items():
            claimed = self._attributed.get(name)
            reads = delta.reads - (claimed.reads if claimed else 0)
            writes = delta.writes - (claimed.writes if claimed else 0)
            if reads or writes:
                self_deltas[name] = AccessStats(reads=reads, writes=writes)
        attrs = dict(self.attrs)
        if exc_type is not None:
            attrs["failed"] = True
            attrs["error"] = exc_type.__name__
        # The parent span must see this whole window as claimed; when the
        # span had no registry, propagate whatever the children claimed.
        propagate = window if self._registry is not None else self._attributed
        self._tracer._close_span(self, self_deltas, attrs, propagate)
        return False


class Tracer:
    """Structured event tracer with nested spans and a JSONL sink.

    Args:
        buffer_size: ring-buffer capacity; older events are dropped from
            the in-memory view (the JSONL sink, when set, still received
            them) and counted in :attr:`dropped`.
        sink: a path or an open text file to stream one JSON object per
            event into.  Paths are opened lazily on the first event and
            closed by :meth:`close`.
        observers: callables invoked with every emitted
            :class:`~repro.obs.events.TraceEvent` — the hook streaming
            instruments (histograms, gauges) attach to.
    """

    enabled = True

    def __init__(
        self,
        *,
        buffer_size: int = 65536,
        sink: Optional[Union[str, IO[str]]] = None,
        observers: Iterable[Callable[[TraceEvent], None]] = (),
    ) -> None:
        if buffer_size < 1:
            raise ValueError("buffer_size must be at least 1")
        self._buffer: deque = deque(maxlen=buffer_size)
        self._sink_spec = sink
        self._sink: Optional[IO[str]] = None
        self._owns_sink = False
        self._observers: List[Callable[[TraceEvent], None]] = list(observers)
        #: kind -> observers that only want that kind (kept off the
        #: wildcard loop so narrow observers cost nothing on other
        #: events — the serve auditor never sees an insert)
        self._kind_observers: Dict[
            str, List[Callable[[TraceEvent], None]]
        ] = {}
        self._seq = 0
        self._next_span_id = 0
        self._stack: List[_Span] = []
        self._totals: Dict[str, AccessStats] = {}
        #: component attr -> per-structure totals (events without a
        #: component stamp do not appear here)
        self._component_totals: Dict[str, Dict[str, AccessStats]] = {}
        self._header: Optional[Dict[str, Any]] = None
        self._footer_written = False

    # ------------------------------------------------------------------
    # emission

    def add_observer(
        self,
        observer: Callable[[TraceEvent], None],
        *,
        kinds: Optional[Iterable[str]] = None,
    ) -> None:
        """Attach a streaming observer (called once per emitted event).

        ``kinds`` restricts delivery to those event kinds: the observer
        is never invoked for anything else, which keeps narrow
        observers off the hot path entirely (an observer call costs
        more than the dispatch check it replaces).
        """
        if kinds is None:
            self._observers.append(observer)
            return
        for kind in kinds:
            self._kind_observers.setdefault(kind, []).append(observer)

    def event(
        self,
        kind: str,
        *,
        name: Optional[str] = None,
        deltas: Optional[Dict[str, AccessStats]] = None,
        **attrs: Any,
    ) -> TraceEvent:
        """Emit one event, attributing ``deltas`` to it."""
        deltas = deltas or {}
        if deltas and self._stack:
            self._stack[-1]._absorb(deltas)
        return self._emit(
            TraceEvent(
                seq=self._seq,
                kind=kind,
                name=name if name is not None else kind,
                span_id=self._stack[-1].span_id if self._stack else None,
                deltas=deltas,
                attrs=attrs,
            )
        )

    def span(
        self,
        name: str,
        *,
        registry: Optional[StatsRegistry] = None,
        **attrs: Any,
    ) -> _Span:
        """Open a nested span (use as a context manager).

        With a ``registry``, the span snapshots it on entry and, on
        exit, emits a :data:`~repro.obs.events.SPAN_KIND` event carrying
        the window's per-structure deltas minus whatever child events
        already claimed.
        """
        return _Span(self, name, registry, attrs)

    def _open_span(self, span: _Span) -> int:
        span_id = self._next_span_id
        self._next_span_id += 1
        self._stack.append(span)
        return span_id

    def _close_span(
        self,
        span: _Span,
        self_deltas: Dict[str, AccessStats],
        attrs: Dict[str, Any],
        propagate: Dict[str, AccessStats],
    ) -> None:
        popped = self._stack.pop()
        if popped is not span:  # pragma: no cover - misuse guard
            raise RuntimeError("span exited out of order")
        parent_id = self._stack[-1].span_id if self._stack else None
        if propagate and self._stack:
            self._stack[-1]._absorb(propagate)
        # The close event's span_id points at the *parent* (nesting), so
        # record the span's own id in attrs for analyses that must map
        # child events (matching span_id) back to their enclosing span.
        attrs["span"] = span.span_id
        self._emit(
            TraceEvent(
                seq=self._seq,
                kind=SPAN_KIND,
                name=span.name,
                span_id=parent_id,
                deltas=self_deltas,
                attrs=attrs,
            )
        )

    def _emit(self, event: TraceEvent) -> TraceEvent:
        self._seq += 1
        component = event.attrs.get("component")
        by_component = (
            self._component_totals.setdefault(str(component), {})
            if component is not None and event.deltas
            else None
        )
        for name, delta in event.deltas.items():
            slot = self._totals.get(name)
            if slot is None:
                self._totals[name] = delta.snapshot()
            else:
                slot.reads += delta.reads
                slot.writes += delta.writes
            if by_component is not None:
                slot = by_component.get(name)
                if slot is None:
                    by_component[name] = delta.snapshot()
                else:
                    slot.reads += delta.reads
                    slot.writes += delta.writes
        self._buffer.append(event)
        if self._sink_spec is not None:
            self._sink_write(event)
        for observer in self._observers:
            observer(event)
        if self._kind_observers:
            for observer in self._kind_observers.get(event.kind, ()):
                observer(event)
        return event

    # ------------------------------------------------------------------
    # sink management

    def _ensure_sink(self) -> Optional[IO[str]]:
        if self._sink is None and self._sink_spec is not None:
            if hasattr(self._sink_spec, "write"):
                self._sink = self._sink_spec  # type: ignore[assignment]
            else:
                self._sink = open(self._sink_spec, "w", encoding="utf-8")
                self._owns_sink = True
        return self._sink

    def _sink_write(self, event: TraceEvent) -> None:
        sink = self._ensure_sink()
        if sink is not None:
            sink.write(json.dumps(event.to_dict(), sort_keys=False) + "\n")

    def write_header(self, header: Dict[str, Any]) -> None:
        """Record the trace header and stream it as the sink's first line.

        Build the record with
        :func:`repro.obs.events.build_trace_header`.  Must be called
        before the first event reaches the sink; setting a header also
        arms the matching ``trace_footer`` record (emitted/dropped
        totals), written when the tracer is closed.
        """
        if self._seq:
            raise RuntimeError("write_header must precede the first event")
        self._header = dict(header)
        sink = self._ensure_sink()
        if sink is not None:
            sink.write(json.dumps(self._header, sort_keys=False) + "\n")

    @property
    def header(self) -> Optional[Dict[str, Any]]:
        """The trace header set via :meth:`write_header`, if any."""
        return dict(self._header) if self._header is not None else None

    def flush(self) -> None:
        """Flush the JSONL sink, if open."""
        if self._sink is not None:
            self._sink.flush()

    def close(self) -> None:
        """Write the footer (headered traces), then close an owned sink."""
        if (
            self._header is not None
            and not self._footer_written
            and self._sink is not None
        ):
            footer = {
                "kind": FOOTER_KIND,
                "emitted": self._seq,
                "dropped": self.dropped,
            }
            self._sink.write(json.dumps(footer, sort_keys=False) + "\n")
            self._footer_written = True
        if self._sink is not None and self._owns_sink:
            self._sink.close()
        self._sink = None
        self._owns_sink = False

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # inspection

    def events(self, kind: Optional[str] = None) -> List[TraceEvent]:
        """Buffered events (most recent ``buffer_size``), oldest first."""
        if kind is None:
            return list(self._buffer)
        return [event for event in self._buffer if event.kind == kind]

    @property
    def emitted(self) -> int:
        """Events emitted over the tracer's lifetime."""
        return self._seq

    @property
    def dropped(self) -> int:
        """Events evicted from the ring buffer (sink still saw them)."""
        return self._seq - len(self._buffer)

    @property
    def open_spans(self) -> int:
        """Currently nested spans (0 when quiescent)."""
        return len(self._stack)

    def attributed_totals(self) -> Dict[str, AccessStats]:
        """Per-structure traffic summed over *every* emitted event.

        Maintained incrementally, so it is exact even after ring-buffer
        eviction.  Over a window where all registry traffic happened
        inside traced operations, this equals
        ``registry.deltas_since(<window start>)`` structure for
        structure.
        """
        return {name: stats.snapshot() for name, stats in self._totals.items()}

    def attributed_grand_total(self) -> AccessStats:
        """Summed reads/writes over every emitted event."""
        combined = AccessStats()
        for stats in self._totals.values():
            combined.reads += stats.reads
            combined.writes += stats.writes
        return combined

    def attributed_totals_by_component(
        self,
    ) -> Dict[str, Dict[str, AccessStats]]:
        """Per-structure traffic split by each event's ``component`` attr.

        Only events stamped with a component (shard views) contribute;
        the unstamped remainder is :meth:`attributed_totals` minus the
        sum of these.  Maintained incrementally like the grand totals,
        so exact under ring eviction.
        """
        return {
            component: {
                name: stats.snapshot() for name, stats in totals.items()
            }
            for component, totals in self._component_totals.items()
        }
