"""Flight recorder and stall watchdog — always-on crash forensics.

A soak that trips an invariant monitor today leaves you with whatever
the ring buffer happens to hold when the run *ends*; with a streaming
sink disabled there may be nothing to analyze at all.  The
:class:`FlightRecorder` fixes that: attached as a tracer observer, it
keeps a bounded ring of recent events and, the moment a trigger event
(by default an :data:`~repro.obs.events.INVARIANT_KIND` violation)
appears, captures the surrounding context window — everything currently
in the ring plus a fixed number of post-trigger events — and dumps it as
a *framed* JSONL mini-trace that ``python -m repro analyze`` loads like
any other trace: header first (copied from the run's header, stamped
``purpose: "flight_recorder"`` plus trigger coordinates), then the
events, then a footer whose ``emitted`` count matches the file, so the
lossy-trace gate accepts it.

:class:`StallWatchdog` is the liveness half: it watches a *progress
reading* (registry grand total, fabric operation count) sampled by the
live collector thread and declares a stall when the reading stops
changing for longer than the timeout — which catches a hung run
without adding any per-operation cost to the hot path.
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from .events import (
    FOOTER_KIND,
    INVARIANT_KIND,
    TRACE_SCHEMA,
    TraceEvent,
    WATCHDOG_KIND,
)

#: Default context captured around the first trigger event.
DEFAULT_RING = 4096
DEFAULT_POST_CONTEXT = 256

#: Kinds that arm a dump.
DEFAULT_TRIGGER_KINDS = (INVARIANT_KIND, WATCHDOG_KIND)


class FlightRecorder:
    """Bounded ring of recent trace events with auto-dump on violation.

    Attach with :meth:`attach` (rides the tracer's ring buffer; zero
    per-event cost until a trigger fires) or, for tracerless callers,
    feed events directly — the recorder is itself an observer keeping a
    private ring.  Either way it is passive until a trigger-kind event
    arrives; it then keeps absorbing
    ``post_context`` more events (the aftermath often matters as much as
    the lead-up) and writes the window to ``path``.  Only the *first*
    trigger dumps — a broken invariant usually cascades, and the first
    window is the one with the uncorrupted lead-up.  :meth:`close`
    flushes a pending dump whose aftermath was cut short by the end of
    the run.
    """

    def __init__(
        self,
        path: str,
        *,
        ring: int = DEFAULT_RING,
        post_context: int = DEFAULT_POST_CONTEXT,
        trigger_kinds: Sequence[str] = DEFAULT_TRIGGER_KINDS,
        header: Optional[Dict[str, Any]] = None,
    ) -> None:
        if ring < 1:
            raise ValueError("ring must hold at least one event")
        if post_context < 0:
            raise ValueError("post_context must be non-negative")
        self.path = path
        self._ring: deque = deque(maxlen=ring)
        # Bound once: the observer runs on every traced event and the
        # attribute walk is measurable there.
        self._ring_append = self._ring.append
        self._post_context = post_context
        self._trigger_kinds = tuple(trigger_kinds)
        self._header = dict(header) if header else None
        self.trigger: Optional[TraceEvent] = None
        self.dumped = False
        self._post_remaining = 0
        #: events seen over the recorder's lifetime (for drop accounting)
        self.observed = 0
        #: set by :meth:`attach`; the recorder then rides the tracer's
        #: own ring instead of mirroring every event into a private one
        self._tracer = None

    def set_header(self, header: Dict[str, Any]) -> None:
        """Adopt the run's trace header (copied into the dump)."""
        self._header = dict(header)

    def attach(self, tracer) -> None:
        """Ride the tracer's own ring instead of keeping a private one.

        The recorder subscribes only for its trigger kinds, so the
        clean path — no violation ever fires — pays *nothing* per
        event: the lead-up window is sliced from the tracer's ring
        buffer at dump time (bounded by this recorder's ``ring``), and
        the aftermath countdown adds a wildcard observer only once a
        trigger has actually fired.  The tracer's buffer must be at
        least as deep as the wanted lead-up for the full window to
        survive to the dump (the default 65536-event buffer dwarfs the
        default 4096-event window).
        """
        if self._tracer is not None:
            raise RuntimeError("flight recorder is already attached")
        self._tracer = tracer
        tracer.add_observer(self._on_trigger, kinds=self._trigger_kinds)

    def _on_trigger(self, event: TraceEvent) -> None:
        """Kind-filtered observer: first trigger arms the countdown."""
        if self.trigger is not None:
            return
        self.trigger = event
        self._post_remaining = self._post_context
        if self._post_remaining == 0:
            self._dump()
        else:
            self._tracer.add_observer(self._aftermath)

    def _aftermath(self, event: TraceEvent) -> None:
        """Wildcard observer attached only after the trigger fired."""
        if self.dumped:
            return
        self._post_remaining -= 1
        if self._post_remaining <= 0:
            self._dump()

    @property
    def triggered(self) -> bool:
        return self.trigger is not None

    def __call__(self, event: TraceEvent) -> None:
        """Tracer-observer entry: absorb one event."""
        # Hot path: runs on every traced event.  Until the first
        # trigger arrives this is an increment, a bound append, and one
        # membership test.
        self.observed += 1
        self._ring_append(event)
        if self.trigger is None:
            if event.kind in self._trigger_kinds:
                self.trigger = event
                self._post_remaining = self._post_context
                if self._post_remaining == 0:
                    self._dump()
        elif not self.dumped:
            self._post_remaining -= 1
            if self._post_remaining <= 0:
                self._dump()

    def close(self) -> None:
        """Flush a pending dump (trigger seen, aftermath cut short)."""
        if self.triggered and not self.dumped:
            self._dump()

    # ------------------------------------------------------------------

    def _dump_header(self, events: List[TraceEvent]) -> Dict[str, Any]:
        header: Dict[str, Any] = (
            dict(self._header)
            if self._header is not None
            else {
                "kind": "trace_header",
                "schema": TRACE_SCHEMA,
                "seed": 0,
                "mode": "unknown",
                "config": {},
            }
        )
        trigger = self.trigger
        header["purpose"] = "flight_recorder"
        header["trigger"] = {
            "seq": trigger.seq if trigger else None,
            "kind": trigger.kind if trigger else None,
            "monitor": (
                trigger.attrs.get("monitor") if trigger else None
            ),
            "offender_seq": (
                trigger.attrs.get("offender_seq") if trigger else None
            ),
        }
        header["window"] = {
            "events": len(events),
            "first_seq": events[0].seq if events else None,
            "last_seq": events[-1].seq if events else None,
            "ring": self._ring.maxlen,
            "post_context": self._post_context,
        }
        return header

    def _dump(self) -> None:
        if self._tracer is not None:
            self.observed = self._tracer.emitted
            window = self._ring.maxlen or 0
            events = self._tracer.events()[-window:]
        else:
            events = list(self._ring)
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps(self._dump_header(events), sort_keys=False) + "\n"
            )
            for event in events:
                handle.write(
                    json.dumps(event.to_dict(), sort_keys=False) + "\n"
                )
            footer = {
                "kind": FOOTER_KIND,
                "emitted": len(events),
                "dropped": 0,
            }
            handle.write(json.dumps(footer, sort_keys=False) + "\n")
        self.dumped = True

    def summary(self) -> Dict[str, Any]:
        if self._tracer is not None:
            self.observed = self._tracer.emitted
        return {
            "path": self.path,
            "observed": self.observed,
            "triggered": self.triggered,
            "dumped": self.dumped,
            "trigger": (
                {
                    "seq": self.trigger.seq,
                    "kind": self.trigger.kind,
                    "monitor": self.trigger.attrs.get("monitor"),
                }
                if self.trigger
                else None
            ),
        }


class StallWatchdog:
    """Progress-based liveness watchdog (no hot-path instrumentation).

    Feed it a monotone progress reading — the registry grand total for a
    single store, the fabric's operation counter, anything that moves
    whenever the run moves — via :meth:`observe`, typically from the
    live collector's periodic tick.  If the reading stops changing for
    longer than ``timeout`` seconds while the watchdog is armed, it
    latches :attr:`stalled`; the next tick's caller can then emit a
    :data:`~repro.obs.events.WATCHDOG_KIND` event (safe from the
    collector thread precisely *because* the main thread is making no
    progress) and trigger a flight-recorder dump.

    A recovery (the reading moves again) clears :attr:`stalled` but
    keeps :attr:`stall_count` — a run that hiccups repeatedly is worth
    knowing about even if every hiccup eventually clears.
    """

    def __init__(
        self,
        *,
        timeout: float = 10.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        self.timeout = timeout
        self._clock = clock
        self._last_value: Optional[Union[int, float]] = None
        self._last_change = clock()
        self.stalled = False
        self.stall_count = 0
        self.armed = True

    def beat(self) -> None:
        """Explicit heartbeat (counts as progress)."""
        self._last_change = self._clock()
        if self.stalled:
            self.stalled = False

    def observe(self, value: Union[int, float]) -> bool:
        """Sample the progress reading; returns True on a *new* stall."""
        now = self._clock()
        if self._last_value is None or value != self._last_value:
            self._last_value = value
            self._last_change = now
            if self.stalled:
                self.stalled = False
            return False
        if not self.armed or self.stalled:
            return False
        if now - self._last_change > self.timeout:
            self.stalled = True
            self.stall_count += 1
            return True
        return False

    @property
    def seconds_since_progress(self) -> float:
        """Age of the last observed progress (the heartbeat reading)."""
        return max(0.0, self._clock() - self._last_change)

    def disarm(self) -> None:
        """Stop declaring new stalls (run is shutting down)."""
        self.armed = False

    def summary(self) -> Dict[str, Any]:
        return {
            "timeout": self.timeout,
            "stalled": self.stalled,
            "stall_count": self.stall_count,
            "seconds_since_progress": round(self.seconds_since_progress, 3),
            "armed": self.armed,
        }
