"""Span recording around each layer's public methods, and the per-layer
metrics derived from the spans.

The traced run installs timing wrappers at class level, from here, around
the public entry points of every layer (the program itself is not
edited).  Each call made while recording is on becomes one span
``(name, start, end, parent, request id)`` appended to flat arrays in
memory; :meth:`SpanRecorder.dump` writes them out when the run ends and
:func:`derive` turns them into busy and self times.  Busy time is total
span time; self time is span time minus the time its child spans cover.

Span names are ``<layer>.<verb>``, with the layers named after the
modules they wrap: ``serve``, ``net``, ``sched``, ``fabric``, ``store``,
``core`` and ``timer``.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import percentile

#: (module, class, method, span name) for every wrapped entry point.
#: The scalar circuit's turbo engine shadows its public verbs with
#: per-instance bindings of the ``_turbo_*`` twins at construction, so
#: those twins are wrapped under the public verb's span name.
SPANNED: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.net.fabric_system", "FabricSchedulerSystem", "enqueue", "net.system.enqueue"),
    ("repro.net.fabric_system", "FabricSchedulerSystem", "enqueue_batch", "net.system.enqueue_batch"),
    ("repro.net.fabric_system", "FabricSchedulerSystem", "select_batch", "net.system.select_batch"),
    ("repro.net.fabric_system", "FabricSchedulerSystem", "cancel", "net.system.cancel"),
    ("repro.net.fabric_system", "FabricSchedulerSystem", "reschedule", "net.system.reschedule"),
    ("repro.sched.virtual_time", "VirtualClock", "on_arrival", "sched.on_arrival"),
    ("repro.fabric.fabric", "ScheduleFabric", "push", "fabric.push"),
    ("repro.fabric.fabric", "ScheduleFabric", "push_batch", "fabric.push_batch"),
    ("repro.fabric.fabric", "ScheduleFabric", "pop_min", "fabric.pop_min"),
    ("repro.fabric.fabric", "ScheduleFabric", "pop_batch", "fabric.pop_batch"),
    ("repro.fabric.fabric", "ScheduleFabric", "remove", "fabric.remove"),
    ("repro.fabric.fabric", "ScheduleFabric", "retag", "fabric.retag"),
    ("repro.net.hardware_store", "HardwareTagStore", "push", "store.push"),
    ("repro.net.hardware_store", "HardwareTagStore", "push_batch", "store.push_batch"),
    ("repro.net.hardware_store", "HardwareTagStore", "pop_min", "store.pop_min"),
    ("repro.net.hardware_store", "HardwareTagStore", "pop_batch", "store.pop_batch"),
    ("repro.net.hardware_store", "HardwareTagStore", "remove", "store.remove"),
    ("repro.net.hardware_store", "HardwareTagStore", "retag", "store.retag"),
    ("repro.core.sort_retrieve", "TagSortRetrieveCircuit", "insert", "core.insert"),
    ("repro.core.sort_retrieve", "TagSortRetrieveCircuit", "_turbo_insert", "core.insert"),
    ("repro.core.sort_retrieve", "TagSortRetrieveCircuit", "insert_batch", "core.insert_batch"),
    ("repro.core.sort_retrieve", "TagSortRetrieveCircuit", "dequeue_min", "core.dequeue_min"),
    ("repro.core.sort_retrieve", "TagSortRetrieveCircuit", "_turbo_dequeue_min", "core.dequeue_min"),
    ("repro.core.sort_retrieve", "TagSortRetrieveCircuit", "dequeue_batch", "core.dequeue_batch"),
    ("repro.core.sort_retrieve", "TagSortRetrieveCircuit", "remove", "core.remove"),
    ("repro.core.sort_retrieve", "TagSortRetrieveCircuit", "_turbo_remove", "core.remove"),
    ("repro.core.sort_retrieve", "TagSortRetrieveCircuit", "retag", "core.retag"),
    ("repro.core.sort_retrieve", "TagSortRetrieveCircuit", "_turbo_retag", "core.retag"),
    ("repro.core.vector", "VectorSortRetrieveCircuit", "insert", "core.insert"),
    ("repro.core.vector", "VectorSortRetrieveCircuit", "insert_batch", "core.insert_batch"),
    ("repro.core.vector", "VectorSortRetrieveCircuit", "dequeue_min", "core.dequeue_min"),
    ("repro.core.vector", "VectorSortRetrieveCircuit", "dequeue_batch", "core.dequeue_batch"),
    ("repro.core.vector", "VectorSortRetrieveCircuit", "remove", "core.remove"),
    ("repro.core.vector", "VectorSortRetrieveCircuit", "retag", "core.retag"),
    ("repro.net.timer", "TimerWheel", "arm", "timer.arm"),
    ("repro.net.timer", "TimerWheel", "cancel", "timer.cancel"),
    ("repro.net.timer", "TimerWheel", "reset", "timer.reset"),
    ("repro.net.timer", "TimerWheel", "expire_until", "timer.expire_until"),
)

#: Calls that are counted, not timed: they run many times per operation,
#: and a span each would cost more than the work it measures.
COUNTED: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.fabric.fabric", "ScheduleFabric", "occupancies", "fabric.occupancies"),
    ("repro.net.hardware_store", "HardwareTagStore", "__len__", "store.len"),
)

#: For each fabric verb, the store verb that does its own work; any
#: other store push/remove under a fabric span is backlog migration.
#: Batch verbs call their primary store verb once per shard or entry.
FABRIC_PRIMARY = {
    "push": "push",
    "remove": "remove",
    "retag": "retag",
    "pop_min": "pop_min",
    "push_batch": "push_batch",
    "pop_batch": "pop_min",
}
FABRIC_BATCH_VERBS = ("push_batch", "pop_batch")


class SpanRecorder:
    """Flat in-memory span arrays; recording is switched on per window."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._index: Dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.rid = array("q")
        self._stack: List[int] = []
        self.recording = False
        #: request (or operation) id stamped on spans opened from now on
        self.current_rid = -1
        self.counts: Counter = Counter()
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self._gc_started: Optional[float] = None

    def intern(self, name: str) -> int:
        index = self._index.get(name)
        if index is None:
            index = self._index[name] = len(self.names)
            self.names.append(name)
        return index

    def open(self, name_index: int) -> int:
        span = len(self.start)
        self.name.append(name_index)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.rid.append(self.current_rid)
        self.end.append(0.0)
        self._stack.append(span)
        self.start.append(time.perf_counter())
        return span

    def close(self, span: int) -> None:
        self.end[span] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, func):
        """``func`` wrapped so each recorded call is one span."""
        name_index = self.intern(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not self.recording:
                return func(*args, **kwargs)
            span = self.open(name_index)
            try:
                return func(*args, **kwargs)
            finally:
                self.close(span)

        return traced

    def counter(self, name: str, func):
        """``func`` wrapped so each recorded call bumps ``counts[name]``."""
        counts = self.counts

        @functools.wraps(func)
        def counted(*args, **kwargs):
            if self.recording:
                counts[name] += 1
            return func(*args, **kwargs)

        return counted

    # ------------------------------------------------------------------
    # interpreter: garbage-collector pauses while recording

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self.recording:
            return
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.gc_pause_s += time.perf_counter() - self._gc_started
            self.gc_collections += 1
            self._gc_started = None

    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    # ------------------------------------------------------------------

    def dump(self, path: Path, extra: Optional[dict] = None) -> None:
        """Write the spans (binary arrays) plus a JSON header."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "counts": dict(self.counts),
            "gc_collections": self.gc_collections,
            "gc_pause_s": self.gc_pause_s,
            "extra": extra or {},
        }
        with open(path, "wb") as handle:
            blob = json.dumps(header).encode("utf-8")
            handle.write(len(blob).to_bytes(8, "little"))
            handle.write(blob)
            for column in (self.name, self.start, self.end, self.parent, self.rid):
                column.tofile(handle)


def load(path: Path) -> Tuple[dict, Dict[str, array]]:
    """Read a :meth:`SpanRecorder.dump` file back."""
    with open(path, "rb") as handle:
        size = int.from_bytes(handle.read(8), "little")
        header = json.loads(handle.read(size).decode("utf-8"))
        count = header["spans"]
        columns = {}
        for key, code in (("name", "H"), ("start", "d"), ("end", "d"),
                          ("parent", "l"), ("rid", "q")):
            column = array(code)
            column.fromfile(handle, count)
            columns[key] = column
    return header, columns


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer entry point in :data:`SPANNED` and :data:`COUNTED`.

    Must run before the system under test is constructed: the turbo
    engine binds its hot paths per instance at construction.
    """
    for module_name, class_name, attr, name in SPANNED:
        cls = getattr(importlib.import_module(module_name), class_name)
        setattr(cls, attr, recorder.span(name, getattr(cls, attr)))
    for module_name, class_name, attr, name in COUNTED:
        cls = getattr(importlib.import_module(module_name), class_name)
        setattr(cls, attr, recorder.counter(name, getattr(cls, attr)))


def window_counters(fabric) -> Dict[str, int]:
    """Counters read at both ends of a window: the circuits' modeled
    cycles, operations and memory accesses, and the fabric's migration
    counts."""
    circuits = [store.circuit for store in fabric.stores]
    return {
        "cycles": sum(circuit.cycles for circuit in circuits),
        "operations": sum(circuit.operations for circuit in circuits),
        "accesses": sum(circuit.total_stats().total for circuit in circuits),
        "entries_migrated": fabric.manager.entries_migrated,
        "rebalances": fabric.manager.rebalance_count,
    }


def derive(header: dict, columns: Dict[str, array]) -> Dict[str, dict]:
    """Per-span-name totals from recorded spans.

    Returns ``{name: {"calls", "busy_s", "self_s", "outer_busy_s",
    "durations"}}`` plus a ``"fabric.migration"`` pseudo-entry.
    ``outer_busy_s`` counts only spans whose parent is in another layer,
    so a verb that re-enters its own layer (a retag that inserts) is not
    counted twice.  ``durations`` is kept for ``serve.handle.*`` only.
    """
    names = header["names"]
    name_col = columns["name"]
    start = columns["start"]
    end = columns["end"]
    parent = columns["parent"]
    count = len(start)
    layer_of = [name.split(".", 1)[0] for name in names]
    fabric_verb = {
        index: name.split(".", 1)[1]
        for index, name in enumerate(names)
        if name.startswith("fabric.")
    }
    store_verb = {
        index: name.split(".", 1)[1]
        for index, name in enumerate(names)
        if name.startswith("store.")
    }
    child_time = [0.0] * count
    durations = [0.0] * count
    for span in range(count):
        duration = end[span] - start[span]
        durations[span] = duration
        up = parent[span]
        if up >= 0:
            child_time[up] += duration
    stats: Dict[str, dict] = {
        name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
               "outer_busy_s": 0.0, "durations": []}
        for name in names
    }
    migration = 0.0
    primary_seen = set()
    for span in range(count):
        index = name_col[span]
        entry = stats[names[index]]
        duration = durations[span]
        entry["calls"] += 1
        entry["busy_s"] += duration
        entry["self_s"] += duration - child_time[span]
        up = parent[span]
        up_index = name_col[up] if up >= 0 else None
        if up_index is None or layer_of[up_index] != layer_of[index]:
            entry["outer_busy_s"] += duration
        if names[index].startswith("serve.handle."):
            entry["durations"].append(duration)
        if index in store_verb and up_index in fabric_verb:
            verb = fabric_verb[up_index]
            primary = FABRIC_PRIMARY.get(verb)
            if store_verb[index] == primary and (
                verb in FABRIC_BATCH_VERBS or up not in primary_seen
            ):
                primary_seen.add(up)
            elif store_verb[index] in ("push", "remove"):
                migration += duration
    stats["fabric.migration"] = {"busy_s": migration}
    return stats


def per_layer_metrics(
    stats: Dict[str, dict],
    header: dict,
    *,
    ops: int,
    counters: Dict[str, int],
    buffer_high_watermark: int,
    client_rtt_s: float,
    server_cpu_share: float,
    client_cpu_share: float,
    tracing_overhead: float,
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric, ``{name: (value, unit)}``.

    ``counters`` holds the window's deltas of :func:`window_counters`.

    Spans of a verb the workload never calls read 0: the table in
    ``perfbench/README.md`` says which workloads each layer is expected
    to be flat on.
    """

    def get(name: str, field: str) -> float:
        return stats.get(name, {}).get(field, 0)

    def total(prefix: str, field: str) -> float:
        return sum(
            entry.get(field, 0)
            for name, entry in stats.items()
            if name.startswith(prefix)
        )

    out: Dict[str, Tuple[float, str]] = {}
    codec = get("serve.decode", "busy_s") + get("serve.encode", "busy_s")
    handle = total("serve.handle.", "busy_s")
    out["serve.codec.busy_s"] = (codec, "s")
    out["serve.handle.busy_s"] = (handle, "s")
    out["serve.handle.self_s"] = (total("serve.handle.", "self_s"), "s")
    out["serve.backpressure.busy_s"] = (get("serve.backpressure", "busy_s"), "s")
    out["serve.wait_s"] = (
        max(0.0, client_rtt_s - codec - handle) if client_rtt_s else 0.0,
        "s",
    )
    out["serve.server_cpu_share"] = (server_cpu_share, "ratio")
    for verb in ("enqueue", "drain", "cancel", "reschedule"):
        samples = stats.get(f"serve.handle.{verb}", {}).get("durations", [])
        out[f"serve.verb.{verb}.p50_us"] = (percentile(samples, 0.50) * 1e6, "us")
        out[f"serve.verb.{verb}.p99_us"] = (percentile(samples, 0.99) * 1e6, "us")
    for verb in ("enqueue", "select_batch", "cancel", "reschedule", "enqueue_batch"):
        out[f"net.system.{verb}.calls"] = (get(f"net.system.{verb}", "calls"), "count")
        out[f"net.system.{verb}.self_s"] = (get(f"net.system.{verb}", "self_s"), "s")
    out["net.buffer.high_watermark"] = (buffer_high_watermark, "count")
    out["sched.on_arrival.calls"] = (get("sched.on_arrival", "calls"), "count")
    out["sched.on_arrival.busy_s"] = (get("sched.on_arrival", "busy_s"), "s")
    for verb in ("push", "push_batch", "pop_min", "pop_batch", "remove", "retag"):
        out[f"fabric.{verb}.self_s"] = (get(f"fabric.{verb}", "self_s"), "s")
    counts = header.get("counts", {})
    per_op = 1.0 / ops if ops else 0.0
    out["fabric.occupancies.calls_per_op"] = (
        counts.get("fabric.occupancies", 0) * per_op, "calls/op")
    out["fabric.migration.busy_s"] = (stats["fabric.migration"]["busy_s"], "s")
    out["fabric.entries_migrated"] = (counters.get("entries_migrated", 0), "count")
    out["fabric.rebalances"] = (counters.get("rebalances", 0), "count")
    for verb in ("push", "push_batch", "pop_min", "pop_batch", "remove", "retag"):
        out[f"store.{verb}.self_s"] = (get(f"store.{verb}", "self_s"), "s")
    out["store.len.calls_per_op"] = (counts.get("store.len", 0) * per_op, "calls/op")
    for verb in ("insert", "insert_batch", "dequeue_min", "dequeue_batch", "remove", "retag"):
        out[f"core.{verb}.busy_s"] = (get(f"core.{verb}", "outer_busy_s"), "s")
    circuit_ops = counters.get("operations", 0)
    out["core.modeled_cycles_per_op"] = (
        counters.get("cycles", 0) / circuit_ops if circuit_ops else 0.0, "cycles/op")
    out["core.modeled_accesses_per_op"] = (
        counters.get("accesses", 0) / circuit_ops if circuit_ops else 0.0, "accesses/op")
    for verb in ("arm", "cancel", "reset", "expire_until"):
        out[f"timer.{verb}.self_s"] = (get(f"timer.{verb}", "self_s"), "s")
    out["py.gc.collections"] = (header.get("gc_collections", 0), "count")
    out["py.gc.pause_s"] = (header.get("gc_pause_s", 0.0), "s")
    out["bench.client_cpu_share"] = (client_cpu_share, "ratio")
    out["bench.tracing_overhead"] = (tracing_overhead, "ratio")
    return out
