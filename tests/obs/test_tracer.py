"""Tracer core semantics: buffering, spans, attribution, sinks."""

import io
import json

import pytest

from repro.hwsim.stats import AccessStats, StatsRegistry
from repro.obs.events import SPAN_KIND, TraceEvent
from repro.obs.tracer import NULL_TRACER, ComponentTracer, NullTracer, Tracer


def make_registry():
    registry = StatsRegistry()
    for name in ("tree", "storage"):
        registry.register(name, AccessStats())
    return registry


class TestNullTracer:
    def test_is_disabled_and_emits_nothing(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        tracer.event("insert", tag=3)
        with tracer.span("batch"):
            tracer.event("insert", tag=4)
        assert tracer.events() == []
        assert tracer.emitted == 0
        assert tracer.dropped == 0
        assert tracer.attributed_totals() == {}
        assert tracer.attributed_totals_by_component() == {}

    def test_singleton_shared(self):
        assert isinstance(NULL_TRACER, NullTracer)
        assert NULL_TRACER.span("x") is NULL_TRACER.span("y")


class TestEventEmission:
    def test_events_are_sequenced_and_buffered(self):
        tracer = Tracer()
        tracer.event("insert", tag=1)
        tracer.event("dequeue", tag=1)
        events = tracer.events()
        assert [e.seq for e in events] == [0, 1]
        assert [e.kind for e in events] == ["insert", "dequeue"]
        assert events[0].attrs == {"tag": 1}
        assert tracer.emitted == 2
        assert tracer.dropped == 0

    def test_ring_buffer_evicts_oldest(self):
        tracer = Tracer(buffer_size=3)
        for i in range(5):
            tracer.event("insert", tag=i)
        assert [e.attrs["tag"] for e in tracer.events()] == [2, 3, 4]
        assert tracer.emitted == 5
        assert tracer.dropped == 2

    def test_kind_filter(self):
        tracer = Tracer()
        tracer.event("insert", tag=1)
        tracer.event("dequeue", tag=1)
        tracer.event("insert", tag=2)
        assert [e.attrs["tag"] for e in tracer.events("insert")] == [1, 2]

    def test_buffer_size_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(buffer_size=0)

    def test_observers_see_every_event(self):
        seen = []
        tracer = Tracer(observers=[seen.append])
        tracer.event("insert", tag=7)
        tracer.add_observer(seen.append)
        tracer.event("dequeue", tag=7)
        # first event once, second event twice (two observers by then)
        assert [e.kind for e in seen] == ["insert", "dequeue", "dequeue"]


class TestAttribution:
    def test_event_deltas_accumulate_into_totals(self):
        tracer = Tracer()
        tracer.event("insert", deltas={"tree": AccessStats(reads=3, writes=1)})
        tracer.event("insert", deltas={"tree": AccessStats(reads=2, writes=2)})
        totals = tracer.attributed_totals()
        assert totals["tree"] == AccessStats(reads=5, writes=3)
        assert tracer.attributed_grand_total() == AccessStats(reads=5, writes=3)

    def test_totals_survive_ring_eviction(self):
        tracer = Tracer(buffer_size=1)
        for _ in range(10):
            tracer.event("insert", deltas={"tree": AccessStats(reads=1)})
        assert tracer.dropped == 9
        assert tracer.attributed_grand_total().reads == 10

    def test_span_claims_only_unattributed_window(self):
        registry = make_registry()
        tracer = Tracer()
        with tracer.span("batch", registry=registry, count=2):
            registry["tree"].record_read(4)
            # the child event claims part of the window explicitly
            tracer.event("insert", deltas={"tree": AccessStats(reads=3)})
            registry["storage"].record_write(2)
        span_event = tracer.events(SPAN_KIND)[0]
        # window was tree:4r + storage:2w; child claimed tree:3r
        assert span_event.deltas == {
            "tree": AccessStats(reads=1),
            "storage": AccessStats(writes=2),
        }
        # every registry access attributed exactly once
        assert tracer.attributed_totals() == {
            "tree": AccessStats(reads=4),
            "storage": AccessStats(writes=2),
        }

    def test_nested_spans_propagate_to_parent(self):
        registry = make_registry()
        tracer = Tracer()
        with tracer.span("outer", registry=registry):
            registry["tree"].record_read(1)
            with tracer.span("inner", registry=registry):
                registry["tree"].record_read(5)
        inner, outer = tracer.events(SPAN_KIND)
        assert inner.name == "inner"
        assert inner.deltas == {"tree": AccessStats(reads=5)}
        # the outer span keeps only its own read
        assert outer.deltas == {"tree": AccessStats(reads=1)}
        assert tracer.attributed_grand_total().reads == 6
        assert tracer.open_spans == 0

    def test_span_failure_is_tagged(self):
        registry = make_registry()
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("batch", registry=registry):
                registry["tree"].record_write(2)
                raise RuntimeError("boom")
        event = tracer.events(SPAN_KIND)[0]
        assert event.attrs["failed"] is True
        assert event.attrs["error"] == "RuntimeError"
        # partial traffic still attributed
        assert event.deltas == {"tree": AccessStats(writes=2)}

    def test_child_event_inside_span_carries_span_id(self):
        tracer = Tracer()
        with tracer.span("batch") as span:
            tracer.event("insert", tag=1)
        child = tracer.events("insert")[0]
        assert child.span_id == span.span_id

    def test_attributed_totals_by_component(self):
        parent = Tracer()
        for component in ("shard0", "shard1"):
            view = ComponentTracer(parent, component)
            with view.span("push_batch"):
                view.event(
                    "insert", deltas={"tree": AccessStats(reads=2, writes=1)}
                )
                view.event(
                    "insert", deltas={"tree": AccessStats(reads=1, writes=1)}
                )
        parent.event(
            "insert",
            tag=5,
            component="fabric",
            deltas={"storage": AccessStats(reads=1, writes=0)},
        )
        by_component = parent.attributed_totals_by_component()
        assert by_component["shard0"]["tree"].total == 5
        assert by_component["shard1"]["tree"].total == 5
        assert by_component["fabric"]["storage"].total == 1
        # Snapshot semantics: mutating the result leaves the tracer alone.
        by_component["shard0"]["tree"].reads = 0
        assert parent.attributed_totals_by_component()["shard0"][
            "tree"
        ].total == 5


class TestSink:
    def test_streams_jsonl_to_file_object(self):
        sink = io.StringIO()
        tracer = Tracer(sink=sink)
        tracer.event("insert", deltas={"tree": AccessStats(reads=2)}, tag=9)
        tracer.flush()
        record = json.loads(sink.getvalue())
        assert record["kind"] == "insert"
        assert record["deltas"]["tree"] == {"reads": 2, "writes": 0}
        assert record["attrs"]["tag"] == 9

    def test_opens_path_lazily_and_sees_evicted_events(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with Tracer(buffer_size=1, sink=str(path)) as tracer:
            for i in range(4):
                tracer.event("insert", tag=i)
            tracer.flush()
        lines = path.read_text().splitlines()
        assert len(lines) == 4  # the sink saw what the ring evicted
        assert [json.loads(line)["attrs"]["tag"] for line in lines] == [0, 1, 2, 3]

    def test_no_sink_until_first_event(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sink=str(path))
        assert not path.exists()
        tracer.close()


class TestEventRoundTrip:
    def test_to_dict_is_sparse(self):
        event = TraceEvent(seq=0, kind="insert", name="insert")
        assert event.to_dict() == {"seq": 0, "kind": "insert", "name": "insert"}

    def test_from_dict_rebuilds_deltas(self):
        original = TraceEvent(
            seq=3,
            kind="span",
            name="insert_batch",
            span_id=1,
            deltas={"tree": AccessStats(reads=4, writes=2)},
            attrs={"count": 8},
        )
        rebuilt = TraceEvent.from_dict(original.to_dict())
        assert rebuilt == original
        assert rebuilt.delta_reads == 4
        assert rebuilt.delta_writes == 2
        assert rebuilt.delta_total == 6
