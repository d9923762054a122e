"""ServeEngine verbs, the asyncio front end, and workload slice parity."""

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.serve import lifecycle
from repro.serve.client import ServeClient, build_script, run_script
from repro.serve.server import (
    ServeConfig,
    ServeEngine,
    WfqServer,
    derive_granularity,
)


def small_config(**overrides):
    base = dict(
        link_rate_bps=1e9,
        shards=4,
        buffer_capacity=512,
        table_capacity=512,
        min_rate_bps=1e6,
    )
    base.update(overrides)
    return ServeConfig(**base)


def opened_engine(config=None, flows=4, rate=2e6):
    engine = ServeEngine(config or small_config())
    for flow in range(flows):
        response = engine.handle_request(
            {"op": "open", "tenant": "t", "flow": flow, "rate_bps": rate}
        )
        assert response["ok"], response
    return engine


class TestDeriveGranularity:
    def test_headroom_rule(self):
        from repro.core.words import PAPER_FORMAT

        granularity = derive_granularity(1e9, 1e6)
        worst = 1500 * 8 / (1e6 / 1e9)
        assert granularity == pytest.approx(
            128 * worst / (PAPER_FORMAT.capacity // 2)
        )

    def test_lighter_floor_coarser_quantum(self):
        assert derive_granularity(1e9, 1e5) > derive_granularity(1e9, 1e6)

    def test_positive_rates_required(self):
        from repro.hwsim.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            derive_granularity(1e9, 0.0)


class TestEngineVerbs:
    def test_hello_reports_link(self):
        engine = ServeEngine(small_config())
        response = engine.handle_request({"op": "hello"})
        assert response["ok"]
        assert response["link_rate_bps"] == 1e9
        assert response["shards"] == 4
        engine.close()

    def test_enqueue_requires_open_session(self):
        engine = ServeEngine(small_config())
        response = engine.handle_request(
            {"op": "enqueue", "flow": 9, "size": 100}
        )
        assert not response["ok"]
        assert "no open session" in response["reason"]
        engine.close()

    def test_enqueue_drain_serves_in_tag_order(self):
        engine = opened_engine()
        for index in range(40):
            assert engine.handle_request(
                {"op": "enqueue", "flow": index % 4, "size": 1000}
            )["ok"]
        response = engine.handle_request({"op": "drain", "count": 40})
        tags = [record["tag"] for record in response["served"]]
        seqs = [record["seq"] for record in response["served"]]
        assert seqs == list(range(40))
        assert tags == sorted(tags)
        assert response["backlog"] == 0
        engine.close()

    def test_equal_weights_serve_fairly(self):
        engine = opened_engine(flows=4)
        for index in range(80):
            engine.handle_request(
                {"op": "enqueue", "flow": index % 4, "size": 1000}
            )
        served = engine.handle_request({"op": "drain", "count": 80})[
            "served"
        ]
        counts = {}
        for record in served:
            counts[record["flow"]] = counts.get(record["flow"], 0) + 1
        assert counts == {0: 20, 1: 20, 2: 20, 3: 20}
        engine.close()

    def test_cancel_then_drain_skips_packet(self):
        engine = opened_engine(flows=1)
        handles = [
            engine.handle_request(
                {"op": "enqueue", "flow": 0, "size": 100 + i}
            )["handle"]
            for i in range(3)
        ]
        assert engine.handle_request(
            {"op": "cancel", "handle": handles[1]}
        )["ok"]
        served = engine.handle_request({"op": "drain", "count": 10})[
            "served"
        ]
        assert [record["size"] for record in served] == [100, 102]
        # A spent handle is gone.
        assert not engine.handle_request(
            {"op": "cancel", "handle": handles[1]}
        )["ok"]
        engine.close()

    def test_reschedule_moves_service_order(self):
        engine = opened_engine(flows=1)
        first = engine.handle_request(
            {"op": "enqueue", "flow": 0, "size": 100}
        )
        second = engine.handle_request(
            {"op": "enqueue", "flow": 0, "size": 200}
        )
        # Push the first packet far behind the second.
        moved = engine.handle_request(
            {
                "op": "reschedule",
                "handle": first["handle"],
                "tag": second["tag"] + 64 * engine.granularity,
            }
        )
        assert moved["ok"]
        served = engine.handle_request({"op": "drain", "count": 2})[
            "served"
        ]
        assert [record["size"] for record in served] == [200, 100]
        engine.close()

    def test_reschedule_span_reject_keeps_entry_live(self):
        engine = opened_engine(flows=1)
        handle = engine.handle_request(
            {"op": "enqueue", "flow": 0, "size": 100}
        )["handle"]
        response = engine.handle_request(
            {
                "op": "reschedule",
                "handle": handle,
                "tag": engine.granularity * 10_000_000.0,
            }
        )
        assert not response["ok"]
        # The packet is still queued and still cancellable.
        assert engine.handle_request({"op": "cancel", "handle": handle})[
            "ok"
        ]
        engine.close()

    def test_backpressure_rejects_at_threshold(self):
        engine = opened_engine(
            small_config(
                buffer_capacity=64,
                mark_fraction=0.5,
                reject_fraction=0.75,
            ),
            flows=1,
        )
        marked = rejected = 0
        for _ in range(64):
            response = engine.handle_request(
                {"op": "enqueue", "flow": 0, "size": 100}
            )
            if not response["ok"]:
                rejected += 1
                assert response["ecn"]
            elif response["ecn"]:
                marked += 1
        assert rejected == 16  # 64 - 48 reject threshold
        assert marked > 0
        assert engine.counters["backpressure_rejected"] == 16
        engine.close()

    def test_close_refused_while_backlogged_then_allowed(self):
        engine = opened_engine(flows=1)
        engine.handle_request({"op": "enqueue", "flow": 0, "size": 100})
        refused = engine.handle_request({"op": "close", "flow": 0})
        assert not refused["ok"]
        engine.handle_request({"op": "drain", "count": 1})
        closed = engine.handle_request({"op": "close", "flow": 0})
        assert closed["ok"]
        assert closed["served"] == 1
        engine.close()

    def test_validation_errors_are_responses(self):
        engine = ServeEngine(small_config())
        response = engine.handle_request({"op": "warp", "id": 3})
        assert not response["ok"]
        assert response["id"] == 3
        assert engine.counters["errors"] == 1
        engine.close()

    def test_negative_flow_is_rejected_without_leaking_a_slot(self):
        """A negative flow id is a validation error on every verb that
        names a flow: no rate is committed and no buffer slot is held."""
        engine = ServeEngine(small_config())
        for request in (
            {"op": "open", "tenant": "t", "flow": -5, "rate_bps": 2e6},
            {"op": "enqueue", "flow": -5, "size": 100},
            {"op": "enqueue", "flow": -5, "size": 100},
            {"op": "close", "flow": -5},
        ):
            response = engine.handle_request(request)
            assert not response["ok"]
            assert "'flow'" in response["reason"]
        stats = engine.stats()
        assert stats["buffer"]["occupancy"] == 0
        assert stats["admission"]["committed_rate_bps"] == 0
        assert engine.counters["errors"] == 4
        engine.close()

    def test_stats_document_shape(self):
        engine = opened_engine()
        stats = engine.handle_request({"op": "stats"})["stats"]
        for key in (
            "vnow",
            "served_seq",
            "counters",
            "sessions",
            "admission",
            "buffer",
            "backpressure",
            "fabric",
            "table",
        ):
            assert key in stats
        json.dumps(stats)
        engine.close()


class TestWorkloadParity:
    """The client's deterministic script is slice-safe: running it in
    one piece or split across a snapshot/restore boundary produces the
    same service stream."""

    class EngineClient:
        """ServeClient look-alike driving an engine in process."""

        def __init__(self, engine):
            self.engine = engine

        def hello(self):
            return self.engine.handle_request({"op": "hello"})

        def open_flow(self, tenant, flow, rate_bps, **optional):
            message = {
                "op": "open",
                "tenant": tenant,
                "flow": flow,
                "rate_bps": rate_bps,
            }
            message.update(optional)
            return self.engine.handle_request(message)

        def enqueue(self, flow, size):
            return self.engine.handle_request(
                {"op": "enqueue", "flow": flow, "size": size}
            )

        def cancel(self, handle):
            return self.engine.handle_request(
                {"op": "cancel", "handle": handle}
            )

        def reschedule(self, handle, tag):
            return self.engine.handle_request(
                {"op": "reschedule", "handle": handle, "tag": tag}
            )

        def drain(self, count):
            return self.engine.handle_request(
                {"op": "drain", "count": count}
            )

    def test_split_run_matches_uninterrupted_run(self):
        script = build_script(seed=7, flows=16, tenants=3, ops=400)
        config = small_config(serve_log=None)

        reference = ServeEngine(config)
        run_script(self.EngineClient(reference), script)
        reference_tail = reference.handle_request(
            {"op": "drain", "count": 10_000}
        )["served"]

        # Interrupted: half the script, snapshot, restore, the rest.
        first = ServeEngine(small_config())
        run_script(self.EngineClient(first), script, stop=250)
        state = json.loads(json.dumps(lifecycle.capture_state(first)))
        first.close()
        resumed = ServeEngine(small_config())
        lifecycle.restore_state(resumed, state)
        run_script(self.EngineClient(resumed), script, start=250)
        resumed_tail = resumed.handle_request(
            {"op": "drain", "count": 10_000}
        )["served"]

        assert resumed_tail == reference_tail
        assert resumed.served_seq == reference.served_seq
        # Everything but the raw request count (the resumed client sends
        # its own hello) must match exactly.
        reference_stats = reference.stats()
        resumed_stats = resumed.stats()
        reference_stats["counters"].pop("requests")
        resumed_stats["counters"].pop("requests")
        assert resumed_stats == reference_stats
        reference.close()
        resumed.close()

    def test_build_script_is_deterministic(self):
        kwargs = dict(seed=3, flows=8, tenants=2, ops=100)
        assert build_script(**kwargs) == build_script(**kwargs)
        assert build_script(**{**kwargs, "seed": 4}) != build_script(
            **kwargs
        )


class TestAsyncioServer:
    def _serve_in_thread(self, engine):
        server = WfqServer(engine)
        done = threading.Event()
        result = {}

        def runner():
            result["status"] = asyncio.run(server.serve())
            done.set()

        thread = threading.Thread(target=runner, daemon=True)
        thread.start()
        deadline = time.monotonic() + 10
        while server.port is None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.port is not None, "server did not come up"
        return server, done, result

    def test_tcp_roundtrip_and_shutdown(self, tmp_path):
        config = small_config(
            snapshot_path=str(tmp_path / "snap.json"),
            serve_log=str(tmp_path / "serve.jsonl"),
        )
        engine = ServeEngine(config)
        server, done, result = self._serve_in_thread(engine)
        with ServeClient("127.0.0.1", server.port, retries=10) as client:
            assert client.hello()["ok"]
            assert client.open_flow("acme", 1, 2e6)["admitted"]
            handles = [
                client.enqueue(1, 100 + index)["handle"]
                for index in range(5)
            ]
            assert client.cancel(handles[0])["ok"]
            served = client.drain(10)["served"]
            assert [record["size"] for record in served] == [
                101,
                102,
                103,
                104,
            ]
            stats = client.stats()["stats"]
            assert stats["sessions"]["open"] == 1
            assert client.snapshot()["ok"]
            assert client.shutdown()["ok"]
        assert done.wait(10)
        assert result["status"] == 0
        # Shutdown wrote the final snapshot and the serve log.
        state = lifecycle.read_snapshot(config.snapshot_path)
        assert state["served_seq"] == 4
        with open(config.serve_log, encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle]
        assert [line["seq"] for line in lines] == [0, 1, 2, 3]

    def test_malformed_line_gets_error_response(self):
        engine = ServeEngine(small_config())
        server, done, _ = self._serve_in_thread(engine)
        import socket

        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as sock:
            sock.sendall(b"{nope\n")
            response = json.loads(sock.makefile().readline())
            assert not response["ok"]
            assert "malformed" in response["reason"]
            sock.sendall(b'{"op":"shutdown"}\n')
            sock.makefile().readline()
        assert done.wait(10)

    def _connect(self, server):
        sock = socket.create_connection(("127.0.0.1", server.port), timeout=10)
        return sock, sock.makefile("rb")

    def _shutdown(self, sock, reader, done):
        sock.sendall(b'{"op":"shutdown"}\n')
        assert json.loads(reader.readline())["ok"]
        assert done.wait(10)
        reader.close()
        sock.close()

    def test_nan_rate_open_is_an_error_response(self):
        engine = ServeEngine(small_config())
        server, done, result = self._serve_in_thread(engine)
        sock, reader = self._connect(server)
        sock.sendall(
            b'{"op":"open","tenant":"t","flow":1,"rate_bps":NaN,"id":1}\n'
        )
        response = json.loads(reader.readline())
        assert response == {
            "ok": False,
            "id": 1,
            "reason": "open: field 'rate_bps' has an invalid value",
        }
        # Nothing leaked: the same flow opens cleanly on the same socket.
        sock.sendall(
            b'{"op":"open","tenant":"t","flow":1,"rate_bps":2e6,"id":2}\n'
        )
        assert json.loads(reader.readline())["admitted"]
        assert engine.admission.admitted_count == engine.sessions.count == 1
        self._shutdown(sock, reader, done)
        assert result["status"] == 0

    @pytest.mark.parametrize("chunk", [None, 4096])
    def test_overlong_line_gets_one_error_and_connection_survives(
        self, chunk
    ):
        from repro.serve.server import MAX_LINE_BYTES

        engine = ServeEngine(small_config())
        server, done, _ = self._serve_in_thread(engine)
        sock, reader = self._connect(server)
        line = b'{"op":"hello","pad":"' + b"x" * (70 * 1024) + b'"}\n'
        assert len(line) > MAX_LINE_BYTES
        if chunk is None:
            sock.sendall(line)
        else:
            # Dribbled in small writes: the limit trips mid-line and the
            # rest must be discarded across later reads.
            for start in range(0, len(line), chunk):
                sock.sendall(line[start:start + chunk])
                time.sleep(0.001)
        sock.sendall(b'{"op":"hello","id":"after"}\n')
        error = json.loads(reader.readline())
        assert not error["ok"]
        assert str(MAX_LINE_BYTES) in error["reason"]
        hello = json.loads(reader.readline())
        assert hello["ok"] and hello["id"] == "after"
        self._shutdown(sock, reader, done)

    def test_engine_fault_is_an_error_response(self, monkeypatch):
        engine = ServeEngine(small_config())

        def broken(request):
            raise ValueError("boom")

        monkeypatch.setitem(engine._dispatch, "stats", broken)
        server, done, _ = self._serve_in_thread(engine)
        sock, reader = self._connect(server)
        sock.sendall(b'{"op":"stats","id":3}\n')
        response = json.loads(reader.readline())
        assert not response["ok"] and response["id"] == 3
        assert "boom" in response["reason"]
        sock.sendall(b'{"op":"hello"}\n')
        assert json.loads(reader.readline())["ok"]
        self._shutdown(sock, reader, done)

    def test_pipelined_lines_answer_in_order(self):
        engine = ServeEngine(small_config())
        server, done, _ = self._serve_in_thread(engine)
        sock, reader = self._connect(server)
        sock.sendall(
            b"".join(
                b'{"op":"hello","id":%d}\r\n\n' % index for index in range(20)
            )
        )
        ids = [json.loads(reader.readline())["id"] for _ in range(20)]
        assert ids == list(range(20))
        self._shutdown(sock, reader, done)

    def test_unterminated_last_line_is_answered_at_eof(self):
        engine = ServeEngine(small_config())
        server, done, _ = self._serve_in_thread(engine)
        sock, reader = self._connect(server)
        sock.sendall(b'{"op":"hello","id":5}')
        sock.shutdown(socket.SHUT_WR)
        assert json.loads(reader.readline())["id"] == 5
        assert reader.readline() == b""
        reader.close()
        sock.close()
        self._shutdown(*self._connect(server), done)

    def test_paced_drain_serves_without_client_drains(self, tmp_path):
        config = small_config(
            drain_mode="paced",
            serve_log=str(tmp_path / "serve.jsonl"),
        )
        engine = ServeEngine(config)
        server, done, _ = self._serve_in_thread(engine)
        with ServeClient("127.0.0.1", server.port, retries=10) as client:
            client.open_flow("acme", 1, 2e6)
            for index in range(20):
                client.enqueue(1, 1000)
            deadline = time.monotonic() + 10
            backlog = 20
            while backlog and time.monotonic() < deadline:
                backlog = client.stats()["stats"]["fabric"]["backlog"]
                time.sleep(0.05)
            assert backlog == 0
            client.shutdown()
        assert done.wait(10)
