"""Snapshots: exact capture/restore and the continued-service proof."""

import json
import os

import pytest

from repro.hwsim.errors import ConfigurationError
from repro.serve import lifecycle
from repro.serve.server import ServeConfig, ServeEngine, main as serve_main


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


def loaded_engine(config=None, flows=8, enqueues=120, drains=40):
    engine = ServeEngine(config or small_config())
    for flow in range(flows):
        engine.handle_request(
            {
                "op": "open",
                "tenant": f"t{flow % 3}",
                "flow": flow,
                "rate_bps": 2e6 + flow,
            }
        )
    for index in range(enqueues):
        engine.handle_request(
            {
                "op": "enqueue",
                "flow": index % flows,
                "size": 64 + index % 1400,
            }
        )
    engine.handle_request({"op": "drain", "count": drains})
    return engine


class TestCaptureRestore:
    def test_snapshot_is_json_serializable(self):
        engine = loaded_engine()
        state = lifecycle.capture_state(engine)
        json.dumps(state)
        engine.close()

    def test_restored_engine_continues_identical_service(self):
        """The provable guarantee: snapshot → restore → identical order."""
        engine = loaded_engine()
        state = json.loads(json.dumps(lifecycle.capture_state(engine)))
        fresh = ServeEngine(small_config())
        lifecycle.restore_state(fresh, state)
        # Continue BOTH engines with the same mixed tail and compare
        # every response — service order, tags, handles, stats.
        tail = []
        for index in range(60):
            tail.append(
                {"op": "enqueue", "flow": index % 8, "size": 500 + index}
            )
            if index % 7 == 0:
                tail.append({"op": "drain", "count": 5})
        tail.append({"op": "drain", "count": 10_000})
        for request in tail:
            assert engine.handle_request(request) == fresh.handle_request(
                request
            )
        assert engine.served_seq == fresh.served_seq
        assert engine.stats() == fresh.stats()
        engine.close()
        fresh.close()

    def test_restore_rejects_config_mismatch(self):
        engine = loaded_engine()
        state = lifecycle.capture_state(engine)
        other = ServeEngine(small_config(shards=2))
        with pytest.raises(ConfigurationError):
            lifecycle.restore_state(other, state)
        engine.close()
        other.close()

    def test_restore_rejects_wrong_kind(self):
        engine = ServeEngine(small_config())
        with pytest.raises(ConfigurationError):
            lifecycle.restore_state(engine, {"kind": "other"})
        engine.close()

    def test_token_ledger_survives(self):
        engine = ServeEngine(small_config())
        engine.handle_request(
            {"op": "open", "tenant": "t", "flow": 1, "rate_bps": 2e6}
        )
        tokens = [
            engine.handle_request(
                {"op": "enqueue", "flow": 1, "size": 100 + i}
            )["handle"]
            for i in range(5)
        ]
        state = json.loads(json.dumps(lifecycle.capture_state(engine)))
        fresh = ServeEngine(small_config())
        lifecycle.restore_state(fresh, state)
        # A pre-snapshot handle cancels post-restore.
        response = fresh.handle_request(
            {"op": "cancel", "handle": tokens[2]}
        )
        assert response["ok"]
        assert response["flow"] == 1
        engine.close()
        fresh.close()


class TestDiskFormat:
    def test_write_read_roundtrip(self, tmp_path):
        engine = loaded_engine()
        path = str(tmp_path / "snap.json")
        state = lifecycle.capture_state(engine)
        lifecycle.write_snapshot(path, state)
        assert lifecycle.read_snapshot(path) == json.loads(
            json.dumps(state)
        )
        engine.close()

    def test_write_is_atomic_replace(self, tmp_path):
        engine = loaded_engine()
        path = str(tmp_path / "snap.json")
        lifecycle.write_snapshot(path, lifecycle.capture_state(engine))
        first = os.stat(path).st_ino
        lifecycle.write_snapshot(path, lifecycle.capture_state(engine))
        assert os.stat(path).st_ino != first  # replaced, not rewritten
        assert not [
            name
            for name in os.listdir(str(tmp_path))
            if name.startswith(".serve-snapshot-")
        ]
        engine.close()

    def test_read_rejects_non_snapshot(self, tmp_path):
        path = str(tmp_path / "other.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"kind": "other"}, handle)
        with pytest.raises(ConfigurationError):
            lifecycle.read_snapshot(path)


    def test_read_rejects_truncated_snapshot(self, tmp_path):
        engine = loaded_engine()
        path = str(tmp_path / "snap.json")
        lifecycle.write_snapshot(path, lifecycle.capture_state(engine))
        engine.close()
        with open(path, "r+", encoding="utf-8") as handle:
            handle.truncate(os.path.getsize(path) // 2)
        with pytest.raises(ConfigurationError):
            lifecycle.read_snapshot(path)


class TestRestoreCommand:
    """``repro serve --restore`` on a bad file: one clean error line and
    a non-zero exit, never a traceback."""

    def restore_fails(self, path, capsys):
        status = serve_main(["--port", "0", "--restore", path])
        err = capsys.readouterr().err
        assert status != 0
        assert err.startswith("repro serve: cannot restore:")
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_truncated_file(self, tmp_path, capsys):
        path = tmp_path / "snap.json"
        path.write_text('{"kind": "serve_snapshot", "config": {"link_r')
        self.restore_fails(str(path), capsys)

    def test_missing_config_fields(self, tmp_path, capsys):
        path = tmp_path / "snap.json"
        path.write_text(json.dumps({"kind": "serve_snapshot", "config": {}}))
        self.restore_fails(str(path), capsys)

    def test_missing_component_records(self, tmp_path, capsys):
        engine = loaded_engine()
        state = lifecycle.capture_state(engine)
        engine.close()
        del state["system"]
        path = tmp_path / "snap.json"
        path.write_text(json.dumps(state))
        self.restore_fails(str(path), capsys)

    def test_missing_file(self, tmp_path, capsys):
        self.restore_fails(str(tmp_path / "absent.json"), capsys)


def test_snapshot_with_workers_field_restores_identically():
    """Snapshots written while the config still froze a ``workers``
    count restore in process and continue with identical service."""
    engine = loaded_engine()
    state = json.loads(json.dumps(lifecycle.capture_state(engine)))
    state["config"]["workers"] = 2
    config = small_config()
    config.adopt_scheduling_fields(state["config"])
    fresh = ServeEngine(config)
    fresh.restore(state)
    tail = [
        {"op": "enqueue", "flow": index % 8, "size": 300 + index}
        for index in range(40)
    ]
    tail.append({"op": "drain", "count": 10_000})
    for request in tail:
        assert engine.handle_request(request) == fresh.handle_request(
            request
        )
    engine.close()
    fresh.close()


class TestSnapshotPolicy:
    def test_zero_interval_never_due(self):
        policy = lifecycle.SnapshotPolicy(0)
        assert not any(policy.due() for _ in range(100))

    def test_fires_every_interval(self):
        policy = lifecycle.SnapshotPolicy(10)
        fired = [index for index in range(35) if policy.due()]
        assert fired == [9, 19, 29]

    def test_negative_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            lifecycle.SnapshotPolicy(-1)
