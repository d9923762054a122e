"""``python -m repro fabric``: the traced fabric-soak driver."""

import json

from repro.cli import main as cli_main
from repro.fabric.runner import main as runner_main, run_fabric_soak


def test_soak_reconciles_and_reports(tmp_path):
    run = run_fabric_soak(ops=2_000, shards=4, batched=True)
    assert run.reconciled
    assert run.served > 0
    report = run.report()
    assert "fabric soak" in report
    document = run.to_document()
    json.dumps(document)
    assert document["reconciliation"]["exact"] is True
    assert document["fabric"]["shards"] == 4


def test_checkpoint_flow_via_main(tmp_path):
    checkpoint = tmp_path / "fabric.ckpt.json"
    output = tmp_path / "report.json"
    trace = tmp_path / "trace.jsonl"
    status = runner_main(
        [
            "--ops", "2000",
            "--shards", "4",
            "--batched",
            "--monitor",
            "--checkpoint", str(checkpoint),
            "--trace", str(trace),
            "--output", str(output),
            "--format", "json",
        ]
    )
    assert status == 0
    assert checkpoint.exists()
    state = json.loads(checkpoint.read_text().strip())
    assert state["kind"] == "schedule_fabric"
    document = json.loads(output.read_text())
    assert document["checkpoint"]["resumed_match"] is True
    assert document["monitors"]["ok"] is True
    assert document["reconciliation"]["exact"] is True
    assert trace.exists()


def test_cli_dispatches_fabric_subcommand(tmp_path, capsys):
    output = tmp_path / "report.txt"
    status = cli_main(
        ["fabric", "--ops", "500", "--shards", "2", "--output", str(output)]
    )
    assert status == 0
    assert "fabric soak" in output.read_text()


def test_monitor_flags_seeded_fault(tmp_path, monkeypatch):
    """A faulty shard must drive the runner to a nonzero exit."""
    import repro.fabric.runner as runner_module
    from repro.core.sort_retrieve import FaultInjection
    from repro.fabric.fabric import ScheduleFabric

    original_init = ScheduleFabric.__init__

    def faulty_init(self, **kwargs):
        original_init(self, **kwargs)
        self.stores[1].circuit.fault_injection = FaultInjection(
            misreport_serve_offset=-2048
        )

    monkeypatch.setattr(ScheduleFabric, "__init__", faulty_init)
    status = runner_module.main(
        ["--ops", "2000", "--shards", "4", "--monitor",
         "--output", str(tmp_path / "r.txt")]
    )
    assert status == 1


def test_live_plane_over_fabric_soak(tmp_path):
    """--serve over the fabric: endpoints up, serve audit clean."""
    import json as _json
    import urllib.request

    run = run_fabric_soak(
        ops=3000, shards=4, monitor=True, serve_port=0, live_interval=0.05
    )
    assert run.live is not None
    assert run.live["windows"] >= 1
    assert run.live["skipped_ticks"] == 0 or run.live["windows"] > 0
    assert run.auditor is not None
    assert run.auditor.serves > 0
    assert run.auditor.inversions == 0
    # Per-shard watermarks: every shard component was audited.
    components = run.auditor.summary()["components"]
    assert len(components) >= 1
    # The exposition text includes both base and live families.
    text = run.metrics_text()
    assert "repro_live_windows_total" in text
    assert "repro_live_serves_total" in text
    # Server is down after the run.
    port = run.live["port"]
    try:
        urllib.request.urlopen(
            f"http://127.0.0.1:{port}/health", timeout=1
        )
        assert False, "server should be closed"
    except Exception:
        pass


def test_flight_recorder_dumps_on_fabric_fault(tmp_path, monkeypatch):
    """A seeded per-shard fault auto-dumps an analyze-loadable window."""
    import repro.fabric.runner as runner_module
    from repro.core.sort_retrieve import FaultInjection
    from repro.fabric.fabric import ScheduleFabric
    from repro.obs.exporters import read_trace

    original_init = ScheduleFabric.__init__

    def faulty_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self.stores[0].circuit.fault_injection = FaultInjection(
            extra_dequeue_reads=3
        )

    monkeypatch.setattr(ScheduleFabric, "__init__", faulty_init)
    flight_path = tmp_path / "fabric_flight.jsonl"
    run = runner_module.run_fabric_soak(
        ops=1500, shards=2, monitor=True, flight_path=str(flight_path)
    )
    assert run.monitors is not None and not run.monitors.ok
    assert run.flight is not None and run.flight.dumped
    document = read_trace(str(flight_path))
    assert document.header["purpose"] == "flight_recorder"
    assert document.header["trigger"]["monitor"] == "dequeue_bound"
    assert document.footer["emitted"] == len(document.events)


def test_per_shard_attribution_in_document():
    run = run_fabric_soak(ops=1500, shards=3, batched=True)
    document = run.to_document()
    by_component = document["reconciliation"]["by_component"]
    assert {"shard0", "shard1", "shard2"} <= set(by_component)
    # Per-component attribution covers the reconciled grand total.
    assert sum(by_component.values()) == document["reconciliation"]["traced"]
    assert document["reconciliation"]["exact"]
    assert "attribution by shard" in run.report()


def test_labeled_series_in_prometheus_metrics(tmp_path):
    metrics = tmp_path / "metrics.prom"
    status = runner_main(
        [
            "--ops",
            "1200",
            "--shards",
            "3",
            "--batched",
            "--metrics",
            str(metrics),
            "--output",
            str(tmp_path / "report.txt"),
        ]
    )
    assert status == 0
    text = metrics.read_text()
    assert 'repro_events_insert_total{shard="0"}' in text
    # Labeled series sum to the aggregate sample.
    import re

    aggregate = None
    labeled = 0
    for line in text.splitlines():
        match = re.match(r"repro_events_insert_total(\{[^}]*\})? (\d+)", line)
        if not match:
            continue
        if match.group(1):
            labeled += int(match.group(2))
        else:
            aggregate = int(match.group(2))
    assert aggregate is not None and labeled == aggregate


def test_shard_slo_flag_arms_per_shard_rules(tmp_path):
    run = run_fabric_soak(
        ops=1000,
        shards=2,
        serve_port=0,
        live_interval=0.05,
        shard_slo_inversions=0,
    )
    assert run.auditor is not None
    # A clean soak never burns the budget, but the lanes carry the rule.
    status = run.auditor.health_status()
    assert status["shard_breaches"] == {}
    assert not run.auditor.breached
