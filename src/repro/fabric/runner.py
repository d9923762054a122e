"""Fabric-soak driver: the machinery behind ``python -m repro fabric``.

Runs the bench harness's flow-attributed mixed workload (the same
generator the fabric benchmark phase times) through a
:class:`~repro.fabric.fabric.ScheduleFabric` with a live
:class:`~repro.obs.tracer.Tracer` attached, and verifies the telemetry
acceptance invariant *across shards*: the summed per-structure deltas of
the event stream reconcile exactly with the per-structure totals summed
over every shard's ``StatsRegistry``.

Beyond the :mod:`repro.obs.runner` contract it adds the fabric-specific
switches: ``--shards``/``--flows`` shape the partition, ``--monitor``
screens the interleaved multi-store trace through the per-component
invariant monitors, and ``--checkpoint FILE`` snapshots the whole fabric
mid-soak, restores a second fabric from the JSON file, and replays the
remaining operations on both — the run fails unless the service
sequences match element for element.

Kept out of :mod:`repro.fabric`'s eager imports (it pulls in the bench
layer) — the CLI imports it lazily.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..bench.perf import _drive_batched, _drive_per_op, make_flow_ops
from ..core.engine import VALID_MODES, resolve_mode
from ..hwsim.stats import AccessStats
from ..obs.events import build_trace_header
from ..obs.exporters import prometheus_snapshot, run_report
from ..obs.flight import FlightRecorder
from ..obs.instruments import InstrumentSet
from ..obs.live import LivePlane
from ..obs.monitors import MonitorConfig, MonitorSuite
from ..obs.probes import StandardProbes
from ..obs.slo import ServeStreamAuditor, SloRule
from ..obs.tracer import Tracer
from .fabric import ScheduleFabric


@dataclass
class FabricRun:
    """Everything a traced fabric soak produced."""

    tracer: Tracer
    fabric: ScheduleFabric
    instruments: InstrumentSet
    ops: int
    seed: int
    batched: bool
    served: int
    monitors: Optional[MonitorSuite] = None
    checkpoint: Optional[Dict] = None
    live: Optional[Dict] = None
    live_instruments: Optional[InstrumentSet] = None
    flight: Optional[FlightRecorder] = None
    auditor: Optional[ServeStreamAuditor] = None

    @property
    def event_counts(self) -> Dict[str, int]:
        """Events emitted per kind (from the probe counters, so exact
        even after ring-buffer eviction)."""
        counts: Dict[str, int] = {}
        prefix = "events_"
        for name in self.instruments.names():
            if name.startswith(prefix):
                counts[name[len(prefix):]] = self.instruments.counter(name).value
        return counts

    @property
    def registry_totals(self) -> Dict[str, AccessStats]:
        """Per-structure access totals summed over every shard.

        Structure names collide across shards by design (every shard is
        the same circuit), and the tracer's attribution sums the same
        way — per name, over all components — so these are the
        reconciliation reference.
        """
        totals: Dict[str, AccessStats] = {}
        for store in self.fabric.stores:
            registry = store.circuit.registry
            for name in registry.names():
                stats = registry[name]
                merged = totals.setdefault(name, AccessStats())
                merged.record_bulk(reads=stats.reads, writes=stats.writes)
        return totals

    @property
    def reconciliation(self) -> Dict[str, int]:
        """Traced-vs-registry access totals (equal on a correct trace)."""
        return {
            "traced": self.tracer.attributed_grand_total().total,
            "registry": sum(
                stats.total for stats in self.registry_totals.values()
            ),
        }

    @property
    def attribution_by_component(self) -> Dict[str, int]:
        """Attributed access totals per component stamp (``shard0``,
        ``shard1``, ...) — the skew-attribution view of the same ledger
        :attr:`reconciliation` checks in aggregate."""
        return {
            component: sum(stats.total for stats in totals.values())
            for component, totals in sorted(
                self.tracer.attributed_totals_by_component().items()
            )
        }

    @property
    def reconciled(self) -> bool:
        """True when every shard-registry access is attributed to an
        event."""
        traced = self.tracer.attributed_totals()
        for name, stats in self.registry_totals.items():
            mine = traced.get(name)
            got = (mine.reads, mine.writes) if mine else (0, 0)
            if got != (stats.reads, stats.writes):
                return False
        return True

    def report(self) -> str:
        """The human-readable run report."""
        mode = "batched fast-mode" if self.batched else "per-op"
        manager = self.fabric.manager
        notes = [
            f"tracer: {self.tracer.emitted} events emitted, "
            f"{self.tracer.dropped} evicted from the ring buffer",
            f"fabric: occupancies {self.fabric.occupancies()}, "
            f"{manager.spill_count} spills, "
            f"{manager.rebalance_count} rebalances "
            f"({manager.flows_moved} flows moved), "
            f"{self.fabric.tournament.comparisons} tournament comparisons",
        ]
        by_component = self.attribution_by_component
        if by_component:
            parts = ", ".join(
                f"{component}={total}"
                for component, total in by_component.items()
            )
            notes.append(f"attribution by shard: {parts}")
        if self.checkpoint is not None:
            verdict = (
                "identical"
                if self.checkpoint["resumed_match"]
                else "DIVERGED"
            )
            notes.append(
                f"checkpoint: snapshot at op "
                f"{self.checkpoint['ops_at_checkpoint']} -> "
                f"{self.checkpoint['path']}; restored replay {verdict} "
                f"over {self.checkpoint['resumed_ops']} ops"
            )
        if self.monitors is not None:
            notes.append(self.monitors.summary())
        if self.live is not None:
            port = self.live.get("port")
            served_at = f" on port {port}" if port else ""
            notes.append(
                f"live plane{served_at}: {self.live['windows']} windows "
                f"({self.live['skipped_ticks']} skipped), "
                f"{self.live['uptime_seconds']}s up"
            )
            watchdog = self.live.get("watchdog")
            if watchdog and watchdog["stall_count"]:
                notes.append(
                    f"watchdog: {watchdog['stall_count']} stall(s) "
                    f"declared (timeout {watchdog['timeout']}s)"
                )
        if self.auditor is not None:
            audit = self.auditor.summary()
            culprit = audit.get("culprit_shard")
            culprit_note = f" (worst shard: {culprit})" if culprit else ""
            notes.append(
                f"serve audit: {audit['serves']} serves, "
                f"{audit['inversions']} rank inversions{culprit_note}"
            )
        if self.flight is not None and self.flight.dumped:
            trigger = self.flight.summary()["trigger"] or {}
            notes.append(
                f"flight recorder: dumped {self.flight.path} around "
                f"{trigger.get('monitor') or trigger.get('kind')}"
            )
        return run_report(
            title=(
                f"fabric soak: {self.ops} ops over {self.fabric.shards} "
                f"shard(s) ({mode}), seed {self.seed}"
            ),
            totals=self.registry_totals,
            instruments=self.instruments,
            event_counts=self.event_counts,
            reconciliation=self.reconciliation,
            dropped=self.tracer.dropped,
            notes=notes,
        )

    def to_document(self) -> Dict:
        """The JSON-format report (one output convention with the
        artifact CLI's ``--format json``)."""
        manager = self.fabric.manager
        return {
            "workload": {
                "ops": self.ops,
                "seed": self.seed,
                "mode": "batched" if self.batched else "per_op",
                "granularity": self.fabric.granularity,
                "served": self.served,
            },
            "fabric": {
                "shards": self.fabric.shards,
                "occupancies": self.fabric.occupancies(),
                "pushes": self.fabric.pushes,
                "pops": self.fabric.pops,
                "spills": manager.spill_count,
                "rebalances": manager.rebalance_count,
                "flows_moved": manager.flows_moved,
                "tournament_comparisons": self.fabric.tournament.comparisons,
                "cycles_makespan": self.fabric.cycles,
                "cycles_total": self.fabric.cycles_total,
            },
            "totals": {
                name: stats.to_dict()
                for name, stats in self.registry_totals.items()
            },
            "event_counts": self.event_counts,
            "instruments": self.instruments.summaries(),
            "reconciliation": {
                **self.reconciliation,
                "exact": self.reconciled,
                "by_component": self.attribution_by_component,
            },
            "tracer": {
                "emitted": self.tracer.emitted,
                "dropped": self.tracer.dropped,
            },
            "checkpoint": self.checkpoint,
            "monitors": (
                None
                if self.monitors is None
                else {
                    "checked": self.monitors.checked,
                    "ok": self.monitors.ok,
                    "violations": [
                        violation.to_dict()
                        for violation in self.monitors.violations
                    ],
                }
            ),
            "live": self.live,
            "serve_audit": (
                None if self.auditor is None else self.auditor.summary()
            ),
            "flight": (
                None if self.flight is None else self.flight.summary()
            ),
        }

    def metrics_text(self) -> str:
        """Prometheus exposition: run instruments plus live rollups."""
        text = prometheus_snapshot(self.instruments)
        if self.live_instruments is not None:
            text += prometheus_snapshot(self.live_instruments)
        return text


def run_fabric_soak(
    *,
    ops: int = 10_000,
    seed: int = 20060101,
    shards: int = 4,
    flows: int = 256,
    granularity: float = 8.0,
    batched: bool = False,
    mode: Optional[str] = None,
    trace_sink: Optional[str] = None,
    buffer_size: int = 65536,
    monitor: bool = False,
    checkpoint_path: Optional[str] = None,
    serve_port: Optional[int] = None,
    serve_host: str = "127.0.0.1",
    serve_linger: float = 0.0,
    live_interval: float = 0.5,
    watchdog_timeout: Optional[float] = None,
    flight_path: Optional[str] = None,
    shard_slo_inversions: Optional[int] = None,
) -> FabricRun:
    """Drive a traced fabric soak and return its telemetry.

    ``batched=True`` exercises the coalesced paths (grouped per-shard
    inserts, fence-bounded tournament drains).  ``monitor=True`` screens
    the interleaved multi-store event stream through the per-component
    invariant monitors (every shard's config is identical, so shard 0's
    circuit parameterizes the suite).

    ``checkpoint_path`` splits the soak in half: the fabric is
    snapshotted to that file mid-run, a second fabric is restored from
    the JSON on disk, and both serve the remaining operations — the
    returned run's ``checkpoint["resumed_match"]`` records whether the
    two service sequences were identical (the restore-fidelity
    acceptance check, and the mechanism shard migration relies on).

    ``serve_port`` attaches the live observability plane: the windowed
    collector plus HTTP ``/metrics`` / ``/health`` / ``/snapshot``
    while the soak runs, and the tag-domain serve auditor.  The
    collector sees each shard's occupancy and the per-shard labeled
    counters, so the scrape carries ``repro_live_*{shard="N"}`` series
    plus the fleet-skew gauges.  ``shard_slo_inversions`` arms a
    per-shard inversion-budget SLO rule on top of the auditor: any
    single shard exceeding that many rank inversions flips ``/health``
    to a breach attributed to the culprit shard.
    ``watchdog_timeout`` arms a progress watchdog — when the
    summed-registry progress reading stops, the collector thread
    declares the stall (no per-op heartbeat on the hot path).
    ``flight_path`` arms the flight recorder.
    """
    mode = resolve_mode(mode)
    probes = StandardProbes()
    tracer = Tracer(
        buffer_size=buffer_size, sink=trace_sink, observers=[probes]
    )
    fabric = ScheduleFabric(
        shards=shards,
        granularity=granularity,
        fast_mode=batched,
        mode=mode,
        tracer=tracer,
    )
    tracer.write_header(
        build_trace_header(
            seed=seed,
            mode="batched" if batched else "per_op",
            config=fabric.describe(),
            ops=ops,
            buffer_size=buffer_size,
            engine=mode,
        )
    )
    suite: Optional[MonitorSuite] = None
    if monitor:
        suite = MonitorSuite.for_circuit(
            fabric.stores[0].circuit, tracer=tracer
        )
        tracer.add_observer(suite)

    flight: Optional[FlightRecorder] = None
    if flight_path is not None:
        flight = FlightRecorder(flight_path, header=tracer.header)
        flight.attach(tracer)
    auditor: Optional[ServeStreamAuditor] = None
    plane: Optional[LivePlane] = None
    if serve_port is not None:
        monitor_config = MonitorConfig.from_circuit_config(
            fabric.stores[0].describe()
        )
        shard_rules = ()
        if shard_slo_inversions is not None:
            shard_rules = (
                SloRule(
                    name="shard_inversion_budget",
                    metric="inversions",
                    limit=float(shard_slo_inversions),
                ),
            )
        auditor = ServeStreamAuditor(
            instruments=probes.instruments,
            modular=monitor_config.modular,
            tag_space=monitor_config.tag_space,
            shard_rules=shard_rules,
        )
        tracer.add_observer(
            auditor, kinds=ServeStreamAuditor.OBSERVED_KINDS
        )
        stores = fabric.stores

        def fabric_progress() -> float:
            return float(
                sum(
                    store.circuit.registry.total().total
                    for store in stores
                )
            )

        plane = LivePlane(
            instruments=probes.instruments,
            progress=fabric_progress,
            occupancy=lambda: sum(fabric.occupancies()),
            shard_occupancies=fabric.occupancies,
            free_list_depth=lambda: sum(
                store.circuit.free_list_depth for store in stores
            ),
            monitors=suite,
            tracer=tracer,
            flight=flight,
            auditor=auditor,
            serve_port=serve_port,
            serve_host=serve_host,
            interval=live_interval,
            watchdog_timeout=watchdog_timeout,
            extra_status=lambda: {
                "fabric": {
                    "shards": fabric.shards,
                    "pushes": fabric.pushes,
                    "pops": fabric.pops,
                }
            },
        )
        plane.start()

    stream = make_flow_ops(ops, seed, flows=flows)
    drive = _drive_batched if batched else _drive_per_op
    checkpoint_doc: Optional[Dict] = None
    live_summary: Optional[Dict] = None
    try:
        if checkpoint_path:
            split = len(stream) // 2
            served = drive(fabric, stream[:split])
            state = fabric.to_state()
            with open(checkpoint_path, "w", encoding="utf-8") as handle:
                json.dump(state, handle)
                handle.write("\n")
            with open(checkpoint_path, "r", encoding="utf-8") as handle:
                restored = ScheduleFabric.from_state(json.load(handle))
            tail = stream[split:]
            resumed = drive(fabric, tail)
            served.extend(resumed)
            replayed = drive(restored, tail)
            checkpoint_doc = {
                "path": checkpoint_path,
                "ops_at_checkpoint": split,
                "resumed_ops": len(tail),
                "resumed_match": replayed == resumed,
            }
        else:
            served = drive(fabric, stream)
    finally:
        if plane is not None:
            if serve_linger > 0:
                time.sleep(serve_linger)
            live_summary = plane.finish()
        tracer.flush()
        tracer.close()
        if flight is not None:
            flight.close()
    return FabricRun(
        tracer=tracer,
        fabric=fabric,
        instruments=probes.instruments,
        ops=ops,
        seed=seed,
        batched=batched,
        served=len(served),
        monitors=suite,
        checkpoint=checkpoint_doc,
        live=live_summary,
        live_instruments=(
            plane.collector.live if plane is not None else None
        ),
        flight=flight,
        auditor=auditor,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro fabric",
        description=(
            "Run a traced mixed soak through the sharded scheduling "
            "fabric and export its telemetry (JSONL trace, metrics, "
            "run report, optional mid-run checkpoint/restore check)."
        ),
    )
    parser.add_argument(
        "--shards", type=int, default=4, help="independent circuits"
    )
    parser.add_argument(
        "--ops", type=int, default=10_000, help="operations in the soak"
    )
    parser.add_argument(
        "--seed", type=int, default=20060101, help="workload seed"
    )
    parser.add_argument(
        "--flows",
        type=int,
        default=256,
        help="flow-id population the workload draws from",
    )
    parser.add_argument(
        "--granularity", type=float, default=8.0, help="tag quantum"
    )
    parser.add_argument(
        "--batched",
        action="store_true",
        help="use the coalesced paths (grouped inserts, fenced drains)",
    )
    parser.add_argument(
        "--mode",
        choices=tuple(VALID_MODES),
        default=None,
        help="shard circuit engine (gate/turbo/vector)",
    )
    parser.add_argument(
        "--trace", metavar="FILE", help="stream the JSONL event trace here"
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        help="write a Prometheus-style metrics snapshot here",
    )
    parser.add_argument(
        "--checkpoint",
        metavar="FILE",
        help=(
            "snapshot the fabric to this JSON file mid-soak, restore a "
            "second fabric from it, replay the rest on both, and exit 1 "
            "unless the service sequences match"
        ),
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="write the run report here (default: stdout)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "prometheus"),
        default="text",
        help="run-report format",
    )
    parser.add_argument(
        "--buffer-size",
        type=int,
        default=65536,
        help="tracer ring-buffer capacity",
    )
    parser.add_argument(
        "--monitor",
        action="store_true",
        help=(
            "screen every event through the per-component invariant "
            "monitors; exit 1 on any violated fabric guarantee"
        ),
    )
    parser.add_argument(
        "--serve",
        type=int,
        metavar="PORT",
        help=(
            "serve /metrics /health /snapshot on this port while the "
            "soak runs (0 = ephemeral port)"
        ),
    )
    parser.add_argument(
        "--serve-host",
        default="127.0.0.1",
        help="bind address for --serve (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--serve-linger",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="keep the endpoints up this long after the soak finishes",
    )
    parser.add_argument(
        "--live-interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="windowed-collector rollup interval",
    )
    parser.add_argument(
        "--shard-slo-inversions",
        type=int,
        metavar="N",
        help=(
            "per-shard SLO: flag /health as breached (with the culprit "
            "shard) when any single shard exceeds N rank inversions "
            "(needs --serve)"
        ),
    )
    parser.add_argument(
        "--watchdog",
        type=float,
        metavar="SECONDS",
        help=(
            "declare a stall when the summed per-shard progress "
            "reading stops for this long"
        ),
    )
    parser.add_argument(
        "--flight",
        metavar="FILE",
        help=(
            "arm the flight recorder: auto-dump an analyze-loadable "
            "context window here on the first invariant violation"
        ),
    )
    parser.add_argument(
        "--allow-lossy",
        action="store_true",
        help=(
            "exit 0 even when the ring buffer evicted events (a "
            "streaming --trace sink still captures the full stream)"
        ),
    )
    args = parser.parse_args(argv)

    run = run_fabric_soak(
        ops=args.ops,
        seed=args.seed,
        shards=args.shards,
        flows=args.flows,
        granularity=args.granularity,
        batched=args.batched,
        mode=args.mode,
        trace_sink=args.trace,
        buffer_size=args.buffer_size,
        monitor=args.monitor,
        checkpoint_path=args.checkpoint,
        serve_port=args.serve,
        serve_host=args.serve_host,
        serve_linger=args.serve_linger,
        live_interval=args.live_interval,
        watchdog_timeout=args.watchdog,
        flight_path=args.flight,
        shard_slo_inversions=args.shard_slo_inversions,
    )

    if args.format == "json":
        report = json.dumps(run.to_document(), indent=2) + "\n"
    elif args.format == "prometheus":
        report = run.metrics_text()
    else:
        report = run.report()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
    else:
        sys.stdout.write(report)

    if args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as handle:
            handle.write(prometheus_snapshot(run.instruments))

    status = 0
    if not run.reconciled:
        print(
            "FAIL: trace deltas do not reconcile with the summed "
            "per-shard stats registries",
            file=sys.stderr,
        )
        status = 1
    if run.monitors is not None and not run.monitors.ok:
        print(
            f"FAIL: {len(run.monitors.violations)} invariant "
            f"violation(s) — see the run report",
            file=sys.stderr,
        )
        status = 1
    if run.checkpoint is not None and not run.checkpoint["resumed_match"]:
        print(
            "FAIL: the fabric restored from the checkpoint served a "
            "different sequence than the original",
            file=sys.stderr,
        )
        status = 1
    if run.tracer.dropped and not args.allow_lossy:
        print(
            f"FAIL: {run.tracer.dropped} events evicted from the ring "
            f"buffer (raise --buffer-size, or pass --allow-lossy if a "
            f"--trace sink captured the stream)",
            file=sys.stderr,
        )
        status = 1
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
