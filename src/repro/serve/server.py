"""``python -m repro serve`` — the long-running WFQ scheduling server.

One process serves one link: an asyncio TCP front end speaking the
line-delimited JSON protocol, a :class:`ServeEngine` core owning the
full Fig. 1 system (tag computation + shared buffer + sharded
sort/retrieve fabric), and an optional paced drain loop that serves the
schedule at the configured line rate.

**Determinism.**  The data plane never reads the wall clock: arrivals
advance a *virtual* arrival clock at line rate (packet serialization
time per enqueue), so the schedule — tags, service order, marks — is a
pure function of the request stream.  That is what makes the lifecycle
guarantee provable: snapshot, restart, replay the remaining requests,
and the serve log continues event-for-event identically.

**Handles.**  The wire ``handle`` returned by ``enqueue`` is a stable
server-issued token, not the raw fabric handle: shard rebalancing may
physically migrate queued entries between circuits (changing their
fabric handles), and the engine's relocation-aware ledger absorbs that
— a client's handle survives migrations exactly like a timer token
survives a repin.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Set

from ..core.engine import resolve_mode
from ..core.words import PAPER_FORMAT, WordFormat
from ..hwsim.errors import ConfigurationError, ProtocolError
from ..net.admission import AdmissionController
from ..net.fabric_system import FabricSchedulerSystem
from ..net.session_table import SessionStateTable
from ..sched.packet import Packet
from . import lifecycle
from .backpressure import SCHEMES, BackpressureController
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolDecodeError,
    decode_line,
    encode,
    error_response,
    ok_response,
    validate_request,
)

#: packets of worst-case tag increment half the tag space must cover
#: (mirrors HardwareWFQSystem.AUTO_GRANULARITY_HEADROOM, but sized from
#: the admission *floor* instead of the registered flow table — a
#: long-running server admits flows after tags are live, so the quantum
#: must be frozen up front from the lightest *admissible* weight)
GRANULARITY_HEADROOM = 128
MAX_PACKET_BYTES = 1500

#: longest request line the transport buffers (newline excluded); a
#: longer line is answered with one error and skipped through its newline
MAX_LINE_BYTES = 64 * 1024
#: size of the one read buffer each connection owns for its lifetime
READ_BUFFER_BYTES = 64 * 1024


def derive_granularity(
    link_rate_bps: float,
    min_rate_bps: float,
    fmt: WordFormat = PAPER_FORMAT,
    *,
    headroom: int = GRANULARITY_HEADROOM,
    max_packet_bytes: int = MAX_PACKET_BYTES,
) -> float:
    """The tag quantum a server with an admission rate floor needs.

    The lightest admissible flow has weight ``min_rate / C`` and a
    worst-case per-packet tag increment of ``L_max / weight``;
    ``headroom`` such increments must fit in half the tag space (the
    wrap window), exactly like the offline auto-granularity rule.
    """
    if min_rate_bps <= 0 or link_rate_bps <= 0:
        raise ConfigurationError("rates must be positive")
    min_weight = min_rate_bps / link_rate_bps
    worst_increment = max_packet_bytes * 8 / min_weight
    return headroom * worst_increment / (fmt.capacity // 2)


@dataclass
class ServeConfig:
    """Everything one serving link is configured with.

    The scheduling fields (everything except the runtime block at the
    bottom) are frozen into snapshots; a restore adopts them from the
    snapshot so a restarted server cannot diverge from the state it is
    resuming.
    """

    link_rate_bps: float = 40e9
    shards: int = 4
    buffer_capacity: int = 8192
    table_capacity: int = 8192
    min_rate_bps: float = 1e6
    utilization_limit: float = 0.95
    turbo: bool = True
    mode: Optional[str] = None
    scheme: str = "shared"
    mark_fraction: float = 0.65
    reject_fraction: float = 0.9
    per_queue_mark: int = 64
    # runtime (not scheduling-relevant; never validated against snapshots)
    host: str = "127.0.0.1"
    port: int = 0
    drain_mode: str = "manual"  # "manual" | "paced"
    pace_multiplier: float = 1.0
    snapshot_path: Optional[str] = None
    snapshot_interval_ops: int = 0
    serve_log: Optional[str] = None
    metrics_port: Optional[int] = None
    metrics_host: str = "127.0.0.1"
    live_interval: float = 0.5
    watchdog_timeout: Optional[float] = None
    trace_path: Optional[str] = None
    flight_path: Optional[str] = None

    #: the fields a snapshot freezes (cross-checked on restore)
    SCHEDULING_FIELDS = (
        "link_rate_bps",
        "shards",
        "buffer_capacity",
        "table_capacity",
        "min_rate_bps",
        "utilization_limit",
        "turbo",
        "mode",
        "scheme",
        "mark_fraction",
        "reject_fraction",
        "per_queue_mark",
    )

    def __post_init__(self) -> None:
        # Normalize the engine pair: ``mode`` wins when set; the legacy
        # ``turbo`` bool keeps working (and keeps freezing) for old
        # snapshots and callers.
        if self.mode is None:
            self.mode = "turbo" if self.turbo else "gate"
        else:
            resolve_mode(self.mode)
        self.turbo = self.mode == "turbo"
        if self.drain_mode not in ("manual", "paced"):
            raise ConfigurationError(
                f"drain_mode must be 'manual' or 'paced', "
                f"got {self.drain_mode!r}"
            )
        if self.scheme not in SCHEMES:
            raise ConfigurationError(f"unknown marking scheme {self.scheme!r}")
        if self.pace_multiplier <= 0:
            raise ConfigurationError("pace_multiplier must be positive")

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def adopt_scheduling_fields(self, recorded: Dict[str, Any]) -> None:
        """Take the snapshot's scheduling fields (restore path).

        Recorded fields outside :attr:`SCHEDULING_FIELDS` (``workers``,
        frozen by older snapshots) are ignored; a missing one is a
        :class:`ConfigurationError`.
        """
        for name in self.SCHEDULING_FIELDS:
            if name == "mode" and name not in recorded:
                # Pre-engine snapshots froze only the turbo bool.
                value = "turbo" if recorded.get("turbo", True) else "gate"
            elif name in recorded:
                value = recorded[name]
            else:
                raise ConfigurationError(
                    f"snapshot config lacks the {name!r} field"
                )
            setattr(self, name, value)
        self.turbo = self.mode == "turbo"


class ServeEngine:
    """The synchronous service core: verbs in, responses out.

    All state mutation happens here, single-threaded (the asyncio loop
    serializes connections), so the engine is directly unit-testable
    without any networking.
    """

    def __init__(self, config: ServeConfig, *, tracer=None) -> None:
        self.config = config
        self.granularity = derive_granularity(
            config.link_rate_bps, config.min_rate_bps
        )
        self.system = FabricSchedulerSystem(
            config.link_rate_bps,
            shards=config.shards,
            granularity=self.granularity,
            buffer_capacity=config.buffer_capacity,
            mode=config.mode,
            tracer=tracer,
        )
        self.admission = AdmissionController(
            config.link_rate_bps,
            utilization_limit=config.utilization_limit,
            min_rate_bps=config.min_rate_bps,
        )
        self.table = SessionStateTable(config.table_capacity)
        from .sessions import SessionManager

        self.sessions = SessionManager(self.system, self.admission, self.table)
        self.backpressure = BackpressureController(
            self.system.buffer,
            scheme=config.scheme,
            mark_fraction=config.mark_fraction,
            reject_fraction=config.reject_fraction,
            per_queue_mark=config.per_queue_mark,
            flow_backlog=self._flow_backlog,
            weight_share=self._weight_share,
        )
        #: virtual arrival clock: advances by serialization time per
        #: enqueue — the data plane's only notion of time
        self.vnow = 0.0
        #: monotone serve-log sequence, continuing across restarts
        self.served_seq = 0
        self.counters: Dict[str, int] = {
            "requests": 0,
            "errors": 0,
            "enqueued": 0,
            "served": 0,
            "cancelled": 0,
            "rescheduled": 0,
            "backpressure_rejected": 0,
        }
        # The relocation-aware handle ledger (see module docstring).
        self.next_token = 0
        self.token_handles: Dict[int, int] = {}
        self.handle_tokens: Dict[int, int] = {}
        self.packet_tokens: Dict[int, int] = {}
        self.system.add_relocation_listener(self._apply_relocations)
        self.shutdown_requested = False
        self._serve_log = None
        self._dispatch = {
            "hello": self._op_hello,
            "open": self._op_open,
            "close": self._op_close,
            "enqueue": self._op_enqueue,
            "cancel": self._op_cancel,
            "reschedule": self._op_reschedule,
            "drain": self._op_drain,
            "stats": self._op_stats,
            "snapshot": self._op_snapshot,
            "shutdown": self._op_shutdown,
        }
        #: verbs that mutate schedule state (drive the snapshot cadence)
        self.MUTATING = frozenset(
            ("open", "close", "enqueue", "cancel", "reschedule", "drain")
        )

    # ------------------------------------------------------------------
    # accessors the backpressure controller uses

    def _flow_backlog(self, flow_id: int) -> int:
        return self.system.store.flow_backlog(flow_id)

    def _weight_share(self, flow_id: int) -> float:
        """The flow's share of committed guaranteed rate (O(1))."""
        sla = self.admission.admitted_slas().get(flow_id)
        if sla is None:  # pragma: no cover - sessions gate enqueues
            return 0.0
        committed = self.admission.committed_rate_bps
        if committed <= 0:
            return 1.0
        return sla.guaranteed_rate_bps / committed

    # ------------------------------------------------------------------
    # handle ledger

    def _apply_relocations(self, relocations: Dict[int, int]) -> None:
        """Follow migrated fabric handles; tokens stay stable.

        Two-phase (pop everything, then reinsert): a migration's
        put-back path can reuse a just-freed address, so an in-place
        walk could overwrite a mapping before it was read.
        """
        moved = []
        for old, new in relocations.items():
            token = self.handle_tokens.pop(old, None)
            if token is not None:
                moved.append((new, token))
        for new, token in moved:
            self.handle_tokens[new] = token
            self.token_handles[token] = new

    def _issue_token(self, handle: int) -> int:
        token = self.next_token
        self.next_token += 1
        self.token_handles[token] = handle
        self.handle_tokens[handle] = token
        return token

    def _retire_packet(self, packet_id: int) -> None:
        token = self.packet_tokens.pop(packet_id, None)
        if token is not None:
            handle = self.token_handles.pop(token, None)
            if handle is not None:
                self.handle_tokens.pop(handle, None)

    # ------------------------------------------------------------------
    # the drain path (shared by the verb and the paced loop)

    def drain(self, count: int) -> List[Dict[str, Any]]:
        """Serve up to ``count`` packets in schedule order."""
        available = min(count, len(self.system.store))
        if available <= 0:
            return []
        packets = self.system.select_batch(available, self.vnow)
        records = []
        for packet in packets:
            self._retire_packet(packet.packet_id)
            session = self.sessions.session(packet.flow_id)
            if session is not None:
                session.served += 1
            records.append(
                {
                    "seq": self.served_seq,
                    "flow": packet.flow_id,
                    "tag": packet.finish_tag,
                    "size": packet.size_bytes,
                }
            )
            self.served_seq += 1
        self.counters["served"] += len(records)
        self._log_served(records)
        return records

    def _log_served(self, records: List[Dict[str, Any]]) -> None:
        if not records or self.config.serve_log is None:
            return
        if self._serve_log is None:
            self._serve_log = open(
                self.config.serve_log, "a", encoding="utf-8"
            )
        for record in records:
            self._serve_log.write(
                json.dumps(record, separators=(",", ":"), sort_keys=True)
                + "\n"
            )
        self._serve_log.flush()

    # ------------------------------------------------------------------
    # verb handlers

    def _op_hello(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return ok_response(
            request,
            server="repro-serve",
            protocol=PROTOCOL_VERSION,
            link_rate_bps=self.config.link_rate_bps,
            shards=self.config.shards,
            scheme=self.config.scheme,
            granularity=self.granularity,
        )

    def _op_open(self, request: Dict[str, Any]) -> Dict[str, Any]:
        decision = self.sessions.open(
            request["tenant"],
            request["flow"],
            request["rate_bps"],
            burst_bits=request.get("burst_bits", 0.0),
            max_packet_bytes=request.get("max_packet_bytes", 1500),
            delay_target_s=request.get("delay_target_s"),
        )
        if not decision.admitted:
            return error_response(request, decision.reason, admitted=False)
        return ok_response(
            request,
            admitted=True,
            weight=decision.weight,
            delay_bound_s=decision.offered_delay_s,
        )

    def _op_close(self, request: Dict[str, Any]) -> Dict[str, Any]:
        flow = request["flow"]
        try:
            session = self.sessions.close(
                flow, backlog=self._flow_backlog(flow)
            )
        except ConfigurationError as exc:
            return error_response(request, str(exc))
        return ok_response(
            request,
            flow=flow,
            enqueued=session.enqueued,
            served=session.served,
            cancelled=session.cancelled,
        )

    def _op_enqueue(self, request: Dict[str, Any]) -> Dict[str, Any]:
        flow = request["flow"]
        size = request["size"]
        if size < 1 or size > 65535:
            return error_response(
                request, f"packet size {size} outside [1, 65535] bytes"
            )
        session = self.sessions.session(flow)
        if session is None:
            return error_response(
                request, f"flow {flow} has no open session (open it first)"
            )
        decision = self.backpressure.decide(flow)
        if not decision.accept:
            self.counters["backpressure_rejected"] += 1
            return error_response(request, decision.reason, ecn=True)
        packet = Packet(
            flow_id=flow, size_bytes=size, arrival_time=self.vnow
        )
        try:
            handle = self.system.enqueue(packet, self.vnow)
        except ProtocolError as exc:
            # Span-guard refusal: the flow is holding more than its
            # weight's burst allowance of the tag space.  The slot was
            # released; tell the client to back off.
            return error_response(
                request, f"tag space exhausted for flow {flow}: {exc}"
            )
        self.vnow += packet.size_bits / self.config.link_rate_bps
        if handle is None:  # pragma: no cover - reject threshold gates this
            return error_response(request, "shared packet buffer is full")
        token = self._issue_token(handle)
        self.packet_tokens[packet.packet_id] = token
        session.enqueued += 1
        self.counters["enqueued"] += 1
        return ok_response(
            request, handle=token, tag=packet.finish_tag, ecn=decision.mark
        )

    def _op_cancel(self, request: Dict[str, Any]) -> Dict[str, Any]:
        token = request["handle"]
        handle = self.token_handles.pop(token, None)
        if handle is None:
            return error_response(
                request,
                f"handle {token} names no queued packet (already served, "
                "cancelled, or never issued)",
            )
        # Drop the ledger entries *before* touching the fabric: the
        # cancel can trigger a rebalance whose put-back path reuses the
        # freed address, and the relocation callback must not find the
        # dead mapping.
        self.handle_tokens.pop(handle, None)
        try:
            packet = self.system.cancel(handle)
        except ProtocolError as exc:  # pragma: no cover - ledger is sound
            return error_response(request, f"cancel failed: {exc}")
        self.packet_tokens.pop(packet.packet_id, None)
        session = self.sessions.session(packet.flow_id)
        if session is not None:
            session.cancelled += 1
        self.counters["cancelled"] += 1
        return ok_response(
            request, flow=packet.flow_id, tag=packet.finish_tag
        )

    def _op_reschedule(self, request: Dict[str, Any]) -> Dict[str, Any]:
        token = request["handle"]
        new_tag = request["tag"]
        handle = self.token_handles.get(token)
        if handle is None:
            return error_response(
                request, f"handle {token} names no queued packet"
            )
        self.token_handles.pop(token)
        self.handle_tokens.pop(handle, None)
        try:
            new_handle = self.system.reschedule(handle, new_tag)
        except ProtocolError as exc:
            # The span guard rejected the new tag *before* anything
            # moved; the entry is still live under its old handle.
            self.token_handles[token] = handle
            self.handle_tokens[handle] = token
            return error_response(request, f"reschedule rejected: {exc}")
        self.token_handles[token] = new_handle
        self.handle_tokens[new_handle] = token
        self.counters["rescheduled"] += 1
        return ok_response(request, handle=token, tag=new_tag)

    def _op_drain(self, request: Dict[str, Any]) -> Dict[str, Any]:
        count = request["count"]
        if count < 0:
            return error_response(request, "drain count must be >= 0")
        served = self.drain(count)
        return ok_response(request, served=served, backlog=len(self.system.store))

    def _op_stats(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return ok_response(request, stats=self.stats())

    def _op_snapshot(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if self.config.snapshot_path is None:
            return error_response(
                request, "server was started without --snapshot"
            )
        path = self.snapshot()
        return ok_response(request, path=path, seq=self.served_seq)

    def _op_shutdown(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self.shutdown_requested = True
        return ok_response(request, seq=self.served_seq)

    # ------------------------------------------------------------------
    # dispatch

    def handle_request(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Validate and execute one decoded request."""
        self.counters["requests"] += 1
        reason = validate_request(request)
        if reason is not None:
            self.counters["errors"] += 1
            return error_response(request, reason)
        return self._dispatch[request["op"]](request)

    # ------------------------------------------------------------------
    # operations

    def stats(self) -> Dict[str, Any]:
        fabric = self.system.store
        return {
            "vnow": self.vnow,
            "served_seq": self.served_seq,
            "counters": dict(self.counters),
            "sessions": {
                "open": self.sessions.count,
                "opened": self.sessions.opened,
                "closed": self.sessions.closed,
                "rejected": self.sessions.rejected,
                "tenants": self.sessions.tenant_counts(),
            },
            "admission": {
                "committed_rate_bps": self.admission.committed_rate_bps,
                "available_rate_bps": self.admission.available_rate_bps,
                "admitted": self.admission.admitted_count,
            },
            "buffer": {
                "occupancy": self.system.buffer.occupancy,
                "capacity": self.system.buffer.capacity,
                "high_watermark": self.system.buffer.high_watermark,
                "drops": self.system.buffer.drop_count,
            },
            "backpressure": self.backpressure.describe(),
            "fabric": {
                "backlog": len(fabric),
                "occupancies": fabric.occupancies(),
                "pushes": fabric.pushes,
                "pops": fabric.pops,
                "cancels": fabric.cancels,
                "repins": fabric.repins,
                "spills": fabric.manager.spill_count,
                "rebalances": fabric.manager.rebalance_count,
                "flows_moved": fabric.manager.flows_moved,
                "entries_migrated": fabric.manager.entries_migrated,
            },
            "table": {
                "active": self.table.active_sessions,
                "evictions": self.table.evictions,
            },
        }

    def snapshot(self) -> str:
        """Write one exact snapshot; returns its path."""
        state = lifecycle.capture_state(self)
        lifecycle.write_snapshot(self.config.snapshot_path, state)
        return self.config.snapshot_path

    def restore(self, state: Dict[str, Any]) -> None:
        """Adopt a snapshot (engine must be freshly constructed)."""
        lifecycle.restore_state(self, state)

    def close(self) -> None:
        """Release resources (the serve log)."""
        if self._serve_log is not None:
            self._serve_log.close()
            self._serve_log = None


class _LineProtocol(asyncio.BufferedProtocol):
    """One client connection: split request lines, write responses.

    Every socket read lands in one preallocated buffer per connection
    (:meth:`get_buffer`), and the filled bytes are split into lines in
    :meth:`buffer_updated`.  A plain ``Protocol`` would have the
    transport allocate a fresh 256 KiB block per read, which the
    allocator may serve with ``mmap``/``munmap`` and page faults on
    every request.  Each line is answered with a single
    ``transport.write`` — no per-request coroutine, stream reader, or
    drain await.  Flow control rides on the transport: while the client
    leaves responses unread past the write buffer's high mark, reading
    pauses, so a pipelining client cannot grow the server's buffers
    without bound.
    """

    def __init__(self, server: "WfqServer") -> None:
        self._server = server
        self._transport: Optional[asyncio.Transport] = None
        self._buffer = memoryview(bytearray(READ_BUFFER_BYTES))
        self._pending = b""
        #: inside an overlong line already answered; drop to its newline
        self._discarding = False

    def connection_made(self, transport) -> None:
        self._transport = transport
        self._server._connections.add(self)

    def connection_lost(self, exc) -> None:
        self._server._connections.discard(self)
        self._transport = None

    def pause_writing(self) -> None:
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._transport.resume_reading()

    def close(self) -> None:
        if self._transport is not None:
            self._transport.close()

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._buffer

    def buffer_updated(self, nbytes: int) -> None:
        # Copied out: the next read overwrites the buffer.
        data = self._buffer[:nbytes].tobytes()
        pending = self._pending + data if self._pending else data
        start = 0
        while not self._transport.is_closing():
            end = pending.find(b"\n", start)
            if end < 0:
                break
            line = pending[start:end]
            start = end + 1
            if self._discarding:
                self._discarding = False
            elif len(line) > MAX_LINE_BYTES:
                self._reject_overlong()
            else:
                self._server._serve_line(self, line)
        pending = pending[start:]
        if self._discarding:
            pending = b""
        elif len(pending) > MAX_LINE_BYTES:
            self._reject_overlong()
            self._discarding = True
            pending = b""
        self._pending = pending

    def eof_received(self) -> bool:
        # Like readline() at EOF: an unterminated final line still counts.
        if self._pending and not self._discarding:
            self._server._serve_line(self, self._pending)
        self._pending = b""
        return False

    def write(self, message: Dict[str, Any]) -> None:
        self._transport.write(encode(message))

    def _reject_overlong(self) -> None:
        self.write(
            {
                "ok": False,
                "reason": f"request line exceeds {MAX_LINE_BYTES} bytes",
            }
        )


class WfqServer:
    """The asyncio front end around one :class:`ServeEngine`."""

    def __init__(self, engine: ServeEngine) -> None:
        self.engine = engine
        self.config = engine.config
        self._server: Optional[asyncio.AbstractServer] = None
        # Created inside serve(): pre-3.10 asyncio primitives bind the
        # loop that exists at construction time, which may not be the
        # loop the server ends up running on.
        self._shutdown: Optional[asyncio.Event] = None
        self._shutdown_flag = False
        self._snapshot_policy = lifecycle.SnapshotPolicy(
            self.config.snapshot_interval_ops
        )
        self.port: Optional[int] = None
        self._plane = None
        self._tracer = None
        self._suite = None
        self._drain_task: Optional[asyncio.Task] = None
        self._connections: Set[_LineProtocol] = set()

    # ------------------------------------------------------------------

    def request_shutdown(self) -> None:
        """Graceful stop: triggered by SIGTERM/SIGINT or the verb."""
        self._shutdown_flag = True
        if self._shutdown is not None:
            self._shutdown.set()

    @property
    def _stopping(self) -> bool:
        return self._shutdown_flag

    def _serve_line(self, connection: _LineProtocol, line: bytes) -> None:
        """Answer one request line on ``connection``.

        Every failure is a response: a line that does not decode, and an
        engine fault while handling a valid one, both answer with an
        error and keep the connection open; a fault's traceback goes to
        stderr.  ``decode_line`` and
        ``encode`` are looked up as module globals on every call, so a
        tracer can wrap them after import.
        """
        if self._stopping:
            connection.close()
            return
        line = line.strip()
        if not line:
            return
        try:
            request = decode_line(line)
        except ProtocolDecodeError as exc:
            connection.write({"ok": False, "reason": str(exc)})
            return
        engine = self.engine
        try:
            response = engine.handle_request(request)
        except Exception as exc:
            traceback.print_exc()
            engine.counters["errors"] += 1
            response = error_response(
                request, f"internal error: {type(exc).__name__}: {exc}"
            )
        connection.write(response)
        if request.get("op") in engine.MUTATING:
            self._maybe_snapshot()
        if engine.shutdown_requested:
            self.request_shutdown()
            connection.close()

    def _maybe_snapshot(self) -> None:
        if (
            self.config.snapshot_path is not None
            and self._snapshot_policy.due()
        ):
            self.engine.snapshot()
            self._snapshot_policy.mark_taken()

    async def _paced_drain(self) -> None:
        """Serve the schedule at ``pace_multiplier ×`` line rate.

        A token-bucket pacer against the wall clock: every tick it
        serves however many packets the elapsed time's bit budget
        covers.  Pacing affects only *when* packets pop, never in what
        order — the schedule itself is wall-clock free.
        """
        rate = self.config.link_rate_bps * self.config.pace_multiplier
        budget_bits = 0.0
        last = time.monotonic()
        while not self._stopping:
            await asyncio.sleep(0.005)
            now = time.monotonic()
            budget_bits += (now - last) * rate
            last = now
            served_bits = 0.0
            while (
                len(self.engine.system.store)
                and served_bits < budget_bits
            ):
                for record in self.engine.drain(256):
                    served_bits += record["size"] * 8
                if not len(self.engine.system.store):
                    break
            budget_bits = max(0.0, budget_bits - served_bits)
            if not len(self.engine.system.store):
                budget_bits = min(budget_bits, rate * 0.005)

    # ------------------------------------------------------------------

    def attach_live_plane(self) -> None:
        """Wire up /metrics, /health, monitors, and the flight recorder."""
        if self.config.metrics_port is None:
            return
        from ..obs.events import build_trace_header
        from ..obs.flight import FlightRecorder
        from ..obs.live import LivePlane
        from ..obs.monitors import MonitorConfig, MonitorSuite
        from ..obs.probes import StandardProbes
        from ..obs.slo import ServeStreamAuditor
        from ..obs.tracer import Tracer

        fabric = self.engine.system.store
        probes = StandardProbes()
        tracer = Tracer(
            buffer_size=65536,
            sink=self.config.trace_path,
            observers=[probes],
        )
        tracer.write_header(
            build_trace_header(
                seed=0,
                mode="per_op",
                config=fabric.stores[0].describe(),
                ops=0,
                purpose="serve",
                engine=self.config.mode,
            )
        )
        suite = MonitorSuite.for_circuit(
            fabric.stores[0].circuit, tracer=tracer
        )
        tracer.add_observer(suite)
        flight = None
        if self.config.flight_path:
            flight = FlightRecorder(
                self.config.flight_path, header=tracer.header
            )
            flight.attach(tracer)
        monitor_config = MonitorConfig.from_circuit_config(
            fabric.stores[0].describe()
        )
        auditor = ServeStreamAuditor(
            instruments=probes.instruments,
            modular=monitor_config.modular,
            tag_space=monitor_config.tag_space,
        )
        tracer.add_observer(auditor, kinds=ServeStreamAuditor.OBSERVED_KINDS)
        fabric.attach_tracer(tracer)
        engine = self.engine

        def extra_status() -> Dict[str, Any]:
            return {
                "serve": {
                    "sessions": engine.sessions.count,
                    "served_seq": engine.served_seq,
                    "enqueued": engine.counters["enqueued"],
                    "backpressure": {
                        "marked": engine.backpressure.marked,
                        "rejected": engine.backpressure.rejected,
                    },
                    "buffer_high_watermark": (
                        engine.system.buffer.high_watermark
                    ),
                    "vnow": engine.vnow,
                }
            }

        self._plane = LivePlane(
            instruments=probes.instruments,
            progress=lambda: float(fabric.pushes + fabric.pops),
            occupancy=lambda: float(len(fabric)),
            shard_occupancies=lambda: [
                float(n) for n in fabric.occupancies()
            ],
            free_list_depth=lambda: float(
                sum(s.circuit.free_list_depth for s in fabric.stores)
            ),
            monitors=suite,
            tracer=tracer,
            flight=flight,
            auditor=auditor,
            serve_port=self.config.metrics_port,
            serve_host=self.config.metrics_host,
            interval=self.config.live_interval,
            watchdog_timeout=self.config.watchdog_timeout,
            extra_status=extra_status,
        )
        self._tracer = tracer
        self._suite = suite

    @property
    def monitors_ok(self) -> bool:
        """Whether the attached invariant monitors are all clean."""
        return self._suite is None or self._suite.ok

    # ------------------------------------------------------------------

    async def serve(self) -> int:
        """Run until shutdown; returns the process exit status."""
        self._shutdown = asyncio.Event()
        if self._shutdown_flag:
            self._shutdown.set()
        self.attach_live_plane()
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _LineProtocol(self), self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_shutdown)
            except (NotImplementedError, ValueError, RuntimeError):
                # Non-POSIX loop, or running off the main thread (tests
                # embed the server that way): signals are the embedding
                # process's business then.
                pass
        if self._plane is not None:
            self._plane.start()
        announce = {
            "listening": self.config.host,
            "port": self.port,
            "protocol": PROTOCOL_VERSION,
        }
        if self._plane is not None and self._plane.port is not None:
            announce["metrics_port"] = self._plane.port
        print(json.dumps(announce), flush=True)
        if self.config.drain_mode == "paced":
            self._drain_task = asyncio.ensure_future(self._paced_drain())
        try:
            await self._shutdown.wait()
        finally:
            if self._drain_task is not None:
                self._drain_task.cancel()
            self._server.close()
            for connection in list(self._connections):
                connection.close()
            await self._server.wait_closed()
            if self.config.snapshot_path is not None:
                self.engine.snapshot()
            if self._plane is not None:
                self._plane.finish()
            if self._tracer is not None:
                self._tracer.flush()
                self._tracer.close()
            status = 0 if self.monitors_ok else 1
            self.engine.close()
        return status


# ----------------------------------------------------------------------
# CLI

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Run the WFQ scheduling server: line-delimited JSON over "
            "TCP in front of the tag-sorting fabric."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="0 binds an ephemeral port"
    )
    parser.add_argument(
        "--rate", type=float, default=40e9, help="link rate, bits/s"
    )
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument(
        "--buffer", type=int, default=8192, help="shared buffer slots"
    )
    parser.add_argument(
        "--table", type=int, default=8192, help="session table records"
    )
    parser.add_argument(
        "--min-rate",
        type=float,
        default=1e6,
        help="admission rate floor, bits/s (sizes the tag quantum)",
    )
    parser.add_argument("--utilization", type=float, default=0.95)
    parser.add_argument(
        "--mode",
        choices=("gate", "turbo", "vector"),
        default="turbo",
        help="circuit engine",
    )
    parser.add_argument("--scheme", choices=SCHEMES, default="shared")
    parser.add_argument("--mark-fraction", type=float, default=0.65)
    parser.add_argument("--reject-fraction", type=float, default=0.9)
    parser.add_argument("--per-queue-mark", type=int, default=64)
    parser.add_argument(
        "--drain",
        choices=("manual", "paced"),
        default="manual",
        help="manual: clients drain; paced: serve at line rate",
    )
    parser.add_argument("--pace-multiplier", type=float, default=1.0)
    parser.add_argument(
        "--snapshot", metavar="FILE", help="snapshot path (enables lifecycle)"
    )
    parser.add_argument(
        "--snapshot-interval",
        type=int,
        default=0,
        metavar="OPS",
        help="also snapshot every N mutating ops (0: shutdown only)",
    )
    parser.add_argument(
        "--restore",
        metavar="FILE",
        help="restore this snapshot before serving",
    )
    parser.add_argument(
        "--serve-log", metavar="FILE", help="append served packets here"
    )
    parser.add_argument(
        "--metrics",
        type=int,
        metavar="PORT",
        help="attach the live plane (/metrics /health) on this port",
    )
    parser.add_argument("--metrics-host", default="127.0.0.1")
    parser.add_argument("--live-interval", type=float, default=0.5)
    parser.add_argument("--watchdog", type=float, metavar="SECONDS")
    parser.add_argument(
        "--trace", metavar="FILE", help="stream the JSONL event trace here"
    )
    parser.add_argument(
        "--flight", metavar="FILE", help="flight-recorder dump path"
    )
    return parser


def config_from_args(args: argparse.Namespace) -> ServeConfig:
    return ServeConfig(
        link_rate_bps=args.rate,
        shards=args.shards,
        buffer_capacity=args.buffer,
        table_capacity=args.table,
        min_rate_bps=args.min_rate,
        utilization_limit=args.utilization,
        mode=args.mode,
        scheme=args.scheme,
        mark_fraction=args.mark_fraction,
        reject_fraction=args.reject_fraction,
        per_queue_mark=args.per_queue_mark,
        host=args.host,
        port=args.port,
        drain_mode=args.drain,
        pace_multiplier=args.pace_multiplier,
        snapshot_path=args.snapshot,
        snapshot_interval_ops=args.snapshot_interval,
        serve_log=args.serve_log,
        metrics_port=args.metrics,
        metrics_host=args.metrics_host,
        live_interval=args.live_interval,
        watchdog_timeout=args.watchdog,
        trace_path=args.trace,
        flight_path=args.flight,
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    config = config_from_args(args)
    if args.restore:
        try:
            state = lifecycle.read_snapshot(args.restore)
            # The snapshot's scheduling fields win: a restored server
            # must resume exactly the system it snapshotted.
            config.adopt_scheduling_fields(state["config"])
            engine = ServeEngine(config)
            engine.restore(state)
        except ConfigurationError as exc:
            print(f"repro serve: cannot restore: {exc}", file=sys.stderr)
            return 2
    else:
        engine = ServeEngine(config)
    server = WfqServer(engine)
    try:
        return asyncio.run(server.serve())
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
