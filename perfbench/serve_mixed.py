"""``serve_mixed``: a closed loop over loopback TCP against ``repro serve``.

One benchmark process holds one connection with one request
outstanding against a ``python -m repro serve`` subprocess on default
``ServeConfig`` (4 shards, the default engine, manual drain, no
snapshot or metrics port).  Set-up opens 256 flows over 8 tenants; the
timed mix is 70% enqueue, 20% drain-32, 5% enqueue then cancel and 5%
enqueue then reschedule, with sizes of 64-1500 B.  One operation is one
request/response; latency is the client round trip.

The loop is closed because every wire client must wait for its reply:
it needs the returned token to cancel or reschedule.  The benchmark
speaks the wire protocol with its own socket client and traffic
generator, so a change to the program cannot change the load.
"""

from __future__ import annotations

import json
import random
import select
import socket
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from common import (
    ROOT,
    first_mismatch,
    proc_cpu_seconds,
    proc_peak_rss_mb,
    program_env,
)

FLOWS = 256
TENANTS = 8
DRAIN_COUNT = 32
LINK_RATE_BPS = 40e9  # ServeConfig default
#: share of the link the opened flows reserve (admission allows 0.95)
RESERVED_SHARE = 0.8
#: seeded actions sent during set-up, after the opens, before timing
WARMUP_ACTIONS = 512
#: cumulative thresholds of the action mix
ENQUEUE, DRAIN, CANCEL = 0.70, 0.90, 0.95
ANNOUNCE_TIMEOUT_S = 60.0
EXIT_TIMEOUT_S = 60.0


class Traffic:
    """Seeded flow table and action stream.

    Every random draw happens here, independent of the server's replies,
    so one seed always sends the same verbs, flows, sizes and tag deltas.
    """

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        raw = [rng.uniform(1.0, 8.0) for _ in range(FLOWS)]
        scale = RESERVED_SHARE * LINK_RATE_BPS / sum(raw)
        self.opens = [
            {
                "op": "open",
                "tenant": f"tenant{flow % TENANTS}",
                "flow": flow,
                "rate_bps": raw[flow] * scale,
            }
            for flow in range(FLOWS)
        ]
        #: one tag quantum of slack per unit of reschedule delta
        self._tag_unit = [
            8 * 1500 * LINK_RATE_BPS / (raw[flow] * scale) for flow in range(FLOWS)
        ]
        self._rng = random.Random(seed * 7919 + 3)

    def next_action(self) -> Tuple[str, int, int, float]:
        """``(kind, flow, size, reschedule delta)``."""
        rng = self._rng
        roll = rng.random()
        flow = rng.randrange(FLOWS)
        size = rng.randint(64, 1500)
        delta = rng.random() * 4 * self._tag_unit[flow]
        if roll < ENQUEUE:
            return "enqueue", flow, size, delta
        if roll < DRAIN:
            return "drain", flow, size, delta
        if roll < CANCEL:
            return "cancel", flow, size, delta
        return "reschedule", flow, size, delta


def encode(message: dict) -> bytes:
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


class WireClient:
    """Blocking line-delimited JSON client with one request in flight."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")
        #: every line sent, in order: the replay input
        self.log: List[bytes] = []

    def call(self, message: dict) -> dict:
        line = encode(message)
        self.log.append(line)
        self.sock.sendall(line)
        reply = self.reader.readline()
        if not reply:
            raise ConnectionError("server closed the connection")
        return json.loads(reply)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class ServerProcess:
    """One ``repro serve`` child: launch, announce, probes, shutdown."""

    def __init__(self, spans_path: Optional[str] = None) -> None:
        if spans_path is None:
            command = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        else:
            command = [
                sys.executable, str(ROOT / "perfbench" / "serve_launcher.py"),
                "--spans", spans_path, "--", "--port", "0",
            ]
        self.proc = subprocess.Popen(
            command, cwd=str(ROOT), env=program_env(), stdout=subprocess.PIPE
        )
        self.port = self._read_announce()

    def _read_announce(self) -> int:
        deadline = time.monotonic() + ANNOUNCE_TIMEOUT_S
        buffered = b""
        while b"\n" not in buffered:
            left = deadline - time.monotonic()
            if left <= 0 or self.proc.poll() is not None:
                self.kill()
                raise RuntimeError("server did not announce its port")
            ready, _, _ = select.select([self.proc.stdout], [], [], left)
            if ready:
                chunk = self.proc.stdout.read1(4096)
                if not chunk:
                    continue
                buffered += chunk
        return int(json.loads(buffered.split(b"\n", 1)[0])["port"])

    def cpu_seconds(self) -> float:
        return proc_cpu_seconds(self.proc.pid)

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def wait(self) -> int:
        try:
            code = self.proc.wait(timeout=EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server did not exit after shutdown")
        self.proc.stdout.close()
        return code

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


class Session:
    """One server + one connection, from launch to verified shutdown."""

    def __init__(self, seed: int, spans_path: Optional[str] = None) -> None:
        launched = time.perf_counter()
        self.traffic = Traffic(seed)
        self.next_id = 0
        self.served: List[Tuple[int, int, float, int]] = []
        self.errors: List[str] = []
        self.server = ServerProcess(spans_path)
        try:
            self.client = WireClient(self.server.port)
        except BaseException:
            self.server.kill()
            raise
        try:
            self._setup_requests()
        except BaseException:
            self.abort()
            raise
        self.setup_s = time.perf_counter() - launched

    def _setup_requests(self) -> None:
        client = self.client
        hello = client.call({"op": "hello", "id": "s-hello"})
        if not hello.get("ok"):
            raise RuntimeError(f"hello refused: {hello}")
        for index, message in enumerate(self.traffic.opens):
            reply = client.call(dict(message, id=f"s{index}"))
            if not reply.get("ok"):
                raise RuntimeError(f"open refused: {reply}")
        for index in range(WARMUP_ACTIONS):
            self._action(f"w{index}", [])

    def _action(self, rid, latencies: List[float]) -> Tuple[int, int]:
        """One seeded action (1 or 2 requests); returns (requests, failed)."""
        kind, flow, size, delta = self.traffic.next_action()
        clock = time.perf_counter
        call = self.client.call
        if kind == "drain":
            t0 = clock()
            reply = call({"op": "drain", "count": DRAIN_COUNT, "id": rid})
            latencies.append(clock() - t0)
            if not reply.get("ok"):
                self.errors.append(str(reply.get("reason")))
                return 1, 1
            for record in reply["served"]:
                self.served.append(
                    (record["seq"], record["flow"], record["tag"], record["size"])
                )
            return 1, 0
        t0 = clock()
        reply = call({"op": "enqueue", "flow": flow, "size": size, "id": rid})
        latencies.append(clock() - t0)
        if not reply.get("ok"):
            self.errors.append(str(reply.get("reason")))
            return 1, 1
        if kind == "enqueue":
            return 1, 0
        if kind == "cancel":
            follow = {"op": "cancel", "handle": reply["handle"]}
        else:
            follow = {
                "op": "reschedule",
                "handle": reply["handle"],
                "tag": reply["tag"] + delta,
            }
        follow["id"] = rid if isinstance(rid, str) else rid + 1
        t0 = clock()
        second = call(follow)
        latencies.append(clock() - t0)
        if not second.get("ok"):
            self.errors.append(str(second.get("reason")))
            return 2, 1
        return 2, 0

    def run(self, seconds: float, slices: int) -> dict:
        """The timed window, cut into ``slices`` equal slices."""
        clock = time.perf_counter
        cpu_server = self.server.cpu_seconds()
        cpu_client = time.process_time()
        start = clock()
        windows = []
        for _ in range(slices):
            latencies: List[float] = []
            slice_start = clock()
            slice_end = slice_start + seconds / slices
            served_before = len(self.served)
            requests = failed = 0
            now = slice_start
            while now < slice_end:
                sent, bad = self._action(self.next_id, latencies)
                self.next_id += sent
                requests += sent
                failed += bad
                now = clock()
            windows.append({
                "window_s": now - slice_start,
                "ops": requests,
                "attempted": requests,
                "failed": failed,
                "served": len(self.served) - served_before,
                "latencies": latencies,
            })
        wall = clock() - start
        return {
            "slices": windows,
            "server_cpu_share": (self.server.cpu_seconds() - cpu_server) / wall,
            "client_cpu_share": (time.process_time() - cpu_client) / wall,
        }

    def finish(self) -> dict:
        """Untimed: counters, peak RSS, shutdown; the server must exit 0."""
        stats = self.client.call({"op": "stats", "id": "p-stats"})
        peak_rss = self.server.peak_rss_mb()
        reply = self.client.call({"op": "shutdown", "id": "p-shutdown"})
        self.client.close()
        code = self.server.wait()
        if not reply.get("ok") or code != 0:
            self.errors.append(f"shutdown reply {reply}, exit code {code}")
        return {"stats": stats.get("stats", {}), "peak_rss_mb": peak_rss}

    def abort(self) -> None:
        self.client.close()
        self.server.kill()


def conservation_problem(counters: Dict[str, int], backlog: int, label: str):
    enqueued = counters.get("enqueued", 0)
    served = counters.get("served", 0)
    cancelled = counters.get("cancelled", 0)
    if enqueued != served + cancelled + backlog:
        return (
            f"{label} conservation: enqueued {enqueued} != served {served} "
            f"+ cancelled {cancelled} + backlog {backlog}"
        )
    return None


def replay(log: List[bytes]):
    """Untimed in-process replay on the vector engine.

    Returns (served records, counters, final backlog).
    """
    from repro.serve.server import ServeConfig, ServeEngine

    engine = ServeEngine(ServeConfig(mode="vector"))
    served = []
    try:
        for line in log:
            request = json.loads(line)
            response = engine.handle_request(request)
            if request["op"] == "drain" and response.get("ok"):
                served.extend(
                    (r["seq"], r["flow"], r["tag"], r["size"])
                    for r in response["served"]
                )
        return served, dict(engine.counters), len(engine.system.store)
    finally:
        engine.close()


def check(session: Session, stats: dict) -> List[str]:
    """Wire output against the replay, plus conservation on both sides."""
    problems = list(dict.fromkeys(session.errors))[:5]
    wire = conservation_problem(
        stats.get("counters", {}),
        stats.get("fabric", {}).get("backlog", -1),
        "server",
    )
    if wire:
        problems.append(wire)
    # shutdown/stats lines do not change the schedule; replay the rest
    log = [line for line in session.client.log if b'"op":"shutdown"' not in line]
    expected, counters, backlog = replay(log)
    mismatch = first_mismatch(
        session.served, expected, "served (seq, flow, tag, size)"
    )
    if mismatch:
        problems.append(mismatch)
    local = conservation_problem(counters, backlog, "replay")
    if local:
        problems.append(local)
    return problems
