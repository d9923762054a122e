"""``embedded_batch``: in-process library use of ``FabricSchedulerSystem``.

Vector engine, 4 shards, 1024 flows with unequal seeded weights and a
steady backlog of about 4096 packets.  The timed window alternates
``enqueue_batch(256)`` and ``select_batch(256, now)``; packets are
generated in chunks outside the timed window.  One operation is one
packet enqueued or served; one latency sample is one batch round, an
``enqueue_batch`` and the ``select_batch`` after it.  (Per call, the
two verbs' latencies form two modes about 2x apart, and a median that
falls between them swings with every small shift in their mix.)

The data plane does almost all the work here (batch insert/dequeue,
the tournament, spill and rebalance migration) and the serve layer
does none.
"""

from __future__ import annotations

import random
import time
from array import array
from bisect import bisect_left
from collections import deque
from itertools import accumulate
from typing import List

from common import first_mismatch
from repro.hwsim.errors import ProtocolError

SHARDS = 4
FLOWS = 1024
BATCH = 256
BACKLOG = 4096
LINK_RATE_BPS = 10e9
HEAVY_FLOWS = 32
HEAVY_SHARE = 0.5
#: batches generated per chunk, between timed segments; kept small because
#: every pre-built Packet is one more object each full GC pass walks
CHUNK_BATCHES = 16
#: rounds run in set-up, before the timed window
WARMUP_ROUNDS = 32


class PacketStream:
    """Seeded arrivals: flows drawn in proportion to their weights.

    Weights are Pareto-distributed, and :data:`HEAVY_FLOWS` elephant flows
    carrying :data:`HEAVY_SHARE` of the traffic share one home shard, so
    every seed loads that shard past its spill threshold.
    """

    def __init__(self, seed: int) -> None:
        from repro.fabric.partitioner import FlowPartitioner

        rng = random.Random(seed)
        raw = [min(16.0, rng.paretovariate(1.2)) for _ in range(FLOWS)]
        partitioner = FlowPartitioner(SHARDS, flow_space=FLOWS)
        hot = [f for f in range(FLOWS) if partitioner.home_shard(f) == 0]
        light = sum(raw)
        for flow in rng.sample(hot, HEAVY_FLOWS):
            raw[flow] = light * HEAVY_SHARE / (1 - HEAVY_SHARE) / HEAVY_FLOWS
        total = sum(raw)
        self.weights = [value / total for value in raw]
        self._cumulative = list(accumulate(self.weights))
        self._rng = random.Random(seed * 7919 + 1)
        self._now = 0.0

    def take(self, count: int, spaced: bool = True):
        """``count`` packets; unspaced ones all arrive at the current time.

        The backlog prefill arrives as one burst; after it, each packet
        arrives one serialization time after the previous one, so the
        offered load is exactly the link rate and the GPS reference
        keeps the prefill's backlog: it never idles (virtual time would
        jump across the idle gap) and never grows without bound.
        """
        from repro.sched.packet import Packet

        rng = self._rng
        cumulative = self._cumulative
        last = FLOWS - 1
        packets = []
        for _ in range(count):
            flow = min(last, bisect_left(cumulative, rng.random()))
            size = rng.randint(64, 1500)
            if spaced:
                self._now += size * 8 / LINK_RATE_BPS
            packets.append(Packet(flow_id=flow, size_bytes=size, arrival_time=self._now))
        return packets


def build_system(mode: str, weights: List[float]):
    from repro.net.fabric_system import FabricSchedulerSystem

    system = FabricSchedulerSystem(LINK_RATE_BPS, shards=SHARDS, mode=mode)
    for flow, weight in enumerate(weights):
        system.add_flow(flow, weight)
    return system


class Workload:
    engine = "vector"
    #: the untimed replay engine the served sequence must match
    replay_engine = "turbo"

    def __init__(self, seed: int, mode: str = engine) -> None:
        self.seed = seed
        self.stream = PacketStream(seed)
        self.system = build_system(mode, self.stream.weights)
        self.system.enqueue_batch(self.stream.take(BACKLOG, spaced=False))
        self.pairs = 0
        self.served = (array("i"), array("d"), array("H"))
        self._pending = deque()
        self.advance(WARMUP_ROUNDS)

    def advance(self, rounds: int) -> None:
        """Untimed rounds; a refused tag fails only its round."""
        for _ in range(rounds):
            if not self._pending:
                self._refill()
            try:
                self._round(self._pending.popleft())
            except ProtocolError:
                pass

    def _refill(self) -> None:
        for _ in range(CHUNK_BATCHES):
            self._pending.append(self.stream.take(BATCH))

    def _round(self, batch) -> tuple:
        """``enqueue_batch`` then ``select_batch``; (admitted, served)."""
        admitted = self.system.enqueue_batch(batch)
        out = self.system.select_batch(BATCH, batch[-1].arrival_time)
        self._record(out)
        return admitted, out

    def _record(self, packets) -> None:
        flows, tags, sizes = self.served
        for packet in packets:
            flows.append(packet.flow_id)
            tags.append(packet.finish_tag)
            sizes.append(packet.size_bytes)

    @property
    def fabric(self):
        return self.system.store

    def circuits(self):
        return [store.circuit for store in self.system.store.stores]

    def buffer_high_watermark(self) -> int:
        return self.system.buffer.high_watermark

    def run(self, seconds: float, recorder=None) -> dict:
        """Alternate batch enqueue/serve until ``seconds`` of timed work.

        The clock stops while the next chunk of packets is generated.
        """
        pending = self._pending
        latencies = array("d")
        clock = time.perf_counter
        elapsed = 0.0
        enqueued = served = failed = pairs = 0
        while elapsed < seconds:
            if not pending:
                self._refill()
            segment_start = clock()
            while pending:
                batch = pending.popleft()
                if recorder is not None:
                    recorder.current_rid = self.pairs + pairs
                t0 = clock()
                try:
                    admitted, out = self._round(batch)
                except ProtocolError:  # a refused tag fails the round
                    admitted, out = 0, []
                t2 = clock()
                latencies.append(t2 - t0)
                pairs += 1
                enqueued += admitted
                served += len(out)
                failed += len(batch) - admitted + BATCH - len(out)
                if elapsed + (t2 - segment_start) >= seconds:
                    break
            elapsed += clock() - segment_start
        self.pairs += pairs
        return {
            "window_s": elapsed,
            "ops": enqueued + served,
            "attempted": 2 * BATCH * pairs,
            "served": served,
            "failed": failed,
            "latencies": latencies,
        }

    def check(self) -> List[str]:
        """Invariants, then an untimed replay on the scalar engine."""
        problems = []
        if self.system.dropped:
            problems.append(f"{self.system.dropped} packets dropped")
        for shard, circuit in enumerate(self.circuits()):
            try:
                circuit.check_invariants()
            except Exception as exc:  # any invariant failure fails the run
                problems.append(f"shard {shard} invariants: {exc}")
        replay = Workload(self.seed, self.replay_engine)
        replay.advance(self.pairs)
        mismatch = first_mismatch(
            list(zip(*self.served)),
            list(zip(*replay.served)),
            "served (flow_id, finish_tag, size)",
        )
        if mismatch:
            problems.append(mismatch)
        return problems
