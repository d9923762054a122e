"""Shard occupancy management: overflow spill and online rebalancing.

A static partition is only as good as the workload is uniform.  Two
mechanisms keep a skewed fabric serviceable:

* **Spill-to-neighbor** — when a flow's pinned shard is nearly full
  (``spill_threshold`` of its capacity), the *enqueue* is diverted to
  the shard with the most free room instead of dropping or blocking.
  Spilled tags still compete in the tournament, so global service order
  is unaffected; only the within-flow FCFS tie discipline can shift by
  one quantum, which the paper already concedes to quantization.

* **Threshold rebalancing** — when occupancies diverge past
  ``rebalance_ratio`` (and the fabric holds enough backlog for the move
  to matter), the hottest flows of the fullest shard are re-pinned to
  the emptiest shard via partitioner overrides.  By default
  (``migrate_backlog``) the moved flows' queued entries migrate too —
  remove-by-handle on the old shard, re-enqueue at the identical tag on
  the new — so the skew that armed the rebalance shrinks immediately;
  every relocation is announced to registered listeners so outstanding
  handles stay valid.  With ``migrate_backlog=False`` moves affect
  *future arrivals only*: live tags drain where they sit, and
  within-flow order is preserved because the old shard's tags for that
  flow all precede the new shard's.

Both mechanisms are deterministic (pure functions of occupancy and flow
ids) so traced fabric runs replay exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..hwsim.errors import ConfigurationError
from .partitioner import FlowPartitioner


@dataclass(frozen=True)
class FabricPolicy:
    """Tunable thresholds for spill and rebalancing.

    Attributes:
        spill_threshold: home-shard fill fraction above which an enqueue
            diverts to the roomiest shard (1.0 disables spilling until
            the shard is literally full).
        rebalance_ratio: occupancy ratio ``(max+1)/(min+1)`` that arms a
            rebalance.
        rebalance_min_backlog: total live tags required before a
            rebalance may fire (tiny backlogs self-correct).
        rebalance_cooldown_ops: fabric operations that must elapse
            between rebalances (hysteresis).
        max_moves_per_rebalance: flow re-pins per rebalance event.
        migrate_backlog: when re-pinning a flow, also move its queued
            entries from the old shard to the new one (remove-by-handle
            + re-enqueue at the same tag), so the occupancy skew that
            armed the rebalance actually shrinks instead of waiting for
            the hot shard to drain.  Disable to restore the legacy
            future-arrivals-only behavior.
    """

    spill_threshold: float = 0.9
    rebalance_ratio: float = 4.0
    rebalance_min_backlog: int = 512
    rebalance_cooldown_ops: int = 1024
    max_moves_per_rebalance: int = 4
    migrate_backlog: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.spill_threshold <= 1.0:
            raise ConfigurationError("spill_threshold must be in (0, 1]")
        if self.rebalance_ratio < 1.0:
            raise ConfigurationError("rebalance_ratio must be >= 1")
        if self.rebalance_min_backlog < 0:
            raise ConfigurationError("rebalance_min_backlog must be >= 0")
        if self.rebalance_cooldown_ops < 0:
            raise ConfigurationError("rebalance_cooldown_ops must be >= 0")
        if self.max_moves_per_rebalance < 1:
            raise ConfigurationError("max_moves_per_rebalance must be >= 1")

    def to_dict(self) -> dict:
        return {
            "spill_threshold": self.spill_threshold,
            "rebalance_ratio": self.rebalance_ratio,
            "rebalance_min_backlog": self.rebalance_min_backlog,
            "rebalance_cooldown_ops": self.rebalance_cooldown_ops,
            "max_moves_per_rebalance": self.max_moves_per_rebalance,
            "migrate_backlog": self.migrate_backlog,
        }


@dataclass
class RebalancePlan:
    """One rebalance decision: which flows move where, and why."""

    source: int
    target: int
    moves: List[Tuple[int, int]] = field(default_factory=list)
    ratio_before: float = 0.0

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "target": self.target,
            "moves": [list(move) for move in self.moves],
            "ratio_before": self.ratio_before,
        }


class ShardManager:
    """Routes enqueues and plans rebalances for a shard set."""

    def __init__(
        self,
        partitioner: FlowPartitioner,
        *,
        shard_capacity: int,
        policy: Optional[FabricPolicy] = None,
    ) -> None:
        if shard_capacity < 1:
            raise ConfigurationError("shard_capacity must be positive")
        self.partitioner = partitioner
        self.shard_capacity = shard_capacity
        self.policy = policy if policy is not None else FabricPolicy()
        self.shards = partitioner.shards
        #: enqueues diverted off their pinned shard
        self.spill_count = 0
        #: rebalance events fired
        self.rebalance_count = 0
        #: flow re-pins applied across all rebalances
        self.flows_moved = 0
        #: queued entries physically migrated between shards
        self.entries_migrated = 0
        self._last_rebalance_ops: Optional[int] = None

    # ------------------------------------------------------------------
    # routing

    def route(
        self, flow_id: int, occupancies: List[int]
    ) -> Tuple[int, bool]:
        """Pick the shard for one enqueue.

        Returns ``(shard, spilled)``.  The pinned shard wins unless it
        sits at or above the spill threshold, in which case the enqueue
        diverts to the shard with the most free room (lowest index on
        ties).  If every shard is equally pressed the pin stands — the
        per-shard circuit's own capacity check is the final arbiter.
        """
        home = self.partitioner.shard_for(flow_id)
        if self.shards == 1:
            return home, False
        limit = self.policy.spill_threshold * self.shard_capacity
        if occupancies[home] < limit:
            return home, False
        roomiest = min(range(self.shards), key=lambda s: (occupancies[s], s))
        if roomiest == home or occupancies[roomiest] >= occupancies[home]:
            return home, False
        self.spill_count += 1
        return roomiest, True

    # ------------------------------------------------------------------
    # rebalancing

    def plan_rebalance(
        self,
        occupancies: List[int],
        flow_live: Dict[int, int],
        total_ops: int,
    ) -> Optional[RebalancePlan]:
        """Decide whether (and how) to rebalance; apply the overrides.

        ``flow_live`` maps flow id → live tag count across the fabric.
        A returned plan has already been applied to the partitioner.
        """
        if self.shards == 1:
            return None
        policy = self.policy
        if (
            self._last_rebalance_ops is not None
            and total_ops - self._last_rebalance_ops
            < policy.rebalance_cooldown_ops
        ):
            return None
        # The ratio test first: on a balanced fabric it is the one that
        # fails, and this runs after every fabric operation.
        high = max(occupancies)
        low = min(occupancies)
        ratio = (high + 1) / (low + 1)
        if ratio < policy.rebalance_ratio:
            return None
        if sum(occupancies) < policy.rebalance_min_backlog:
            return None
        # Lowest index on ties, for both the hot and the cool shard.
        hot = occupancies.index(high)
        cool = occupancies.index(low)
        # Hottest flows currently pinned to the hot shard, busiest first;
        # flow id breaks ties so the plan is deterministic.
        candidates = sorted(
            (
                (live, flow_id)
                for flow_id, live in flow_live.items()
                if live > 0 and self.partitioner.shard_for(flow_id) == hot
            ),
            key=lambda item: (-item[0], item[1]),
        )
        if not candidates:
            return None
        plan = RebalancePlan(source=hot, target=cool, ratio_before=ratio)
        for live, flow_id in candidates[: policy.max_moves_per_rebalance]:
            self.partitioner.assign(flow_id, cool)
            plan.moves.append((flow_id, live))
        self.rebalance_count += 1
        self.flows_moved += len(plan.moves)
        self._last_rebalance_ops = total_ops
        return plan

    # ------------------------------------------------------------------
    # introspection / checkpoint

    def describe(self) -> dict:
        return {
            "shards": self.shards,
            "shard_capacity": self.shard_capacity,
            "policy": self.policy.to_dict(),
            "spill_count": self.spill_count,
            "rebalance_count": self.rebalance_count,
            "flows_moved": self.flows_moved,
            "entries_migrated": self.entries_migrated,
        }

    def to_state(self) -> dict:
        return {
            "kind": "shard_manager",
            "shard_capacity": self.shard_capacity,
            "policy": self.policy.to_dict(),
            "spill_count": self.spill_count,
            "rebalance_count": self.rebalance_count,
            "flows_moved": self.flows_moved,
            "entries_migrated": self.entries_migrated,
            "last_rebalance_ops": self._last_rebalance_ops,
        }

    def load_state(self, state: dict) -> None:
        if state.get("kind") != "shard_manager":
            raise ConfigurationError(
                f"not a shard manager snapshot: kind={state.get('kind')!r}"
            )
        if state["shard_capacity"] != self.shard_capacity:
            raise ConfigurationError(
                "shard manager snapshot capacity does not match"
            )
        self.policy = FabricPolicy(**state["policy"])
        self.spill_count = state["spill_count"]
        self.rebalance_count = state["rebalance_count"]
        self.flows_moved = state["flows_moved"]
        self.entries_migrated = state.get("entries_migrated", 0)
        self._last_rebalance_ops = state["last_rebalance_ops"]
