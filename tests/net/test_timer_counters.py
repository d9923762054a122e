"""Modeled counters of the timer path, pinned over one seeded stream.

A ``TimerWheel`` over a 4-shard fabric runs a seeded arm / cancel /
reset / expire mix.  Skewed timer ids and an eager policy make the
fabric spill, rebalance and migrate backlog, and deadlines a little
behind the clock make some pushes clamp.  Every counter the circuits
and the fabric keep is pinned per shard, so cheaper bookkeeping on the
cancel and repin path cannot change what the model charges.  The values
are the ones the per-call ``read``/``write`` marker walk, the
``_pick``-based tournament and the fabric-wide clamp sum produced.
"""

import random

import pytest

from repro.fabric.fabric import ScheduleFabric
from repro.fabric.manager import FabricPolicy
from repro.hwsim.errors import ProtocolError
from repro.net.timer import TimerWheel

POLICY = FabricPolicy(
    spill_threshold=0.5,
    rebalance_ratio=2.0,
    rebalance_min_backlog=32,
    rebalance_cooldown_ops=64,
    max_moves_per_rebalance=2,
)


def counter_row(store):
    """Cycles, then (reads, writes) per tree level, translation, storage."""
    circuit = store.to_state()["circuit"]
    row = [circuit["cycles"]]
    for stats in circuit["tree"]["stats"] + [
        circuit["translation"]["stats"],
        circuit["storage"]["stats"],
    ]:
        row += [stats["reads"], stats["writes"]]
    return tuple(row)


def drive_timer_stream(mode, seed=11, steps=3000):
    """Returns the fabric, the wheel and the count of refused calls."""
    fabric = ScheduleFabric(
        shards=4,
        granularity=1.0,
        capacity_per_shard=96,
        mode=mode,
        policy=POLICY,
    )
    wheel = TimerWheel(fabric)
    rng = random.Random(seed)
    now = 0.0
    live = []
    refused = 0
    for _ in range(steps):
        now += rng.random() * 0.5
        roll = rng.random()
        try:
            if roll < 0.45 or not live:
                if rng.random() < 0.6:
                    timer_id = rng.randrange(3)
                else:
                    timer_id = rng.randrange(300)
                deadline = now + rng.uniform(-3.0, 300.0)
                live.append(wheel.arm(deadline, timer_id))
            elif roll < 0.6:
                wheel.cancel(live.pop(rng.randrange(len(live))))
            elif roll < 0.9:
                wheel.reset(rng.choice(live), now + rng.uniform(-3.0, 300.0))
            else:
                wheel.expire_until(now)
                live = [token for token in live if token in wheel._handles]
        except ProtocolError:
            refused += 1
    return fabric, wheel, refused


#: per shard (see :func:`counter_row`)
ROWS = [
    (4368, 1767, 16, 1785, 136, 1971, 752, 1260, 889, 1929, 1993),
    (4202, 1691, 10, 1710, 149, 1909, 706, 1214, 847, 1868, 1922),
    (4265, 1749, 14, 1772, 138, 1974, 774, 1240, 889, 1891, 1954),
    (4324, 1769, 8, 1791, 146, 1976, 749, 1270, 887, 1927, 1987),
]
#: per shard ``total_stats()`` (reads, writes)
TOTALS = [(8712, 3786), (8392, 3634), (8626, 3769), (8733, 3777)]
MANAGER = {
    "spill_count": 418,
    "rebalance_count": 5,
    "flows_moved": 10,
    "entries_migrated": 38,
}
CLAMPS = [15, 23, 18, 26]


@pytest.mark.parametrize("mode", ["gate", "turbo"])
def test_timer_stream_counters_pinned(mode):
    fabric, wheel, refused = drive_timer_stream(mode)
    assert refused == 0
    assert [counter_row(store) for store in fabric.stores] == ROWS
    assert [
        (stats.reads, stats.writes)
        for stats in (store.circuit.total_stats() for store in fabric.stores)
    ] == TOTALS
    assert [store.cycles for store in fabric.stores] == [row[0] for row in ROWS]
    tournament = fabric.tournament.describe()
    assert (tournament["comparisons"], tournament["updates"]) == (6589, 3300)
    manager = fabric.manager.describe()
    assert {key: manager[key] for key in MANAGER} == MANAGER
    assert [store.clamped_inserts for store in fabric.stores] == CLAMPS
    assert (
        wheel.armed,
        wheel.cancelled,
        wheel.repinned,
        wheel.fired,
        wheel.pending,
    ) == (1337, 481, 888, 584, 272)
    # Clamp-lifted effective deadlines feed the fired ledger.
    assert len(wheel.fired_effective) == 584
    assert sum(wheel.fired_effective) == 269809.27617428434
    assert len(fabric) == 272
