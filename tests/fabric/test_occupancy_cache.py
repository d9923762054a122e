"""The fabric's cached per-shard occupancy, and the modeled counts it rides on.

``ScheduleFabric`` keeps one live-tag count per shard, refreshed on
every mutation path, instead of asking each store for its length on
every route, rebalance check, and ``len()``.  The property test drives
every mutation path — including rebalances that migrate backlog and a
snapshot round trip — and checks the cache against the stores after each
step.  The pinned stream below fixes the modeled cycles and per-structure
access counters per engine, so a speed-up in the bookkeeping cannot
change what the circuits are charged.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import numpy_or_none
from repro.fabric.fabric import ScheduleFabric
from repro.fabric.manager import FabricPolicy
from repro.net.hardware_store import HardwareTagStore

#: rebalances arm after a few dozen tags and may re-arm on the next op
AGGRESSIVE = dict(
    spill_threshold=1.0,
    rebalance_ratio=2.0,
    rebalance_min_backlog=16,
    rebalance_cooldown_ops=1,
    max_moves_per_rebalance=4,
)

needs_numpy = pytest.mark.skipif(
    numpy_or_none() is None, reason="numpy is not installed"
)
ENGINES = [
    pytest.param("turbo", id="turbo"),
    pytest.param("vector", id="vector", marks=needs_numpy),
]


class Caller:
    """A fabric plus the live handles a caller would hold.

    Each tracked push carries a unique token as its payload, so served
    entries retire their handles and migrations remap them.
    """

    def __init__(self, mode, *, shards=3, capacity=256):
        self.mode = mode
        self.policy = FabricPolicy(**AGGRESSIVE)
        self.fabric = ScheduleFabric(
            shards=shards,
            granularity=1.0,
            capacity_per_shard=capacity,
            mode=mode,
            policy=self.policy,
        )
        self.fabric.add_relocation_listener(self._relocate)
        self.handles = {}
        self.next_token = 0
        self.base = 0.0

    def _relocate(self, moves):
        for token, handle in self.handles.items():
            self.handles[token] = moves.get(handle, handle)

    def _retire(self, served):
        for _tag, token in served:
            self.handles.pop(token, None)

    def restore(self):
        state = self.fabric.to_state()
        self.fabric = ScheduleFabric.from_state(
            state, mode=self.mode, policy=self.policy
        )
        self.fabric.add_relocation_listener(self._relocate)

    def push(self, flow, offset):
        token = self.next_token
        self.next_token += 1
        self.handles[token] = self.fabric.push(
            self.base + offset, flow, payload=token
        )

    def push_batch(self, pairs):
        """Untracked ``(offset, flow)`` pushes (payload -1: no handle)."""
        self.fabric.push_batch(
            [(self.base + offset, flow, -1) for offset, flow in pairs]
        )

    def pop_min(self):
        self._retire([self.fabric.pop_min()])

    def pop_batch(self, count):
        self._retire(self.fabric.pop_batch(count))

    def pick(self, index):
        return sorted(self.handles)[index % len(self.handles)]

    def remove(self, index):
        self.fabric.remove(self.handles.pop(self.pick(index)))

    def retag(self, index, offset):
        token = self.pick(index)
        self.handles[token] = self.fabric.retag(
            self.handles[token], self.base + offset
        )

    def drain(self):
        self.pop_batch(len(self.fabric))

    def assert_cache(self):
        actual = [len(store) for store in self.fabric.stores]
        assert self.fabric.occupancies() == actual
        assert len(self.fabric) == sum(actual)


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 7), st.integers(0, 90)),
        st.tuples(
            st.just("push_batch"),
            st.lists(st.integers(0, 7), min_size=1, max_size=12),
            st.integers(0, 90),
        ),
        st.tuples(st.just("skew"), st.integers(0, 7), st.integers(8, 40)),
        st.tuples(st.just("pop_min")),
        st.tuples(st.just("pop_batch"), st.integers(0, 30)),
        st.tuples(st.just("remove"), st.integers(0, 1000)),
        st.tuples(st.just("retag"), st.integers(0, 1000), st.integers(0, 90)),
        st.tuples(st.just("advance"), st.integers(1, 60)),
        st.tuples(st.just("drain")),
        st.tuples(st.just("restore")),
    ),
    max_size=60,
)


@pytest.mark.parametrize("mode", ENGINES)
@settings(max_examples=40, deadline=None)
@given(ops=OPS)
def test_cached_occupancy_tracks_stores(mode, ops):
    caller = Caller(mode)
    for op in ops:
        kind = op[0]
        held = len(caller.fabric)
        if kind == "push" and held < 700:
            caller.push(op[1], op[2])
        elif kind == "push_batch" and held < 700:
            caller.push_batch(
                [(op[2] + index, flow) for index, flow in enumerate(op[1])]
            )
        elif kind == "skew":
            # One flow floods its home shard: arms a migrating rebalance.
            for index in range(min(op[2], 700 - held)):
                caller.push(op[1], index % 30)
        elif kind == "pop_min" and held:
            caller.pop_min()
        elif kind == "pop_batch":
            caller.pop_batch(min(op[1], held))
        elif kind == "remove" and caller.handles:
            caller.remove(op[1])
        elif kind == "retag" and caller.handles:
            caller.retag(op[1], op[2])
        elif kind == "advance" and not held:
            caller.base += op[1]
        elif kind == "drain":
            caller.drain()
        elif kind == "restore":
            caller.restore()
        caller.assert_cache()


@pytest.mark.parametrize("mode", ENGINES)
def test_migrating_rebalance_keeps_cache_exact(mode):
    caller = Caller(mode, shards=2, capacity=4096)
    for index in range(200):
        caller.push(11, index % 100)
        caller.assert_cache()
    assert caller.fabric.manager.entries_migrated > 0
    assert min(caller.fabric.occupancies()) > 0


def test_occupancies_returns_a_copy():
    fabric = ScheduleFabric(shards=2, capacity_per_shard=64)
    fabric.push(1.0, 0)
    snapshot = fabric.occupancies()
    snapshot[0] += 100
    assert sum(fabric.occupancies()) == 1 == len(fabric)


# ----------------------------------------------------------------------
# modeled counts: pinned per engine over one seeded op stream

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


def drive_fabric_stream(mode, seed=3, ops=3000):
    """A seeded mix of every fabric verb with frequent drains to empty.

    Each busy period starts with an initialization-mode flush
    (``clear_all``), and the aggressive policy migrates backlog.
    """
    rng = random.Random(seed)
    caller = Caller(mode)
    fabric = caller.fabric
    for _ in range(ops):
        caller.base += rng.random() * 3
        roll = rng.random()
        held = len(fabric)
        if roll < 0.4:
            if held < 600:
                caller.push(rng.randrange(12), rng.randrange(120))
        elif roll < 0.5:
            if held < 500:
                caller.push_batch(
                    [
                        (rng.randrange(120), rng.randrange(12))
                        for _ in range(rng.randrange(1, 20))
                    ]
                )
        elif roll < 0.65:
            if held:
                caller.pop_min()
        elif roll < 0.75:
            if held:
                caller.pop_batch(rng.randrange(1, held + 1))
        elif roll < 0.85:
            if caller.handles:
                caller.remove(rng.randrange(1 << 16))
        elif roll < 0.95:
            if caller.handles:
                caller.retag(rng.randrange(1 << 16), rng.randrange(120))
        else:
            caller.drain()
    rows = [counter_row(store) for store in fabric.stores]
    return rows, fabric.manager.entries_migrated


def drive_lap_stream(mode, ops=3000):
    """One store kept busy across laps of the tag space.

    A standing backlog means no initialization-mode flush; instead the
    frontier passes sections still holding the previous lap's stale
    markers and purges them (``clear_root_section``).
    """
    store = HardwareTagStore(granularity=1.0, capacity=16, mode=mode)
    tag = 0.0
    for step in range(ops):
        tag += 5.0
        store.push(tag, step)
        if len(store) > 4:
            store.pop_min()
    return counter_row(store), store.markers_purged


#: per shard (see :func:`counter_row`), as the per-address ``poke``
#: flushes and the per-call ``len()`` fan-out produced them
SCALAR_FABRIC = [
    (11549, 1761, 475, 1776, 610, 2076, 1043, 1005, 1366, 3725, 4261),
    (13221, 1982, 474, 1991, 630, 2323, 1098, 1183, 1545, 4433, 4923),
    (12075, 1686, 502, 1687, 631, 2025, 1060, 944, 1377, 3872, 4419),
]
VECTOR_FABRIC = [
    (11548, 1136, 616, 1136, 616, 1352, 1349, 877, 1366, 3423, 4060),
    (13213, 1250, 614, 1250, 614, 1502, 1567, 1034, 1545, 4021, 4671),
    (12072, 1088, 583, 1088, 583, 1343, 1514, 822, 1377, 3535, 4183),
]
SCALAR_LAPS = (23984, 6060, 102, 5999, 938, 5999, 3000, 2999, 3000, 8979, 8995)
VECTOR_LAPS = (23984, 3000, 3000, 3000, 3000, 3000, 3928, 2999, 3000, 8994, 8995)
PINNED = [
    pytest.param("gate", SCALAR_FABRIC, SCALAR_LAPS, id="gate"),
    pytest.param("turbo", SCALAR_FABRIC, SCALAR_LAPS, id="turbo"),
    pytest.param(
        "vector", VECTOR_FABRIC, VECTOR_LAPS, id="vector", marks=needs_numpy
    ),
]


@pytest.mark.parametrize("mode,fabric_rows,lap_row", PINNED)
def test_modeled_counts_pinned(mode, fabric_rows, lap_row):
    rows, migrated = drive_fabric_stream(mode)
    assert migrated == 424
    assert rows == fabric_rows
    row, purged = drive_lap_stream(mode)
    assert purged == 2201
    assert row == lap_row
