"""The fabric's per-op selections against their reference forms.

``TournamentAggregator.update`` replays its leaf-to-root path inline;
the reference here is the per-node pick it replaced, plus a winner
recomputed over every leaf.  ``ShardManager.plan_rebalance`` finds its hot
and cool shards from ``max``/``min`` and ``list.index``; the reference
is the keyed ``max``/``min`` over shard indices.  Both must agree on
every winner, tie and counter.
"""

from hypothesis import given, settings, strategies as st

from repro.fabric.manager import FabricPolicy, ShardManager
from repro.fabric.partitioner import FlowPartitioner
from repro.fabric.tournament import TournamentAggregator

SPACE = 4096


class PickTournament:
    """The per-node ``_pick`` walk: recompute each node on the path from
    its two children, counting a comparison only when both are valid."""

    def __init__(self, leaves, space):
        size = 1
        while size < leaves:
            size <<= 1
        self.size = size
        self.space = space
        self.tags = [None] * leaves
        self.nodes = [None] * (2 * size)
        self.comparisons = 0

    def _pick(self, left, right):
        if left is None:
            return right
        if right is None:
            return left
        self.comparisons += 1
        if (self.tags[right] - self.tags[left]) % self.space >= self.space // 2:
            return right
        return left

    def update(self, leaf, tag):
        self.tags[leaf] = tag
        node = self.size + leaf
        self.nodes[node] = leaf if tag is not None else None
        node >>= 1
        while node:
            self.nodes[node] = self._pick(
                self.nodes[2 * node], self.nodes[2 * node + 1]
            )
            node >>= 1


def full_scan_winner(tags):
    """Lowest index among the wrap-aware minimum tags (span < half)."""
    best = None
    for index, tag in enumerate(tags):
        if tag is None:
            continue
        if best is None or (tag - tags[best]) % SPACE >= SPACE // 2:
            best = index
    return best


@settings(max_examples=200, deadline=None)
@given(
    leaves=st.integers(min_value=1, max_value=9),
    base=st.integers(min_value=0, max_value=SPACE - 1),
    data=st.data(),
)
def test_inline_update_matches_pick_walk_and_full_scan_winner(
    leaves, base, data
):
    # Tags stay in one half-space window from ``base`` (the span guard),
    # few distinct offsets so ties are common, and some leaves empty.
    updates = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=leaves - 1),
                st.one_of(
                    st.none(),
                    st.sampled_from([0, 1, 2, 700, SPACE // 2 - 1]),
                    st.integers(min_value=0, max_value=SPACE // 2 - 1),
                ),
            ),
            max_size=60,
        )
    )
    inline = TournamentAggregator(leaves, space=SPACE)
    reference = PickTournament(leaves, SPACE)
    for leaf, offset in updates:
        tag = None if offset is None else (base + offset) % SPACE
        before = reference.comparisons
        spent = inline.update(leaf, tag)
        reference.update(leaf, tag)
        assert spent == reference.comparisons - before
        assert inline.comparisons == reference.comparisons
        assert inline._nodes == reference.nodes
        assert inline.winner == full_scan_winner(reference.tags)
    assert inline.updates == len(updates)


def keyed_selection(occupancies):
    """The keyed ``max``/``min`` over shard indices (lowest index wins)."""
    shards = range(len(occupancies))
    hot = max(shards, key=lambda s: (occupancies[s], -s))
    cool = min(shards, key=lambda s: (occupancies[s], s))
    return hot, cool, (occupancies[hot] + 1) / (occupancies[cool] + 1)


@settings(max_examples=300, deadline=None)
@given(
    occupancies=st.lists(
        st.integers(min_value=0, max_value=40), min_size=2, max_size=8
    ),
    ratio=st.sampled_from([1.0, 1.5, 2.0, 4.0]),
    min_backlog=st.sampled_from([0, 40, 120]),
)
def test_plan_rebalance_matches_keyed_selection(
    occupancies, ratio, min_backlog
):
    shards = len(occupancies)
    manager = ShardManager(
        FlowPartitioner(shards),
        shard_capacity=64,
        policy=FabricPolicy(
            rebalance_ratio=ratio,
            rebalance_min_backlog=min_backlog,
            rebalance_cooldown_ops=0,
        ),
    )
    # One live flow pinned to every shard, so any hot shard can move.
    first_flow = {}
    flow = 0
    while len(first_flow) < shards:
        first_flow.setdefault(manager.partitioner.shard_for(flow), flow)
        flow += 1
    flow_live = {flow_id: 1 for flow_id in first_flow.values()}
    hot, cool, before = keyed_selection(occupancies)
    plan = manager.plan_rebalance(occupancies, flow_live, total_ops=0)
    if sum(occupancies) < min_backlog or before < ratio:
        assert plan is None
    else:
        assert (plan.source, plan.target, plan.ratio_before) == (
            hot,
            cool,
            before,
        )
