"""The in-place tree resets: initialization flush and section clear.

``MultiBitTree.clear_all`` (the Section III-A initialization-mode flush)
and ``clear_root_section`` (the Fig. 6 section delete) zero the deeper
levels with one slice assignment per level.  Three things must hold:

* the turbo walks, which hold each level's ``_cells`` list by identity,
  see the zeroed words (no level list is ever rebound);
* served order after a drain and a lower-tag refill matches gate;
* the access counters equal those of the per-address ``poke`` loops the
  slice assignment replaced — the root update is the only access charged.
"""

import pytest

from repro.core.engine import make_circuit
from repro.core.tree import MultiBitTree
from repro.core.words import PAPER_FORMAT

HIGH_TAGS = [2000, 2047, 2100, 3000, 3500, 4095]
LOW_TAGS = [5, 100, 7, 64, 5, 1999]


def poke_clear_all(tree):
    """The replaced flush: one root write, then per-address pokes."""
    tree._levels[0].write(0, 0)
    for level in tree._levels[1:]:
        for address in range(level.size):
            level.poke(address, 0)
    tree._count = 0


def poke_clear_root_section(tree, root_literal):
    """The replaced section clear (root read + write, then pokes)."""
    b = tree.fmt.branching_factor
    root = tree._levels[0].read(0)
    if not root >> root_literal & 1:
        return 0
    removed = tree._count_section(root_literal)
    tree._levels[0].write(0, root & ~(1 << root_literal))
    for level in range(1, tree.fmt.levels):
        span = b ** (level - 1)
        start = root_literal * span
        for address in range(start, start + span):
            tree._levels[level].poke(address, 0)
    tree._count -= removed
    return removed


def stats_of(tree):
    return [level.stats.to_dict() for level in tree._levels]


def loaded_tree(values):
    tree = MultiBitTree(PAPER_FORMAT)
    for value in values:
        tree.insert_marker(value)
    return tree


def assert_walk_identity(tree):
    for (cells, stats), level in zip(tree._turbo_walk, tree._levels):
        assert cells is level._cells
        assert stats is level.stats


def drain_and_refill(mode):
    """Serve a busy period, go idle, then start lower: the flush case."""
    circuit = make_circuit(PAPER_FORMAT, mode=mode, capacity=64)
    served = []
    for tag in HIGH_TAGS:
        circuit.insert(tag, ("high", tag))
    served += [circuit.dequeue_min() for _ in HIGH_TAGS]
    # Deferred deletion leaves the busy period's markers behind.
    assert not circuit.tree.is_empty
    for tag in LOW_TAGS:
        circuit.insert(tag, ("low", tag))
    served += [circuit.dequeue_min() for _ in LOW_TAGS]
    return circuit, [(s.tag, s.payload) for s in served]


@pytest.mark.parametrize("mode", ["gate", "turbo"])
def test_refill_after_flush_serves_lower_tags_in_order(mode):
    circuit, served = drain_and_refill(mode)
    _, gate_served = drain_and_refill("gate")
    assert served == gate_served
    assert [tag for tag, _ in served[len(HIGH_TAGS):]] == sorted(LOW_TAGS)
    assert_walk_identity(circuit.tree)
    circuit.check_invariants()


def test_turbo_walk_sees_zeroed_words():
    circuit = make_circuit(PAPER_FORMAT, mode="turbo", capacity=64)
    for tag in HIGH_TAGS:
        circuit.insert(tag)
    for _ in HIGH_TAGS:
        circuit.dequeue_min()
    circuit.flush_stale_markers()
    tree = circuit.tree
    assert_walk_identity(tree)
    for cells, _stats in tree._turbo_walk:
        assert not any(cells)
    assert tree.closest_fast(PAPER_FORMAT.max_value) is None


def test_clear_all_counts_match_poke_flush():
    values = HIGH_TAGS + LOW_TAGS
    tree, reference = loaded_tree(values), loaded_tree(values)
    before = stats_of(tree)
    tree.clear_all()
    poke_clear_all(reference)
    assert stats_of(tree) == stats_of(reference)
    assert tree.to_state() == reference.to_state()
    # The flush is charged as exactly one root write.
    after = stats_of(tree)
    assert after[0]["writes"] == before[0]["writes"] + 1
    assert after[0]["reads"] == before[0]["reads"]
    assert after[1:] == before[1:]
    assert tree.is_empty and tree.min_marked() is None
    assert_walk_identity(tree)


@pytest.mark.parametrize("root_literal", [0, 7, 8, 15])
def test_clear_root_section_counts_match_poke_clear(root_literal):
    values = HIGH_TAGS + LOW_TAGS
    tree, reference = loaded_tree(values), loaded_tree(values)
    before = stats_of(tree)
    removed = tree.clear_root_section(root_literal)
    assert removed == poke_clear_root_section(reference, root_literal)
    assert stats_of(tree) == stats_of(reference)
    assert tree.to_state() == reference.to_state()
    # Charged as one root read-modify-write; the subtree is not charged.
    after = stats_of(tree)
    assert removed > 0
    assert after[0]["reads"] == before[0]["reads"] + 1
    assert after[0]["writes"] == before[0]["writes"] + 1
    assert after[1:] == before[1:]
    section = PAPER_FORMAT.capacity // PAPER_FORMAT.branching_factor
    survivors = sorted(
        {v for v in values if v // section != root_literal}
    )
    assert tree.marked_values() == survivors
    assert_walk_identity(tree)
    tree.check_invariants()
