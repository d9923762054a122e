"""``MultiBitTree.remove_marker`` over the raw cells, against the port walk.

``remove_marker`` reads and writes each level's cells directly and
charges its :class:`AccessStats` in place, for both engines.  The
reference below is the walk through the memory objects' ``read`` and
``write``; both must leave identical node words, per-level counters and
return values.  Gate and turbo circuits, driven by one insert / remove /
dequeue stream in eager marker mode (cancel and retire both prune
markers), must end with identical trees.
"""

from hypothesis import given, settings, strategies as st

from repro.core.engine import make_circuit
from repro.core.tree import MultiBitTree
from repro.core.words import FIGURE_FORMAT, PAPER_FORMAT
from repro.hwsim.errors import ProtocolError


def port_walk_remove(tree, value):
    """The memory-object walk: one read per level, prune bottom-up."""
    b = tree.fmt.branching_factor
    prefix = 0
    path = []
    for level, literal in enumerate(tree.fmt.literals(value)):
        node = tree._levels[level].read(prefix)
        if not node >> literal & 1:
            return False
        path.append((level, prefix, literal, node))
        prefix = prefix * b + literal
    for level, node_prefix, literal, node in reversed(path):
        node &= ~(1 << literal)
        tree._levels[level].write(node_prefix, node)
        if node != 0:
            break
    tree._count -= 1
    return True


def snapshot(tree):
    """Node words and (reads, writes) of every level, plus the count."""
    return (
        [list(level._cells) for level in tree._levels],
        [(level.stats.reads, level.stats.writes) for level in tree._levels],
        tree.marker_count,
    )


@settings(max_examples=150, deadline=None)
@given(
    fmt=st.sampled_from([FIGURE_FORMAT, PAPER_FORMAT]),
    data=st.data(),
)
def test_remove_marker_matches_the_port_walk(fmt, data):
    ops = data.draw(
        st.lists(
            st.tuples(
                st.booleans(), st.integers(min_value=0, max_value=fmt.max_value)
            ),
            max_size=120,
        )
    )
    fused, ported = MultiBitTree(fmt), MultiBitTree(fmt)
    for insert, value in ops:
        if insert:
            assert fused.insert_marker(value) == ported.insert_marker(value)
        else:
            # Also removes values never marked: the early exit must
            # charge the same reads.
            assert fused.remove_marker(value) == port_walk_remove(
                ported, value
            )
        assert snapshot(fused) == snapshot(ported)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["insert", "remove", "dequeue"]),
            st.integers(min_value=0, max_value=4095),
        ),
        max_size=150,
    )
)
def test_gate_and_turbo_trees_match_under_churn(ops):
    circuits = [
        make_circuit(
            PAPER_FORMAT, mode=mode, capacity=64, eager_marker_removal=True
        )
        for mode in ("gate", "turbo")
    ]
    handles = []
    for verb, value in ops:
        outcomes = []
        for circuit in circuits:
            try:
                if verb == "insert":
                    if circuit.count == 64:
                        outcomes.append("full")
                        continue
                    outcomes.append(circuit.insert(value))
                elif verb == "remove":
                    if not handles:
                        outcomes.append(None)
                        continue
                    handle = handles[value % len(handles)]
                    outcomes.append(circuit.remove(handle).tag)
                elif circuit.count:
                    outcomes.append(circuit.dequeue_min().address)
                else:
                    outcomes.append(None)
            except ProtocolError:
                outcomes.append("refused")
        assert outcomes[0] == outcomes[1]
        outcome = outcomes[0]
        if verb == "insert" and isinstance(outcome, int):
            handles.append(outcome)
        elif verb == "remove" and outcome not in (None, "refused"):
            handles.remove(handles[value % len(handles)])
        elif verb == "dequeue" and outcome is not None:
            handles.remove(outcome)
    gate, turbo = (snapshot(circuit.tree) for circuit in circuits)
    assert gate == turbo
