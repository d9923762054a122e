"""The vector engine: the whole circuit as contiguous numpy arrays.

``--mode vector`` holds every structure of the paper's circuit as flat
word arrays and executes the batched operations as whole-array ops:

* **Tree levels** — one unsigned-word array per level (16-bit node
  words for the silicon configuration), root first.  The leaf level is
  maintained eagerly (one masked OR / AND-NOT per batch, duplicates
  folded with ``np.bitwise_or.at``); the upper levels are rebuilt
  lazily from the leaf words — one reshape + pack per level — only
  when a snapshot, invariant check, or section clear needs them.
* **Tag storage** — bucket FIFOs over the tag space: ``bucket_head`` /
  ``bucket_tail`` / ``bucket_count`` arrays indexed by tag value plus
  ``entry_next`` / ``entry_tag`` arrays indexed by storage address.
  This is the same global sorted linked list as the gate engine, just
  factored by value, so the service order (FCFS among duplicates) and
  the storage addresses are *identical* to gate: allocation follows
  the Fig. 10 discipline exactly (init counter first, then LIFO pops
  of the threaded empty list, kept here as an explicit stack).
* **Occupancy** — a uint64 bitmap of live slots (one bit per storage
  address); the free list is the bitmap's complement over
  counter-issued addresses, ordered by the stack.

Contract split (DESIGN.md §15): served order, payloads, storage
addresses, and ``to_state()`` snapshots are gate-identical — the
differential suite asserts them pairwise across engines — while
``cycles`` and the per-structure access counters are *modeled*
per-engine costs that stay within the invariant monitors'
architectural budgets (insert ≤ 2R+2W storage, deferred dequeue
exactly 1R+1W, batch spans within per-op budgets × count) rather than
replicas of the gate-accurate traffic.

numpy is resolved through :func:`repro.core.engine.require_numpy`, so
constructing this engine without numpy raises a clear
:class:`~repro.hwsim.errors.ConfigurationError`; importing this module
never does.
"""

from __future__ import annotations

from itertools import repeat
from operator import index as _as_index
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from ..hwsim.errors import (
    CapacityError,
    ConfigurationError,
    EmptyStructureError,
    ProtocolError,
)
from ..hwsim.stats import AccessStats, StatsRegistry
from ..obs.tracer import NULL_TRACER
from .engine import require_numpy
from .sort_retrieve import FIXED_OP_CYCLES, ServedTag

#: ``tuple.__new__`` bound once: building a ServedTag per served entry is
#: the hot floor of the batch drain, and going through ``tuple.__new__``
#: directly (instead of ``ServedTag._make``'s Python frame) keeps the
#: whole construction loop in C.
_TUPLE_NEW = tuple.__new__
from .words import PAPER_FORMAT, WordFormat, popcount_array, popcount_word

__all__ = ["VectorSortRetrieveCircuit"]


def _node_dtype(np, branching_factor: int):
    """Smallest unsigned word type holding one presence bit per child."""
    if branching_factor <= 16:
        return np.uint16
    if branching_factor <= 32:
        return np.uint32
    if branching_factor <= 64:
        return np.uint64
    raise ConfigurationError(
        f"vector engine supports node words up to 64 bits, "
        f"got branching factor {branching_factor}"
    )


class _VectorStorageView:
    """The slice of the gate storage surface the outer layers consume.

    ``net/`` and ``fabric/`` reach through ``circuit.storage`` for head
    registers, occupancy, the walk, and the stats object (the fault
    hooks charge it directly); this view forwards them to the array
    state so those layers stay engine-agnostic.
    """

    def __init__(self, circuit: "VectorSortRetrieveCircuit") -> None:
        self._circuit = circuit
        self.stats: AccessStats = circuit._stats_storage

    @property
    def capacity(self) -> int:
        return self._circuit.capacity

    @property
    def modular(self) -> bool:
        return self._circuit.modular

    @property
    def count(self) -> int:
        return self._circuit._count

    # The gate storage exposes these private registers; the retag /
    # head-sync paths read them, so the view mirrors the names.
    @property
    def _count(self) -> int:
        return self._circuit._count

    @property
    def is_empty(self) -> bool:
        return self._circuit._count == 0

    @property
    def is_full(self) -> bool:
        return self._circuit._count >= self._circuit.capacity

    @property
    def min_tag(self) -> Optional[int]:
        return self._circuit._head_tag

    @property
    def _head_tag(self) -> Optional[int]:
        return self._circuit._head_tag

    @property
    def _head_address(self) -> Optional[int]:
        return self._circuit._head_address()

    @property
    def allocations_remaining_in_counter(self) -> int:
        return self._circuit.capacity - self._circuit._counter_next

    def peek_head(self) -> Optional[Tuple[int, Any, int]]:
        circuit = self._circuit
        head = circuit._head_tag
        if head is None:
            return None
        address = int(circuit._bucket_head[head])
        return (head, circuit._payload[address], address)

    def walk(self) -> List[Tuple[int, int]]:
        return self._circuit.walk()

    def check_invariants(self) -> None:
        self._circuit.check_invariants()


class VectorSortRetrieveCircuit:
    """Array-data-plane twin of :class:`TagSortRetrieveCircuit`.

    Same operations, same served order, same addresses, same snapshot
    format; batch paths run as numpy array ops.  See the module
    docstring for the layout and the per-engine accounting contract.
    """

    mode = "vector"
    fault_injection = None
    head_cache_hits = 0  # gate telemetry knob; the vector engine has no cache

    def __init__(
        self,
        fmt: WordFormat = PAPER_FORMAT,
        *,
        capacity: int = 4096,
        eager_marker_removal: bool = False,
        modular: bool = False,
        fast_mode: bool = False,
        tracer=None,
    ) -> None:
        np = require_numpy("--mode vector (the array data-plane engine)")
        self._xp = np
        if capacity < 1:
            raise ConfigurationError("capacity must be at least 1")
        if modular and eager_marker_removal:
            raise ConfigurationError(
                "modular (wrapping) mode relies on deferred marker removal"
            )
        self.fmt = fmt
        self.capacity = capacity
        self.eager_marker_removal = eager_marker_removal
        self.modular = modular
        self._fast_mode = bool(fast_mode)
        self._tag_space = fmt.capacity
        self._half_space = fmt.capacity // 2
        self._section_bits = fmt.word_bits - fmt.literal_bits
        self._literal_bits = fmt.literal_bits
        self._branching = fmt.branching_factor

        # -- tag storage as bucket FIFOs + explicit free stack ----------
        self._bucket_head = np.full(self._tag_space, -1, dtype=np.int64)
        self._bucket_tail = np.full(self._tag_space, -1, dtype=np.int64)
        self._bucket_count = np.zeros(self._tag_space, dtype=np.int64)
        self._entry_next = np.full(capacity, -1, dtype=np.int64)
        self._entry_tag = np.full(capacity, -1, dtype=np.int64)
        self._payload: List[Any] = [None] * capacity
        # Live (non-None) payload count: lets tag-only batch drains skip
        # the per-serve payload gather/clear loops entirely.
        self._payload_live = 0
        self._free_stack = np.zeros(capacity, dtype=np.int64)
        self._free_top = 0
        self._counter_next = 0  # Fig. 10 init counter (addresses issued)
        self._occ = np.zeros((capacity + 63) // 64, dtype=np.uint64)
        self._head_tag: Optional[int] = None
        self._count = 0

        # -- tree levels as word arrays, root first ----------------------
        dtype = _node_dtype(np, self._branching)
        self._levels_arr = [
            np.zeros(self._branching**level, dtype=dtype)
            for level in range(fmt.levels)
        ]
        self._leaf = self._levels_arr[-1]
        self._tree_count = 0
        self._upper_dirty = False

        # -- translation table (includes stale entries, like gate) -------
        self._trans = np.full(self._tag_space, -1, dtype=np.int64)

        self.cycles = 0
        self.operations = 0
        self._stats_translation = AccessStats()
        self._stats_storage = AccessStats()
        self._stats_tree = [AccessStats() for _ in range(fmt.levels)]
        self.registry = StatsRegistry()
        self.registry.register("translation_table", self._stats_translation)
        self.registry.register("tag_storage", self._stats_storage)
        for level in range(fmt.levels):
            self.registry.register(
                f"tree_level_{level}", self._stats_tree[level]
            )
        self.storage = _VectorStorageView(self)
        self.tracer = NULL_TRACER
        if tracer is not None:
            self.attach_tracer(tracer)

    # ------------------------------------------------------------------
    # observers (gate-identical surface)

    @property
    def count(self) -> int:
        """Number of tags currently stored."""
        return self._count

    @property
    def is_empty(self) -> bool:
        """True when the circuit holds no tags."""
        return self._count == 0

    @property
    def fast_mode(self) -> bool:
        """Shadow-skip flag; the vector engine keeps no shadow either way."""
        return self._fast_mode

    @fast_mode.setter
    def fast_mode(self, enabled: bool) -> None:
        self._fast_mode = bool(enabled)

    @property
    def turbo(self) -> bool:
        """Always False: vector is its own engine, not a turbo variant."""
        return False

    @turbo.setter
    def turbo(self, enabled: bool) -> None:
        if bool(enabled):
            raise ConfigurationError(
                "the vector engine has no turbo variant (use mode='turbo')"
            )

    @property
    def live_handles(self) -> int:
        """Number of live handles (equals :attr:`count` by invariant)."""
        return self._count

    @property
    def free_list_depth(self) -> int:
        """Links currently threaded on the free stack (Fig. 10)."""
        return self._free_top

    def peek_min(self) -> Optional[int]:
        """The smallest stored tag, from the head register (zero cost)."""
        return self._head_tag

    def peek_head(self) -> Optional[ServedTag]:
        """The head entry without dequeuing it (register read, no cost)."""
        head = self._head_tag
        if head is None:
            return None
        address = int(self._bucket_head[head])
        return ServedTag(
            tag=head, payload=self._payload[address], address=address
        )

    def total_stats(self) -> AccessStats:
        """Summed (modeled) memory traffic across every structure."""
        return self.registry.total()

    def describe(self) -> dict:
        """Gate-shaped configuration snapshot (snapshot interchange key)."""
        return {
            "levels": self.fmt.levels,
            "literal_bits": self.fmt.literal_bits,
            "word_bits": self.fmt.word_bits,
            "branching_factor": self.fmt.branching_factor,
            "tag_space": self.fmt.capacity,
            "capacity": self.capacity,
            "modular": self.modular,
            "eager_marker_removal": self.eager_marker_removal,
            "fast_mode": self._fast_mode,
            "turbo": False,
        }

    # ------------------------------------------------------------------
    # internal register helpers

    def _head_address(self) -> Optional[int]:
        head = self._head_tag
        if head is None:
            return None
        return int(self._bucket_head[head])

    def _check_monotone(self, tag: int) -> None:
        self._check_monotone_against(tag, self._head_tag)

    def _check_monotone_against(
        self, tag: int, minimum: Optional[int]
    ) -> None:
        if minimum is None:
            return
        if self.modular:
            distance = (tag - minimum) % self._tag_space
            if distance >= self._half_space:
                raise ProtocolError(
                    f"tag {tag} is behind the window minimum {minimum} "
                    f"(wrapped distance {distance})"
                )
        elif tag < minimum:
            raise ProtocolError(
                f"WFQ invariant violated: tag {tag} below current "
                f"minimum {minimum} (use eager_marker_removal=True for "
                "general priority-queue workloads)"
            )

    def _next_live_tag(self, start: int) -> Optional[int]:
        """Smallest live tag at or after ``start`` (modular wraps)."""
        bc = self._bucket_count
        if start < self._tag_space:
            segment = bc[start:]
            pos = int((segment > 0).argmax())
            if segment[pos]:
                return start + pos
        if self.modular and start > 0:
            segment = bc[:start]
            pos = int((segment > 0).argmax())
            if segment[pos]:
                return pos
        return None

    def _advance_head(self, departed: int) -> None:
        """Recompute the head register after ``departed`` drained."""
        if self._count == 0:
            self._head_tag = None
            return
        start = departed + 1
        if self.modular:
            start %= self._tag_space
        head = self._next_live_tag(start)
        if head is None:
            raise ProtocolError(
                f"vector engine lost the minimum: {self._count} live tags "
                f"but no bucket at or after {start}"
            )
        self._head_tag = head

    def _alloc(self) -> int:
        """One Fig. 10 allocation: init counter first, then LIFO pop."""
        if self._counter_next < self.capacity:
            address = self._counter_next
            self._counter_next = address + 1
            return address
        top = self._free_top
        if top == 0:
            raise ProtocolError(
                "counter exhausted and free stack empty, but count < capacity"
            )
        self._free_top = top - 1
        return int(self._free_stack[top - 1])

    def _release(self, address: int) -> None:
        """Thread a departed slot back onto the free stack (LIFO)."""
        self._free_stack[self._free_top] = address
        self._free_top += 1
        self._occ[address >> 6] &= ~self._xp.uint64(1 << (address & 63))

    def _occupy(self, address: int) -> None:
        self._occ[address >> 6] |= self._xp.uint64(1 << (address & 63))

    def _is_live(self, address: int) -> bool:
        return bool((int(self._occ[address >> 6]) >> (address & 63)) & 1)

    # ------------------------------------------------------------------
    # tree marker helpers (leaf eager, upper levels lazy)

    def _mark_dirty(self) -> None:
        self._upper_dirty = True

    def _set_leaf_marker(self, tag: int) -> bool:
        """Set ``tag``'s leaf bit; True when the marker is new."""
        word_index = tag >> self._literal_bits
        bit = tag & (self._branching - 1)
        word = int(self._leaf[word_index])
        if (word >> bit) & 1:
            return False
        self._leaf[word_index] = word | (1 << bit)
        self._tree_count += 1
        self._upper_dirty = True
        return True

    def _clear_leaf_marker(self, tag: int) -> None:
        word_index = tag >> self._literal_bits
        bit = tag & (self._branching - 1)
        word = int(self._leaf[word_index])
        if (word >> bit) & 1:
            self._leaf[word_index] = word & ~(1 << bit)
            self._tree_count -= 1
            self._upper_dirty = True

    def _clear_tree(self) -> None:
        for level in self._levels_arr:
            level.fill(0)
        self._tree_count = 0
        self._upper_dirty = False

    def _rebuild_upper(self) -> None:
        """Repack the upper tree levels from the leaf words."""
        if not self._upper_dirty:
            return
        np = self._xp
        b = self._branching
        weights = (np.uint64(1) << np.arange(b, dtype=np.uint64))
        for level in range(len(self._levels_arr) - 1, 0, -1):
            child = self._levels_arr[level]
            parent = self._levels_arr[level - 1]
            present = (child.reshape(parent.size, b) != 0).astype(np.uint64)
            parent[:] = (present * weights).sum(axis=1).astype(parent.dtype)
        self._upper_dirty = False

    def _charge_tree(self, *, reads: int = 0, writes: int = 0) -> None:
        for stats in self._stats_tree:
            stats.reads += reads
            stats.writes += writes

    # ------------------------------------------------------------------
    # the paper's per-op surface

    def _spend_operation(self) -> None:
        self.cycles += FIXED_OP_CYCLES
        self.operations += 1

    def insert(self, tag: int, payload: Any = None) -> int:
        """Sort ``tag`` into the circuit; returns its storage address."""
        self.fmt.check_value(tag)
        if not self.eager_marker_removal:
            self._check_monotone(tag)
        if self._count >= self.capacity:
            raise CapacityError(
                f"tag storage full ({self.capacity} links in use)"
            )
        was_empty = self._count == 0
        if (
            was_empty
            and not self.eager_marker_removal
            and self._tree_count
        ):
            # Initialization mode (Section III-A): wipe stale markers
            # left by the busy period that just drained.
            self._clear_tree()
        address = self._alloc()
        self._append_entry(tag, address, payload)
        new_marker = self._set_leaf_marker(tag)
        self._trans[tag] = address
        self._count += 1
        if self._head_tag is None or (
            not self.modular and tag < self._head_tag
        ):
            self._head_tag = tag
        # Modeled accounting: within the gate insert's 2R+2W storage
        # window, one translation lookup+record, one node read per
        # level (+ a write where the marker is new).
        storage = self._stats_storage
        if was_empty:
            storage.writes += 1
            self._stats_translation.writes += 1
        else:
            storage.reads += 2
            storage.writes += 2
            self._stats_translation.reads += 1
            self._stats_translation.writes += 1
        self._charge_tree(reads=1, writes=1 if new_marker else 0)
        self._spend_operation()
        return address

    def _append_entry(self, tag: int, address: int, payload: Any) -> None:
        tail = int(self._bucket_tail[tag])
        if tail < 0:
            self._bucket_head[tag] = address
        else:
            self._entry_next[tail] = address
        self._bucket_tail[tag] = address
        self._bucket_count[tag] += 1
        self._entry_next[address] = -1
        self._entry_tag[address] = tag
        if payload is not None:
            self._payload[address] = payload
            self._payload_live += 1
        self._occupy(address)

    def dequeue_min(self) -> ServedTag:
        """Remove and return the smallest tag in fixed time."""
        if self._count == 0:
            raise EmptyStructureError("dequeue from an empty circuit")
        head = self._head_tag
        address = int(self._bucket_head[head])
        payload = self._payload[address]
        if payload is not None:
            self._payload[address] = None
            self._payload_live -= 1
        next_address = int(self._entry_next[address])
        self._bucket_head[head] = next_address
        self._bucket_count[head] -= 1
        drained = next_address < 0
        if drained:
            self._bucket_tail[head] = -1
        self._release(address)
        self._count -= 1
        if self.eager_marker_removal:
            self._stats_translation.reads += 1
            if int(self._trans[head]) == address:
                self._trans[head] = -1
                self._stats_translation.writes += 1
                self._clear_leaf_marker(head)
                self._charge_tree(reads=1, writes=1)
        if drained:
            self._advance_head(head)
        self._stats_storage.reads += 1
        self._stats_storage.writes += 1
        self._spend_operation()
        return ServedTag(tag=head, payload=payload, address=address)

    def insert_and_dequeue(
        self, tag: int, payload: Any = None
    ) -> Tuple[ServedTag, int]:
        """Simultaneous insert + dequeue; the head's slot is reused."""
        self.fmt.check_value(tag)
        if self._count == 0:
            raise EmptyStructureError("insert_and_dequeue on an empty circuit")
        if not self.eager_marker_removal:
            self._check_monotone(tag)
        old_head = self._head_tag
        address = int(self._bucket_head[old_head])
        served_payload = self._payload[address]
        if served_payload is not None:
            self._payload[address] = None
            self._payload_live -= 1
        next_address = int(self._entry_next[address])
        self._bucket_head[old_head] = next_address
        self._bucket_count[old_head] -= 1
        drained = next_address < 0
        if drained:
            self._bucket_tail[old_head] = -1
        self._count -= 1
        if self.eager_marker_removal:
            self._stats_translation.reads += 1
            if int(self._trans[old_head]) == address:
                self._trans[old_head] = -1
                self._stats_translation.writes += 1
                self._clear_leaf_marker(old_head)
                self._charge_tree(reads=1, writes=1)
        if drained:
            self._advance_head(old_head)
        # The departing head's slot is reused in place (no free-stack
        # traffic), exactly like the gate storage's replace_min.
        self._append_entry(tag, address, payload)
        self._count += 1
        current = self._head_tag
        if current is None:
            self._head_tag = tag
        elif self.modular:
            if (tag - old_head) % self._tag_space < (
                current - old_head
            ) % self._tag_space:
                self._head_tag = tag
        elif tag < current:
            self._head_tag = tag
        new_marker = self._set_leaf_marker(tag)
        self._trans[tag] = address
        self._stats_storage.reads += 2
        self._stats_storage.writes += 2
        self._stats_translation.reads += 1
        self._stats_translation.writes += 1
        self._charge_tree(reads=1, writes=1 if new_marker else 0)
        self._spend_operation()
        served = ServedTag(
            tag=old_head, payload=served_payload, address=address
        )
        return served, address

    # ------------------------------------------------------------------
    # batched fast paths (the vectorized hot paths)

    def _validated_batch(self, tags: List[int]):
        """Vectorized value/window validation with gate-exact errors."""
        np = self._xp
        try:
            arr = np.asarray(tags)
        except (TypeError, ValueError, OverflowError):
            arr = None
        if arr is None or arr.ndim != 1 or arr.dtype.kind not in ("i", "u"):
            # Non-integer elements (floats, strings, oversized python
            # ints → object dtype): fall back to the scalar validator
            # for its exact per-tag message.
            for tag in tags:
                self.fmt.check_value(tag)
            arr = np.asarray([int(tag) for tag in tags], dtype=np.int64)
        else:
            arr = arr.astype(np.int64)
            out_of_range = (arr < 0) | (arr > self.fmt.max_value)
            if out_of_range.any():
                self.fmt.check_value(int(arr[int(out_of_range.argmax())]))
        return arr

    def insert_batch(
        self,
        tags: Sequence[int],
        payloads: Optional[Sequence[Any]] = None,
    ) -> List[int]:
        """Sort a whole run of tags as one set of array operations.

        Same contract as the gate batch: served order and addresses
        match inserting per-op in the given order (stable sort keeps
        FCFS among duplicates; allocation follows sorted order), all
        validation runs before any mutation, and eager-marker mode
        falls back to per-op inserts.
        """
        np = self._xp
        tags = list(tags)
        count = len(tags)
        if payloads is None:
            payload_list: Optional[List[Any]] = None
        else:
            payload_list = list(payloads)
            if len(payload_list) != count:
                raise ConfigurationError(
                    f"{count} tags but {len(payload_list)} payloads"
                )
        if count == 0:
            return []
        if self.eager_marker_removal:
            if payload_list is None:
                payload_list = [None] * count
            return [
                self.insert(tag, payload)
                for tag, payload in zip(tags, payload_list)
            ]
        arr = self._validated_batch(tags)
        if self._count + count > self.capacity:
            raise CapacityError(
                f"batch of {count} tags overflows tag storage "
                f"({self._count} of {self.capacity} in use)"
            )
        minimum = self._head_tag
        reference = minimum if minimum is not None else int(arr[0])
        if self.modular:
            keys = (arr - reference) % self._tag_space
            behind = keys >= self._half_space
            if behind.any():
                offender = int(behind.argmax())
                raise ProtocolError(
                    f"tag {int(arr[offender])} is behind the window minimum "
                    f"{reference} (wrapped distance {int(keys[offender])})"
                )
        else:
            keys = arr
            below = arr < reference
            if below.any():
                offender = int(arr[int(below.argmax())])
                raise ProtocolError(
                    f"WFQ invariant violated: tag {offender} below current "
                    f"minimum {reference} (use eager_marker_removal="
                    "True for general priority-queue workloads)"
                )

        order = np.argsort(keys, kind="stable")
        sorted_tags = arr[order]
        was_empty = self._count == 0
        if was_empty:
            self.flush_stale_markers()

        # -- allocation: init counter first, then LIFO free-stack pops --
        fresh = min(count, self.capacity - self._counter_next)
        parts = []
        if fresh:
            parts.append(
                np.arange(
                    self._counter_next,
                    self._counter_next + fresh,
                    dtype=np.int64,
                )
            )
            self._counter_next += fresh
        recycled = count - fresh
        if recycled:
            top = self._free_top
            parts.append(self._free_stack[top - recycled : top][::-1].copy())
            self._free_top = top - recycled
        addresses = parts[0] if len(parts) == 1 else np.concatenate(parts)

        # -- bucket appends, duplicates chained within sorted runs ------
        same = sorted_tags[:-1] == sorted_tags[1:]
        self._entry_next[addresses] = -1
        if same.any():
            self._entry_next[addresses[:-1][same]] = addresses[1:][same]
        starts = np.concatenate(([True], ~same))
        ends = np.concatenate((~same, [True]))
        run_tags = sorted_tags[starts]
        run_heads = addresses[starts]
        run_tails = addresses[ends]
        start_positions = np.flatnonzero(starts)
        run_lengths = np.diff(np.append(start_positions, count))
        old_tails = self._bucket_tail[run_tags]
        chained = old_tails >= 0
        if chained.any():
            self._entry_next[old_tails[chained]] = run_heads[chained]
        fresh_runs = ~chained
        if fresh_runs.any():
            self._bucket_head[run_tags[fresh_runs]] = run_heads[fresh_runs]
        self._bucket_tail[run_tags] = run_tails
        self._bucket_count[run_tags] += run_lengths
        self._entry_tag[addresses] = sorted_tags
        np.bitwise_or.at(
            self._occ,
            addresses >> 6,
            np.uint64(1) << (addresses & 63).astype(np.uint64),
        )
        if payload_list is not None and (
            payload_list.count(None) != len(payload_list)
            if type(payload_list) in (list, tuple)
            else any(value is not None for value in payload_list)
        ):
            payload_cells = self._payload
            order_list = order.tolist()
            address_list = addresses.tolist()
            stored = 0
            for position, input_index in enumerate(order_list):
                value = payload_list[input_index]
                if value is not None:
                    payload_cells[address_list[position]] = value
                    stored += 1
            self._payload_live += stored

        # -- markers + translation, folded per distinct value ------------
        leaf = self._leaf
        word_indices = run_tags >> self._literal_bits
        touched = np.unique(word_indices)
        before = int(
            popcount_array(leaf[touched], np, bits=self._branching).sum()
        )
        masks = np.left_shift(
            leaf.dtype.type(1),
            (run_tags & (self._branching - 1)).astype(leaf.dtype),
        )
        np.bitwise_or.at(leaf, word_indices, masks)
        after = int(
            popcount_array(leaf[touched], np, bits=self._branching).sum()
        )
        if after != before:
            self._tree_count += after - before
            self._upper_dirty = True
        self._trans[run_tags] = run_tails

        self._count += count
        if was_empty:
            self._head_tag = int(sorted_tags[0])

        run_count = int(run_tags.size)
        self._stats_storage.record_bulk(
            reads=count, writes=count + run_count
        )
        self._stats_translation.record_bulk(
            reads=0 if was_empty else 1, writes=run_count
        )
        leaf_stats = self._stats_tree[-1]
        leaf_stats.record_bulk(
            reads=int(touched.size), writes=int(touched.size)
        )
        for stats in self._stats_tree[:-1]:
            stats.reads += 1
        self.cycles += FIXED_OP_CYCLES * count
        self.operations += count

        out = np.empty(count, dtype=np.int64)
        out[order] = addresses
        return out.tolist()

    def dequeue_batch(self, count: int) -> List[ServedTag]:
        """Serve the ``count`` smallest tags as one set of array ops.

        Same raise-before-mutate over-ask contract as the gate batch.
        Bucket drains run as one vectorized chain-step loop whose
        iteration count is the longest duplicate run served, not the
        batch size.
        """
        if count < 0:
            raise ConfigurationError("dequeue count must be non-negative")
        if count > self._count:
            raise EmptyStructureError(
                f"dequeue_batch({count}) from a circuit holding {self._count}"
            )
        if count == 0:
            return []
        np = self._xp
        head = self._head_tag
        bucket_count = self._bucket_count
        if self.modular:
            rolled = np.roll(bucket_count, -head)
            relative = np.flatnonzero(rolled)
            live_tags = (relative + head) % self._tag_space
            live_counts = rolled[relative]
        else:
            live_tags = np.flatnonzero(bucket_count)
            live_counts = bucket_count[live_tags]
        cumulative = np.cumsum(live_counts)
        last = int(np.searchsorted(cumulative, count))
        already = int(cumulative[last - 1]) if last else 0
        take_last = count - already
        partial = take_last < int(live_counts[last])

        selected = live_tags[: last + 1]
        quotas = live_counts[: last + 1].astype(np.int64).copy()
        quotas[last] = take_last
        bases = np.concatenate(([0], np.cumsum(quotas)[:-1]))
        cursors = self._bucket_head[selected].copy()
        positions = bases.copy()
        limits = bases + quotas
        out = np.empty(count, dtype=np.int64)
        entry_next = self._entry_next
        active = np.flatnonzero(positions < limits)
        while active.size:
            current = cursors[active]
            out[positions[active]] = current
            positions[active] += 1
            cursors[active] = entry_next[current]
            active = active[positions[active] < limits[active]]

        full_tags = selected[:last] if partial else selected
        if full_tags.size:
            self._bucket_head[full_tags] = -1
            self._bucket_tail[full_tags] = -1
            self._bucket_count[full_tags] = 0
        if partial:
            partial_tag = int(selected[last])
            self._bucket_head[partial_tag] = int(cursors[last])
            self._bucket_count[partial_tag] -= take_last

        cleared = np.zeros_like(self._occ)
        np.bitwise_or.at(
            cleared, out >> 6, np.uint64(1) << (out & 63).astype(np.uint64)
        )
        self._occ &= ~cleared
        self._free_stack[self._free_top : self._free_top + count] = out
        self._free_top += count
        self._count -= count

        if self.eager_marker_removal and full_tags.size:
            leaf = self._leaf
            word_indices = full_tags >> self._literal_bits
            touched = np.unique(word_indices)
            before = int(
                popcount_array(leaf[touched], np, bits=self._branching).sum()
            )
            masks = np.left_shift(
                leaf.dtype.type(1),
                (full_tags & (self._branching - 1)).astype(leaf.dtype),
            )
            drop = np.zeros_like(leaf)
            np.bitwise_or.at(drop, word_indices, masks)
            leaf &= ~drop
            after = int(
                popcount_array(leaf[touched], np, bits=self._branching).sum()
            )
            self._tree_count -= before - after
            self._upper_dirty = True
            self._trans[full_tags] = -1
            self._stats_translation.record_bulk(
                reads=count, writes=int(full_tags.size)
            )
            leaf_writes = int(touched.size)
            self._stats_tree[-1].record_bulk(
                reads=leaf_writes, writes=leaf_writes
            )

        if self._count == 0:
            self._head_tag = None
        elif partial:
            self._head_tag = int(selected[last])
        else:
            self._advance_head(int(selected[last]))

        tag_list = self._entry_tag[out].tolist()
        address_list = out.tolist()
        if self._payload_live:
            payload_cells = self._payload
            payload_list: List[Any] = []
            append_payload = payload_list.append
            cleared = 0
            for address in address_list:
                value = payload_cells[address]
                append_payload(value)
                if value is not None:
                    payload_cells[address] = None
                    cleared += 1
            self._payload_live -= cleared
        else:
            payload_list = [None] * count
        served: List[ServedTag] = list(
            map(
                _TUPLE_NEW,
                repeat(ServedTag),
                zip(tag_list, payload_list, address_list),
            )
        )

        self._stats_storage.record_bulk(reads=count, writes=count)
        self.cycles += FIXED_OP_CYCLES * count
        self.operations += count
        return served

    _MIXED_KINDS = frozenset(("insert", "dequeue", "remove", "retag"))

    def run_mixed(self, operations: Iterable[Tuple]) -> List[ServedTag]:
        """Execute a mixed op stream, coalescing runs into batch calls.

        Identical contract to the gate engine: the stream is validated
        for known kinds before anything executes, consecutive inserts
        and dequeues collapse into one array op each, and dynamic
        updates flush pending batches so stream order is preserved.
        """
        ops = [tuple(operation) for operation in operations]
        for operation in ops:
            if not operation or operation[0] not in self._MIXED_KINDS:
                kind = operation[0] if operation else None
                raise ConfigurationError(
                    f"unknown mixed operation kind {kind!r}"
                )
        served: List[ServedTag] = []
        pending_inserts: List[Tuple[int, Any]] = []
        pending_dequeues = 0

        def flush() -> None:
            nonlocal pending_inserts, pending_dequeues
            if pending_inserts:
                self.insert_batch(
                    [tag for tag, _ in pending_inserts],
                    [payload for _, payload in pending_inserts],
                )
                pending_inserts = []
            if pending_dequeues:
                served.extend(self.dequeue_batch(pending_dequeues))
                pending_dequeues = 0

        for operation in ops:
            kind = operation[0]
            if kind == "insert":
                if pending_dequeues:
                    served.extend(self.dequeue_batch(pending_dequeues))
                    pending_dequeues = 0
                payload = operation[2] if len(operation) > 2 else None
                pending_inserts.append((operation[1], payload))
            elif kind == "dequeue":
                if pending_inserts:
                    self.insert_batch(
                        [tag for tag, _ in pending_inserts],
                        [payload for _, payload in pending_inserts],
                    )
                    pending_inserts = []
                pending_dequeues += 1
            elif kind == "remove":
                flush()
                self.remove(operation[1])
            else:  # retag
                flush()
                self.retag(operation[1], operation[2])
        flush()
        return served

    # ------------------------------------------------------------------
    # dynamic updates (remove-by-handle, retag)

    def is_live_handle(self, handle: int) -> bool:
        """Whether ``handle`` names a live (not yet retired) entry."""
        try:
            handle = _as_index(handle)
        except TypeError:
            return False
        return 0 <= handle < self.capacity and self._is_live(handle)

    def handle_tag(self, handle: int) -> Optional[int]:
        """The tag a live handle was issued for (None when stale)."""
        if not self.is_live_handle(handle):
            return None
        return int(self._entry_tag[handle])

    def handle_payload(self, handle: int) -> Any:
        """A live handle's payload (debug peek, no access accounting)."""
        if not self.is_live_handle(handle):
            raise ProtocolError(
                f"handle {handle} does not name a live entry"
            )
        return self._payload[handle]

    def remove(self, handle: int) -> ServedTag:
        """Unlink the live entry at ``handle``, wherever it sits."""
        return self._remove_core(handle)

    def retag(self, handle: int, new_tag: int) -> int:
        """Move the live entry at ``handle`` to ``new_tag`` (repin)."""
        self._validate_retag(handle, new_tag)
        removed = self._remove_core(handle)
        return VectorSortRetrieveCircuit.insert(
            self, new_tag, removed.payload
        )

    def _validate_retag(self, handle: int, new_tag: int) -> None:
        if not self.is_live_handle(handle):
            raise ProtocolError(
                f"handle {handle} does not name a live entry"
            )
        self.fmt.check_value(new_tag)
        if not self.eager_marker_removal:
            minimum = self._head_tag
            if minimum is not None and handle == int(
                self._bucket_head[minimum]
            ):
                # Removing the head promotes its successor.
                next_address = int(self._entry_next[handle])
                if next_address >= 0:
                    minimum = int(self._entry_tag[next_address])
                elif self._count > 1:
                    start = minimum + 1
                    if self.modular:
                        start %= self._tag_space
                    minimum = self._next_live_tag(start)
                else:
                    minimum = None
            self._check_monotone_against(new_tag, minimum)

    def _remove_core(self, handle: int) -> ServedTag:
        if not self.is_live_handle(handle):
            raise ProtocolError(
                f"handle {handle} does not name a live entry"
            )
        handle = _as_index(handle)
        tag = int(self._entry_tag[handle])
        extra_cycles = 0
        predecessor: Optional[int] = None
        head_address = self._head_address()
        if handle == head_address:
            # Head removal: exactly a dequeue's mechanics.
            next_address = int(self._entry_next[handle])
            self._bucket_head[tag] = next_address
            if next_address < 0:
                self._bucket_tail[tag] = -1
            self._stats_storage.reads += 1
            self._stats_storage.writes += 1
        else:
            bucket_head = int(self._bucket_head[tag])
            if bucket_head == handle:
                # Leads its duplicate run but is not the global head:
                # the anchor is the previous value's newest link.
                self._bucket_head[tag] = int(self._entry_next[handle])
                if int(self._bucket_tail[tag]) == handle:
                    self._bucket_tail[tag] = -1
                self._charge_tree(reads=1)
                self._stats_storage.reads += 2
                self._stats_storage.writes += 2
            else:
                previous = bucket_head
                steps = 0
                while True:
                    following = int(self._entry_next[previous])
                    if following == handle:
                        break
                    previous = following
                    steps += 1
                self._entry_next[previous] = self._entry_next[handle]
                if int(self._bucket_tail[tag]) == handle:
                    self._bucket_tail[tag] = previous
                predecessor = previous
                extra_cycles = steps
                if tag != self._head_tag:
                    self._charge_tree(reads=1)
                self._stats_storage.reads += steps + 2
                self._stats_storage.writes += 2
        payload = self._payload[handle]
        if payload is not None:
            self._payload[handle] = None
            self._payload_live -= 1
        self._bucket_count[tag] -= 1
        self._release(handle)
        self._count -= 1
        # Translation/marker maintenance is eager in both marker modes
        # (an arbitrary removal can leave a stale marker above the
        # minimum, where a search would find it) — same rule as gate.
        self._stats_translation.reads += 1
        if int(self._trans[tag]) == handle:
            if predecessor is not None:
                self._trans[tag] = predecessor
            else:
                self._trans[tag] = -1
                self._clear_leaf_marker(tag)
                self._charge_tree(reads=1, writes=1)
            self._stats_translation.writes += 1
        if handle == head_address and int(self._bucket_count[tag]) == 0:
            self._advance_head(tag)
        self.cycles += FIXED_OP_CYCLES + extra_cycles
        self.operations += 1
        return ServedTag(tag=tag, payload=payload, address=handle)

    # ------------------------------------------------------------------
    # stale-section maintenance (Fig. 6)

    def flush_stale_markers(self) -> None:
        """Initialization-mode reset: wipe last busy period's markers."""
        if self._count:
            raise ProtocolError(
                f"cannot flush markers with {self._count} live "
                "tags in storage"
            )
        if not self.eager_marker_removal and self._tree_count:
            self._clear_tree()

    def clear_stale_section(self, root_literal: int) -> int:
        """Bulk-delete the markers of one vacated section of tag space."""
        if not 0 <= root_literal < self._branching:
            raise ConfigurationError(
                f"root literal {root_literal} outside "
                f"[0, {self._branching})"
            )
        low = root_literal << self._section_bits
        high = low + (1 << self._section_bits) - 1
        live = int(self._bucket_count[low : high + 1].sum())
        if live:
            segment = self._bucket_count[low : high + 1]
            offender = low + int((segment > 0).argmax())
            raise ProtocolError(
                f"section {root_literal} still holds {live} live "
                f"tags (e.g. {offender}); cannot clear"
            )
        np = self._xp
        first_word = low >> self._literal_bits
        last_word = high >> self._literal_bits
        if first_word == last_word:
            mask = ((1 << (high - low + 1)) - 1) << (
                low & (self._branching - 1)
            )
            word = int(self._leaf[first_word])
            purged = popcount_word(word & mask)
            self._leaf[first_word] = word & ~mask
            self._stats_tree[-1].writes += 1
        else:
            segment = self._leaf[first_word : last_word + 1]
            purged = int(
                popcount_array(segment, np, bits=self._branching).sum()
            )
            segment[:] = 0
            self._stats_tree[-1].writes += int(segment.size)
        if purged:
            self._tree_count -= purged
            self._upper_dirty = True
        return purged

    # ------------------------------------------------------------------
    # walk / checkpoint / restore (gate-shaped interchange format)

    def walk(self) -> List[Tuple[int, int]]:
        """Every live ``(tag, address)`` in service order (peek-only)."""
        head = self._head_tag
        if head is None:
            return []
        np = self._xp
        bucket_count = self._bucket_count
        if self.modular:
            relative = np.flatnonzero(np.roll(bucket_count, -head))
            tag_order = ((relative + head) % self._tag_space).tolist()
        else:
            tag_order = np.flatnonzero(bucket_count).tolist()
        entry_next = self._entry_next
        out: List[Tuple[int, int]] = []
        for tag in tag_order:
            address = int(self._bucket_head[tag])
            while address >= 0:
                out.append((tag, address))
                address = int(entry_next[address])
        return out

    def to_state(self) -> dict:
        """Exact gate-shaped snapshot (any engine restores it)."""
        np = self._xp
        self._rebuild_upper()
        walked = self.walk()
        cells: List[Optional[list]] = [None] * self.capacity
        total = len(walked)
        for position, (tag, address) in enumerate(walked):
            if position + 1 < total:
                next_tag, next_address = walked[position + 1]
            else:
                next_tag = next_address = None
            cells[address] = [tag, next_address, next_tag, self._payload[address]]
        for position in range(self._free_top):
            address = int(self._free_stack[position])
            next_free = (
                int(self._free_stack[position - 1]) if position else None
            )
            cells[address] = [-1, next_free, None, None]
        live = np.flatnonzero(self._bucket_count)
        if self._fast_mode:
            live_tags: List[Tuple[int, int]] = []
        else:
            live_tags = [
                (int(tag), int(self._bucket_count[tag])) for tag in live
            ]
        handle_bits = np.unpackbits(
            self._occ.view(np.uint8), bitorder="little"
        )[: self.capacity]
        handles = [
            (int(address), int(self._entry_tag[address]))
            for address in np.flatnonzero(handle_bits)
        ]
        section_live = (
            self._bucket_count.reshape(self._branching, -1)
            .sum(axis=1)
            .tolist()
        )
        return {
            "kind": "sort_retrieve_circuit",
            "config": self.describe(),
            "cycles": self.cycles,
            "operations": self.operations,
            "live_tags": live_tags,
            "handles": handles,
            "section_live": section_live,
            "tree": {
                "kind": "multi_bit_tree",
                "levels": self.fmt.levels,
                "literal_bits": self.fmt.literal_bits,
                "nodes": [level.tolist() for level in self._levels_arr],
                "count": self._tree_count,
                "stats": [stats.to_dict() for stats in self._stats_tree],
            },
            "translation": {
                "kind": "translation_table",
                "levels": self.fmt.levels,
                "literal_bits": self.fmt.literal_bits,
                "address_bits": 24,
                "cells": [
                    int(address) if address >= 0 else None
                    for address in self._trans.tolist()
                ],
                "stats": self._stats_translation.to_dict(),
            },
            "storage": {
                "kind": "tag_storage",
                "capacity": self.capacity,
                "modular": self.modular,
                "word_bits": 64,
                "cells": cells,
                "init_counter": self._counter_next,
                "empty_head": (
                    int(self._free_stack[self._free_top - 1])
                    if self._free_top
                    else None
                ),
                "head_address": walked[0][1] if walked else None,
                "head_tag": walked[0][0] if walked else None,
                "count": self._count,
                "stats": self._stats_storage.to_dict(),
            },
        }

    def load_state(self, state: dict) -> None:
        """Restore a gate- or vector-produced snapshot into this engine."""
        if state.get("kind") != "sort_retrieve_circuit":
            raise ConfigurationError(
                f"not a circuit snapshot: kind={state.get('kind')!r}"
            )
        snapshot_config = dict(state["config"])
        mine = self.describe()
        snapshot_config.pop("turbo", None)
        mine.pop("turbo", None)
        if snapshot_config != mine:
            raise ConfigurationError(
                f"snapshot config {state['config']} does not match this "
                f"circuit's {self.describe()}"
            )
        storage = state["storage"]
        if storage.get("kind") != "tag_storage":
            raise ConfigurationError(
                f"not a tag storage snapshot: kind={storage.get('kind')!r}"
            )
        if storage["capacity"] != self.capacity:
            raise ConfigurationError(
                f"snapshot capacity {storage['capacity']} != {self.capacity}"
            )
        cells = storage["cells"]
        self._bucket_head.fill(-1)
        self._bucket_tail.fill(-1)
        self._bucket_count.fill(0)
        self._entry_next.fill(-1)
        self._entry_tag.fill(-1)
        self._payload = [None] * self.capacity
        self._payload_live = 0
        self._occ.fill(0)
        address = storage["head_address"]
        walked = 0
        while address is not None:
            tag, next_address, _, payload = cells[address]
            self._append_entry(tag, int(address), payload)
            address = next_address
            walked += 1
        self._count = walked
        if walked != storage["count"]:
            raise ConfigurationError(
                f"snapshot walk found {walked} live links, header says "
                f"{storage['count']}"
            )
        chain: List[int] = []
        free = storage["empty_head"]
        while free is not None:
            chain.append(int(free))
            free = cells[free][1]
        self._free_top = len(chain)
        if chain:
            self._free_stack[: len(chain)] = chain[::-1]
        self._counter_next = storage["init_counter"]
        self._head_tag = storage["head_tag"]
        self._stats_storage.reads = storage["stats"]["reads"]
        self._stats_storage.writes = storage["stats"]["writes"]

        tree = state["tree"]
        if tree.get("kind") != "multi_bit_tree":
            raise ConfigurationError(
                f"not a tree snapshot: kind={tree.get('kind')!r}"
            )
        for level, nodes in zip(self._levels_arr, tree["nodes"]):
            if len(nodes) != level.size:
                raise ConfigurationError(
                    f"tree snapshot level holds {len(nodes)} nodes, "
                    f"array holds {level.size}"
                )
            level[:] = nodes
        self._tree_count = tree["count"]
        self._upper_dirty = False
        for stats, snapshot in zip(self._stats_tree, tree["stats"]):
            stats.reads = snapshot["reads"]
            stats.writes = snapshot["writes"]

        translation = state["translation"]
        if translation.get("kind") != "translation_table":
            raise ConfigurationError(
                f"not a translation snapshot: "
                f"kind={translation.get('kind')!r}"
            )
        self._trans[:] = [
            -1 if cell is None else int(cell)
            for cell in translation["cells"]
        ]
        self._stats_translation.reads = translation["stats"]["reads"]
        self._stats_translation.writes = translation["stats"]["writes"]

        self.cycles = state["cycles"]
        self.operations = state["operations"]

    @classmethod
    def from_state(cls, state: dict, *, tracer=None) -> "VectorSortRetrieveCircuit":
        """Reconstruct a vector engine from any engine's snapshot."""
        config = state["config"]
        fmt = WordFormat(
            levels=config["levels"], literal_bits=config["literal_bits"]
        )
        circuit = cls(
            fmt,
            capacity=config["capacity"],
            eager_marker_removal=config["eager_marker_removal"],
            modular=config["modular"],
            fast_mode=config["fast_mode"],
        )
        circuit.load_state(state)
        if tracer is not None:
            circuit.attach_tracer(tracer)
        return circuit

    # ------------------------------------------------------------------
    # telemetry (same attach/detach shadowing scheme as gate)

    def attach_tracer(self, tracer) -> None:
        """Start emitting gate-shaped telemetry events to ``tracer``."""
        if tracer is None or not getattr(tracer, "enabled", False):
            self.detach_tracer()
            return
        self.tracer = tracer
        self.insert = self._traced_insert
        self.dequeue_min = self._traced_dequeue_min
        self.insert_and_dequeue = self._traced_insert_and_dequeue
        self.insert_batch = self._traced_insert_batch
        self.dequeue_batch = self._traced_dequeue_batch
        self.remove = self._traced_remove
        self.retag = self._traced_retag
        self.clear_stale_section = self._traced_clear_stale_section
        self.flush_stale_markers = self._traced_flush_stale_markers

    def detach_tracer(self) -> None:
        """Stop tracing and restore the uninstrumented hot paths."""
        self.tracer = NULL_TRACER
        for name in (
            "insert",
            "dequeue_min",
            "insert_and_dequeue",
            "insert_batch",
            "dequeue_batch",
            "remove",
            "retag",
            "clear_stale_section",
            "flush_stale_markers",
        ):
            self.__dict__.pop(name, None)

    def _op_attrs(self) -> dict:
        return {
            "cycles": FIXED_OP_CYCLES,
            "occupancy": self._count,
            "free_list_depth": self._free_top,
        }

    def _traced_insert(self, tag: int, payload: Any = None) -> int:
        tracer = self.tracer
        before = self.registry.snapshot_all()
        try:
            address = VectorSortRetrieveCircuit.insert(self, tag, payload)
        except BaseException as error:
            tracer.event(
                "insert",
                deltas=self.registry.deltas_since(before),
                tag=tag,
                failed=True,
                error=type(error).__name__,
            )
            raise
        fault = self.fault_injection
        if fault is not None:
            fault._after_insert(self)
        tracer.event(
            "insert",
            deltas=self.registry.deltas_since(before),
            tag=tag,
            address=address,
            used_backup=False,
            **self._op_attrs(),
        )
        return address

    def _traced_dequeue_min(self) -> ServedTag:
        tracer = self.tracer
        before = self.registry.snapshot_all()
        try:
            served = VectorSortRetrieveCircuit.dequeue_min(self)
        except BaseException as error:
            tracer.event(
                "dequeue",
                deltas=self.registry.deltas_since(before),
                failed=True,
                error=type(error).__name__,
            )
            raise
        fault = self.fault_injection
        if fault is not None:
            fault._after_dequeue(self)
        tracer.event(
            "dequeue",
            deltas=self.registry.deltas_since(before),
            tag=(
                served.tag
                if fault is None
                else fault._reported_tag(self, served.tag)
            ),
            address=served.address,
            **self._op_attrs(),
        )
        return served

    def _traced_insert_and_dequeue(
        self, tag: int, payload: Any = None
    ) -> Tuple[ServedTag, int]:
        tracer = self.tracer
        before = self.registry.snapshot_all()
        try:
            served, address = VectorSortRetrieveCircuit.insert_and_dequeue(
                self, tag, payload
            )
        except BaseException as error:
            tracer.event(
                "insert_dequeue",
                deltas=self.registry.deltas_since(before),
                tag=tag,
                failed=True,
                error=type(error).__name__,
            )
            raise
        fault = self.fault_injection
        if fault is not None:
            fault._after_insert(self)
        tracer.event(
            "insert_dequeue",
            deltas=self.registry.deltas_since(before),
            tag=tag,
            address=address,
            served_tag=(
                served.tag
                if fault is None
                else fault._reported_tag(self, served.tag)
            ),
            served_address=served.address,
            used_backup=False,
            **self._op_attrs(),
        )
        return served, address

    def _traced_insert_batch(
        self,
        tags: Sequence[int],
        payloads: Optional[Sequence[Any]] = None,
    ) -> List[int]:
        tags = list(tags)
        if self.eager_marker_removal:
            # Falls back to per-op inserts, whose traced wrappers emit
            # one event each.
            return VectorSortRetrieveCircuit.insert_batch(
                self, tags, payloads
            )
        tracer = self.tracer
        start = self._count
        with tracer.span(
            "insert_batch", registry=self.registry, count=len(tags)
        ):
            addresses = VectorSortRetrieveCircuit.insert_batch(
                self, tags, payloads
            )
            fault = self.fault_injection
            if fault is not None:
                fault._after_insert(self, count=len(tags))
            for position, (tag, address) in enumerate(zip(tags, addresses)):
                tracer.event(
                    "insert",
                    tag=tag,
                    address=address,
                    cycles=FIXED_OP_CYCLES,
                    occupancy=start + position + 1,
                    used_backup=False,
                    batched=True,
                )
        return addresses

    def _traced_dequeue_batch(self, count: int) -> List[ServedTag]:
        tracer = self.tracer
        start = self._count
        with tracer.span(
            "dequeue_batch", registry=self.registry, count=count
        ):
            served = VectorSortRetrieveCircuit.dequeue_batch(self, count)
            fault = self.fault_injection
            if fault is not None:
                fault._after_dequeue(self, count=count)
            for position, entry in enumerate(served):
                tracer.event(
                    "dequeue",
                    tag=(
                        entry.tag
                        if fault is None
                        else fault._reported_tag(self, entry.tag)
                    ),
                    address=entry.address,
                    cycles=FIXED_OP_CYCLES,
                    occupancy=start - position - 1,
                    batched=True,
                )
        return served

    def _traced_remove(self, handle: int) -> ServedTag:
        tracer = self.tracer
        before = self.registry.snapshot_all()
        cycles_before = self.cycles
        was_head = handle == self._head_address()
        try:
            removed = self._remove_core(handle)
        except BaseException as error:
            tracer.event(
                "remove",
                deltas=self.registry.deltas_since(before),
                address=handle,
                failed=True,
                error=type(error).__name__,
            )
            raise
        fault = self.fault_injection
        if fault is not None:
            fault._after_remove(self)
        tracer.event(
            "remove",
            deltas=self.registry.deltas_since(before),
            tag=removed.tag,
            address=(
                handle if fault is None else fault._reported_handle(handle)
            ),
            head=was_head,
            cycles=self.cycles - cycles_before,
            occupancy=self._count,
            free_list_depth=self._free_top,
        )
        return removed

    def _traced_retag(self, handle: int, new_tag: int) -> int:
        tracer = self.tracer
        before = self.registry.snapshot_all()
        cycles_before = self.cycles
        old_tag = self.handle_tag(handle)
        try:
            address = VectorSortRetrieveCircuit.retag(self, handle, new_tag)
        except BaseException as error:
            tracer.event(
                "retag",
                deltas=self.registry.deltas_since(before),
                address=handle,
                new_tag=new_tag,
                failed=True,
                error=type(error).__name__,
            )
            raise
        fault = self.fault_injection
        if fault is not None:
            fault._after_remove(self)
        tracer.event(
            "retag",
            deltas=self.registry.deltas_since(before),
            tag=old_tag,
            new_tag=new_tag,
            address=(
                handle if fault is None else fault._reported_handle(handle)
            ),
            new_address=address,
            cycles=self.cycles - cycles_before,
            occupancy=self._count,
            free_list_depth=self._free_top,
        )
        return address

    def _traced_clear_stale_section(self, root_literal: int) -> int:
        tracer = self.tracer
        before = self.registry.snapshot_all()
        try:
            purged = VectorSortRetrieveCircuit.clear_stale_section(
                self, root_literal
            )
        except BaseException as error:
            tracer.event(
                "section_clear",
                deltas=self.registry.deltas_since(before),
                root_literal=root_literal,
                failed=True,
                error=type(error).__name__,
            )
            raise
        tracer.event(
            "section_clear",
            deltas=self.registry.deltas_since(before),
            root_literal=root_literal,
            purged=purged,
        )
        return purged

    def _traced_flush_stale_markers(self) -> None:
        tracer = self.tracer
        before = self.registry.snapshot_all()
        VectorSortRetrieveCircuit.flush_stale_markers(self)
        tracer.event(
            "marker_flush", deltas=self.registry.deltas_since(before)
        )

    # ------------------------------------------------------------------
    # verification

    def check_invariants(self) -> None:
        """Deep-verify the array state against first principles."""
        np = self._xp
        if int(self._bucket_count.sum()) != self._count:
            raise ProtocolError(
                f"bucket counts sum to {int(self._bucket_count.sum())}, "
                f"count register says {self._count}"
            )
        walked = self.walk()
        if len(walked) != self._count:
            raise ProtocolError(
                f"walk found {len(walked)} entries, count register says "
                f"{self._count}"
            )
        live_addresses = {address for _, address in walked}
        if len(live_addresses) != len(walked):
            raise ProtocolError("storage chain visits an address twice")
        occupancy_bits = np.unpackbits(
            self._occ.view(np.uint8), bitorder="little"
        )[: self.capacity]
        occupied = set(np.flatnonzero(occupancy_bits).tolist())
        if occupied != live_addresses:
            raise ProtocolError(
                f"occupancy bitmap tracks {len(occupied)} slots, walk "
                f"found {len(live_addresses)}"
            )
        free = self._free_stack[: self._free_top].tolist()
        if len(set(free)) != len(free):
            raise ProtocolError("free stack holds a duplicate address")
        if occupied & set(free):
            raise ProtocolError("free stack holds a live address")
        live_payloads = sum(
            1 for value in self._payload if value is not None
        )
        if live_payloads != self._payload_live:
            raise ProtocolError(
                f"payload-live counter says {self._payload_live}, "
                f"{live_payloads} cells hold a payload"
            )
        if self._free_top + (self.capacity - self._counter_next) + self._count != self.capacity:
            raise ProtocolError(
                f"slot accounting broken: {self._free_top} free + "
                f"{self.capacity - self._counter_next} unissued + "
                f"{self._count} live != {self.capacity}"
            )
        if walked:
            if self._head_tag != walked[0][0]:
                raise ProtocolError(
                    f"head register {self._head_tag} != first walked tag "
                    f"{walked[0][0]}"
                )
        elif self._head_tag is not None:
            raise ProtocolError(
                f"head register {self._head_tag} set on an empty circuit"
            )
        for tag, address in walked:
            if int(self._entry_tag[address]) != tag:
                raise ProtocolError(
                    f"entry {address} tagged "
                    f"{int(self._entry_tag[address])}, walk says {tag}"
                )
        self._rebuild_upper()
        marked = set()
        for word_index in np.flatnonzero(self._leaf).tolist():
            word = int(self._leaf[word_index])
            base = word_index << self._literal_bits
            for bit in range(self._branching):
                if (word >> bit) & 1:
                    marked.add(base + bit)
        if len(marked) != self._tree_count:
            raise ProtocolError(
                f"marker count {self._tree_count} != marked bits "
                f"{len(marked)}"
            )
        stored_values = {tag for tag, _ in walked}
        for value in stored_values:
            if value not in marked:
                raise ProtocolError(f"live tag {value} lost its tree marker")
        if self.eager_marker_removal:
            for value in marked:
                if value not in stored_values:
                    raise ProtocolError(
                        f"eager mode left a stale marker for {value}"
                    )
        # Upper levels must agree with the leaf words.
        b = self._branching
        for level in range(len(self._levels_arr) - 1):
            parent = self._levels_arr[level]
            child = self._levels_arr[level + 1]
            expected = (child.reshape(parent.size, b) != 0)
            for node_index in range(parent.size):
                word = int(parent[node_index])
                for bit in range(b):
                    if bool((word >> bit) & 1) != bool(
                        expected[node_index, bit]
                    ):
                        raise ProtocolError(
                            f"tree level {level} node {node_index} bit "
                            f"{bit} disagrees with its child word"
                        )
        newest = {}
        for tag, address in walked:
            newest[tag] = address
        for value, address in newest.items():
            recorded = int(self._trans[value])
            if recorded != address:
                raise ProtocolError(
                    f"translation entry for {value} points at {recorded}, "
                    f"newest duplicate is at {address}"
                )

