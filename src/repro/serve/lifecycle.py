"""Service lifecycle: exact snapshots, graceful shutdown, recovery.

The service plane's durability story is the checkpoint/restore layer
underneath it: every component the serve engine owns — virtual clock,
packet buffer, scheduling fabric, flow table, admission set, session
table, handle ledger — round-trips exactly through JSON (floats are
``repr``-exact, every other field is integral), so a server restored
from a snapshot continues *event-for-event identical* service: the same
packets pop in the same order with the same tags, and the serve-log
sequence numbers continue unbroken.  The CI serve-smoke job proves this
by diffing an interrupted run (SIGTERM mid-soak, restart from the
snapshot) against an uninterrupted reference.

Snapshots are written atomically (temp file + ``os.replace`` in the
same directory), so a crash mid-write leaves the previous snapshot
intact — recovery never sees a torn file.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Dict

from ..hwsim.errors import ConfigurationError
from .protocol import PROTOCOL_VERSION

SNAPSHOT_KIND = "serve_snapshot"


# ----------------------------------------------------------------------
# capture / restore

def capture_state(engine) -> Dict[str, Any]:
    """Snapshot one serve engine, exactly.

    ``engine`` is a :class:`~repro.serve.server.ServeEngine`; the
    function lives here (not on the engine) so the snapshot schema and
    its disk format stay in one module.
    """
    return {
        "kind": SNAPSHOT_KIND,
        "version": PROTOCOL_VERSION,
        "config": engine.config.to_dict(),
        "vnow": engine.vnow,
        "served_seq": engine.served_seq,
        "counters": dict(engine.counters),
        "tokens": {
            "next": engine.next_token,
            "handles": sorted(engine.token_handles.items()),
            "packets": sorted(engine.packet_tokens.items()),
        },
        "system": engine.system.to_state(),
        "admission": engine.admission.to_state(),
        "table": engine.table.to_state(),
        "sessions": engine.sessions.to_state(),
        "backpressure": engine.backpressure.to_state(),
    }


def restore_state(engine, state: Dict[str, Any]) -> None:
    """Restore a :func:`capture_state` snapshot into a fresh engine.

    The engine must have been constructed from the same
    :class:`~repro.serve.server.ServeConfig` the snapshot recorded —
    the scheduling-relevant fields are cross-checked here, and each
    component's own ``load_state`` validates its geometry.  A snapshot
    with missing or mistyped records raises :class:`ConfigurationError`.
    """
    if state.get("kind") != SNAPSHOT_KIND:
        raise ConfigurationError(
            f"not a serve snapshot: kind={state.get('kind')!r}"
        )
    try:
        _load_components(engine, state)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ConfigurationError(
            f"malformed serve snapshot: {type(exc).__name__}: {exc}"
        ) from exc


def _load_components(engine, state: Dict[str, Any]) -> None:
    recorded = state["config"]
    current = engine.config.to_dict()
    for field in (
        "link_rate_bps",
        "shards",
        "buffer_capacity",
        "min_rate_bps",
        "table_capacity",
        "scheme",
    ):
        if recorded[field] != current[field]:
            raise ConfigurationError(
                f"snapshot config mismatch: {field} was "
                f"{recorded[field]!r}, server has {current[field]!r}"
            )
    engine.system.load_state(state["system"])
    engine.admission.load_state(state["admission"])
    engine.table.load_state(state["table"])
    engine.sessions.load_state(state["sessions"])
    engine.backpressure.load_state(state["backpressure"])
    engine.vnow = state["vnow"]
    engine.served_seq = int(state["served_seq"])
    engine.counters.update(state["counters"])
    tokens = state["tokens"]
    engine.next_token = int(tokens["next"])
    engine.token_handles = {
        int(token): int(handle) for token, handle in tokens["handles"]
    }
    engine.handle_tokens = {
        handle: token for token, handle in engine.token_handles.items()
    }
    engine.packet_tokens = {
        int(packet_id): int(token)
        for packet_id, token in tokens["packets"]
    }


# ----------------------------------------------------------------------
# disk format

def write_snapshot(path: str, state: Dict[str, Any]) -> None:
    """Atomically persist one snapshot (temp file + rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    descriptor, temp_path = tempfile.mkstemp(
        prefix=".serve-snapshot-", dir=directory
    )
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            json.dump(state, handle, separators=(",", ":"))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def read_snapshot(path: str) -> Dict[str, Any]:
    """Load and sanity-check one snapshot file.

    A missing, unreadable, truncated, or non-snapshot file raises
    :class:`ConfigurationError`.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            state = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(
            f"cannot read snapshot {path}: {exc}"
        ) from exc
    if (
        not isinstance(state, dict)
        or state.get("kind") != SNAPSHOT_KIND
        or not isinstance(state.get("config"), dict)
    ):
        raise ConfigurationError(f"{path} is not a serve snapshot")
    return state


class SnapshotPolicy:
    """When to write periodic live snapshots: every N operations.

    The server calls :meth:`due` after every mutating verb; crossing
    the interval arms one snapshot.  ``interval_ops=0`` disables the
    periodic cadence (shutdown still snapshots).
    """

    def __init__(self, interval_ops: int = 0) -> None:
        if interval_ops < 0:
            raise ConfigurationError("snapshot interval must be >= 0")
        self.interval_ops = interval_ops
        self._since_last = 0
        self.taken = 0

    def due(self) -> bool:
        if self.interval_ops == 0:
            return False
        self._since_last += 1
        if self._since_last >= self.interval_ops:
            self._since_last = 0
            return True
        return False

    def mark_taken(self) -> None:
        self.taken += 1
