"""Per-tenant flow sessions: SLA admission wired into live state.

A *session* is one admitted flow on the serving link: its tenant, its
SLA, its scheduler registration, and its per-session hardware record.
:class:`SessionManager` is the control-plane bridge the server verbs
drive:

* ``open`` — evaluate the SLA through the
  :class:`~repro.net.admission.AdmissionController`; on admission,
  register the flow (weight ``g_i / C``) on the scheduler, provision
  its :class:`~repro.net.session_table.SessionStateTable` record, and
  book it to its tenant;
* ``close`` — refuse while the flow still has queued packets (the
  schedule must drain or the client must cancel first), then release
  the SLA, the scheduler-side bookkeeping, and the table record;
* snapshots — sessions serialize with the admission set, so a restored
  server re-admits exactly the flows that were live.

Sessions are durable across connections by design: a load balancer may
reconnect, but the flow's SLA and its queued packets belong to the
*flow*, not to the TCP connection that opened it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..hwsim.errors import CapacityError, ConfigurationError
from ..net.admission import (
    AdmissionController,
    AdmissionDecision,
    ServiceLevelAgreement,
)
from ..net.session_table import SessionStateTable


@dataclass
class FlowSession:
    """One admitted flow's live control-plane state."""

    flow_id: int
    tenant: str
    #: packets accepted for this flow since open (survives restarts)
    enqueued: int = 0
    #: packets served for this flow since open
    served: int = 0
    #: packets cancelled for this flow since open
    cancelled: int = 0


class SessionManager:
    """Admission-controlled session registry for one serving link."""

    def __init__(
        self,
        scheduler,
        admission: AdmissionController,
        table: SessionStateTable,
    ) -> None:
        self.scheduler = scheduler
        self.admission = admission
        self.table = table
        self._sessions: Dict[int, FlowSession] = {}
        #: tenant → open session count
        self._tenants: Dict[str, int] = {}
        self.opened = 0
        self.closed = 0
        self.rejected = 0

    # ------------------------------------------------------------------
    # introspection

    @property
    def count(self) -> int:
        """Open sessions."""
        return len(self._sessions)

    def session(self, flow_id: int) -> Optional[FlowSession]:
        """One flow's session, if open."""
        return self._sessions.get(flow_id)

    def tenant_counts(self) -> Dict[str, int]:
        """Open sessions per tenant (a copy)."""
        return dict(self._tenants)

    # ------------------------------------------------------------------
    # lifecycle

    def open(
        self,
        tenant: str,
        flow_id: int,
        rate_bps: float,
        *,
        burst_bits: float = 0.0,
        max_packet_bytes: int = 1500,
        delay_target_s: Optional[float] = None,
    ) -> AdmissionDecision:
        """Admit one flow for one tenant; the full open path.

        On admission the flow is registered on the scheduler at its SLA
        weight and provisioned in the session table; a table-capacity
        failure rolls the admission back, so a rejected open never
        leaks committed rate.  An exception raised inside admission is
        re-raised after the same rollback, so it never blocks a later
        open of the same flow.
        """
        try:
            sla = ServiceLevelAgreement(
                flow_id=flow_id,
                guaranteed_rate_bps=rate_bps,
                burst_bits=burst_bits,
                max_packet_bytes=max_packet_bytes,
                delay_target_s=delay_target_s,
            )
        except ConfigurationError as exc:
            self.rejected += 1
            return AdmissionDecision(admitted=False, reason=str(exc))
        try:
            decision = self.admission.admit(sla)
        except Exception:
            # Roll back a half-recorded SLA, or the flow stays blocked
            # with "already has an SLA" for the life of the server.
            if flow_id in self.admission.admitted_slas():
                self.admission.release(flow_id)
            self.rejected += 1
            raise
        if not decision.admitted:
            self.rejected += 1
            return decision
        weight = decision.weight
        try:
            if flow_id in self.scheduler.flows:
                self.scheduler.set_flow_weight(
                    flow_id, weight, guaranteed_rate_bps=rate_bps
                )
            else:
                self.scheduler.add_flow(
                    flow_id, weight, guaranteed_rate_bps=rate_bps
                )
            if self.table.record_of(flow_id) is None:
                self.table.provision(flow_id, weight)
        except (CapacityError, ConfigurationError) as exc:
            self.admission.release(flow_id)
            self.rejected += 1
            return AdmissionDecision(
                admitted=False, reason=f"session setup failed: {exc}"
            )
        self._sessions[flow_id] = FlowSession(flow_id=flow_id, tenant=tenant)
        self._tenants[tenant] = self._tenants.get(tenant, 0) + 1
        self.opened += 1
        return decision

    def close(self, flow_id: int, *, backlog: int = 0) -> FlowSession:
        """Tear one session down; refuses while packets are queued.

        ``backlog`` is the flow's live queued-packet count (the server
        reads it off the fabric); a non-zero backlog is an error —
        closing would orphan scheduled packets.
        """
        session = self._sessions.get(flow_id)
        if session is None:
            raise ConfigurationError(f"flow {flow_id} has no open session")
        if backlog > 0:
            raise ConfigurationError(
                f"flow {flow_id} still has {backlog} queued packet(s); "
                "drain or cancel them before closing"
            )
        self.admission.release(flow_id)
        if self.table.record_of(flow_id) is not None:
            self.table.release(flow_id)
        del self._sessions[flow_id]
        remaining = self._tenants.get(session.tenant, 1) - 1
        if remaining > 0:
            self._tenants[session.tenant] = remaining
        else:
            self._tenants.pop(session.tenant, None)
        self.closed += 1
        return session

    # ------------------------------------------------------------------
    # checkpoint / restore (service-plane snapshots)

    def to_state(self) -> dict:
        """Serializable snapshot of every open session.

        The admission set and the session table snapshot separately
        (they are shared components); this covers only the session
        bookkeeping itself.
        """
        return {
            "kind": "session_manager",
            "opened": self.opened,
            "closed": self.closed,
            "rejected": self.rejected,
            "sessions": [
                [
                    session.flow_id,
                    session.tenant,
                    session.enqueued,
                    session.served,
                    session.cancelled,
                ]
                for session in sorted(
                    self._sessions.values(), key=lambda s: s.flow_id
                )
            ],
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`to_state` snapshot into this instance."""
        if state.get("kind") != "session_manager":
            raise ConfigurationError(
                f"not a session manager snapshot: kind={state.get('kind')!r}"
            )
        self._sessions = {}
        self._tenants = {}
        for flow_id, tenant, enqueued, served, cancelled in state["sessions"]:
            session = FlowSession(
                flow_id=int(flow_id),
                tenant=tenant,
                enqueued=int(enqueued),
                served=int(served),
                cancelled=int(cancelled),
            )
            self._sessions[session.flow_id] = session
            self._tenants[tenant] = self._tenants.get(tenant, 0) + 1
        self.opened = int(state["opened"])
        self.closed = int(state["closed"])
        self.rejected = int(state["rejected"])
