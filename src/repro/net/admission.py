"""SLA admission control for the WFQ scheduler.

The paper's motivation (Sections I/V): fair queueing lets providers
"deliver next generation services" with "service level agreements (SLA)
and service differentiation".  This module supplies the control-plane
arithmetic that turns SLAs into scheduler configuration:

* a **guaranteed rate** g_i maps to a WFQ weight ``phi_i = g_i / C``;
* the single-node Parekh–Gallager delay bound for a flow that is
  (sigma, g)-token-bucket constrained is::

      D_i <= sigma_i / g_i + L_i / g_i + L_max / C

  (burst drain at the guaranteed rate + own-packet serialization at the
  guaranteed rate + one maximum packet of non-preemption);
* **admission**: a new SLA is admitted iff the guaranteed rates still
  fit the link (sum g_i <= utilization_limit * C) and the offered delay
  bound meets the request.

:class:`AdmissionController` tracks admitted SLAs, answers
admit/reject with the reason, and configures any
:class:`~repro.sched.base.PacketScheduler` with the derived weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional

from ..hwsim.errors import ConfigurationError
from ..sched.base import PacketScheduler


@dataclass(frozen=True)
class ServiceLevelAgreement:
    """One flow's contract."""

    flow_id: int
    #: guaranteed throughput, bits/s
    guaranteed_rate_bps: float
    #: token-bucket burst allowance, bits
    burst_bits: float = 0.0
    #: largest packet the flow may send, bytes
    max_packet_bytes: int = 1500
    #: requested worst-case queueing+transmission delay, seconds
    delay_target_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.guaranteed_rate_bps <= 0:
            raise ConfigurationError("guaranteed rate must be positive")
        if self.burst_bits < 0:
            raise ConfigurationError("burst must be non-negative")
        if self.max_packet_bytes < 1:
            raise ConfigurationError("max packet size must be positive")


@dataclass(frozen=True)
class AdmissionDecision:
    """The controller's verdict on one SLA."""

    admitted: bool
    reason: str
    #: the WFQ weight assigned on admission
    weight: Optional[float] = None
    #: the delay bound the scheduler can actually offer
    offered_delay_s: Optional[float] = None


class AdmissionController:
    """Admits SLAs against one WFQ-scheduled link."""

    def __init__(
        self,
        link_rate_bps: float,
        *,
        utilization_limit: float = 0.95,
        link_max_packet_bytes: int = 1500,
        min_rate_bps: Optional[float] = None,
    ) -> None:
        if link_rate_bps <= 0:
            raise ConfigurationError("link rate must be positive")
        if not 0 < utilization_limit <= 1:
            raise ConfigurationError("utilization limit must be in (0, 1]")
        if min_rate_bps is not None and min_rate_bps <= 0:
            raise ConfigurationError("rate floor must be positive")
        self.link_rate_bps = link_rate_bps
        self.utilization_limit = utilization_limit
        self.link_max_packet_bytes = link_max_packet_bytes
        #: optional guaranteed-rate floor: a long-running circuit sizes
        #: its tag quantum from the lightest admissible weight, so SLAs
        #: below the floor must be rejected to keep the live tag span
        #: inside the half-space window (:mod:`repro.serve`).
        self.min_rate_bps = min_rate_bps
        self._admitted: Dict[int, ServiceLevelAgreement] = {}
        # The committed-rate total is maintained incrementally — O(1)
        # per admit/release instead of an O(n) sum over up to millions
        # of admitted SLAs — as an exact Fraction: every float rate is a
        # dyadic rational, so add/subtract churn can never drift the
        # total away from the true sum (float accumulation would).
        self._committed = Fraction(0)

    # ------------------------------------------------------------------
    # bounds

    @property
    def committed_rate_bps(self) -> float:
        """Sum of admitted guaranteed rates (exact, O(1))."""
        return float(self._committed)

    @property
    def available_rate_bps(self) -> float:
        """Guaranteed rate still available for new SLAs."""
        return (
            self.utilization_limit * self.link_rate_bps
            - self.committed_rate_bps
        )

    def delay_bound_s(self, sla: ServiceLevelAgreement) -> float:
        """Single-node WFQ delay bound for a token-bucket flow."""
        own_packet = sla.max_packet_bytes * 8 / sla.guaranteed_rate_bps
        burst = sla.burst_bits / sla.guaranteed_rate_bps
        cross_traffic = self.link_max_packet_bytes * 8 / self.link_rate_bps
        return burst + own_packet + cross_traffic

    def weight_for(self, sla: ServiceLevelAgreement) -> float:
        """The WFQ weight implementing the SLA's guaranteed rate."""
        return sla.guaranteed_rate_bps / self.link_rate_bps

    # ------------------------------------------------------------------
    # admission

    def evaluate(self, sla: ServiceLevelAgreement) -> AdmissionDecision:
        """Decide without committing."""
        if sla.flow_id in self._admitted:
            return AdmissionDecision(
                admitted=False,
                reason=f"flow {sla.flow_id} already has an SLA",
            )
        if (
            self.min_rate_bps is not None
            and sla.guaranteed_rate_bps < self.min_rate_bps
        ):
            return AdmissionDecision(
                admitted=False,
                reason=(
                    f"guaranteed rate {sla.guaranteed_rate_bps:.0f} b/s is "
                    f"below the {self.min_rate_bps:.0f} b/s floor this "
                    "link's tag quantum was sized for"
                ),
            )
        if sla.guaranteed_rate_bps > self.available_rate_bps:
            return AdmissionDecision(
                admitted=False,
                reason=(
                    f"insufficient capacity: {sla.guaranteed_rate_bps:.0f} "
                    f"b/s requested, {max(self.available_rate_bps, 0):.0f} "
                    "b/s available"
                ),
            )
        offered = self.delay_bound_s(sla)
        if sla.delay_target_s is not None and offered > sla.delay_target_s:
            return AdmissionDecision(
                admitted=False,
                reason=(
                    f"delay target {sla.delay_target_s * 1000:.2f} ms not "
                    f"achievable: bound is {offered * 1000:.2f} ms (raise "
                    "the guaranteed rate or shrink the burst)"
                ),
                offered_delay_s=offered,
            )
        return AdmissionDecision(
            admitted=True,
            reason="admitted",
            weight=self.weight_for(sla),
            offered_delay_s=offered,
        )

    def admit(self, sla: ServiceLevelAgreement) -> AdmissionDecision:
        """Evaluate and, on success, commit the SLA."""
        decision = self.evaluate(sla)
        if decision.admitted:
            # Convert before committing anything: a rate Fraction cannot
            # hold (NaN, infinity) raises with the admitted set untouched.
            committed = self._committed + Fraction(sla.guaranteed_rate_bps)
            self._admitted[sla.flow_id] = sla
            self._committed = committed
        return decision

    def release(self, flow_id: int) -> None:
        """Tear down a flow's SLA, freeing its rate."""
        sla = self._admitted.pop(flow_id, None)
        if sla is None:
            raise ConfigurationError(f"flow {flow_id} has no admitted SLA")
        self._committed -= Fraction(sla.guaranteed_rate_bps)

    def admitted_slas(self) -> Dict[int, ServiceLevelAgreement]:
        """A copy of the admitted set."""
        return dict(self._admitted)

    @property
    def admitted_count(self) -> int:
        """Number of flows currently holding an SLA."""
        return len(self._admitted)

    # ------------------------------------------------------------------
    # scheduler configuration

    def configure(self, scheduler: PacketScheduler) -> None:
        """Push every admitted flow's weight onto ``scheduler``.

        Idempotent and re-entrant: a flow the scheduler does not know
        yet is registered, a flow it already carries has its weight
        reconfigured in place — so ``configure`` can be called again
        after SLA churn on a *live* scheduler without tearing anything
        down (the service plane's renegotiation path).
        """
        for flow_id, sla in self._admitted.items():
            weight = self.weight_for(sla)
            if flow_id in scheduler.flows:
                scheduler.set_flow_weight(
                    flow_id,
                    weight,
                    guaranteed_rate_bps=sla.guaranteed_rate_bps,
                )
            else:
                scheduler.add_flow(
                    flow_id,
                    weight,
                    guaranteed_rate_bps=sla.guaranteed_rate_bps,
                )

    # ------------------------------------------------------------------
    # checkpoint / restore (service-plane snapshots)

    def to_state(self) -> dict:
        """Serializable snapshot of the admitted set."""
        return {
            "kind": "admission_controller",
            "link_rate_bps": self.link_rate_bps,
            "utilization_limit": self.utilization_limit,
            "link_max_packet_bytes": self.link_max_packet_bytes,
            "min_rate_bps": self.min_rate_bps,
            "admitted": [
                {
                    "flow_id": sla.flow_id,
                    "guaranteed_rate_bps": sla.guaranteed_rate_bps,
                    "burst_bits": sla.burst_bits,
                    "max_packet_bytes": sla.max_packet_bytes,
                    "delay_target_s": sla.delay_target_s,
                }
                for sla in self._admitted.values()
            ],
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`to_state` snapshot into this instance.

        The committed-rate total is rebuilt from the restored SLAs, so
        it is exact by construction after a restore.
        """
        if state.get("kind") != "admission_controller":
            raise ConfigurationError(
                "not an admission controller snapshot: "
                f"kind={state.get('kind')!r}"
            )
        if state["link_rate_bps"] != self.link_rate_bps:
            raise ConfigurationError(
                f"snapshot link rate {state['link_rate_bps']} != "
                f"{self.link_rate_bps}"
            )
        self._admitted = {}
        self._committed = Fraction(0)
        for record in state["admitted"]:
            sla = ServiceLevelAgreement(
                flow_id=int(record["flow_id"]),
                guaranteed_rate_bps=record["guaranteed_rate_bps"],
                burst_bits=record.get("burst_bits", 0.0),
                max_packet_bytes=record.get("max_packet_bytes", 1500),
                delay_target_s=record.get("delay_target_s"),
            )
            self._admitted[sla.flow_id] = sla
            self._committed += Fraction(sla.guaranteed_rate_bps)
