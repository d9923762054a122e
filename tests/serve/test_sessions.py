"""SessionManager: the open/close bridge from SLAs to live state."""

import pytest

from repro.hwsim.errors import ConfigurationError
from repro.net.admission import AdmissionController
from repro.net.scheduler_system import HardwareWFQSystem
from repro.net.session_table import SessionStateTable


def make_manager(link=10e6, table_capacity=8, utilization=1.0):
    from repro.serve.sessions import SessionManager

    scheduler = HardwareWFQSystem(link, granularity=64.0)
    admission = AdmissionController(link, utilization_limit=utilization)
    table = SessionStateTable(table_capacity)
    return SessionManager(scheduler, admission, table), scheduler


class TestOpen:
    def test_open_registers_everywhere(self):
        manager, scheduler = make_manager()
        decision = manager.open("acme", 1, 2e6)
        assert decision.admitted
        assert manager.count == 1
        assert manager.session(1).tenant == "acme"
        assert scheduler.flows.get(1).weight == pytest.approx(0.2)
        assert manager.table.record_of(1) is not None
        assert manager.tenant_counts() == {"acme": 1}

    def test_admission_reject_opens_nothing(self):
        manager, scheduler = make_manager(utilization=0.5)
        decision = manager.open("acme", 1, 9e6)
        assert not decision.admitted
        assert manager.count == 0
        assert manager.rejected == 1
        assert 1 not in scheduler.flows

    def test_invalid_sla_is_a_rejection_not_an_exception(self):
        manager, _ = make_manager()
        decision = manager.open("acme", 1, -5.0)
        assert not decision.admitted
        assert manager.rejected == 1

    def test_table_capacity_failure_rolls_back_admission(self):
        manager, _ = make_manager(table_capacity=1)
        assert manager.open("a", 1, 1e6).admitted
        # Keep flow 1's record fresh so it is not idle-evictable.
        decision = manager.open("b", 2, 1e6)
        assert not decision.admitted
        assert "session setup failed" in decision.reason
        # The failed open released its committed rate.
        assert manager.admission.committed_rate_bps == pytest.approx(1e6)

    def test_admission_exception_rolls_back(self):
        # A NaN rate passes every admission comparison and used to fail
        # only after the SLA was recorded, blocking the flow for good.
        manager, _ = make_manager()
        with pytest.raises(ValueError):
            manager.open("acme", 1, float("nan"))
        assert manager.rejected == 1
        assert manager.admission.admitted_count == manager.count == 0
        assert manager.open("acme", 1, 2e6).admitted
        assert manager.admission.admitted_count == manager.count == 1

    def test_half_applied_admission_is_released(self, monkeypatch):
        manager, _ = make_manager()
        admission = manager.admission
        admit = admission.admit

        def admit_then_fail(sla):
            admit(sla)
            raise RuntimeError("lost the control-plane store")

        monkeypatch.setattr(admission, "admit", admit_then_fail)
        with pytest.raises(RuntimeError):
            manager.open("acme", 1, 2e6)
        assert manager.rejected == 1
        assert admission.admitted_count == manager.count == 0
        assert admission.committed_rate_bps == 0
        monkeypatch.undo()
        assert manager.open("acme", 1, 2e6).admitted
        assert admission.admitted_count == manager.count == 1

class TestClose:
    def test_close_releases_everything(self):
        manager, _ = make_manager()
        manager.open("acme", 1, 2e6)
        session = manager.close(1)
        assert session.flow_id == 1
        assert manager.count == 0
        assert manager.admission.committed_rate_bps == 0.0
        assert manager.table.record_of(1) is None
        assert manager.tenant_counts() == {}

    def test_close_unknown_flow_raises(self):
        manager, _ = make_manager()
        with pytest.raises(ConfigurationError):
            manager.close(9)

    def test_close_refused_while_backlogged(self):
        manager, _ = make_manager()
        manager.open("acme", 1, 2e6)
        with pytest.raises(ConfigurationError):
            manager.close(1, backlog=3)
        assert manager.count == 1  # still open

    def test_reopen_after_close_renegotiates_weight(self):
        manager, scheduler = make_manager()
        manager.open("acme", 1, 2e6)
        manager.close(1)
        assert manager.open("acme", 1, 4e6).admitted
        assert scheduler.flows.get(1).weight == pytest.approx(0.4)


class TestState:
    def test_roundtrip_restores_sessions_and_tenants(self):
        import json

        manager, _ = make_manager()
        manager.open("acme", 1, 2e6)
        manager.open("acme", 2, 1e6)
        manager.open("globex", 3, 1e6)
        manager.session(1).enqueued = 7
        manager.session(1).served = 4
        state = json.loads(json.dumps(manager.to_state()))
        fresh, _ = make_manager()
        fresh.load_state(state)
        assert fresh.count == 3
        assert fresh.tenant_counts() == {"acme": 2, "globex": 1}
        assert fresh.session(1).enqueued == 7
        assert fresh.session(1).served == 4
        assert fresh.opened == manager.opened

    def test_kind_checked(self):
        manager, _ = make_manager()
        with pytest.raises(ConfigurationError):
            manager.load_state({"kind": "other"})
