"""Unit tests for live telemetry frames and ``repro top`` rendering
(repro.obs.live)."""

import json

from repro.api import ServeConfig, Session, build_trace
from repro.obs import (
    FlightRecorder,
    RingSink,
    TraceRecorder,
    TracingObserver,
    build_live_snapshot,
    render_incidents,
    render_top,
)
from repro.serve import AdmissionConfig, GatewayConfig, ServeGateway
from repro.workload.datasets import AZURE_CONV


def _replayed_gateway(observer=None, admission=None, audit=False):
    session = Session(
        ServeConfig(scheduler="fcfs", audit=audit),
        **({"observer": observer} if observer is not None else {}),
    )
    gateway = ServeGateway(
        session,
        config=GatewayConfig(
            admission=admission or AdmissionConfig()
        ),
    )
    trace = build_trace(AZURE_CONV, qps=4.0, num_requests=20, seed=9)
    gateway.replay(trace)
    return gateway


class TestSnapshot:
    def test_minimal_gateway_frame(self):
        """Without a tracing observer only the always-on state shows."""
        gateway = _replayed_gateway()
        snapshot = build_live_snapshot(gateway)
        assert snapshot["speed"] is None  # inf is not JSON
        assert snapshot["virtual_now"] > 0
        assert snapshot["queue_depth"] == 0  # drained after replay
        assert snapshot["gateway"]["admitted_total"] == 20
        assert "latency_quantiles" not in snapshot
        assert "burn_rate" not in snapshot
        assert "incidents" not in snapshot
        json.dumps(snapshot)  # strict JSON

    def test_goodput_per_tier(self):
        gateway = _replayed_gateway()
        snapshot = build_live_snapshot(gateway)
        goodput = snapshot["goodput"]
        assert sum(row["offered"] for row in goodput.values()) == 20
        for row in goodput.values():
            assert row["completed"] + row["shed"] <= row["offered"]
            assert 0.0 <= row["goodput"] <= 1.0

    def test_shed_requests_counted(self):
        gateway = _replayed_gateway(
            admission=AdmissionConfig(rate=0.5, burst=1.0)
        )
        snapshot = build_live_snapshot(gateway)
        assert sum(
            row["shed"] for row in snapshot["goodput"].values()
        ) == gateway.stats.shed_total > 0

    def test_tracing_observer_adds_quantiles_and_burn(self):
        observer = TracingObserver(TraceRecorder([RingSink()]))
        gateway = _replayed_gateway(observer=observer)
        snapshot = build_live_snapshot(gateway)
        quantiles = snapshot["latency_quantiles"]
        assert set(quantiles) <= {"ttft", "ttlt", "tbt"}
        assert "ttft" in quantiles
        for tiers in quantiles.values():
            for row in tiers.values():
                assert row["count"] > 0
                assert row["p50"] is not None
                assert row["p50"] <= row["p95"] <= row["p99"]
        assert snapshot["burn_rate"]["max"] >= 0.0
        json.dumps(snapshot)

    def test_audit_keeps_caller_observer_visible(self):
        """With ``audit`` on the engines see the caller's observer behind
        a fan-out; ``/metrics`` and live frames must still read it."""
        observer = TracingObserver(TraceRecorder([RingSink()]))
        gateway = _replayed_gateway(observer=observer, audit=True)
        assert "repro_iterations_total" in gateway.prometheus_text()
        snapshot = build_live_snapshot(gateway)
        assert "ttft" in snapshot["latency_quantiles"]
        assert snapshot["burn_rate"]["max"] >= 0.0
        assert gateway.session.summary().attribution is not None

    def test_flight_recorder_section(self, tmp_path):
        observer = TracingObserver(TraceRecorder([RingSink()]))
        observer.flight_recorder = FlightRecorder(
            tmp_path / "incidents.jsonl"
        )
        gateway = _replayed_gateway(observer=observer)
        snapshot = build_live_snapshot(gateway)
        incidents = snapshot["incidents"]
        assert incidents["triggered"] == incidents["written"] == 0
        assert incidents["path"].endswith("incidents.jsonl")

    def test_token_bucket_fill_is_a_pure_peek(self):
        gateway = _replayed_gateway(
            admission=AdmissionConfig(rate=1.0, burst=4.0)
        )
        before = build_live_snapshot(gateway)["token_bucket_fill"]
        after = build_live_snapshot(gateway)["token_bucket_fill"]
        assert before == after
        for fill in before.values():
            assert 0.0 <= fill <= 4.0


class TestRenderTop:
    def test_renders_full_frame(self, tmp_path):
        observer = TracingObserver(TraceRecorder([RingSink()]))
        observer.flight_recorder = FlightRecorder(
            tmp_path / "incidents.jsonl"
        )
        gateway = _replayed_gateway(observer=observer)
        text = render_top(build_live_snapshot(gateway))
        assert "repro top" in text
        assert "speed=inf" in text
        assert "tier" in text and "goodput" in text
        assert "ttft" in text
        assert "burn rate" in text
        assert "incidents: 0 written" in text

    def test_renders_minimal_frame(self):
        text = render_top(build_live_snapshot(_replayed_gateway()))
        assert "repro top" in text
        assert "burn rate" not in text
        assert "incidents" not in text

    def test_survives_json_roundtrip(self):
        """The SSE client renders exactly what the wire carried."""
        gateway = _replayed_gateway(
            observer=TracingObserver(TraceRecorder([RingSink()]))
        )
        snapshot = build_live_snapshot(gateway)
        roundtripped = json.loads(json.dumps(snapshot))
        assert render_top(roundtripped) == render_top(snapshot)


class TestRenderIncidents:
    def test_empty(self):
        assert render_incidents([]) == "(no incidents recorded)"

    def test_table_rows(self):
        incidents = [
            {"trigger": "deadline_violation", "ts": 2.0,
             "request_id": 7, "tier": "Q1",
             "dominant_cause": "chunk_stall", "num_events": 12},
            {"trigger": "burn_rate", "ts": 60.0, "burn_rate": 3.5,
             "dominant_cause": "admission_queue", "num_events": 40},
        ]
        text = render_incidents(incidents)
        assert "deadline_violation" in text
        assert "chunk_stall" in text
        assert "3.50" in text
        assert text.endswith("2 incident(s)")
