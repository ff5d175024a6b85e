"""Serving-stack parity: every cluster kind on both engine cores.

Every serving stack builds its replicas through
:func:`repro.engine.arrays.build_replica`.  These tests swap the object
reference oracle in at that seam (:func:`tests.conftest.engine_core`)
and pin byte-identical ``RunSummary`` JSON, per-request outcomes and
trace-event checksums against the production array engine, untraced
and traced (the array engine runs one iteration loop either way; only
its decode stretch is off under tracing), for the disaggregated
deployment, the three decode pools, the reactive autoscaler, the
resilient cluster under a seeded crash/recover plan, the
burn-rate-autoscaled heterogeneous fleet, and ``Session.cancel``
(including a request parked by prefill-stall recovery).
"""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest

from repro.api import ServeConfig, Session, build_trace
from repro.cluster.autoscaler import AutoscalerConfig, AutoscalingDeployment
from repro.cluster.disagg import DisaggregatedDeployment
from repro.cluster.fleet import (
    BurnRateAutoscaler,
    FleetDeployment,
    parse_fleet_spec,
)
from repro.cluster.resilient import ResilientClusterDeployment
from repro.experiments.configs import get_execution_model
from repro.experiments.ext_qos_decode import make_pool, prefilled_trace
from repro.experiments.runner import scheduler_factory
from repro.faults import FaultPlan
from repro.metrics import summary_to_dict
from repro.metrics.summary import summarize_run
from repro.obs import ListSink, TraceRecorder, TracingObserver
from repro.obs.observer import default_observer
from repro.simcore import Simulator
from tests.conftest import ENGINE_CORES, engine_core, event_checksum

EXEC = get_execution_model("llama3-8b")


def _summary_json(summary) -> str:
    return json.dumps(summary_to_dict(summary), sort_keys=True)


def _outcomes(requests) -> list[tuple]:
    return [
        (
            r.request_id,
            r.decoded,
            r.first_token_time,
            r.completion_time,
            r.max_tbt,
            r.tbt_gap_misses,
            r.cancelled,
            r.evictions,
        )
        for r in sorted(requests, key=lambda r: r.request_id)
    ]


def run_on_both_cores(scenario) -> dict:
    """Run ``scenario()`` untraced and traced on each engine core.

    ``scenario`` builds a fresh stack, runs it and returns
    ``(payload, replicas)``; the payload must be plain comparable
    data.  Tracing goes through the process-default observer, which
    every replica adopts at construction — including replicas an
    elastic deployment provisions mid-run.
    """
    results = {}
    for kind in ENGINE_CORES:
        with engine_core(kind):
            fast, replicas = scenario()
            assert {type(r) for r in replicas} == {ENGINE_CORES[kind]}
            sink = ListSink()
            with default_observer(TracingObserver(TraceRecorder([sink]))):
                traced, _ = scenario()
        assert sink.events, "traced run recorded no events"
        results[kind] = (fast, traced, len(sink.events), event_checksum(
            sink.events
        ))
    return results


def assert_parity(scenario) -> tuple:
    results = run_on_both_cores(scenario)
    assert results["objects"] == results["arrays"]
    fast, traced, _, _ = results["arrays"]
    # Tracing observes; it must not change what it observes.
    assert fast == traced
    return fast


class TestDisaggregatedParity:
    def test_prefill_replicas_identical(self):
        trace = build_trace("AzCode", qps=6.0, num_requests=80, seed=5)

        def scenario():
            deployment = DisaggregatedDeployment(
                EXEC,
                scheduler_factory("qoserve", EXEC),
                num_prefill_replicas=2,
            )
            requests = list(trace.fresh_copy())
            deployment.submit_trace(requests)
            deployment.run(max_events=5_000_000)
            payload = (
                _summary_json(deployment.summarize()),
                _outcomes(requests),
            )
            return payload, deployment.replicas

        summary, outcomes = assert_parity(scenario)
        assert all(o[3] is not None for o in outcomes)


class TestDecodePoolParity:
    @pytest.mark.parametrize(
        "mode", ["strict-shared", "partitioned", "qos-shared"]
    )
    def test_pool_identical(self, mode):
        def scenario():
            simulator = Simulator()
            pool = make_pool(mode, simulator, EXEC, num_replicas=2)
            requests = prefilled_trace(120, qps=14.0, seed=9)
            for request in requests:
                simulator.schedule(
                    request.arrival_time,
                    lambda r=request: pool.accept(r, simulator.now),
                )
            simulator.run(max_events=5_000_000)
            groups = (
                pool.groups.values() if hasattr(pool, "groups")
                else [pool.group]
            )
            replicas = [r for group in groups for r in group.replicas]
            payload = (
                _summary_json(
                    summarize_run(pool.all_requests(), now=simulator.now)
                ),
                _outcomes(requests),
                max(r.first_token_time - r.arrival_time for r in requests),
            )
            return payload, replicas

        _, outcomes, max_wait = assert_parity(scenario)
        assert all(o[3] is not None for o in outcomes)
        # Enough load that admissions queued for a decode slot.
        assert max_wait > 0.5


class TestAutoscalerParity:
    def test_scaling_run_identical(self):
        trace = build_trace("AzCode", qps=8.0, num_requests=300, seed=3)

        def scenario():
            deployment = AutoscalingDeployment(
                EXEC,
                scheduler_factory("qoserve-oracle", EXEC),
                config=AutoscalerConfig(
                    min_replicas=1, max_replicas=4,
                    control_interval=20.0, provision_delay=10.0,
                ),
            )
            requests = list(trace.fresh_copy())
            deployment.submit_trace(requests)
            deployment.run_until_drained()
            payload = (
                _summary_json(deployment.summarize()),
                _outcomes(requests),
                list(deployment.scaling_events),
                deployment.gpu_hours,
            )
            return payload, [slot.engine for slot in deployment._slots]

        _, _, scaling_events, _ = assert_parity(scenario)
        assert any(count > 1 for _, count in scaling_events)


class TestResilientParity:
    def test_seeded_crash_recover_plan_identical(self):
        trace = build_trace("AzCode", qps=9.0, num_requests=150, seed=7)
        plan = FaultPlan.poisson(
            num_replicas=3, duration=15.0, mtbf=6.0, mttr=3.0,
            rng=np.random.default_rng(0xFA17),
        )
        assert len(plan) > 0

        def scenario():
            cluster = ResilientClusterDeployment(
                EXEC,
                scheduler_factory("qoserve", EXEC),
                num_replicas=3,
                routing="least-loaded",
                fault_plan=plan,
            )
            requests = list(trace.fresh_copy())
            for request in requests:
                cluster.submit(request)
            cluster.run(max_events=5_000_000)
            payload = (
                _summary_json(cluster.summarize()),
                _outcomes(requests),
                json.dumps(cluster.fault_stats(), sort_keys=True),
            )
            return payload, cluster.replicas

        _, _, stats = assert_parity(scenario)
        assert json.loads(stats)["crashes"] > 0


class TestFleetParity:
    def test_burn_rate_heterogeneous_fleet_identical(self):
        trace = build_trace(
            "ShareGPT", qps=60.0, num_requests=400, seed=7,
            low_priority_fraction=0.25,
        )

        def scenario():
            fleet = FleetDeployment(
                EXEC,
                scheduler_factory("qoserve", EXEC),
                parse_fleet_spec(
                    "a100:2,h100:1", max_replicas=5,
                    control_interval=10.0, provision_delay=15.0,
                ),
                autoscaler=BurnRateAutoscaler(),
            )
            requests = list(trace.fresh_copy())
            fleet.submit_trace(requests)
            fleet.run_until_drained(max_events=10_000_000)
            payload = (
                _summary_json(fleet.summarize()),
                _outcomes(requests),
                json.dumps(fleet.fleet_stats(), sort_keys=True),
                list(fleet.scaling_events),
            )
            return payload, fleet.replicas

        _, _, _, scaling_events = assert_parity(scenario)
        assert any(
            action == "provision" for _, action, _ in scaling_events
        )


class TestSessionCancelParity:
    def test_cancel_decoding_and_queued(self):
        trace = build_trace("AzConv", qps=1.0, num_requests=60, seed=11)

        def scenario():
            session = Session(ServeConfig(num_replicas=2))
            requests = list(trace.fresh_copy().scaled_arrivals(8.0))
            for request in requests:
                session.submit(request)
            session.advance(until=3.0)
            decoding = next(
                r for r in requests
                if any(e.is_decoding(r) for e in session.engines)
            )
            queued = next(
                r for r in requests
                if r.arrival_time <= session.now
                and r.prefill_done == 0
                and any(
                    p is r
                    for e in session.engines
                    for p in e.scheduler.pending_requests()
                )
            )
            cancelled = (
                decoding.request_id,
                session.cancel(decoding, "client"),
                queued.request_id,
                session.cancel(queued, "client"),
                # Already withdrawn: no replica holds it any more.
                session.cancel(queued, "client"),
            )
            session.drain()
            payload = (
                cancelled,
                _summary_json(session.summary()),
                _outcomes(requests),
            )
            return payload, session.engines

        cancelled, _, outcomes = assert_parity(scenario)
        assert cancelled[1] is True and cancelled[3] is True
        assert cancelled[4] is False
        by_id = {o[0]: o for o in outcomes}
        assert by_id[cancelled[0]][6] and by_id[cancelled[2]][6]

    @pytest.mark.parametrize("kind", list(ENGINE_CORES))
    def test_cancel_stall_parked(self, kind):
        """A prefill evicted by stall recovery is parked outside the
        scheduler until a completion frees memory; it is still
        resident, so ``Session.cancel`` must withdraw it."""
        model = copy.copy(EXEC)
        model._kv_capacity_tokens = 12_000  # wedges mutual prefills
        trace = build_trace("AzCode", qps=8.0, num_requests=150, seed=0)
        with engine_core(kind):
            session = Session(
                ServeConfig(scheduler="qoserve"), execution_model=model
            )
        [engine] = session.engines
        assert type(engine) is ENGINE_CORES[kind]
        for request in trace.fresh_copy():
            session.submit(request)
        t = 0.0
        while not engine._stalled_requests:
            assert t < 60.0, "no prefill stall occurred"
            t += 0.05
            session.advance(until=t)
        [parked] = engine._stalled_requests
        assert engine.holds(parked)
        assert session.cancel(parked, "client") is True
        session.drain()
        assert parked.cancelled
        assert parked in engine.cancelled
        assert parked not in engine.completed
        assert not engine.holds(parked)
