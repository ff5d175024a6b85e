"""Serving-stack parity: every cluster kind on both engine cores.

Every serving stack builds its replicas through
:func:`repro.engine.arrays.build_replica`.  These tests swap the object
reference oracle in at that seam (:func:`tests.conftest.engine_core`)
and pin byte-identical ``RunSummary`` JSON, per-request outcomes and
trace-event checksums against the production array engine, untraced
and traced (the array engine runs one iteration loop either way; only
its decode stretch is off under tracing), for the disaggregated
deployment, the three decode pools, the
resilient cluster under a seeded crash/recover plan, the
burn-rate-autoscaled heterogeneous fleet, the busy-fraction
one-class fleet, and ``Session.cancel``
(including a request parked by prefill-stall recovery).

Every traced scenario is also pinned across commits: the SHA-256 of
its JSONL trace, byte for byte as :class:`~repro.obs.JSONLSink` writes
it, and of its Prometheus text must match :data:`TRACE_PINS`.  Three
scenarios exist mostly for that pin (a relegating overload on one
replica with a tiny ring sink, radix-reuse agent sessions, and a
gateway replay that rate-limits arrivals into a faulted fleet); with
them the pinned traces emit every kind in
:data:`~repro.obs.events.EVENT_TYPES`.
"""

from __future__ import annotations

import copy
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.api import ServeConfig, Session, build_trace
from repro.cluster.disagg import DisaggregatedDeployment
from repro.cluster.fleet import (
    DEFAULT_HARDWARE_CLASSES,
    BurnRateAutoscaler,
    BusyFractionAutoscaler,
    FleetConfig,
    FleetDeployment,
    parse_fleet_spec,
)
from repro.cluster.resilient import ResilientClusterDeployment
from repro.experiments.configs import get_execution_model
from repro.experiments.ext_qos_decode import make_pool, prefilled_trace
from repro.experiments.runner import scheduler_factory
from repro.faults import FaultPlan
from repro.faults.plan import ReplicaCrash, ReplicaSlowdownFault
from repro.metrics import summary_to_dict
from repro.metrics.summary import summarize_run
from repro.obs import (
    JSONLSink,
    ListSink,
    RingSink,
    TraceRecorder,
    TracingObserver,
)
from repro.obs.events import EVENT_TYPES
from repro.obs.observer import default_observer
from repro.serve.admission import AdmissionConfig
from repro.serve.gateway import GatewayConfig, ServeGateway
from repro.simcore import Simulator
from repro.workload.sessions import AGENT_PROFILE, SessionWorkload
from tests.conftest import ENGINE_CORES, engine_core, event_checksum

EXEC = get_execution_model("llama3-8b")

#: Scenario -> (SHA-256 of the JSONL trace bytes, SHA-256 of the
#: Prometheus text, the event kinds the trace holds).  A change to
#: either digest is a change to the observable output of a traced run.
TRACE_PINS: dict[str, tuple[str, str, frozenset[str]]] = {
    "disagg": (
        "142e6b62ac5ada5c7a515a47b0e547ffcdc00dd1fdbcc34e2eeb4cc9aac031c3",
        "88f8de3128b6d54d0c449d12462b65af602d9e22ac8ae5129650fc8f196e28cb",
        frozenset({
            "chunk_sized", "iteration_scheduled", "kv_cache_snapshot",
            "span_end", "span_start"
        }),
    ),
    "pool-strict-shared": (
        "245e742a38269994294653e7f8f2e78a1ce75e75a64d47bcd3df5f3301497a9a",
        "49e961a1279b2badf0a7bb67419086c8828fdae2dbd3e276af9fc31253ca668f",
        frozenset({
            "iteration_scheduled", "kv_cache_snapshot", "request_completed",
            "span_end"
        }),
    ),
    "pool-partitioned": (
        "6769fb04644aa8bd3d4ade52a3597a13fe6fd1bf30c929761965cacb756f894e",
        "0368fdcefb5821bf7a99e6c8c2f040f0cba7121560530c343525cd887476cac8",
        frozenset({
            "iteration_scheduled", "kv_cache_snapshot", "request_completed",
            "span_end"
        }),
    ),
    "pool-qos-shared": (
        "2779194dbbc1ef4d3738a7769a9825fdd240fb1d1a66f7f609155dc1b9ff45f8",
        "1eb3f4f455c7c7fd856b9a3206500f1e6e3d9b1cc008a82e5bf5e70092045b78",
        frozenset({
            "iteration_scheduled", "kv_cache_snapshot", "request_completed",
            "span_end"
        }),
    ),
    "resilient": (
        "3fba7cd0d72ddb22e058fad8e62a24bd70dd0cb7a3bab35298a8b5a06fd5bf0a",
        "6dc144cfc1becd03966a2a19f5829fd22814e528b29a3586cf6124971a35f07d",
        frozenset({
            "chunk_sized", "iteration_scheduled", "kv_cache_snapshot",
            "replica_crashed", "replica_recovered", "request_cancelled",
            "request_completed", "request_retried", "request_shed",
            "span_end", "span_start"
        }),
    ),
    "fleet": (
        "d3beabb04ef0f5bf33b2a37bb01bc9e7a9bed3ced28998d194b2ae7a0e706855",
        "0d3ce2de8c66530e4d9b813e17fb4fa32972e172cb808f129548eca2479de088",
        frozenset({
            "chunk_sized", "fleet_resized", "iteration_scheduled",
            "kv_cache_snapshot", "relegated", "relegation_served",
            "request_cancelled", "request_completed", "span_end",
            "span_start"
        }),
    ),
    "fleet-busy-fraction": (
        "e73ee96f47e5fe6556378b3feb61ff03294fc7ec95dbd9a418d05b6bd226b1c5",
        "1ea2e7ebc0b82e0fdc5570ed4a536e0c428eb0dfcceecd9d351c4b2c647eb205",
        frozenset({
            "chunk_sized", "fleet_resized", "iteration_scheduled",
            "kv_cache_snapshot", "relegated", "request_cancelled",
            "request_completed", "span_end", "span_start"
        }),
    ),
    "overload": (
        "edc4483bf0c9095b1f9d7889bab53317622349998abd405d9a2cdc67c82dd107",
        "c6fc97f083e85b2efdeb7bdafef16f7797f881362ef415325fd77b1709f97830",
        frozenset({
            "chunk_sized", "decode_evicted", "iteration_scheduled",
            "kv_cache_snapshot", "preempted", "relegated",
            "relegation_served", "request_completed", "span_end",
            "span_start"
        }),
    ),
    "agent": (
        "429f3fe23c55f99d9bafa94ea68faf6bc4e0f336fe35961660375199bd7a2e2f",
        "9472d953bceff7c219a8a7d36773332115601ff94d760bac8a9bdd99bfa10968",
        frozenset({
            "chunk_sized", "decode_evicted", "iteration_scheduled",
            "kv_cache_snapshot", "preempted", "prefix_hit", "relegated",
            "relegation_served", "request_completed", "span_end",
            "span_start"
        }),
    ),
    "gateway": (
        "9208d7c3dc8c80810bd7a8df39441104156ae303c98209d8b4598754030c5564",
        "041ebde8ae3a5bc3ee34e325e6b85099990ad05324d75c06eb6594e5997d9ef2",
        frozenset({
            "chunk_sized", "fault_skipped", "fleet_resized",
            "gateway_admitted", "gateway_shed", "iteration_scheduled",
            "kv_cache_snapshot", "replica_crashed", "replica_recovered",
            "replica_slowdown", "request_completed", "request_retried",
            "span_end", "span_start"
        }),
    ),
    "session-cancel": (
        "ae75968d9c5186872203033fe87c51974785eac13384478498f2313308f6626a",
        "6f1be81a664819a6c5277d9d8b479ec3b244eed6405f80de181e8ddb0a73625f",
        frozenset({
            "chunk_sized", "iteration_scheduled", "kv_cache_snapshot",
            "request_cancelled", "request_completed", "span_end",
            "span_start"
        }),
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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


def run_on_both_cores(scenario, pin: str, ring: int | None = None) -> dict:
    """Run ``scenario()`` untraced and traced on each engine core.

    ``scenario`` builds a fresh stack, runs it and returns
    ``(payload, replicas)``; the payload must be plain comparable
    data.  Tracing goes through the process-default observer, which
    every replica adopts at construction — including replicas an
    elastic deployment provisions mid-run.  The traced run also
    writes a JSONL file and, when ``ring`` is given, a
    ``RingSink(ring)``; its digests must match ``TRACE_PINS[pin]``.
    """
    results = {}
    for kind in ENGINE_CORES:
        with engine_core(kind):
            fast, replicas = scenario()
            assert {type(r) for r in replicas} == {ENGINE_CORES[kind]}
            sink = ListSink()
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "trace.jsonl"
                sinks = [sink, JSONLSink(path)]
                if ring is not None:
                    sinks.append(RingSink(ring))
                observer = TracingObserver(TraceRecorder(sinks))
                with default_observer(observer):
                    traced, _ = scenario()
                observer.close()
                jsonl = _sha256(path.read_bytes())
        prometheus = _sha256(observer.registry.to_prometheus_text().encode())
        assert sink.events, "traced run recorded no events"
        kinds = frozenset(observer.recorder.counts)
        assert (jsonl, prometheus, kinds) == TRACE_PINS[pin], (
            f"{pin} ({kind}): {(jsonl, prometheus, sorted(kinds))}"
        )
        results[kind] = (fast, traced, len(sink.events), event_checksum(
            sink.events
        ))
    return results


def assert_parity(scenario, pin: str, ring: int | None = None) -> tuple:
    results = run_on_both_cores(scenario, pin, ring)
    assert results["objects"] == results["arrays"]
    fast, traced, _, _ = results["arrays"]
    # Tracing observes; it must not change what it observes.
    assert fast == traced
    return fast


def test_pins_cover_every_event_kind():
    assert frozenset().union(
        *(kinds for _, _, kinds in TRACE_PINS.values())
    ) == set(EVENT_TYPES)


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

        summary, outcomes = assert_parity(scenario, "disagg")
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

        _, outcomes, max_wait = assert_parity(scenario, f"pool-{mode}")
        assert all(o[3] is not None for o in outcomes)
        # Enough load that admissions queued for a decode slot.
        assert max_wait > 0.5


class TestResilientParity:
    def test_seeded_crash_recover_plan_identical(self):
        # Free-tier traffic is shed while a crash degrades the pool.
        trace = build_trace(
            "AzCode", qps=9.0, num_requests=150, seed=7,
            low_priority_fraction=0.3,
        )
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

        _, _, stats = assert_parity(scenario, "resilient")
        assert json.loads(stats)["crashes"] > 0
        assert json.loads(stats)["shed"] > 0


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

        _, _, _, scaling_events = assert_parity(scenario, "fleet")
        assert any(
            action == "provision" for _, action, _ in scaling_events
        )


    def test_busy_fraction_one_class_fleet_identical(self):
        """The load-following policy on a one-class pool: it
        provisions under the burst, then drains and releases."""
        trace = build_trace("AzCode", qps=8.0, num_requests=300, seed=3)
        a100 = DEFAULT_HARDWARE_CLASSES[0]

        def scenario():
            fleet = FleetDeployment(
                EXEC,
                scheduler_factory("qoserve-oracle", EXEC),
                FleetConfig(
                    classes=(a100,), initial=("a100",),
                    min_replicas=1, max_replicas=4,
                    control_interval=20.0, provision_delay=10.0,
                ),
                routing="round-robin",
                autoscaler=BusyFractionAutoscaler(),
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

        _, _, stats, scaling_events = assert_parity(
            scenario, "fleet-busy-fraction"
        )
        actions = {action for _, action, _ in scaling_events}
        assert {"provision", "ready", "drain", "release"} <= actions
        assert json.loads(stats)["cancelled"] > 0


class TestOverloadParity:
    def test_relegating_overload_with_ring_sink_identical(self):
        """One replica with a cramped KV cache under low-priority load:
        relegation, preemption and decode eviction all fire, and the
        tiny ring sink sheds events into the drop counter."""
        model = copy.copy(EXEC)
        model._kv_capacity_tokens = 12_000
        trace = build_trace(
            "AzCode", qps=8.0, num_requests=150, seed=0,
            low_priority_fraction=0.3,
        )

        def scenario():
            session = Session(
                ServeConfig(scheduler="qoserve"), execution_model=model
            )
            requests = list(trace.fresh_copy())
            for request in requests:
                session.submit(request)
            session.drain()
            payload = (
                _summary_json(session.summary()),
                _outcomes(requests),
            )
            return payload, session.engines

        _, outcomes = assert_parity(scenario, "overload", ring=64)
        assert all(o[3] is not None for o in outcomes)
        assert sum(o[7] for o in outcomes) > 0


class TestAgentSessionsParity:
    def test_radix_reuse_identical(self):
        model = copy.copy(EXEC)
        model._kv_capacity_tokens = 16_000  # forces prefix evictions
        trace = list(SessionWorkload(
            AGENT_PROFILE, session_qps=0.5, seed=7
        ).build(15))

        def scenario():
            session = Session(
                ServeConfig(scheduler="qoserve", kv_reuse="radix"),
                execution_model=model,
            )
            requests = [r.clone_fresh() for r in trace]
            for request in requests:
                session.submit(request)
            session.drain()
            cache = session.engines[0].prefix_cache
            payload = (
                _summary_json(session.summary()),
                _outcomes(requests),
                (cache.hits, cache.misses, cache.hit_tokens,
                 cache.evictions),
            )
            return payload, session.engines

        _, _, (hits, _, _, evictions) = assert_parity(scenario, "agent")
        assert hits > 0 and evictions > 0


class TestGatewayReplayParity:
    def test_rate_limited_replay_into_faulted_fleet_identical(self):
        """Gateway admission with a per-tier token bucket over a fleet
        whose plan slows one replica, crashes another and aims a crash
        at a slot that is never provisioned."""
        fleet = parse_fleet_spec(
            "a100:2", max_replicas=3,
            control_interval=10.0, provision_delay=15.0,
        )
        plan = FaultPlan([
            ReplicaSlowdownFault(
                time=1.0, replica_id=0, factor=2.0, duration=4.0
            ),
            ReplicaCrash(time=2.0, replica_id=2, recover_after=1.0),
            ReplicaCrash(time=3.0, replica_id=1, recover_after=6.0),
        ])
        trace = build_trace(
            "AzConv", qps=8.0, num_requests=100, seed=4,
            low_priority_fraction=0.3,
        )

        def scenario():
            session = Session(ServeConfig(fleet=fleet, fault_plan=plan))
            gateway = ServeGateway(session, config=GatewayConfig(
                admission=AdmissionConfig(
                    per_tier_rate={"Q3": 1.0}, burst=2.0
                ),
            ))
            requests = list(trace.fresh_copy())
            summary = gateway.replay(requests)
            payload = (
                _summary_json(summary),
                _outcomes(requests),
                json.dumps(gateway.stats.to_dict(), sort_keys=True),
            )
            return payload, session.engines

        _, _, stats = assert_parity(scenario, "gateway")
        assert json.loads(stats)["shed_total"] > 0


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

        cancelled, _, outcomes = assert_parity(scenario, "session-cancel")
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
