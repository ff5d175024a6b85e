"""Bit-identical parity: the array engine vs the reference oracle.

:class:`~repro.engine.arrays.ArrayReplicaEngine` is the engine every
serving stack runs; the object-based
:class:`~repro.engine.replica.ReplicaEngine` survives as the reference
oracle it must match — same decisions, same floats, same event
stream.  These tests pin that claim at every layer the array engine
reimplements (``tests/test_engine_stack_parity.py`` repeats it through
every cluster kind):

* untraced run summaries (the vectorized kernels, decode-stretch
  fast-forward and version-stamped advance paths);
* traced runs (byte-identical event streams, rendered metric
  registries and per-request audit attribution) through the same
  loop and kernels, with the decode stretch off;
* the fault path (crash + slowdown plan on a resilient pool);
* a seeded 500-request randomized property run (completion order and
  per-request latency attribution totals);
* the block ledger's math vs :class:`KVCacheManager` at block sizes
  1 and 16 and off-by-one token counts;
* the flat batch-time kernels vs :meth:`ExecutionModel.batch_time`.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from repro.core.chunking import DynamicChunker
from repro.core.request import Request
from repro.engine import ArrayReplicaEngine, ReplicaConfig, ReplicaEngine
from repro.engine.arrays import ArrayKVLedger, _RowStore
from repro.engine.kvcache import KVCacheManager
from repro.experiments.runner import build_trace, make_scheduler
from repro.obs.audit import audit_events
from repro.obs.observer import TracingObserver
from repro.obs.trace import ListSink, TraceRecorder
from repro.perfmodel.execution import BatchShape, PrefillChunk
from repro.simcore import Simulator
from repro.workload.datasets import AZURE_CODE, AZURE_CONV
from tests.conftest import ENGINE_CORES, engine_core, event_checksum

ENGINES = tuple(ENGINE_CORES.values())


def clone(requests):
    """Fresh request objects so the two runs share no mutable state."""
    return [
        Request(
            request_id=r.request_id,
            arrival_time=r.arrival_time,
            prompt_tokens=r.prompt_tokens,
            decode_tokens=r.decode_tokens,
            qos=r.qos,
            app_id=r.app_id,
            important=r.important,
        )
        for r in requests
    ]


def fingerprint(engine, requests):
    """Every externally visible float and counter of a finished run."""
    return [
        (
            r.request_id,
            r.decoded,
            r.prefill_done,
            r.first_token_time,
            r.last_token_time,
            r.completion_time,
            r.scheduled_first_time,
            r.max_tbt,
            r.tbt_gap_misses,
            r.tbt_deadline_misses,
            r.cancelled,
            r.evictions,
        )
        for r in requests
    ] + [
        (
            "engine",
            engine.iterations_run,
            engine.busy_time,
            engine.decode_evictions,
            engine.kv_cache.used_blocks,
            engine.kv_cache.high_water_blocks,
            [q.request_id for q in engine.completed],
            dict(engine.chunk_tokens_hist),
        )
    ]


@contextmanager
def spy(cls, name):
    """Count calls to ``cls.name`` while still running it."""
    with mock.patch.object(
        cls, name, autospec=True, side_effect=getattr(cls, name)
    ) as method:
        yield method


def run_fast(engine_cls, execution_model, requests, scheduler):
    sim = Simulator()
    engine = engine_cls(
        sim,
        execution_model,
        make_scheduler(scheduler, execution_model),
        ReplicaConfig(),
    )
    for r in requests:
        engine.submit(r)
    sim.run(max_events=5_000_000)
    return fingerprint(engine, requests)


def run_traced(engine_cls, execution_model, requests, scheduler):
    sim = Simulator()
    sink = ListSink()
    observer = TracingObserver(recorder=TraceRecorder([sink]))
    engine = engine_cls(
        sim,
        execution_model,
        make_scheduler(scheduler, execution_model),
        ReplicaConfig(),
        observer=observer,
    )
    for r in requests:
        engine.submit(r)
    sim.run(max_events=5_000_000)
    return sink.events, observer.registry.to_prometheus_text()


class TestRunParity:
    """Fast-mode fingerprints across schedulers, datasets and loads."""

    @pytest.mark.parametrize("scheduler", ["qoserve", "medha"])
    @pytest.mark.parametrize(
        "dataset", [AZURE_CONV, AZURE_CODE], ids=["conv", "code"]
    )
    def test_fingerprint_identical(
        self, execution_model, dataset, scheduler
    ):
        trace = build_trace(dataset, qps=1.0, num_requests=80, seed=7)
        results = []
        for engine_cls in ENGINES:
            requests = clone(trace.requests)
            for r in requests:
                r.arrival_time /= 6.0
            results.append(
                run_fast(engine_cls, execution_model, requests, scheduler)
            )
        assert results[0] == results[1]

    def test_heavy_load_exercises_vector_advance(self, execution_model):
        """Arrivals compressed 12x drive the decode batch past the
        small-batch threshold, so the slice-kernel advance path runs —
        untraced and traced alike: the traced loop is the production
        loop, vector advance and QoServe planning kernel included."""
        trace = build_trace(AZURE_CONV, qps=1.0, num_requests=120, seed=13)

        def compressed():
            requests = clone(trace.requests)
            for r in requests:
                r.arrival_time /= 12.0
            return requests

        results, traced = [], []
        for engine_cls in ENGINES:
            results.append(run_fast(
                engine_cls, execution_model, compressed(), "qoserve"
            ))
            with spy(ArrayReplicaEngine, "_advance_vector") as advance, \
                    spy(ArrayReplicaEngine, "_plan_qoserve_fast") as plan:
                events, metrics = run_traced(
                    engine_cls, execution_model, compressed(), "qoserve"
                )
            traced.append((event_checksum(events), metrics))
            if engine_cls is ArrayReplicaEngine:
                assert advance.call_count > 0
                assert plan.call_count > 0
        assert results[0] == results[1]
        assert traced[0] == traced[1]

    def test_stepped_run_until(self, execution_model):
        """Gateway-style incremental run(until=...) driving — the
        decode-stretch fast-forward must respect every run bound."""
        trace = build_trace(AZURE_CONV, qps=1.0, num_requests=60, seed=11)
        results = []
        for engine_cls in ENGINES:
            requests = clone(trace.requests)
            for r in requests:
                r.arrival_time /= 5.0
            sim = Simulator()
            engine = engine_cls(
                sim,
                execution_model,
                make_scheduler("qoserve", execution_model),
                ReplicaConfig(),
            )
            for r in requests:
                engine.submit(r)
            t = 0.0
            while True:
                t += 0.37
                sim.run(until=t)
                if not sim.pending_events and not engine.has_work():
                    break
                assert t < 1e5, "run did not drain"
            results.append(fingerprint(engine, requests))
        assert results[0] == results[1]


class TestTracedParity:
    """Byte-identical event streams, metrics and audit attribution."""

    @pytest.mark.parametrize(
        "dataset,scheduler",
        [(AZURE_CONV, "qoserve"), (AZURE_CODE, "medha")],
        ids=["conv-qoserve", "code-medha"],
    )
    def test_events_metrics_attribution(
        self, execution_model, dataset, scheduler
    ):
        trace = build_trace(dataset, qps=1.0, num_requests=60, seed=3)
        events, metrics = [], []
        for engine_cls in ENGINES:
            requests = clone(trace.requests)
            for r in requests:
                r.arrival_time /= 6.0
            ev, m = run_traced(
                engine_cls, execution_model, requests, scheduler
            )
            events.append(ev)
            metrics.append(m)
        assert events[0] == events[1]
        assert metrics[0] == metrics[1]
        assert (
            audit_events(events[0]).to_dict()
            == audit_events(events[1]).to_dict()
        )

    def test_traced_run_steps_every_iteration(self, execution_model):
        """The decode stretch merges iterations, so it stays off under
        tracing: one ``iteration_scheduled`` event per iteration run
        and one ``chunk_sized`` event per dynamic-chunking plan."""
        trace = build_trace(AZURE_CONV, qps=1.0, num_requests=40, seed=3)
        with spy(ArrayKVLedger, "stretch_grow") as stretch:
            run_fast(
                ArrayReplicaEngine, execution_model,
                clone(trace.requests), "qoserve",
            )
        assert stretch.call_count > 0, "workload must be decode-heavy"

        sim = Simulator()
        sink = ListSink()
        engine = ArrayReplicaEngine(
            sim,
            execution_model,
            make_scheduler("qoserve", execution_model),
            ReplicaConfig(),
            observer=TracingObserver(recorder=TraceRecorder([sink])),
        )
        for r in clone(trace.requests):
            engine.submit(r)
        with spy(ArrayKVLedger, "stretch_grow") as stretch, \
                spy(DynamicChunker, "_decide") as decide:
            sim.run(max_events=5_000_000)
        assert stretch.call_count == 0
        kinds = [e["kind"] for e in sink.events]
        assert kinds.count("iteration_scheduled") == engine.iterations_run
        assert kinds.count("chunk_sized") == decide.call_count > 0


class TestFaultParity:
    """Crash + slowdown plan on a resilient pool, both engine cores."""

    def test_resilient_cluster_identical(self, execution_model):
        from repro.cluster.resilient import ResilientClusterDeployment
        from repro.experiments.runner import scheduler_factory
        from repro.faults import FaultPlan, ReplicaCrash, ReplicaSlowdownFault
        from repro.metrics.export import summary_to_dict

        trace = build_trace(AZURE_CODE, qps=8.0, num_requests=100, seed=7)
        plan = FaultPlan(events=(
            ReplicaCrash(time=2.0, replica_id=0, recover_after=6.0),
            ReplicaSlowdownFault(
                time=1.0, replica_id=1, factor=1.7, duration=8.0
            ),
        ))
        summaries, prints = [], []
        for kind in ENGINE_CORES:
            with engine_core(kind):
                cluster = ResilientClusterDeployment(
                    execution_model,
                    scheduler_factory("qoserve", execution_model),
                    num_replicas=2,
                    fault_plan=plan,
                )
            requests = clone(trace.requests)
            for r in requests:
                cluster.submit(r)
            cluster.run(max_events=5_000_000)
            summaries.append(
                (summary_to_dict(cluster.summarize()), cluster.fault_stats())
            )
            prints.append(
                [
                    (
                        r.request_id,
                        r.decoded,
                        r.completion_time,
                        r.cancelled,
                        r.attempts,
                        r.evictions,
                    )
                    for r in requests
                ]
            )
        assert summaries[0] == summaries[1]
        assert prints[0] == prints[1]


class TestRandomizedProperty:
    """Seeded 500-request randomized run: completion order and
    per-request latency attribution totals must agree exactly."""

    def test_500_requests(self, execution_model):
        rng = np.random.default_rng(0xA77A)
        scale = float(rng.uniform(6.0, 10.0))
        low_priority = float(rng.uniform(0.1, 0.4))
        trace = build_trace(
            AZURE_CONV,
            qps=1.0,
            num_requests=500,
            seed=int(rng.integers(1, 1 << 30)),
            low_priority_fraction=low_priority,
        )
        orders, attributions = [], []
        for engine_cls in ENGINES:
            requests = clone(trace.requests)
            for r in requests:
                r.arrival_time /= scale
            sim = Simulator()
            sink = ListSink()
            observer = TracingObserver(recorder=TraceRecorder([sink]))
            engine = engine_cls(
                sim,
                execution_model,
                make_scheduler("qoserve", execution_model),
                ReplicaConfig(),
                observer=observer,
            )
            for r in requests:
                engine.submit(r)
            sim.run(max_events=10_000_000)
            orders.append([r.request_id for r in engine.completed])
            report = audit_events(sink.events)
            attributions.append(report.to_dict())
        assert len(orders[0]) == 500
        assert orders[0] == orders[1]
        assert attributions[0] == attributions[1]


class TestLedgerBlockMath:
    """ArrayKVLedger vs KVCacheManager, op for op."""

    @pytest.mark.parametrize("block_size", [1, 16])
    def test_randomized_op_stream(self, block_size):
        rng = np.random.default_rng(block_size)
        capacity = 64 * block_size
        reference = KVCacheManager(capacity, block_size=block_size)
        ledger = ArrayKVLedger(capacity, block_size, _RowStore())
        live: list[int] = []
        next_id = 0
        for _ in range(600):
            op = rng.random()
            if op < 0.55 or not live:
                # Off-by-one-heavy growth sizes straddle block edges.
                extra = int(
                    rng.choice(
                        [
                            0, 1, block_size - 1, block_size,
                            block_size + 1, 2 * block_size - 1, 37,
                        ]
                    )
                )
                rid = (
                    next_id
                    if rng.random() < 0.4
                    else int(rng.choice(live + [next_id]))
                )
                if rid == next_id:
                    next_id += 1
                assert reference.blocks_needed(
                    rid, extra
                ) == ledger.blocks_needed(rid, extra)
                can = reference.can_grow(rid, extra)
                assert can == ledger.can_grow(rid, extra)
                if can:
                    reference.grow(rid, extra)
                    ledger.grow(rid, extra)
                    if rid not in live:
                        live.append(rid)
                else:
                    with pytest.raises(MemoryError):
                        reference.grow(rid, extra)
                    with pytest.raises(MemoryError):
                        ledger.grow(rid, extra)
            else:
                rid = int(rng.choice(live))
                live.remove(rid)
                assert reference.release(rid) == ledger.release(rid)
            assert reference.used_blocks == ledger.used_blocks
            assert reference.free_blocks == ledger.free_blocks
            assert reference.used_tokens == ledger.used_tokens
            assert reference.holders() == ledger.holders()
            assert (
                reference.high_water_blocks == ledger.high_water_blocks
            )
        for rid in list(live):
            assert reference.holding(rid) == ledger.holding(rid)

    def test_error_messages_match(self):
        reference = KVCacheManager(160, block_size=16)
        ledger = ArrayKVLedger(160, 16, _RowStore())
        for kv in (reference, ledger):
            with pytest.raises(ValueError):
                kv.grow(1, -1)
        reference.grow(1, 160)
        ledger.grow(1, 160)
        with pytest.raises(MemoryError) as ref_err:
            reference.grow(2, 16)
        with pytest.raises(MemoryError) as arr_err:
            ledger.grow(2, 16)
        assert str(ref_err.value) == str(arr_err.value)


class TestFlatBatchTime:
    """The flat kernels reproduce batch_time bit for bit."""

    def test_batch_time_flat_matches(self, execution_model):
        rng = np.random.default_rng(99)
        for _ in range(200):
            chunks = [
                (int(rng.integers(1, 512)), int(rng.integers(0, 4096)))
                for _ in range(int(rng.integers(0, 4)))
            ]
            num_decodes = int(rng.integers(0, 64))
            if not chunks and num_decodes == 0:
                num_decodes = 1
            dct = (
                int(rng.integers(num_decodes, num_decodes * 4096))
                if num_decodes
                else 0
            )
            shape = BatchShape(
                prefill_chunks=[
                    PrefillChunk(tokens=t, context_before=c)
                    for t, c in chunks
                ],
                num_decodes=num_decodes,
                decode_context_total=dct,
            )
            assert execution_model.batch_time(
                shape
            ) == execution_model.batch_time_flat(chunks, num_decodes, dct)

    def test_decode_batch_times_flat_matches(self, execution_model):
        rng = np.random.default_rng(7)
        for num_decodes in (1, 3, 48):
            totals = rng.integers(
                num_decodes, num_decodes * 2048, size=40
            ).astype(np.int64)
            flat = execution_model.decode_batch_times_flat(
                num_decodes, totals
            )
            for i, dct in enumerate(totals):
                shape = BatchShape(
                    num_decodes=num_decodes,
                    decode_context_total=int(dct),
                )
                assert flat[i] == execution_model.batch_time(shape)


class TestEngineSwitch:
    """The engine switch is gone: every serving stack builds the array
    engine, and only the test seam reaches the reference oracle."""

    def test_serve_config_validation(self):
        from repro.api import ServeConfig

        with pytest.raises(TypeError, match="engine"):
            ServeConfig(engine="objects")

    def test_session_builds_array_engine(self):
        from repro.api import ServeConfig, Session

        single = Session(ServeConfig())
        assert type(single.engine) is ArrayReplicaEngine
        pool = Session(ServeConfig(num_replicas=3))
        assert [type(e) for e in pool.engines] == [ArrayReplicaEngine] * 3
        with engine_core("objects"):
            oracle = Session(ServeConfig())
        assert type(oracle.engine) is ReplicaEngine

    def test_every_cluster_kind_builds_array_engine(self, execution_model):
        from repro.cluster import (
            ClusterDeployment,
            DisaggregatedDeployment,
            SiloedDeployment,
            SiloSpec,
        )
        from repro.cluster.autoscaler import AutoscalingDeployment
        from repro.cluster.fleet import FleetDeployment, parse_fleet_spec
        from repro.cluster.resilient import ResilientClusterDeployment
        from repro.experiments.ext_qos_decode import make_pool
        from repro.experiments.runner import scheduler_factory

        factory = scheduler_factory("fcfs", execution_model)
        replicas = [
            *ClusterDeployment(execution_model, factory, 2).replicas,
            *(
                r
                for pool in SiloedDeployment(
                    execution_model,
                    [SiloSpec(("Q1",), 1, factory),
                     SiloSpec(("Q2", "Q3"), 1, factory)],
                ).pools
                for r in pool.replicas
            ),
            *ResilientClusterDeployment(
                execution_model, factory, 2
            ).replicas,
            *FleetDeployment(
                execution_model, factory, parse_fleet_spec("a100:2,h100:1")
            ).replicas,
            *DisaggregatedDeployment(execution_model, factory).replicas,
            *(
                slot.engine
                for slot in AutoscalingDeployment(
                    execution_model, factory
                )._slots
            ),
        ]
        for mode in ("strict-shared", "qos-shared"):
            replicas += make_pool(
                mode, Simulator(), execution_model, 2
            ).group.replicas
        replicas += [
            r
            for group in make_pool(
                "partitioned", Simulator(), execution_model, 2
            ).groups.values()
            for r in group.replicas
        ]
        assert len(replicas) == 17
        assert {type(r) for r in replicas} == {ArrayReplicaEngine}

    def test_session_summary_parity(self):
        import json

        from repro.api import ServeConfig, Session, build_trace
        from repro.metrics.export import summary_to_dict

        rendered = []
        for kind in ENGINE_CORES:
            with engine_core(kind):
                session = Session(
                    ServeConfig(scheduler="qoserve", num_replicas=2)
                )
            trace = build_trace(
                "AzConv", qps=1.0, num_requests=40, seed=7
            ).scaled_arrivals(3.0)
            for r in trace:
                session.submit(r)
            session.advance()
            rendered.append(
                json.dumps(
                    summary_to_dict(session.summary()), sort_keys=True
                )
            )
        assert rendered[0] == rendered[1]
