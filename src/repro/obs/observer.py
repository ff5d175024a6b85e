"""The observability seam between the engine and the recorders.

:class:`Observer` is the single protocol the engine, schedulers,
chunker, relegation policy, cluster and gateway call into: producers
build a frozen :mod:`~repro.obs.events` record from plain scalars and
hand it to :meth:`Observer.emit`.  The base class is a no-op, and hot
producers skip building the record at all when the observer is
:data:`NULL_OBSERVER`, so instrumentation is free when observability
is off.  An observer can never change scheduling behaviour: events
describe decisions already made, carry no live engine state, and
``emit`` returns nothing, keeping the simulation deterministic with or
without tracing.

:class:`TracingObserver` is the production implementation: it passes
recorded events to a :class:`~repro.obs.trace.TraceRecorder` and
updates series in a :class:`~repro.obs.metrics.MetricsRegistry`.

A process-wide default (see :func:`set_default_observer`) lets the
experiment CLI enable tracing for *every* engine built during a run
without threading an argument through each experiment driver.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Iterator

from repro.obs.events import (
    DecodeEvicted,
    FaultSkipped,
    FleetComposition,
    FleetResized,
    GatewayAdmitted,
    GatewayShed,
    IterationScheduled,
    KVCacheSnapshot,
    Preempted,
    PrefixEvicted,
    PrefixHit,
    PrefixInserted,
    PrefixMissed,
    Relegated,
    RelegationScan,
    RelegationServed,
    ReplicaCrashed,
    ReplicaRecovered,
    ReplicaSlowdown,
    RequestCancelled,
    RequestCompleted,
    RequestRetried,
    RequestShed,
    TokenStreamed,
    TraceEvent,
)
from repro.obs.metrics import (
    DEFAULT_CHUNK_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
)
from repro.obs.sketch import BurnRateTracker
from repro.obs.trace import RingSink, TraceRecorder


class Observer:
    """No-op observability seam; subclass and override :meth:`emit`.

    Events arrive *after* the decision they describe.  They are frozen
    and hold plain scalars, so an observer cannot reach engine state.
    """

    def emit(self, event: TraceEvent) -> None:
        """Observe one event (recorded kind or metric-only)."""


#: Shared no-op instance — the default everywhere an observer plugs in.
NULL_OBSERVER = Observer()


class TracingObserver(Observer):
    """Records typed events and metric series from the event stream.

    Args:
        recorder: Destination for recorded events; a fresh recorder
            with no sinks is created when omitted (metrics-only mode).
        registry: Metrics registry; created when omitted.
    """

    def __init__(
        self,
        recorder: TraceRecorder | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.recorder = recorder if recorder is not None else TraceRecorder()
        self.registry = registry if registry is not None else MetricsRegistry()

        reg = self.registry
        self._iterations = reg.counter(
            "repro_iterations_total",
            "Engine iterations executed", ("replica",),
        )
        self._prefill_tokens = reg.counter(
            "repro_prefill_tokens_total",
            "Prompt tokens processed", ("replica",),
        )
        self._decode_tokens = reg.counter(
            "repro_decode_tokens_total",
            "Output tokens produced by batched decodes", ("replica",),
        )
        self._exec_seconds = reg.histogram(
            "repro_iteration_exec_seconds",
            "Per-iteration batch execution time",
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self._chunk_hist = reg.histogram(
            "repro_chunk_size_tokens",
            "Prefill token budget chosen per iteration",
            buckets=DEFAULT_CHUNK_BUCKETS,
        )
        self._kv_utilization = reg.gauge(
            "repro_kv_utilization",
            "KV-cache block utilization (gauge; max tracked)",
            ("replica",),
        )
        self._relegations = reg.counter(
            "repro_relegations_total",
            "Requests demoted by eager relegation", ("tier",),
        )
        self._relegation_scans = reg.counter(
            "repro_relegation_scans_total",
            "Relegation feasibility scans run",
        )
        self._important_saved = reg.counter(
            "repro_relegation_important_saved_total",
            "Important requests saved by demoting free-tier work",
        )
        self._preemptions = reg.counter(
            "repro_preemptions_total",
            "Prefill preemptions (stall-recovery KV reclaims)",
            ("replica",),
        )
        self._decode_evictions = reg.counter(
            "repro_decode_evictions_total",
            "Decode evictions under KV pressure", ("replica",),
        )
        self._completed = reg.counter(
            "repro_requests_completed_total",
            "Requests that produced their final token",
            ("tier",),
        )
        self._violations = reg.counter(
            "repro_deadline_violations_total",
            "Completed requests that missed their governing SLO",
            ("tier",),
        )
        self._crashes = reg.counter(
            "repro_replica_crashes_total",
            "Replica failures injected", ("replica",),
        )
        self._recoveries = reg.counter(
            "repro_replica_recoveries_total",
            "Replica recoveries after a crash", ("replica",),
        )
        self._slowdowns = reg.counter(
            "repro_replica_slowdowns_total",
            "Straggler windows started on a replica", ("replica",),
        )
        self._retries = reg.counter(
            "repro_request_retries_total",
            "Crash-lost requests re-enqueued for dispatch", ("tier",),
        )
        self._shed = reg.counter(
            "repro_requests_shed_total",
            "Arrivals refused by degraded-capacity admission control",
            ("tier",),
        )
        self._cancellations = reg.counter(
            "repro_requests_cancelled_total",
            "Requests abandoned before completion", ("tier", "reason"),
        )
        self._relegations_served = reg.counter(
            "repro_relegations_served_total",
            "Relegated requests that received opportunistic service",
            ("tier",),
        )
        self._prefix_hits = reg.counter(
            "repro_kv_prefix_hits_total",
            "Arrivals whose prompt matched a radix-cached prefix",
            ("replica",),
        )
        self._prefix_misses = reg.counter(
            "repro_kv_prefix_misses_total",
            "Radix-cache lookups that matched no blocks", ("replica",),
        )
        self._prefix_evictions = reg.counter(
            "repro_kv_prefix_evictions_total",
            "Shared prefix blocks reclaimed under memory pressure",
            ("replica",),
        )
        self._prefix_hit_tokens = reg.counter(
            "repro_kv_prefix_hit_tokens_total",
            "Prefill tokens skipped via shared-prefix matches",
            ("replica",),
        )
        self._prefix_cached_tokens = reg.gauge(
            "repro_kv_prefix_cached_tokens",
            "Tokens resident in the shared radix prefix tree",
            ("replica",),
        )
        self._events_dropped = reg.counter(
            "repro_trace_events_dropped_total",
            "Trace events shed by bounded-memory ring sinks",
        )
        self._gateway_admitted = reg.counter(
            "repro_gateway_admitted_total",
            "Requests admitted by the serving gateway", ("tier",),
        )
        self._gateway_shed = reg.counter(
            "repro_gateway_shed_total",
            "Requests refused or evicted by the serving gateway",
            ("tier", "reason"),
        )
        self._gateway_tokens_streamed = reg.counter(
            "repro_gateway_tokens_streamed_total",
            "Output tokens delivered to streaming consumers", ("tier",),
        )
        self._faults_skipped = reg.counter(
            "repro_faults_skipped_total",
            "Fault plan events resolved to no-ops on absent replicas",
            ("fault_kind", "reason"),
        )
        self._fleet_resizes = reg.counter(
            "repro_fleet_resizes_total",
            "Fleet provisioning actions", ("action", "hardware"),
        )
        self._fleet_size_gauge = reg.gauge(
            "repro_fleet_size",
            "Replicas provisioned and not yet released",
        )
        self._fleet_hardware_gauge = reg.gauge(
            "repro_fleet_replicas",
            "Provisioned replicas by hardware class", ("hardware",),
        )
        # Per-tier latency sketches: mergeable percentiles replacing
        # fixed-bucket histograms for the three governing latencies.
        self._ttft_sketch = reg.sketch(
            "repro_request_ttft_seconds",
            "Time to first token per completed request", ("tier",),
        )
        self._tbt_sketch = reg.sketch(
            "repro_request_tbt_seconds",
            "Mean time between tokens per completed request", ("tier",),
        )
        self._ttlt_sketch = reg.sketch(
            "repro_request_ttlt_seconds",
            "Time to last token per completed request", ("tier",),
        )
        #: Windowed SLO burn rate over simulated time (one verdict per
        #: completion, at completion time).
        self.burn_rate = BurnRateTracker()
        # Bounded ring sinks silently shed their oldest events; surface
        # the loss as a counter so lossy traces are visible in scrapes.
        for sink in self.recorder.sinks:
            if isinstance(sink, RingSink) and sink.on_drop is None:
                sink.on_drop = self._events_dropped.inc

        def count(family, *fields: str) -> Callable:
            """One increment of the series the event's ``fields`` label."""
            return lambda event: family.labels(
                *[getattr(event, name) for name in fields]
            ).inc()

        #: Event type -> its metric update (types with none are absent).
        self._updates: dict[type, Callable] = {
            IterationScheduled: self._iteration_scheduled,
            KVCacheSnapshot: self._kv_cache_snapshot,
            Relegated: count(self._relegations, "tier"),
            RelegationScan: self._relegation_scan,
            RelegationServed: count(self._relegations_served, "tier"),
            Preempted: count(self._preemptions, "replica_id"),
            DecodeEvicted: count(self._decode_evictions, "replica_id"),
            RequestCompleted: self._request_completed,
            PrefixHit: self._prefix_hit,
            PrefixMissed: self._prefix_missed,
            PrefixInserted: self._prefix_inserted,
            PrefixEvicted: self._prefix_evicted,
            ReplicaCrashed: count(self._crashes, "replica_id"),
            ReplicaRecovered: count(self._recoveries, "replica_id"),
            ReplicaSlowdown: self._replica_slowdown,
            RequestRetried: count(self._retries, "tier"),
            RequestShed: count(self._shed, "tier"),
            RequestCancelled: count(self._cancellations, "tier", "reason"),
            FaultSkipped: count(
                self._faults_skipped, "fault_kind", "reason"
            ),
            FleetResized: self._fleet_resized,
            FleetComposition: self._fleet_composition,
            GatewayAdmitted: count(self._gateway_admitted, "tier"),
            GatewayShed: count(self._gateway_shed, "tier", "reason"),
            TokenStreamed: count(self._gateway_tokens_streamed, "tier"),
        }

    def emit(self, event: TraceEvent) -> None:
        if event.recorded:
            self.recorder.emit(event)
        update = self._updates.get(type(event))
        if update is not None:
            update(event)

    # --- metric updates beyond a single increment ------------------------

    def _iteration_scheduled(self, event: IterationScheduled) -> None:
        replica = str(event.replica_id)
        self._iterations.labels(replica).inc()
        self._prefill_tokens.labels(replica).inc(event.prefill_tokens)
        self._decode_tokens.labels(replica).inc(event.num_decodes)
        self._exec_seconds.observe(event.dur)
        self._chunk_hist.observe(event.prefill_tokens)

    def _kv_cache_snapshot(self, event: KVCacheSnapshot) -> None:
        self._kv_utilization.labels(str(event.replica_id)).set(
            event.utilization
        )

    def _relegation_scan(self, event: RelegationScan) -> None:
        self._relegation_scans.inc()
        if event.important_saved:
            self._important_saved.inc(event.important_saved)

    def _request_completed(self, event: RequestCompleted) -> None:
        tier = event.tier
        self._completed.labels(tier).inc()
        if event.violated:
            self._violations.labels(tier).inc()
        first_token_time = event.first_token_time
        if first_token_time is not None:
            self._ttft_sketch.labels(tier).observe(
                first_token_time - event.arrival_time
            )
        self._ttlt_sketch.labels(tier).observe(
            event.completion_time - event.arrival_time
        )
        if first_token_time is not None and event.decoded > 1:
            self._tbt_sketch.labels(tier).observe(
                (event.completion_time - first_token_time)
                / (event.decoded - 1)
            )
        self.burn_rate.observe(event.ts, event.violated)

    def _prefix_hit(self, event: PrefixHit) -> None:
        replica = str(event.replica_id)
        self._prefix_hits.labels(replica).inc()
        self._prefix_hit_tokens.labels(replica).inc(event.hit_tokens)
        self._prefix_cached_tokens.labels(replica).set(event.cached_tokens)

    def _prefix_missed(self, event: PrefixMissed) -> None:
        replica = str(event.replica_id)
        self._prefix_misses.labels(replica).inc()
        self._prefix_cached_tokens.labels(replica).set(event.cached_tokens)

    def _prefix_inserted(self, event: PrefixInserted) -> None:
        self._prefix_cached_tokens.labels(str(event.replica_id)).set(
            event.cached_tokens
        )

    def _prefix_evicted(self, event: PrefixEvicted) -> None:
        replica = str(event.replica_id)
        self._prefix_evictions.labels(replica).inc(event.blocks)
        self._prefix_cached_tokens.labels(replica).set(event.cached_tokens)

    def _replica_slowdown(self, event: ReplicaSlowdown) -> None:
        if event.factor != 1.0:  # 1.0 closes a window, it does not open one
            self._slowdowns.labels(str(event.replica_id)).inc()

    def _fleet_resized(self, event: FleetResized) -> None:
        self._fleet_resizes.labels(event.action, event.hardware).inc()
        self._fleet_size_gauge.set(event.fleet_size)

    def _fleet_composition(self, event: FleetComposition) -> None:
        for name, count in event.by_hardware:
            self._fleet_hardware_gauge.labels(hardware=name).set(count)

    def close(self) -> None:
        self.recorder.close()


class MultiObserver(Observer):
    """Fan every event out to a list of observers, in order.

    Lets the experiment runner chain an in-memory audit collector with
    whatever observer is already installed (e.g. the CLI's tracing
    observer) without displacing either: both see the identical event
    stream, and neither can perturb the simulation — the same
    read-only contract as any single observer.
    """

    def __init__(self, observers: "Iterable[Observer]") -> None:
        self.observers: tuple[Observer, ...] = tuple(observers)

    def emit(self, event: TraceEvent) -> None:
        for observer in self.observers:
            observer.emit(event)


# --- process-wide default observer ------------------------------------

_DEFAULT_OBSERVER: Observer = NULL_OBSERVER


def get_default_observer() -> Observer:
    """The observer engines adopt when none is passed explicitly."""
    return _DEFAULT_OBSERVER


def set_default_observer(observer: Observer | None) -> Observer:
    """Install a process-wide default observer; returns the previous one.

    Pass ``None`` to restore the no-op default.
    """
    global _DEFAULT_OBSERVER
    previous = _DEFAULT_OBSERVER
    _DEFAULT_OBSERVER = observer if observer is not None else NULL_OBSERVER
    return previous


@contextmanager
def default_observer(observer: Observer) -> Iterator[Observer]:
    """Scoped :func:`set_default_observer` (restores on exit)."""
    previous = set_default_observer(observer)
    try:
        yield observer
    finally:
        set_default_observer(previous)
