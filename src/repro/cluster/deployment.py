"""Shared and siloed cluster deployments (Sections 2.2 and 4.1.1).

A *shared* deployment co-schedules all QoS tiers on every replica with
round-robin load balancing — QoServe's model.  A *siloed* deployment
partitions replicas into per-tier pools, each pool running its own
scheduler and chunk size — the production state of the art the paper
compares against (Sarathi-Silo), with round-robin inside each pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.request import Request
from repro.engine import arrays
from repro.engine.interface import Scheduler
from repro.engine.replica import ReplicaConfig, ReplicaEngine, chain_hooks
from repro.metrics.summary import RunSummary, summarize_run
from repro.obs.events import SpanEnd, SpanStart
from repro.obs.observer import NULL_OBSERVER
from repro.perfmodel.execution import ExecutionModel
from repro.simcore.simulator import Simulator
from repro.workload.trace import Trace

SchedulerFactory = Callable[[], Scheduler]

#: Routing strategies for :class:`ClusterDeployment`.  The paper's
#: deployments use round-robin ("Both deployments use round-robin load
#: balancing across replicas"); least-loaded and power-of-two-choices
#: are provided for provisioning studies — with heavy-tailed prompt
#: lengths, load-aware routing smooths the per-replica work imbalance
#: round-robin leaves behind.  perf-aware extends least-loaded for
#: heterogeneous pools: prefill-heavy requests prefer compute-rich
#: replicas, decode-heavy requests prefer memory-rich ones, by scoring
#: outstanding work against the hardware capability that governs the
#: request's bottleneck phase.  On a homogeneous pool it reduces
#: exactly to least-loaded (same replica-index tie-break).
ROUTING_STRATEGIES = (
    "round-robin", "least-loaded", "power-of-two", "perf-aware",
)

#: A request whose prompt is at least this many times its decode
#: length is classified prefill-heavy by perf-aware routing.
PREFILL_HEAVY_RATIO = 4.0


class ClusterDeployment:
    """A pool of identical replicas behind a load balancer."""

    def __init__(
        self,
        execution_model: ExecutionModel,
        scheduler_factory: SchedulerFactory,
        num_replicas: int,
        replica_config: ReplicaConfig | None = None,
        simulator: Simulator | None = None,
        routing: str = "round-robin",
        observer=None,
        execution_models: Sequence[ExecutionModel] | None = None,
    ) -> None:
        if num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        if routing not in ROUTING_STRATEGIES:
            raise ValueError(
                f"unknown routing {routing!r}; "
                f"options: {ROUTING_STRATEGIES}"
            )
        if execution_models is not None:
            if len(execution_models) != num_replicas:
                raise ValueError(
                    f"execution_models has {len(execution_models)} "
                    f"entries for {num_replicas} replicas"
                )
            per_replica = list(execution_models)
        else:
            per_replica = [execution_model] * num_replicas
        self.simulator = simulator or Simulator()
        self.execution_model = execution_model
        self.routing = routing
        self.replicas = [
            arrays.build_replica(
                self.simulator,
                per_replica[i],
                scheduler_factory(),
                replica_config or ReplicaConfig(),
                replica_id=i,
                observer=observer,
            )
            for i in range(num_replicas)
        ]
        self._next_replica = 0
        self._submitted: list[Request] = []
        # Deterministic stream for power-of-two sampling.
        self._route_rng = np.random.default_rng(0xC1053E)

    @property
    def num_replicas(self) -> int:
        return len(self.replicas)

    @property
    def gpus_used(self) -> int:
        return sum(
            replica.execution_model.tp_degree for replica in self.replicas
        )

    def _outstanding(self, replica: ReplicaEngine) -> int:
        return (
            replica.running_requests
            + len(replica.scheduler.pending_requests())
        )

    def _eligible_replicas(self) -> list[ReplicaEngine]:
        """Replicas routing may dispatch to right now.

        The base deployment never takes a replica out of rotation;
        :class:`~repro.cluster.resilient.ResilientClusterDeployment`
        overrides this to skip crashed replicas.
        """
        return self.replicas

    @staticmethod
    def _phase_capability(
        replica: ReplicaEngine, prefill_heavy: bool
    ) -> float:
        """Hardware capability governing the request's bottleneck phase.

        Prefill is compute-bound (effective linear FLOPs); decode is
        memory-bound (weight/KV streaming bandwidth).  Per-rank values
        are equivalent here because routing only compares ratios.
        """
        hardware = replica.execution_model.hardware
        if prefill_heavy:
            return hardware.peak_flops * hardware.mfu_linear
        return hardware.mem_bandwidth

    def _pick_replica(self, request: Request | None = None) -> ReplicaEngine:
        candidates = self._eligible_replicas()
        if not candidates:
            raise RuntimeError("routing found no eligible replica")
        if self.routing == "perf-aware":
            # Score queue depth against the capability that governs
            # this request's bottleneck phase, so prefill-heavy work
            # prefers compute-rich replicas and decode-heavy work
            # prefers memory-rich ones.  Capabilities are normalized
            # to the fastest candidate so the score stays a pure
            # load ratio: on a homogeneous pool every weight is 1.0
            # and this is exactly least-loaded.
            prefill_heavy = (
                request is not None
                and request.prompt_tokens
                >= PREFILL_HEAVY_RATIO * request.decode_tokens
            )
            best = max(
                self._phase_capability(r, prefill_heavy)
                for r in candidates
            )
            # outstanding + 1 counts the request being placed, so an
            # all-idle pool still prefers the fastest hardware instead
            # of degenerating to replica 0.
            return min(
                candidates,
                key=lambda r: (
                    (self._outstanding(r) + 1)
                    * best
                    / self._phase_capability(r, prefill_heavy),
                    r.replica_id,
                ),
            )
        if self.routing == "round-robin" or len(candidates) == 1:
            # Walk the rotation cursor to the next eligible replica so
            # rotation order survives replicas leaving and rejoining.
            for _ in range(self.num_replicas):
                replica = self.replicas[self._next_replica]
                self._next_replica = (
                    self._next_replica + 1
                ) % self.num_replicas
                if replica in candidates:
                    return replica
            # candidates is a non-empty subset of self.replicas, so
            # the walk above always returns; keep a hard stop anyway.
            raise RuntimeError("eligible replicas not in deployment")
        if self.routing == "least-loaded":
            # Ties break on replica index, not list position, so equal
            # loads route the same way no matter who crashed earlier.
            return min(
                candidates,
                key=lambda r: (self._outstanding(r), r.replica_id),
            )
        # power-of-two: sample two distinct candidates, keep the
        # lighter; a tie goes to the lower replica index rather than
        # whichever the RNG happened to sample first.
        if len(candidates) == 2:
            a, b = candidates
        else:
            first, second = self._route_rng.choice(
                len(candidates), size=2, replace=False
            )
            a, b = candidates[int(first)], candidates[int(second)]
        load_a, load_b = self._outstanding(a), self._outstanding(b)
        if load_a != load_b:
            return a if load_a < load_b else b
        return a if a.replica_id < b.replica_id else b

    def submit(self, request: Request) -> None:
        """Dispatch one request according to the routing strategy.

        Round-robin is decided immediately (it needs no system state);
        load-aware strategies defer the choice to the request's
        arrival time, when queue depths are meaningful.
        """
        self._submitted.append(request)
        if self.routing == "round-robin":
            self._pick_replica(request).submit(request)
            return
        self.simulator.schedule(
            max(request.arrival_time, self.simulator.now),
            lambda: self._pick_replica(request).submit_now(request),
        )

    def submit_now(self, request: Request) -> ReplicaEngine:
        """Inject a request immediately (online gateway path).

        Routing is decided at the current simulated time — queue
        depths are live — and the chosen replica is returned so the
        caller can later cancel or stream against it.
        """
        self._submitted.append(request)
        replica = self._pick_replica(request)
        now = self.simulator.now
        observer = replica.observer
        tracing = observer is not NULL_OBSERVER
        if tracing:
            observer.emit(SpanStart.of(
                "dispatch", request, now, replica.replica_id
            ))
        replica.submit_now(request)
        if tracing:
            observer.emit(SpanEnd.of(
                "dispatch", request, now, replica.replica_id
            ))
        return replica

    def set_completion_hook(
        self, hook: Callable[[Request, float], None]
    ) -> None:
        """Fire ``hook(request, now)`` on every replica's completions.

        Chains after any hook already installed (e.g. the resilient
        cluster's watchdog disarm) rather than displacing it.
        """
        for replica in self.replicas:
            replica.completion_hook = chain_hooks(
                replica.completion_hook, hook
            )

    def set_token_hook(
        self, hook: Callable[[Request, float], None]
    ) -> None:
        """Fire ``hook(request, now)`` for every output token emitted
        by any replica (streaming delivery)."""
        for replica in self.replicas:
            replica.token_hook = chain_hooks(replica.token_hook, hook)

    def next_event_time(self) -> float | None:
        """When the shared simulator fires next (None when idle)."""
        return self.simulator.next_event_time()

    def submit_trace(self, trace: Trace) -> None:
        for request in trace:
            self.submit(request)

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        return self.simulator.run(until=until, max_events=max_events)

    def all_requests(self) -> list[Request]:
        return list(self._submitted)

    def summarize(self, now: float | None = None) -> RunSummary:
        return summarize_run(
            self.all_requests(), now=now if now is not None else self.simulator.now
        )


@dataclass(frozen=True)
class SiloSpec:
    """One silo: which tiers it serves and with how many replicas."""

    tier_names: tuple[str, ...]
    num_replicas: int
    scheduler_factory: SchedulerFactory


class SiloedDeployment:
    """Per-tier replica pools, as in current production practice.

    Requests are routed to the silo owning their QoS bucket; each silo
    is its own :class:`ClusterDeployment` sharing one simulator so the
    silos advance in lock-step simulated time.
    """

    def __init__(
        self,
        execution_model: ExecutionModel,
        silos: list[SiloSpec],
        replica_config: ReplicaConfig | None = None,
        simulator: Simulator | None = None,
    ) -> None:
        if not silos:
            raise ValueError("need at least one silo")
        self.simulator = simulator or Simulator()
        self.execution_model = execution_model
        self.pools: list[ClusterDeployment] = []
        self._route: dict[str, ClusterDeployment] = {}
        for spec in silos:
            pool = ClusterDeployment(
                execution_model,
                spec.scheduler_factory,
                spec.num_replicas,
                replica_config=replica_config,
                simulator=self.simulator,
            )
            self.pools.append(pool)
            for tier in spec.tier_names:
                if tier in self._route:
                    raise ValueError(f"tier {tier} assigned to two silos")
                self._route[tier] = pool

    @property
    def gpus_used(self) -> int:
        return sum(pool.gpus_used for pool in self.pools)

    def submit(self, request: Request) -> None:
        pool = self._route.get(request.qos.name)
        if pool is None:
            raise KeyError(
                f"no silo serves QoS bucket {request.qos.name!r}"
            )
        pool.submit(request)

    def submit_trace(self, trace: Trace) -> None:
        for request in trace:
            self.submit(request)

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        return self.simulator.run(until=until, max_events=max_events)

    def all_requests(self) -> list[Request]:
        return [r for pool in self.pools for r in pool.all_requests()]

    def summarize(self, now: float | None = None) -> RunSummary:
        return summarize_run(
            self.all_requests(), now=now if now is not None else self.simulator.now
        )
