"""Fault-tolerant cluster deployment (``repro.faults`` consumer).

:class:`ResilientClusterDeployment` wraps the shared-pool deployment
with the four resilience mechanisms of the fault layer:

1. **Fault injection** — a :class:`~repro.faults.plan.FaultPlan` is
   armed on the cluster's simulator; crashes drop a replica's KV cache
   and in-flight batch, slowdowns stretch its iteration time.
2. **Health-aware routing & retry** — routing only considers healthy
   replicas; requests lost to a crash are re-dispatched after capped
   exponential backoff (:class:`~repro.faults.policy.RetryPolicy`),
   keeping their *original* arrival time so SLO accounting spans every
   attempt.  A request that exhausts its attempt budget is cancelled.
3. **Client deadline timeouts** — a per-request watchdog abandons
   work still unfinished at ``abandonment_factor ×`` its governing
   deadline span and frees its KV.
4. **Graceful degradation** — when the alive fraction of replicas
   drops below the configured thresholds, admission sheds free-tier
   arrivals first, then non-interactive traffic, mirroring the QoS
   victim ordering of :mod:`repro.core.relegation` (free tier before
   important, interactive protected longest).

Determinism: with an **empty plan** and default policies this class
produces byte-identical run summaries to :class:`ClusterDeployment`
on arrival-ordered traces — all routing is deferred to arrival time
(when health is knowable), which for round-robin reproduces the plain
deployment's submission-order assignment, and watchdog events are
disarmed on completion so they never stretch the drained clock.
"""

from __future__ import annotations

from collections import deque

from repro.cluster.deployment import ClusterDeployment, SchedulerFactory
from repro.core.request import Request
from repro.engine.replica import ReplicaConfig, ReplicaEngine
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, get_default_fault_plan
from repro.faults.policy import ResilienceConfig
from repro.obs.events import (
    ReplicaSlowdown,
    RequestCancelled,
    RequestRetried,
    RequestShed,
)
from repro.perfmodel.execution import ExecutionModel
from repro.simcore.events import Event
from repro.simcore.simulator import Simulator


class ResilientClusterDeployment(ClusterDeployment):
    """A replica pool that survives the faults a plan throws at it."""

    def __init__(
        self,
        execution_model: ExecutionModel,
        scheduler_factory: SchedulerFactory,
        num_replicas: int,
        replica_config: ReplicaConfig | None = None,
        simulator: Simulator | None = None,
        routing: str = "round-robin",
        fault_plan: FaultPlan | None = None,
        resilience: ResilienceConfig | None = None,
        execution_models: list[ExecutionModel] | None = None,
        observer=None,
    ) -> None:
        super().__init__(
            execution_model,
            scheduler_factory,
            num_replicas,
            replica_config=replica_config,
            simulator=simulator,
            routing=routing,
            execution_models=execution_models,
            observer=observer,
        )
        if fault_plan is None:
            fault_plan = get_default_fault_plan() or FaultPlan()
        self.fault_plan = fault_plan
        self.resilience = resilience or ResilienceConfig()
        self.injector = FaultInjector(self.simulator, self, fault_plan)
        self.injector.arm(num_replicas=self._fault_pool_size())

        #: request_id -> replica currently serving the request.
        self._owner: dict[int, ReplicaEngine] = {}
        #: request_id -> armed deadline-watchdog event.
        self._watchdogs: dict[int, Event] = {}
        #: Admitted requests stranded while no replica is healthy.
        self._waiting: deque[Request] = deque()
        self.shed_requests: list[Request] = []
        self.cancelled_requests: list[Request] = []
        self.retries_scheduled = 0
        self.total_lost_to_crashes = 0
        for replica in self.replicas:
            replica.completion_hook = self._on_request_complete

    def _fault_pool_size(self) -> int:
        """Pool size fault plans are validated against at arm time.

        The static resilient pool rejects plans naming replicas it
        will never have; the elastic fleet overrides this with its
        *maximum* size (slots that exist only transiently are legal
        targets — faults on currently-absent slots become
        ``fault_skipped`` no-ops at fire time).
        """
        return self.num_replicas

    # --- health ---------------------------------------------------------

    @property
    def alive_fraction(self) -> float:
        healthy = sum(1 for r in self.replicas if r.healthy)
        return healthy / self.num_replicas

    def _eligible_replicas(self) -> list[ReplicaEngine]:
        return [r for r in self.replicas if r.healthy]

    # --- submission -----------------------------------------------------

    def submit(self, request: Request) -> None:
        """Admit at arrival time, when replica health is knowable."""
        self._submitted.append(request)
        self.simulator.schedule(
            max(request.arrival_time, self.simulator.now),
            lambda: self._admit(request),
        )

    def _admit(self, request: Request) -> None:
        now = self.simulator.now
        alive = self.alive_fraction
        level = self.resilience.degradation_level(alive)
        if level >= 1 and self._sheddable(request, level):
            self._shed(request, now, alive)
            return
        if not self._eligible_replicas():
            # Total outage: hold the request until a recovery; the
            # deadline watchdog still covers it.
            self._arm_watchdog(request)
            self._waiting.append(request)
            return
        self._dispatch(request)

    def _shed(self, request: Request, now: float, alive: float) -> None:
        request.shed = True
        self.shed_requests.append(request)
        self.replicas[0].observer.emit(RequestShed(
            now, request.request_id, request.qos.name, request.important,
            alive,
        ))

    def _sheddable(self, request: Request, level: int) -> bool:
        """Victim ordering mirrors relegation: free tier first, then
        non-interactive paid traffic; paid interactive is shed last
        (never, by admission — it only fails with the whole fleet)."""
        if not request.important:
            return True
        return level >= 2 and not request.is_interactive

    def _dispatch(self, request: Request) -> None:
        engine = self._pick_replica(request)
        request.attempts += 1
        self._owner[request.request_id] = engine
        if request.attempts == 1:
            self._arm_watchdog(request)
        engine.submit_now(request)

    # --- injector hooks (FaultTarget) -----------------------------------

    def on_replica_crash(self, replica_id: int) -> None:
        engine = self.replicas[replica_id]
        if not engine.healthy:
            return
        lost = engine.crash()
        self.total_lost_to_crashes += len(lost)
        now = self.simulator.now
        for request in lost:
            self._owner.pop(request.request_id, None)
            if request.cancelled:
                continue
            self._schedule_retry(request, replica_id, now)

    def on_replica_recover(self, replica_id: int) -> None:
        engine = self.replicas[replica_id]
        if engine.healthy:
            return
        engine.recover()
        # A recovery may be the only healthy capacity: drain the
        # stranded queue in FIFO order.
        while self._waiting and self._eligible_replicas():
            request = self._waiting.popleft()
            if request.cancelled or request.is_finished:
                continue
            self._dispatch(request)

    def on_replica_slowdown(self, replica_id: int, factor: float) -> None:
        engine = self.replicas[replica_id]
        engine.set_slowdown(factor)
        engine.observer.emit(
            ReplicaSlowdown(self.simulator.now, replica_id, factor)
        )

    # --- retry ----------------------------------------------------------

    def _schedule_retry(
        self, request: Request, from_replica: int, now: float
    ) -> None:
        policy = self.resilience.retry
        if policy.exhausted(request.attempts):
            self._cancel_unowned(request, now, "retry-budget")
            return
        backoff = policy.backoff(request.attempts)
        self.retries_scheduled += 1
        self.replicas[0].observer.emit(RequestRetried(
            now, request.request_id, request.qos.name, request.attempts,
            backoff, from_replica,
        ))
        self.simulator.schedule(
            now + backoff, lambda: self._redispatch(request)
        )
        # A request whose watchdog already passed (e.g. it was happily
        # streaming) gets a fresh abandonment budget measured from the
        # crash — the client's stream just broke, the wait restarts.
        self._arm_watchdog(request, rebase_from=now)

    def _redispatch(self, request: Request) -> None:
        if request.cancelled or request.is_finished:
            return
        if not self._eligible_replicas():
            self._waiting.append(request)
            return
        self._dispatch(request)

    def _record_cancel(self, request: Request, now: float) -> None:
        """Bookkeeping for a definitive give-up on a request;
        subclasses add their own accounting (e.g. SLO burn)."""
        self.cancelled_requests.append(request)

    def _cancel_unowned(
        self, request: Request, now: float, reason: str
    ) -> None:
        """Cancel a request not resident on any replica (lost to a
        crash, waiting out a backoff, or stranded in the outage
        queue)."""
        request.cancel(now, reason)
        self._record_cancel(request, now)
        self._disarm_watchdog(request)
        self.replicas[0].observer.emit(
            RequestCancelled.of(-1, request, now, reason)
        )

    # --- deadline watchdog ----------------------------------------------

    def _arm_watchdog(
        self, request: Request, rebase_from: float | None = None
    ) -> None:
        factor = self.resilience.abandonment_factor
        if factor is None or request.request_id in self._watchdogs:
            return
        if request.is_finished or request.cancelled or request.shed:
            return
        if request.is_interactive:
            deadline = request.first_token_deadline
        else:
            deadline = request.total_deadline
        span = max(0.0, deadline - request.arrival_time)
        base = (
            rebase_from if rebase_from is not None else request.arrival_time
        )
        fire_at = max(self.simulator.now, base + factor * span)
        self._watchdogs[request.request_id] = self.simulator.schedule(
            fire_at, lambda: self._watchdog_fired(request)
        )

    def _disarm_watchdog(self, request: Request) -> None:
        event = self._watchdogs.pop(request.request_id, None)
        if event is not None:
            event.cancel()

    def _watchdog_fired(self, request: Request) -> None:
        self._watchdogs.pop(request.request_id, None)
        if request.is_finished or request.cancelled or request.shed:
            return
        if (
            request.is_interactive
            and request.first_token_time is not None
            and request.remaining_prefill == 0
        ):
            # The client is reading an unbroken stream; late tokens
            # are an SLO miss, not an abandonment.  (A crash resets
            # prefill progress, so a broken stream fails this check
            # and the rebased watchdog may abandon it.)
            return
        now = self.simulator.now
        owner = self._owner.pop(request.request_id, None)
        if owner is not None:
            # The engine cancels the request (resident or not), frees
            # its KV and emits the cancellation event.
            owner.cancel_request(request, "deadline")
            self._record_cancel(request, now)
            return
        # Not resident (backoff or outage queue): cancel directly.
        try:
            self._waiting.remove(request)
        except ValueError:
            pass
        request.cancel(now, "deadline")
        self._record_cancel(request, now)
        self.replicas[0].observer.emit(
            RequestCancelled.of(-1, request, now, "deadline")
        )

    def _on_request_complete(self, request: Request, now: float) -> None:
        self._owner.pop(request.request_id, None)
        self._disarm_watchdog(request)

    # --- reporting ------------------------------------------------------

    def fault_stats(self) -> dict:
        """Counters for experiment tables and the chaos smoke test."""
        return {
            "crashes": sum(r.crash_count for r in self.replicas),
            "lost_to_crashes": self.total_lost_to_crashes,
            "retries_scheduled": self.retries_scheduled,
            "shed": len(self.shed_requests),
            "cancelled": len(self.cancelled_requests),
            "still_waiting": len(self._waiting),
            "kv_blocks_resident": sum(
                r.kv_cache.used_blocks for r in self.replicas
            ),
        }
