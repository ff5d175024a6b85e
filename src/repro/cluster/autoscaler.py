"""Reactive autoscaling over a shared replica pool.

Section 2.3 frames the provisioning problem — "dedicated clusters
often operate well below their maximum capacity" — and the related
work (SageServe) manages it with reactive scaling.  This module adds
that operational layer on top of any scheduler: a control loop samples
per-replica busy fraction, provisions new replicas with a realistic
cold-start delay (VM + weight loading), and drains surplus replicas
gracefully (they stop receiving work and release their GPUs once
empty).  GPU-hours are integrated exactly, so autoscaled and static
provisioning can be compared on cost at equal SLO attainment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.request import Request
from repro.engine import arrays
from repro.engine.replica import ReplicaConfig, ReplicaEngine
from repro.metrics.summary import RunSummary, summarize_run
from repro.perfmodel.execution import ExecutionModel
from repro.simcore.simulator import Simulator
from repro.workload.trace import Trace
from repro.cluster.deployment import SchedulerFactory


@dataclass(frozen=True)
class AutoscalerConfig:
    """Control-loop parameters.

    Attributes:
        min_replicas / max_replicas: Pool size bounds.
        control_interval: Seconds between control decisions.
        scale_up_threshold: Mean busy fraction above which a replica
            is added.
        scale_down_threshold: Mean busy fraction below which a replica
            is drained (only when above ``min_replicas``).
        provision_delay: Cold-start seconds before a new replica
            serves (VM allocation + model weight loading).
        max_step_up: Replicas added per control decision at most.
    """

    min_replicas: int = 1
    max_replicas: int = 16
    control_interval: float = 60.0
    scale_up_threshold: float = 0.85
    scale_down_threshold: float = 0.45
    provision_delay: float = 120.0
    max_step_up: int = 2

    def __post_init__(self) -> None:
        if not 1 <= self.min_replicas <= self.max_replicas:
            raise ValueError("need 1 <= min_replicas <= max_replicas")
        if not 0 < self.scale_down_threshold < self.scale_up_threshold <= 1:
            raise ValueError(
                "need 0 < scale_down_threshold < scale_up_threshold <= 1"
            )
        if self.control_interval <= 0 or self.provision_delay < 0:
            raise ValueError("invalid timing parameters")


@dataclass
class _ReplicaSlot:
    engine: ReplicaEngine
    draining: bool = False
    released: bool = False
    last_busy_time: float = 0.0


class AutoscalingDeployment:
    """A replica pool whose size follows the offered load."""

    def __init__(
        self,
        execution_model: ExecutionModel,
        scheduler_factory: SchedulerFactory,
        config: AutoscalerConfig | None = None,
        replica_config: ReplicaConfig | None = None,
        simulator: Simulator | None = None,
    ) -> None:
        self.simulator = simulator or Simulator()
        self.execution_model = execution_model
        self.scheduler_factory = scheduler_factory
        self.config = config or AutoscalerConfig()
        self.replica_config = replica_config or ReplicaConfig()

        self._slots: list[_ReplicaSlot] = []
        self._pending_ready: int = 0
        self._next_route = 0
        self._next_replica_id = 0
        self._gpu_seconds = 0.0
        self._last_accounting_time = 0.0
        self._control_active = True
        self._submitted: list[Request] = []
        self.scaling_events: list[tuple[float, int]] = []

        for _ in range(self.config.min_replicas):
            self._add_replica()
        self._schedule_control()

    # --- pool management --------------------------------------------------

    def _add_replica(self) -> None:
        engine = arrays.build_replica(
            self.simulator,
            self.execution_model,
            self.scheduler_factory(),
            self.replica_config,
            replica_id=self._next_replica_id,
        )
        self._next_replica_id += 1
        self._slots.append(_ReplicaSlot(engine=engine))
        self.scaling_events.append(
            (self.simulator.now, self.active_replicas)
        )

    def _active_slots(self) -> list[_ReplicaSlot]:
        return [s for s in self._slots if not s.draining and not s.released]

    @property
    def active_replicas(self) -> int:
        return len(self._active_slots())

    @property
    def provisioned_replicas(self) -> int:
        """Replicas consuming GPUs: active + draining-but-not-empty."""
        return sum(1 for s in self._slots if not s.released)

    @property
    def gpu_hours(self) -> float:
        self._account()
        return (
            self._gpu_seconds * self.execution_model.tp_degree / 3600.0
        )

    def _account(self) -> None:
        now = self.simulator.now
        elapsed = now - self._last_accounting_time
        if elapsed > 0:
            self._gpu_seconds += elapsed * self.provisioned_replicas
            self._last_accounting_time = now

    # --- routing ----------------------------------------------------------

    def submit(self, request: Request) -> None:
        self._submitted.append(request)
        self.simulator.schedule(
            max(request.arrival_time, self.simulator.now),
            lambda: self._route(request),
        )

    def submit_trace(self, trace: Trace) -> None:
        for request in trace:
            self.submit(request)

    def _route(self, request: Request) -> None:
        active = self._active_slots()
        slot = active[self._next_route % len(active)]
        self._next_route += 1
        slot.engine.submit_now(request)

    # --- control loop -------------------------------------------------------

    def _schedule_control(self) -> None:
        if not self._control_active:
            return
        self.simulator.schedule_after(
            self.config.control_interval, self._control_tick, priority=-1
        )

    def stop_control(self) -> None:
        """Stop the control loop (ends the self-perpetuating events)."""
        self._control_active = False

    def _control_tick(self) -> None:
        self._account()
        self._release_drained()
        active = self._active_slots()
        if active:
            utilizations = []
            for slot in active:
                delta = slot.engine.busy_time - slot.last_busy_time
                slot.last_busy_time = slot.engine.busy_time
                utilizations.append(
                    min(1.0, delta / self.config.control_interval)
                )
            mean_utilization = sum(utilizations) / len(utilizations)
        else:
            mean_utilization = 1.0

        planned = self.active_replicas + self._pending_ready
        if (
            mean_utilization >= self.config.scale_up_threshold
            and planned < self.config.max_replicas
        ):
            steps = min(
                self.config.max_step_up,
                self.config.max_replicas - planned,
            )
            for _ in range(steps):
                self._pending_ready += 1
                self.simulator.schedule_after(
                    self.config.provision_delay, self._replica_ready
                )
        elif (
            mean_utilization <= self.config.scale_down_threshold
            and self.active_replicas > self.config.min_replicas
            and self._pending_ready == 0
        ):
            # Drain the active replica with the least outstanding work.
            def outstanding(slot: _ReplicaSlot) -> int:
                pending = len(slot.engine.scheduler.pending_requests())
                return slot.engine.running_requests + pending

            victim = min(self._active_slots(), key=outstanding)
            victim.draining = True
            self.scaling_events.append(
                (self.simulator.now, self.active_replicas)
            )
        self._schedule_control()

    def _replica_ready(self) -> None:
        self._account()
        self._pending_ready -= 1
        self._add_replica()

    def _release_drained(self) -> None:
        for slot in self._slots:
            if (
                slot.draining
                and not slot.released
                and not slot.engine.has_work()
                and slot.engine.running_requests == 0
            ):
                slot.released = True

    # --- results ----------------------------------------------------------

    def run(self, until: float | None = None,
            max_events: int | None = None) -> float:
        return self.simulator.run(until=until, max_events=max_events)

    def run_until_drained(
        self,
        check_interval: float = 30.0,
        max_simulated_time: float = 1e7,
    ) -> float:
        """Advance time until every submitted request completed.

        The control loop is self-perpetuating, so a plain ``run()``
        would never return; this drives the clock in slabs, checks for
        drain, then stops the controller.
        """
        while self.simulator.now < max_simulated_time:
            self.simulator.run(until=self.simulator.now + check_interval)
            requests = self.all_requests()
            if requests and all(r.is_finished for r in requests):
                break
            if not requests and self.simulator.pending_events == 0:
                break
        self.stop_control()
        self._account()
        return self.simulator.now

    def all_requests(self) -> list[Request]:
        return list(self._submitted)

    def summarize(self, now: float | None = None) -> RunSummary:
        return summarize_run(
            self.all_requests(),
            now=now if now is not None else self.simulator.now,
        )
