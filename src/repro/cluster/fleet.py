"""Heterogeneous, elastic, fault-tolerant replica fleets.

ROADMAP item 5 composes three layers that previously only existed in
isolation:

1. **Heterogeneous deployments** — every replica carries its own
   :class:`~repro.perfmodel.execution.ExecutionModel` (A100 vs H100,
   different TP widths), described by a :class:`HardwareClass` with a
   $/GPU-hour price.  The ``perf-aware`` routing strategy (see
   :mod:`repro.cluster.deployment`) sends prefill-heavy work to
   compute-rich replicas and decode-heavy work to memory-rich ones.
2. **SLO-aware autoscaling** — :class:`BurnRateAutoscaler` drives
   resizing from the error-budget burn rate of completed requests
   (scale up when the budget burns hot, drain only when burn is cold
   *and* utilization is low) and picks *which* hardware to provision
   by cost per unit of bottleneck capability.
   :class:`BusyFractionAutoscaler` is the classic load-following
   baseline, so the two policies can be compared on goodput per
   GPU-hour; on a one-class fleet it is the elastic pool of
   :mod:`repro.experiments.ext_autoscaling`.
3. **Chaos coherence** — the fleet extends
   :class:`~repro.cluster.resilient.ResilientClusterDeployment`, so
   crashes, stragglers, retries, watchdogs and tier-aware shedding
   interoperate with resizing: a draining replica is never a routing
   or retry target, a crashed replica does not count toward the pool
   bound (its replacement can be provisioned), and fault-plan events
   aimed at slots that are drained, released or not yet provisioned
   resolve to ``fault_skipped`` trace events instead of raising.

Determinism: all control decisions are pure functions of simulated
time and engine state, control ticks and provisioning fire before
same-timestamp regular work, and GPU-hours/cost are integrated
exactly per slot — two same-seed runs produce byte-identical
summaries (pinned in ``tests/test_cluster_fleet.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.deployment import SchedulerFactory
from repro.cluster.resilient import ResilientClusterDeployment
from repro.core.request import Request
from repro.engine import arrays
from repro.engine.replica import ReplicaConfig, ReplicaEngine, chain_hooks
from repro.faults.plan import FaultPlan
from repro.faults.policy import ResilienceConfig
from repro.obs.events import FaultSkipped, FleetComposition, FleetResized
from repro.obs.sketch import BurnRateTracker
from repro.perfmodel.execution import ExecutionModel
from repro.perfmodel.hardware import A100_80GB, H100_80GB, HardwareSpec
from repro.simcore.simulator import Simulator

#: Control ticks and provisioning fire before same-timestamp regular
#: work.
CONTROL_PRIORITY = -1

#: Mean busy fraction at or above which busy-fraction scales up.
SCALE_UP_UTILIZATION = 0.85
#: Mean busy fraction at or below which either policy may drain.
SCALE_DOWN_UTILIZATION = 0.45
#: Burn rate at or above which burn-rate scales up: budget spent at
#: twice the sustainable rate.
BURN_HOT = 2.0
#: Burn rate at or below which burn-rate may drain: spending budget at
#: exactly the sustainable rate is, by definition, affordable.
BURN_COLD = 1.0
#: Width in virtual seconds of the fleet's burn-rate windows.
BURN_WINDOW = 60.0
#: Allowed violation fraction (the paper's 1% goodput bar).
SLO_BUDGET = 0.01


@dataclass(frozen=True)
class HardwareClass:
    """One procurable hardware flavour with its market price.

    ``cost_per_gpu_hour`` is in arbitrary but consistent units
    (defaults roughly track the on-demand A100/H100 price ratio).
    """

    name: str
    hardware: HardwareSpec
    tp_degree: int = 1
    cost_per_gpu_hour: float = 1.0

    def __post_init__(self) -> None:
        if self.tp_degree < 1:
            raise ValueError("tp_degree must be >= 1")
        if self.cost_per_gpu_hour <= 0:
            raise ValueError("cost_per_gpu_hour must be > 0")

    @property
    def cost_rate(self) -> float:
        """Cost per replica-hour (all TP ranks)."""
        return self.cost_per_gpu_hour * self.tp_degree

    def capability(self, compute_bound: bool) -> float:
        """Per-GPU capability on the governing bottleneck."""
        if compute_bound:
            return self.hardware.peak_flops * self.hardware.mfu_linear
        return self.hardware.mem_bandwidth


@dataclass(frozen=True)
class FleetConfig:
    """Fleet composition bounds and control-loop timing.

    Attributes:
        classes: The procurable hardware classes (unique names).
        initial: Hardware-class name per initially provisioned
            replica (its length is the starting fleet size).
        min_replicas / max_replicas: Pool-size bounds counted over
            healthy, non-released replicas — a crashed replica does
            not occupy a slot, so its replacement can be provisioned.
        control_interval: Seconds between autoscaler decisions.
        provision_delay: Cold-start seconds before a newly bought
            replica serves (VM allocation + weight loading).
    """

    classes: tuple[HardwareClass, ...]
    initial: tuple[str, ...]
    min_replicas: int = 1
    max_replicas: int = 8
    control_interval: float = 30.0
    provision_delay: float = 60.0

    def __post_init__(self) -> None:
        if not self.classes:
            raise ValueError("need at least one hardware class")
        names = [c.name for c in self.classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate hardware class names: {names}")
        if not self.initial:
            raise ValueError("need at least one initial replica")
        unknown = set(self.initial) - set(names)
        if unknown:
            raise ValueError(
                f"initial classes {sorted(unknown)} not in {names}"
            )
        if not 1 <= self.min_replicas <= self.max_replicas:
            raise ValueError("need 1 <= min_replicas <= max_replicas")
        if len(self.initial) > self.max_replicas:
            raise ValueError("initial fleet exceeds max_replicas")
        if self.control_interval <= 0 or self.provision_delay < 0:
            raise ValueError("invalid timing parameters")

    def class_named(self, name: str) -> HardwareClass:
        for cls in self.classes:
            if cls.name == name:
                return cls
        raise KeyError(f"unknown hardware class {name!r}")


#: Built-in procurable catalog for the CLI and experiments.  Prices
#: track the on-demand A100/H100 ratio: H100 wins on cost-per-FLOP
#: (2.9x compute at 2.5x price), A100 on cost-per-bandwidth (H100 is
#: only 1.6x), so the burn-rate hardware chooser has a real decision.
DEFAULT_HARDWARE_CLASSES = (
    HardwareClass("a100", A100_80GB, cost_per_gpu_hour=1.0),
    HardwareClass("h100", H100_80GB, cost_per_gpu_hour=2.5),
)


def parse_fleet_spec(
    spec: str,
    *,
    classes: tuple[HardwareClass, ...] = DEFAULT_HARDWARE_CLASSES,
    min_replicas: int = 1,
    max_replicas: int = 8,
    control_interval: float = 30.0,
    provision_delay: float = 60.0,
) -> FleetConfig:
    """Parse ``"a100:2,h100:1"`` into a :class:`FleetConfig`.

    Each comma-separated entry is ``class`` or ``class:count``;
    classes resolve against the built-in catalog by default.
    """
    by_name = {c.name: c for c in classes}
    initial: list[str] = []
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        name, _, count_text = entry.partition(":")
        name = name.strip()
        if name not in by_name:
            raise ValueError(
                f"unknown hardware class {name!r}; "
                f"options: {sorted(by_name)}"
            )
        try:
            count = int(count_text) if count_text else 1
        except ValueError:
            raise ValueError(
                f"invalid replica count in fleet entry {entry!r}"
            ) from None
        if count < 1:
            raise ValueError(
                f"invalid replica count in fleet entry {entry!r}"
            )
        initial.extend([name] * count)
    if not initial:
        raise ValueError(f"empty fleet spec {spec!r}")
    return FleetConfig(
        classes=tuple(classes),
        initial=tuple(initial),
        min_replicas=min_replicas,
        max_replicas=max(max_replicas, len(initial)),
        control_interval=control_interval,
        provision_delay=provision_delay,
    )


class BusyFractionAutoscaler:
    """Classic load-following policy: scale on mean busy fraction.

    Up at :data:`SCALE_UP_UTILIZATION`, down at
    :data:`SCALE_DOWN_UTILIZATION`; hardware choice is pure cost
    efficiency (cheapest compute capability).
    """

    def decide(self, fleet: "FleetDeployment", now: float) -> int:
        utilization = fleet.last_mean_utilization
        if utilization >= SCALE_UP_UTILIZATION:
            return 1
        if utilization <= SCALE_DOWN_UTILIZATION:
            return -1
        return 0

    def choose_class(self, fleet: "FleetDeployment") -> HardwareClass:
        return fleet.cheapest_class(compute_bound=True)


class BurnRateAutoscaler:
    """Error-budget-driven policy: capacity follows the SLO burn rate.

    Scale **up** when the last window's burn rate (violation rate over
    the SLO budget, from the fleet's own
    :class:`~repro.obs.sketch.BurnRateTracker`) is at or above
    :data:`BURN_HOT` — the budget is being spent faster than allowed,
    so waiting for utilization to saturate would ship the violations
    first.  Scale **down** only when burn is at or below
    :data:`BURN_COLD` *and* mean utilization is at or below
    :data:`SCALE_DOWN_UTILIZATION`: cold burn alone can mean the fleet
    is merely keeping up.

    Hardware choice follows the violation mix: mostly-interactive
    violations are TTFT misses (prefill, compute-bound), so provision
    the best cost-per-FLOP class; otherwise TTLT misses dominate
    (decode, memory-bound) and the best cost-per-bandwidth class wins.
    """

    def decide(self, fleet: "FleetDeployment", now: float) -> int:
        # Buy on *capacity* evidence (completion violations under the
        # current fleet size); hold on *total* burn — never drain
        # while the budget is being spent for any reason, including
        # degradation sheds that procurement cannot fix.
        if fleet.capacity_burn_rate(now, 1) >= BURN_HOT:
            return 1
        if (
            fleet.recent_burn_rate(now, 1) <= BURN_COLD
            and fleet.last_mean_utilization <= SCALE_DOWN_UTILIZATION
        ):
            return -1
        return 0

    def choose_class(self, fleet: "FleetDeployment") -> HardwareClass:
        interactive, batch = fleet.recent_violation_mix()
        return fleet.cheapest_class(compute_bound=interactive >= batch)


@dataclass
class _FleetSlot:
    """Bookkeeping for one replica's life in the pool."""

    engine: ReplicaEngine
    hw_class: HardwareClass
    provisioned_at: float
    draining: bool = False
    released: bool = False
    released_at: float | None = None
    last_busy_time: float = 0.0

    def gpu_hours(self, now: float) -> float:
        end = self.released_at if self.released_at is not None else now
        return (
            max(0.0, end - self.provisioned_at)
            * self.hw_class.tp_degree
            / 3600.0
        )


class FleetDeployment(ResilientClusterDeployment):
    """A heterogeneous, elastic, fault-tolerant replica pool.

    Args:
        execution_model: Model architecture reference (its
            :class:`~repro.perfmodel.models.ModelSpec` is deployed on
            every hardware class; per-replica execution models are
            derived from it).
        scheduler_factory: Fresh scheduler per replica, as elsewhere.
        fleet: Composition bounds and control timing.
        autoscaler: :class:`BurnRateAutoscaler`,
            :class:`BusyFractionAutoscaler`, any object with the same
            ``decide``/``choose_class`` surface, or ``None`` for a
            static fleet (no control loop).
        fault_plan: Armed against ``fleet.max_replicas`` — targeting a
            slot the fleet *could* provision is legal; firing at one
            that is currently absent becomes a ``fault_skipped``
            trace event.
    """

    def __init__(
        self,
        execution_model: ExecutionModel,
        scheduler_factory: SchedulerFactory,
        fleet: FleetConfig,
        replica_config: ReplicaConfig | None = None,
        simulator: Simulator | None = None,
        routing: str = "perf-aware",
        fault_plan: FaultPlan | None = None,
        resilience: ResilienceConfig | None = None,
        autoscaler: object | None = None,
        observer=None,
    ) -> None:
        self.fleet = fleet
        self.autoscaler = autoscaler
        initial_classes = [fleet.class_named(n) for n in fleet.initial]
        self.scheduler_factory = scheduler_factory
        super().__init__(
            execution_model,
            scheduler_factory,
            num_replicas=len(initial_classes),
            replica_config=replica_config,
            simulator=simulator,
            routing=routing,
            fault_plan=fault_plan,
            resilience=resilience,
            execution_models=[
                ExecutionModel(
                    execution_model.model, c.hardware, tp_degree=c.tp_degree
                )
                for c in initial_classes
            ],
            observer=observer,
        )
        self.replica_config = replica_config or ReplicaConfig()
        now = self.simulator.now
        self._slots: list[_FleetSlot] = [
            _FleetSlot(
                engine=replica, hw_class=cls, provisioned_at=now,
            )
            for replica, cls in zip(self.replicas, initial_classes)
        ]
        self._pending: list[HardwareClass] = []
        #: Completion hooks applied to replicas provisioned later.
        self._late_completion_hooks: list = []
        self._late_token_hooks: list = []
        #: The fleet's own burn trackers: observer-independent, so
        #: autoscaling decisions are identical with tracing on or off.
        #: ``burn`` is the *total* SLO spend (completed violations and
        #: shed arrivals) — the number an operator watches.
        #: ``capacity_burn`` sees completions only: shedding is the
        #: resilience layer's spend (admission control while degraded,
        #: ending with recovery), and buying replicas cannot shorten
        #: an MTTR — so procurement reacts to capacity evidence alone.
        self.burn = BurnRateTracker(window=BURN_WINDOW, slo_budget=SLO_BUDGET)
        self.capacity_burn = BurnRateTracker(
            window=BURN_WINDOW, slo_budget=SLO_BUDGET
        )
        self._violations_interactive = 0
        self._violations_batch = 0
        self.last_mean_utilization = 0.0
        self.scaling_events: list[tuple[float, str, int]] = []
        self.faults_skipped = 0
        #: Last time a bought replica came online — burn windows that
        #: straddle it are pre-resize evidence (see
        #: :meth:`recent_burn_rate`).
        self._last_capacity_change = 0.0
        self._control_active = autoscaler is not None
        #: True while the control loop has parked itself because the
        #: event queue is empty (see :meth:`_control_tick`).
        self._control_dormant = False
        if self._control_active:
            self._schedule_control()

    # --- composition ------------------------------------------------------

    @property
    def fleet_size(self) -> int:
        """Replicas provisioned and not yet released (any health)."""
        return sum(1 for s in self._slots if not s.released)

    @property
    def active_replicas(self) -> int:
        """Replicas accepting new work right now."""
        return len(self._eligible_replicas())

    def size_by_hardware(self) -> dict[str, int]:
        """Provisioned (non-released) replica count per class name."""
        counts: dict[str, int] = {c.name: 0 for c in self.fleet.classes}
        for slot in self._slots:
            if not slot.released:
                counts[slot.hw_class.name] += 1
        return counts

    def _pool_occupancy(self) -> int:
        """Slots counted against ``max_replicas``: healthy non-released
        replicas plus pending provisions.  Crashed replicas do not
        count — the bound limits *working* capacity, and a crash may
        be replaced immediately."""
        healthy = sum(
            1
            for s in self._slots
            if not s.released and s.engine.healthy
        )
        return healthy + len(self._pending)

    # --- health / routing (chaos coherence) -------------------------------

    def _eligible_replicas(self) -> list[ReplicaEngine]:
        return [
            s.engine
            for s in self._slots
            if s.engine.healthy and not s.draining and not s.released
        ]

    @property
    def alive_fraction(self) -> float:
        """Healthy share of the provisioned (non-released) pool."""
        provisioned = [s for s in self._slots if not s.released]
        if not provisioned:
            return 0.0
        healthy = sum(1 for s in provisioned if s.engine.healthy)
        return healthy / len(provisioned)

    def _fault_pool_size(self) -> int:
        return self.fleet.max_replicas

    def _slot_for(self, replica_id: int) -> _FleetSlot | None:
        if 0 <= replica_id < len(self._slots):
            return self._slots[replica_id]
        return None

    def _skip_fault(self, replica_id: int) -> str | None:
        """Why a fault on ``replica_id`` must be skipped (None = fire)."""
        slot = self._slot_for(replica_id)
        if slot is None:
            return "not_provisioned"
        if slot.released:
            return "released"
        if slot.draining:
            return "drained"
        return None

    def _emit_fault_skipped(self, replica_id: int, fault_kind: str,
                            reason: str) -> None:
        self.faults_skipped += 1
        self.replicas[0].observer.emit(FaultSkipped(
            self.simulator.now, replica_id, fault_kind, reason
        ))

    def on_replica_crash(self, replica_id: int) -> None:
        reason = self._skip_fault(replica_id)
        if reason is not None:
            self._emit_fault_skipped(replica_id, "crash", reason)
            return
        super().on_replica_crash(replica_id)

    def on_replica_recover(self, replica_id: int) -> None:
        reason = self._skip_fault(replica_id)
        if reason is not None:
            self._emit_fault_skipped(replica_id, "recover", reason)
            return
        super().on_replica_recover(replica_id)

    def on_replica_slowdown(self, replica_id: int, factor: float) -> None:
        reason = self._skip_fault(replica_id)
        if reason is not None:
            self._emit_fault_skipped(replica_id, "slowdown", reason)
            return
        super().on_replica_slowdown(replica_id, factor)

    # --- hooks that must reach late-provisioned replicas ------------------

    def set_completion_hook(self, hook) -> None:
        self._late_completion_hooks.append(hook)
        super().set_completion_hook(hook)

    def set_token_hook(self, hook) -> None:
        self._late_token_hooks.append(hook)
        super().set_token_hook(hook)

    def _on_request_complete(self, request: Request, now: float) -> None:
        super()._on_request_complete(request, now)
        violated = request.violated_deadline
        self.burn.observe(now, violated)
        self.capacity_burn.observe(now, violated)
        if violated:
            if request.is_interactive:
                self._violations_interactive += 1
            else:
                self._violations_batch += 1

    def _record_cancel(self, request: Request, now: float) -> None:
        # An abandoned or retry-exhausted request never completes, so
        # the completion hook cannot see it — yet it is the most
        # definitive SLO violation there is, and under sustained
        # overload *most* violations end this way.  Feed both
        # trackers: procurement can absorb the queueing that caused
        # the abandonment.
        super()._record_cancel(request, now)
        self.burn.observe(now, True)
        self.capacity_burn.observe(now, True)
        if request.is_interactive:
            self._violations_interactive += 1
        else:
            self._violations_batch += 1

    def _shed(self, request: Request, now: float, alive: float) -> None:
        # A shed arrival spends error budget too — without this the
        # total burn gauge only sees requests that *complete* and the
        # worst SLO failures become invisible to operators.  It is
        # deliberately kept out of ``capacity_burn``: sheds end with
        # the crashed replica's recovery, not with procurement.
        super()._shed(request, now, alive)
        self.burn.observe(now, True)

    # --- autoscaler inputs ------------------------------------------------

    def recent_burn_rate(self, now: float, lookback_windows: int = 2) -> float:
        """Max *total* burn over recent windows (operator view)."""
        horizon = now - lookback_windows * self.burn.window
        recent = [
            row["burn_rate"]
            for row in self.burn.series()
            if row["end"] > horizon
        ]
        return max(recent, default=0.0)

    def capacity_burn_rate(
        self, now: float, lookback_windows: int = 1
    ) -> float:
        """Completion-only burn, the autoscaler's scale-up signal.

        Windows that started before the last capacity arrival are
        excluded: violations completing now were queued under the
        *previous* fleet size, and re-reacting to them would over-buy
        for the entire completion lag.  The current fleet is judged
        only on evidence gathered while it existed.
        """
        horizon = now - lookback_windows * self.capacity_burn.window
        recent = [
            row["burn_rate"]
            for row in self.capacity_burn.series()
            if row["end"] > horizon
            and row["start"] >= self._last_capacity_change
        ]
        return max(recent, default=0.0)

    def recent_violation_mix(self) -> tuple[int, int]:
        """(interactive, non-interactive) violations since last tick."""
        return self._violations_interactive, self._violations_batch

    def cheapest_class(self, compute_bound: bool) -> HardwareClass:
        """Best cost per unit of bottleneck capability (tie: name)."""
        return min(
            self.fleet.classes,
            key=lambda c: (
                c.cost_rate / (c.capability(compute_bound) * c.tp_degree),
                c.name,
            ),
        )

    # --- control loop -----------------------------------------------------

    def _schedule_control(self) -> None:
        if not self._control_active:
            return
        self._control_dormant = False
        self.simulator.schedule_after(
            self.fleet.control_interval,
            self._control_tick,
            priority=CONTROL_PRIORITY,
        )

    def _wake_control(self) -> None:
        """Restart a parked control loop (new work arrived)."""
        if self._control_active and self._control_dormant:
            self._schedule_control()

    def submit(self, request: Request) -> None:
        self._wake_control()
        super().submit(request)

    def submit_now(self, request: Request) -> ReplicaEngine:
        self._wake_control()
        return super().submit_now(request)

    def stop_control(self) -> None:
        self._control_active = False

    def _control_tick(self) -> None:
        now = self.simulator.now
        self._release_drained(now)
        active = [
            s
            for s in self._slots
            if not s.draining and not s.released and s.engine.healthy
        ]
        if active:
            utilizations = []
            for slot in active:
                delta = slot.engine.busy_time - slot.last_busy_time
                slot.last_busy_time = slot.engine.busy_time
                utilizations.append(
                    min(1.0, delta / self.fleet.control_interval)
                )
            self.last_mean_utilization = sum(utilizations) / len(
                utilizations
            )
        else:
            self.last_mean_utilization = 1.0

        delta = self.autoscaler.decide(self, now)
        if delta > 0 and not self._pending:
            # Capacity is already on the way: re-reacting to the same
            # hot signal every tick of the provision delay would
            # overshoot far past the needed fleet size.
            self._scale_up(delta, now)
        elif delta < 0:
            self._scale_down(now)
        self._violations_interactive = 0
        self._violations_batch = 0
        # Park instead of rescheduling when nothing else is pending:
        # a self-perpetuating tick would make run-to-drain spin
        # forever.  ``submit`` / ``submit_now`` wake the loop.
        if (
            not self._pending
            and self.simulator.next_event_time() is None
        ):
            self._control_dormant = True
            return
        self._schedule_control()

    def _scale_up(self, steps: int, now: float) -> None:
        room = self.fleet.max_replicas - self._pool_occupancy()
        for _ in range(min(steps, max(0, room))):
            cls = self.autoscaler.choose_class(self)
            self._pending.append(cls)
            self._record_resize(now, "provision", -1, cls.name)
            self.simulator.schedule_after(
                self.fleet.provision_delay,
                self._replica_ready,
                priority=CONTROL_PRIORITY,
            )

    def _scale_down(self, now: float) -> None:
        candidates = [
            s
            for s in self._slots
            if not s.draining and not s.released and s.engine.healthy
        ]
        if (
            len(candidates) <= self.fleet.min_replicas
            or self._pending
        ):
            return

        def drain_key(slot: _FleetSlot):
            outstanding = self._outstanding(slot.engine)
            # Prefer the emptiest replica; among equals, the most
            # expensive hardware; then the newest slot.
            return (
                outstanding,
                -slot.hw_class.cost_rate,
                -slot.engine.replica_id,
            )

        victim = min(candidates, key=drain_key)
        victim.draining = True
        self._record_resize(
            now, "drain", victim.engine.replica_id, victim.hw_class.name
        )

    def _replica_ready(self) -> None:
        cls = self._pending.pop(0)
        now = self.simulator.now
        engine = arrays.build_replica(
            self.simulator,
            ExecutionModel(
                self.execution_model.model,
                cls.hardware,
                tp_degree=cls.tp_degree,
            ),
            self.scheduler_factory(),
            self.replica_config,
            replica_id=len(self.replicas),
            observer=self.replicas[0].observer,
        )
        engine.completion_hook = self._on_request_complete
        for hook in self._late_completion_hooks:
            engine.completion_hook = chain_hooks(
                engine.completion_hook, hook
            )
        for hook in self._late_token_hooks:
            engine.token_hook = chain_hooks(engine.token_hook, hook)
        self.replicas.append(engine)
        self._slots.append(
            _FleetSlot(engine=engine, hw_class=cls, provisioned_at=now)
        )
        self._last_capacity_change = now
        self._record_resize(now, "ready", engine.replica_id, cls.name)
        # New capacity may be the first capacity (total outage while
        # provisioning): drain the stranded queue like a recovery does.
        while self._waiting and self._eligible_replicas():
            request = self._waiting.popleft()
            if request.cancelled or request.is_finished:
                continue
            self._dispatch(request)

    def _release_drained(self, now: float) -> None:
        for slot in self._slots:
            if slot.released or not slot.draining:
                continue
            empty = (
                not slot.engine.has_work()
                and slot.engine.running_requests == 0
            )
            if empty or not slot.engine.healthy:
                slot.released = True
                slot.released_at = now
                self._record_resize(
                    now, "release", slot.engine.replica_id,
                    slot.hw_class.name,
                )

    def _record_resize(
        self, now: float, action: str, replica_id: int, hardware: str
    ) -> None:
        self.scaling_events.append((now, action, self.fleet_size))
        observer = self.replicas[0].observer
        observer.emit(FleetResized(
            now, action, replica_id, hardware, self.fleet_size
        ))
        observer.emit(FleetComposition(
            now, tuple(self.size_by_hardware().items())
        ))

    # --- accounting -------------------------------------------------------

    @property
    def gpu_hours(self) -> float:
        now = self.simulator.now
        return sum(s.gpu_hours(now) for s in self._slots)

    @property
    def cost(self) -> float:
        """Accumulated price of the fleet in cost units."""
        now = self.simulator.now
        return sum(
            s.gpu_hours(now) * s.hw_class.cost_per_gpu_hour
            for s in self._slots
        )

    def run_until_drained(
        self, max_events: int | None = None
    ) -> float:
        """Drain the event queue, then stop control and release slots.

        Termination relies on the control loop's parking behaviour
        (see :meth:`_control_tick`): once all work is processed the
        tick stops rescheduling itself and the queue empties.
        """
        now = self.simulator.run(max_events=max_events)
        self.stop_control()
        self._release_drained(now)
        return now

    def fleet_stats(self) -> dict:
        """Fleet-level counters for experiment tables and smoke tests."""
        stats = self.fault_stats()
        stats.update(
            fleet_size=self.fleet_size,
            active_replicas=self.active_replicas,
            by_hardware=self.size_by_hardware(),
            gpu_hours=self.gpu_hours,
            cost=self.cost,
            faults_skipped=self.faults_skipped,
            max_burn_rate=self.burn.max_burn_rate(),
            scaling_actions=len(self.scaling_events),
        )
        return stats
