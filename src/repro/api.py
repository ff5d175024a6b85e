"""The unified public Python API: config in, summary out.

Entry points accreted across the codebase as the reproduction grew:
``make_scheduler`` / ``scheduler_factory`` / ``build_trace`` /
``run_replica_trace`` in :mod:`repro.experiments.runner`, plus
:meth:`ClusterDeployment.run` for multi-replica runs.  This module is
the one documented front door that composes them:

* :class:`ServeConfig` — a keyword-only description of the serving
  stack (deployment, scheduler, replica count, routing).
* :func:`simulate` — one call from workload to
  :class:`~repro.metrics.summary.RunSummary`, replacing the
  build-trace / make-scheduler / run-replica-trace dance.
* :class:`Session` — an incremental handle over the same stack for
  callers that interleave submission with simulation (the online
  gateway in :mod:`repro.serve` is built on it).

The legacy helpers in :mod:`repro.experiments.runner` remain as thin
delegating wrappers, and their outputs are byte-identical: both paths
run the exact same construction and event sequence.

Example::

    from repro.api import ServeConfig, simulate
    from repro.workload import AZURE_CODE

    summary = simulate(
        dataset=AZURE_CODE, qps=3.0, num_requests=500, seed=7,
        config=ServeConfig(scheduler="qoserve"),
    )
    print(summary.violations.overall_pct)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from repro.core.qos import DEFAULT_TIERS, QoSSpec
from repro.core.request import Request
from repro.engine import arrays
from repro.engine.interface import Scheduler
from repro.engine.replica import ReplicaConfig, ReplicaEngine
from repro.metrics.summary import RunSummary, summarize_run
from repro.obs.metrics import DEFAULT_CHUNK_BUCKETS, bucket_counts
from repro.obs.observer import Observer
from repro.perfmodel.execution import ExecutionModel
from repro.schedulers import (
    ConServeScheduler,
    EDFScheduler,
    FCFSScheduler,
    MedhaScheduler,
    QoServeConfig,
    QoServeScheduler,
    SJFScheduler,
    SRPFScheduler,
)
from repro.simcore.simulator import Simulator
from repro.workload.arrivals import ArrivalProcess, PoissonArrivals
from repro.workload.datasets import DATASETS, DatasetSpec
from repro.workload.tiers import TierAssigner, TierMix
from repro.workload.trace import Trace, TraceBuilder

if False:  # pragma: no cover - hint only; resolved lazily below
    from repro.cluster.deployment import ClusterDeployment  # noqa: F401
    from repro.cluster.fleet import FleetConfig, FleetDeployment  # noqa: F401
    from repro.faults.plan import FaultPlan  # noqa: F401

#: Mirrors :data:`repro.cluster.deployment.ROUTING_STRATEGIES`; kept
#: as a literal so validating a :class:`ServeConfig` does not import
#: the cluster package (which imports this module back through the
#: experiment helpers).
ROUTING_STRATEGIES = (
    "round-robin", "least-loaded", "power-of-two", "perf-aware",
)

#: Autoscaling policies a fleet-backed :class:`ServeConfig` accepts.
FLEET_AUTOSCALERS = ("off", "busy-fraction", "burn-rate")

#: Scheduler identifiers accepted by :func:`make_scheduler`.  The
#: "sarathi-" prefix used in the paper's figures maps to the bare
#: policies: every baseline here runs on the chunked Sarathi engine.
SCHEDULER_KINDS = (
    "fcfs",
    "sjf",
    "srpf",
    "edf",
    "qoserve",
    "qoserve-oracle",
    "medha",
    "conserve",
)


def make_scheduler(
    kind: str,
    execution_model: ExecutionModel,
    chunk_size: int = 256,
    qoserve_config: QoServeConfig | None = None,
    **kwargs,
) -> Scheduler:
    """Instantiate a scheduler by name.

    Args:
        kind: One of :data:`SCHEDULER_KINDS` (case-insensitive,
            "sarathi-" prefix tolerated).
        execution_model: Needed by predictor-backed schedulers.
        chunk_size: Fixed token budget for the Sarathi baselines.
        qoserve_config: Overrides the default QoServe configuration.
        **kwargs: Forwarded to the scheduler constructor.
    """
    key = kind.lower().removeprefix("sarathi-")
    if key == "fcfs":
        return FCFSScheduler(chunk_size=chunk_size, **kwargs)
    if key == "sjf":
        return SJFScheduler(chunk_size=chunk_size, **kwargs)
    if key == "srpf":
        return SRPFScheduler(chunk_size=chunk_size, **kwargs)
    if key == "edf":
        return EDFScheduler(chunk_size=chunk_size, **kwargs)
    if key == "qoserve":
        return QoServeScheduler(
            execution_model, qoserve_config or QoServeConfig(), **kwargs
        )
    if key == "qoserve-oracle":
        config = qoserve_config or QoServeConfig(use_forest_predictor=False)
        return QoServeScheduler(execution_model, config, **kwargs)
    if key == "medha":
        return MedhaScheduler(execution_model, **kwargs)
    if key == "conserve":
        return ConServeScheduler(**kwargs)
    raise KeyError(f"unknown scheduler kind {kind!r}")


def build_trace(
    dataset: DatasetSpec | str,
    qps: float,
    num_requests: int,
    seed: int = 42,
    mix: TierMix | None = None,
    low_priority_fraction: float = 0.0,
    arrivals: ArrivalProcess | None = None,
) -> Trace:
    """Standard trace construction used across experiments.

    ``dataset`` accepts a :class:`DatasetSpec` or one of the registered
    preset names (:data:`repro.workload.DATASETS`).
    """
    if isinstance(dataset, str):
        spec = DATASETS.get(dataset)
        if spec is None:
            raise KeyError(
                f"unknown dataset {dataset!r}; "
                f"options: {sorted(DATASETS)}"
            )
        dataset = spec
    assigner = TierAssigner(
        mix=mix or TierMix.equal_thirds(),
        low_priority_fraction=low_priority_fraction,
    )
    return TraceBuilder(
        dataset,
        arrivals=arrivals or PoissonArrivals(qps),
        tier_assigner=assigner,
        seed=seed,
    ).build(num_requests)


def engine_scheduler_stats(engine: ReplicaEngine) -> dict:
    """Flatten the engine's always-on decision counters for export.

    These come from plain integer counters kept by the engine itself
    (not the optional :mod:`repro.obs` observer), so they are available
    — and identical — whether or not tracing is enabled.
    """
    relegations_by_tier: dict[str, int] = {}
    for request in engine.submitted:
        if request.relegated:
            tier = request.qos.name
            relegations_by_tier[tier] = relegations_by_tier.get(tier, 0) + 1
    return {
        "relegations_by_tier": dict(sorted(relegations_by_tier.items())),
        "relegations_total": sum(relegations_by_tier.values()),
        "preemptions": engine.stall_preemptions,
        "decode_evictions": engine.decode_evictions,
        "kv_high_water_utilization": engine.kv_cache.high_water_utilization,
        "chunk_size_histogram": bucket_counts(
            engine.chunk_tokens_hist, DEFAULT_CHUNK_BUCKETS
        ),
        "iterations": engine.iterations_run,
    }


def aggregate_scheduler_stats(engines: Iterable[ReplicaEngine]) -> dict:
    """Merge per-replica :func:`engine_scheduler_stats` cluster-wide.

    Counts sum; the KV high-water mark is the max across replicas (the
    binding capacity constraint); chunk-size buckets add element-wise.
    """
    merged: dict = {
        "relegations_by_tier": {},
        "relegations_total": 0,
        "preemptions": 0,
        "decode_evictions": 0,
        "kv_high_water_utilization": 0.0,
        "chunk_size_histogram": {},
        "iterations": 0,
    }
    for engine in engines:
        stats = engine_scheduler_stats(engine)
        for tier, count in stats["relegations_by_tier"].items():
            merged["relegations_by_tier"][tier] = (
                merged["relegations_by_tier"].get(tier, 0) + count
            )
        merged["relegations_total"] += stats["relegations_total"]
        merged["preemptions"] += stats["preemptions"]
        merged["decode_evictions"] += stats["decode_evictions"]
        merged["kv_high_water_utilization"] = max(
            merged["kv_high_water_utilization"],
            stats["kv_high_water_utilization"],
        )
        for bucket, count in stats["chunk_size_histogram"].items():
            merged["chunk_size_histogram"][bucket] = (
                merged["chunk_size_histogram"].get(bucket, 0) + count
            )
        merged["iterations"] += stats["iterations"]
    merged["relegations_by_tier"] = dict(
        sorted(merged["relegations_by_tier"].items())
    )
    return merged


@dataclass(frozen=True, kw_only=True)
class ServeConfig:
    """Keyword-only description of one serving stack.

    Attributes:
        deployment: Named (model, hardware, TP) row of Table 1; see
            :data:`repro.experiments.configs.DEPLOYMENTS`.
        scheduler: Policy name from :data:`SCHEDULER_KINDS`.
        chunk_size: Fixed token budget for the Sarathi baselines.
        qoserve_config: Optional QoServe scheduler overrides.
        scheduler_kwargs: Extra keyword arguments forwarded to the
            scheduler constructor.
        num_replicas: 1 builds a bare replica engine; more builds a
            :class:`ClusterDeployment` behind a router.  Every replica
            runs :class:`~repro.engine.arrays.ArrayReplicaEngine`.
        routing: Cluster load-balancing strategy (multi-replica only).
        fleet: Heterogeneous elastic pool description
            (:class:`repro.cluster.fleet.FleetConfig`); when set the
            session builds a
            :class:`~repro.cluster.fleet.FleetDeployment` and
            ``num_replicas`` is ignored (the fleet's ``initial`` list
            sizes the pool).
        fleet_autoscaler: One of :data:`FLEET_AUTOSCALERS`
            (fleet-backed sessions only).
        fault_plan: Chaos plan armed on the fleet
            (:class:`repro.faults.plan.FaultPlan`; fleet-backed
            sessions only).
        record_iterations: Keep per-batch iteration records.
        audit: Attribute per-request latency to named phases
            (:mod:`repro.obs.audit`); lands in ``summary.attribution``.
        max_events: Safety valve on simulator events per run.
        kv_reuse: Cross-request KV prefix reuse, one of
            :data:`~repro.engine.replica.ReplicaConfig.KV_REUSE_KINDS`:
            ``"off"`` (every request prefills from scratch —
            byte-identical to stacks predating the prefix cache) or
            ``"radix"`` (requests whose ``token_ids`` share a prefix
            with resident KV skip that prefix's prefill; see
            :mod:`repro.engine.prefix`).
    """

    deployment: str = "llama3-8b"
    scheduler: str = "qoserve"
    chunk_size: int = 256
    qoserve_config: QoServeConfig | None = None
    scheduler_kwargs: Mapping = field(default_factory=dict)
    num_replicas: int = 1
    routing: str = "round-robin"
    fleet: "FleetConfig | None" = None
    fleet_autoscaler: str = "burn-rate"
    fault_plan: "FaultPlan | None" = None
    record_iterations: bool = False
    audit: bool = False
    max_events: int = 50_000_000
    kv_reuse: str = "off"

    def __post_init__(self) -> None:
        key = self.scheduler.lower().removeprefix("sarathi-")
        if key not in SCHEDULER_KINDS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; "
                f"options: {SCHEDULER_KINDS}"
            )
        if self.num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        if self.routing not in ROUTING_STRATEGIES:
            raise ValueError(
                f"unknown routing {self.routing!r}; "
                f"options: {ROUTING_STRATEGIES}"
            )
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.max_events < 1:
            raise ValueError("max_events must be >= 1")
        if self.fleet_autoscaler not in FLEET_AUTOSCALERS:
            raise ValueError(
                f"unknown fleet_autoscaler {self.fleet_autoscaler!r}; "
                f"options: {FLEET_AUTOSCALERS}"
            )
        if self.fault_plan is not None and self.fleet is None:
            raise ValueError(
                "fault_plan requires fleet=... (chaos runs on the "
                "fault-tolerant fleet deployment)"
            )
        if self.kv_reuse not in ReplicaConfig.KV_REUSE_KINDS:
            raise ValueError(
                f"unknown kv_reuse {self.kv_reuse!r}; "
                f"options: {ReplicaConfig.KV_REUSE_KINDS}"
            )


class Session:
    """An incremental simulation handle over one serving stack.

    Where :func:`simulate` is submit-everything-then-drain, a session
    lets callers interleave submission with bounded simulation — the
    contract the online gateway needs:

    * :meth:`submit` registers a request at its ``arrival_time``;
      :meth:`submit_now` injects one immediately.
    * :meth:`advance` processes events up to a virtual time (or to
      drain), :meth:`next_event_time` peeks at the pending horizon.
    * :meth:`set_token_hook` / :meth:`set_completion_hook` register
      streaming callbacks fired as tokens and completions happen.
    * :meth:`summary` produces the same :class:`RunSummary` (including
      ``scheduler_stats``) as the batch helpers.

    Args:
        config: Stack description; defaults to :class:`ServeConfig`.
        execution_model: Override the deployment's cost model (used by
            the delegating legacy wrappers).
        scheduler: Pre-built scheduler for single-replica sessions.
        scheduler_factory: Pre-built factory for cluster sessions.
        simulator: Share an existing event loop.
        observer: Observability hooks; ``None`` adopts the process
            default at engine construction, as engines always have.
    """

    def __init__(
        self,
        config: ServeConfig | None = None,
        *,
        execution_model: ExecutionModel | None = None,
        scheduler: Scheduler | None = None,
        scheduler_factory: Callable[[], Scheduler] | None = None,
        simulator: Simulator | None = None,
        observer: Observer | None = None,
    ) -> None:
        self.config = config = config or ServeConfig()
        if execution_model is None:
            # Deferred so importing repro.api never drags in the
            # experiments package (which imports repro.api back).
            from repro.experiments.configs import get_execution_model

            execution_model = get_execution_model(config.deployment)
        self.execution_model = execution_model
        self.simulator = simulator or Simulator()
        self._audit_sink = None
        if config.audit:
            from repro.obs.observer import (
                MultiObserver,
                TracingObserver,
                get_default_observer,
            )
            from repro.obs.trace import ListSink, TraceRecorder

            self._audit_sink = ListSink()
            collector = TracingObserver(TraceRecorder([self._audit_sink]))
            effective = (
                observer if observer is not None else get_default_observer()
            )
            observer = MultiObserver([collector, effective])

        replica_config = ReplicaConfig(
            record_iterations=config.record_iterations,
            kv_reuse=config.kv_reuse,
        )
        self.deployment = None
        self.fleet = None
        if config.fleet is not None:
            from repro.cluster.fleet import FleetDeployment

            factory = scheduler_factory or self._scheduler
            self.deployment = self.fleet = FleetDeployment(
                self.execution_model,
                factory,
                config.fleet,
                replica_config=replica_config,
                simulator=self.simulator,
                routing=config.routing,
                fault_plan=config.fault_plan,
                autoscaler=self._fleet_autoscaler(),
                observer=observer,
            )
            self.engine = None
        elif config.num_replicas == 1:
            built = scheduler if scheduler is not None else self._scheduler()
            self.engine: ReplicaEngine | None = arrays.build_replica(
                self.simulator,
                self.execution_model,
                built,
                replica_config,
                observer=observer,
            )
        else:
            from repro.cluster.deployment import ClusterDeployment

            factory = scheduler_factory or self._scheduler
            self.deployment = ClusterDeployment(
                self.execution_model,
                factory,
                config.num_replicas,
                replica_config=replica_config,
                simulator=self.simulator,
                routing=config.routing,
                observer=observer,
            )
            self.engine = None

        self._conversations = 0

    def _fleet_autoscaler(self):
        from repro.cluster.fleet import (
            BurnRateAutoscaler,
            BusyFractionAutoscaler,
        )

        return {
            "off": None,
            "busy-fraction": BusyFractionAutoscaler(),
            "burn-rate": BurnRateAutoscaler(),
        }[self.config.fleet_autoscaler]

    @property
    def engines(self) -> list[ReplicaEngine]:
        """Live view of the serving replicas (a fleet can grow)."""
        if self.deployment is not None:
            return list(self.deployment.replicas)
        assert self.engine is not None
        return [self.engine]

    def _scheduler(self) -> Scheduler:
        config = self.config
        return make_scheduler(
            config.scheduler,
            self.execution_model,
            chunk_size=config.chunk_size,
            qoserve_config=config.qoserve_config,
            **dict(config.scheduler_kwargs),
        )

    # --- clock ----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.simulator.now

    def next_event_time(self) -> float | None:
        """When the next pending simulator event fires (None if idle)."""
        return self.simulator.next_event_time()

    # --- submission -----------------------------------------------------

    def submit(self, request: Request) -> None:
        """Register a request; it arrives at ``request.arrival_time``."""
        if self.deployment is not None:
            self.deployment.submit(request)
        else:
            assert self.engine is not None
            self.engine.submit(request)

    def submit_now(self, request: Request) -> ReplicaEngine:
        """Inject a request immediately; returns the serving replica."""
        if self.deployment is not None:
            return self.deployment.submit_now(request)
        assert self.engine is not None
        self.engine.submit_now(request)
        return self.engine

    def conversation(
        self,
        session_id: str | None = None,
        *,
        system_prompt_tokens: int = 0,
    ) -> "Conversation":
        """Open a multi-turn conversation handle over this session.

        The returned :class:`Conversation` mints successive
        :class:`~repro.core.request.Request` turns whose prompts carry
        the running history (prior prompts and completions), each a
        strict prefix-extension of the last with concrete
        ``token_ids`` — so with ``kv_reuse="radix"`` the engine skips
        every turn's shared-history prefill.  Conversations opened
        with the same ``system_prompt_tokens`` also share those
        leading tokens with each other (a shared system prompt).

        Args:
            session_id: Stable id stamped on every turn; defaults to
                ``conv-<n>`` numbered per session.
            system_prompt_tokens: Leading tokens drawn from the
                session-global shared namespace (identical across all
                conversations of this session).
        """
        index = self._conversations
        self._conversations += 1
        return Conversation(
            self,
            session_id or f"conv-{index}",
            system_prompt_tokens=system_prompt_tokens,
            token_namespace=(index + 1) << 32,
        )

    def cancel(self, request: Request, reason: str) -> bool:
        """Withdraw an unfinished request from whichever replica holds
        it.  Returns True if a replica had it resident."""
        for engine in self.engines:
            if engine.holds(request):
                return engine.cancel_request(request, reason)
        return False

    # --- simulation -----------------------------------------------------

    def advance(
        self, until: float | None = None, max_events: int | None = None
    ) -> float:
        """Process events up to ``until`` (or to drain); returns now."""
        if until is None:
            return self.drain(max_events=max_events)
        return self.simulator.run(until=until, max_events=max_events)

    def drain(self, max_events: int | None = None) -> float:
        """Run until every pending event has been processed.

        Terminates on autoscaled fleets too: their control tick parks
        itself once the queue is otherwise empty (and wakes on the
        next submission), so run-to-empty cannot spin.  Draining
        replicas that emptied are released so GPU-hour accounting
        stops at the drain point.
        """
        now = self.simulator.run(max_events=max_events)
        if self.fleet is not None:
            self.fleet._release_drained(now)
        return now

    # --- streaming hooks ------------------------------------------------

    def set_token_hook(
        self, hook: Callable[[Request, float], None]
    ) -> None:
        """Fire ``hook(request, now)`` on every output token emitted."""
        if self.deployment is not None:
            # The deployment chains hooks itself — a fleet also replays
            # them onto replicas provisioned later.
            self.deployment.set_token_hook(hook)
            return
        for engine in self.engines:
            engine.token_hook = _chain_hooks(engine.token_hook, hook)

    def set_completion_hook(
        self, hook: Callable[[Request, float], None]
    ) -> None:
        """Fire ``hook(request, now)`` when a request completes."""
        if self.deployment is not None:
            self.deployment.set_completion_hook(hook)
            return
        for engine in self.engines:
            engine.completion_hook = _chain_hooks(
                engine.completion_hook, hook
            )

    # --- state ----------------------------------------------------------

    @property
    def requests(self) -> list[Request]:
        """Every request submitted to the stack so far."""
        if self.deployment is not None:
            return self.deployment.all_requests()
        assert self.engine is not None
        return list(self.engine.submitted)

    def queue_depth(self) -> int:
        """Prefill backlog across all replicas (admission signal)."""
        return sum(
            engine.scheduler.queue_length() for engine in self.engines
        )

    def summary(
        self,
        now: float | None = None,
        *,
        requests: Iterable[Request] | None = None,
    ) -> RunSummary:
        """Summarize the run exactly as the batch helpers do.

        ``requests`` overrides the measured population (a gateway
        includes requests it shed before they reached any replica).
        """
        now = self.simulator.now if now is None else now
        offered = (
            list(requests) if requests is not None else self.requests
        )
        summary = summarize_run(offered, now=now)
        if offered:
            last_arrival = max(r.arrival_time for r in offered)
            first_arrival = min(r.arrival_time for r in offered)
            summary.drain_time = now - last_arrival
            summary.arrival_span = last_arrival - first_arrival
        if self.engine is not None:
            summary.scheduler_stats = engine_scheduler_stats(self.engine)
        else:
            summary.scheduler_stats = aggregate_scheduler_stats(
                self.engines
            )
        if self._audit_sink is not None:
            from repro.obs.audit import audit_events

            summary.attribution = audit_events(self._audit_sink.events)
        return summary


class Conversation:
    """Mints the turns of one multi-turn conversation, in order.

    Each turn's prompt is the full running context — every prior
    prompt and completion — plus the new user message, realised as
    concrete deterministic ``token_ids`` so the radix prefix cache can
    recognise the shared history.  Turns carry ``session_id`` and
    ``parent_request_id`` linking them into a chain.

    The helper only *builds* requests; submit them through
    :meth:`Session.submit` / :meth:`Session.submit_now` (or hand the
    field values to the gateway) like any other request.  Created via
    :meth:`Session.conversation`.
    """

    def __init__(
        self,
        session: Session,
        session_id: str,
        *,
        system_prompt_tokens: int = 0,
        token_namespace: int = 1 << 32,
    ) -> None:
        if system_prompt_tokens < 0:
            raise ValueError("system_prompt_tokens must be >= 0")
        self.session = session
        self.session_id = session_id
        # Shared system-prompt ids are session-global (0..n-1); all
        # later tokens come from this conversation's own namespace.
        self._context: list[int] = list(range(system_prompt_tokens))
        self._next_private = token_namespace
        self._pending_completion = 0
        self._last_request_id: int | None = None
        self.turns = 0

    @property
    def context_tokens(self) -> int:
        """Prompt length the *next* turn will carry before its user
        message (history grows by each turn's completion)."""
        return len(self._context) + self._pending_completion

    def _mint(self, count: int) -> list[int]:
        start = self._next_private
        self._next_private += count
        return list(range(start, start + count))

    def turn(
        self,
        *,
        request_id: int,
        user_tokens: int,
        decode_tokens: int,
        arrival_time: float = 0.0,
        qos: QoSSpec | None = None,
        important: bool = True,
    ) -> Request:
        """Build the conversation's next turn.

        Args:
            request_id: Unique id for the minted request (caller
                managed, like every other submission path).
            user_tokens: Length of the new user message appended to
                the running context (>= 1).
            decode_tokens: Output budget; the completion joins the
                context seen by the following turn.
            arrival_time: The request's arrival anchor.
            qos: Tier; defaults to the first (interactive) tier.
            important: Relegation-exemption flag.
        """
        if user_tokens < 1:
            raise ValueError("user_tokens must be >= 1")
        if self._pending_completion:
            self._context.extend(self._mint(self._pending_completion))
            self._pending_completion = 0
        self._context.extend(self._mint(user_tokens))
        request = Request(
            request_id=request_id,
            arrival_time=arrival_time,
            prompt_tokens=len(self._context),
            decode_tokens=decode_tokens,
            qos=qos or DEFAULT_TIERS[0],
            app_id=self.session_id,
            important=important,
            token_ids=tuple(self._context),
            session_id=self.session_id,
            parent_request_id=self._last_request_id,
        )
        self._pending_completion = decode_tokens
        self._last_request_id = request_id
        self.turns += 1
        return request


def _chain_hooks(existing, hook):
    """Compose completion/token hooks without displacing earlier ones."""
    if existing is None:
        return hook

    def chained(request, now):
        existing(request, now)
        hook(request, now)

    return chained


def simulate(
    *,
    config: ServeConfig | None = None,
    trace: Trace | Iterable[Request] | None = None,
    dataset: DatasetSpec | None = None,
    qps: float = 1.0,
    num_requests: int | None = None,
    seed: int = 42,
    mix: TierMix | None = None,
    low_priority_fraction: float = 0.0,
    arrivals: ArrivalProcess | None = None,
    observer: Observer | None = None,
) -> RunSummary:
    """Run one simulation end to end and return its summary.

    Provide either a pre-built ``trace`` or a ``dataset`` +
    ``num_requests`` (+ ``qps``/``seed``/``mix``) recipe; the stack
    itself comes from ``config``.  The output is byte-identical to the
    legacy ``run_replica_trace`` path for single-replica configs — the
    golden test in ``tests/test_api.py`` pins this.
    """
    config = config or ServeConfig()
    if trace is None:
        if dataset is None or num_requests is None:
            raise ValueError(
                "simulate() needs either trace=... or dataset=... with "
                "num_requests=..."
            )
        trace = build_trace(
            dataset,
            qps=qps,
            num_requests=num_requests,
            seed=seed,
            mix=mix,
            low_priority_fraction=low_priority_fraction,
            arrivals=arrivals,
        )
    requests = list(trace)
    session = Session(config, observer=observer)
    for request in requests:
        session.submit(request)
    session.advance(max_events=config.max_events)
    return session.summary(requests=requests)


def default_tier_names() -> tuple[str, ...]:
    """Names of the Table 3 tiers, in order."""
    return tuple(t.name for t in DEFAULT_TIERS)
