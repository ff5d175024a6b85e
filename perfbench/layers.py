"""Which entry points of each layer the traced run wraps.

:func:`install` patches the classes of ``src/repro`` in place (the
returned :class:`~perfbench.tracing.Patcher` restores them), so the
program under test is unchanged on disk and untraced runs execute the
original code.  Only public entry points are wrapped, plus the private
methods that *are* a layer's boundary: the cluster router's
``_pick_replica`` and the gateway's per-arrival ``_arrive``, shedding
and per-token callbacks.
"""

from __future__ import annotations

import inspect

from perfbench.tracing import (
    Patcher,
    SpanTracer,
    action_wrapper,
    span_wrapper,
    timing_wrapper,
)


def _wrap(
    patcher: Patcher,
    tracer: SpanTracer,
    cls: type,
    names: tuple[str, ...],
    layer: str,
    *,
    counts: dict[str, str] | None = None,
    on_result: dict | None = None,
) -> None:
    counts = counts or {}
    on_result = on_result or {}
    for name in names:
        if name not in cls.__dict__:
            continue  # inherited: the defining class is wrapped instead
        patcher.replace(
            cls,
            name,
            span_wrapper(
                tracer,
                layer,
                cls.__dict__[name],
                count=counts.get(name),
                on_result=on_result.get(name),
            ),
        )


def _install_simcore(patcher: Patcher, tracer: SpanTracer) -> None:
    from repro.simcore.simulator import Simulator

    _wrap(patcher, tracer, Simulator, ("run",), "simcore")
    schedule = Simulator.__dict__["schedule"]
    schedule_after = Simulator.__dict__["schedule_after"]

    def traced(original):
        def wrapper(self, when, action, *args, **kwargs):
            tracer.counts["simcore.schedules"] += 1
            tracer.enter("simcore", original.__name__)
            try:
                return original(
                    self, when, action_wrapper(tracer, action),
                    *args, **kwargs,
                )
            finally:
                tracer.exit()

        return wrapper

    patcher.replace(Simulator, "schedule", traced(schedule))
    patcher.replace(Simulator, "schedule_after", traced(schedule_after))


def _install_engine(patcher: Patcher, tracer: SpanTracer) -> None:
    from repro.engine.arrays import ArrayKVLedger, ArrayReplicaEngine
    from repro.engine.kvcache import KVCacheManager
    from repro.engine.prefix import RadixPrefixCache
    from repro.engine.replica import ReplicaEngine

    for cls in (ReplicaEngine, ArrayReplicaEngine):
        _wrap(
            patcher, tracer, cls,
            ("submit", "submit_now", "submit_prefilled", "cancel_request"),
            "engine",
        )
    # Both ledgers; the array ledger's bulk operations replace per-row
    # grow calls on its fast path, so they are ledger work too.
    ledger_ops = (
        "can_grow", "grow", "shrink", "release",
        "bulk_decode_grow", "stretch_grow",
    )
    for cls in (KVCacheManager, ArrayKVLedger):
        _wrap(
            patcher, tracer, cls, ledger_ops, "engine.kv",
            counts={name: "engine.kv.calls" for name in ledger_ops},
        )

    signature = inspect.signature(RadixPrefixCache.match_and_lock)

    def lookup(result, args, kwargs):
        bound = signature.bind(*args, **kwargs)
        tokens = bound.arguments["token_ids"]
        limit = bound.arguments["max_tokens"]
        tracer.counts["engine.prefix.lookup_tokens"] += min(
            len(tokens), limit
        )
        tracer.counts["engine.prefix.hit_tokens"] += result

    _wrap(
        patcher, tracer, RadixPrefixCache,
        ("match_and_lock", "insert_and_lock", "unlock", "reclaim"),
        "engine.prefix",
        counts={"match_and_lock": "engine.prefix.lookups"},
        on_result={"match_and_lock": lookup},
    )


def _install_schedulers(patcher: Patcher, tracer: SpanTracer) -> None:
    import repro.schedulers  # noqa: F401 - defines the Scheduler subclasses
    from repro.core.chunking import DynamicChunker
    from repro.core.predictor import ForestBatchPredictor
    from repro.core.relegation import RelegationPolicy
    from repro.engine.interface import Scheduler
    from repro.forest.fused import FusedForest

    policies: list[type] = []
    pending = [Scheduler]
    while pending:
        for sub in pending.pop().__subclasses__():
            pending.append(sub)
            if sub.__module__.startswith("repro.schedulers"):
                policies.append(sub)
    for cls in dict.fromkeys(policies):
        _wrap(
            patcher, tracer, cls,
            (
                "plan_prefill", "enqueue", "remove",
                "on_prefill_complete", "on_request_complete",
            ),
            "schedulers",
            counts={"plan_prefill": "schedulers.plan_calls"},
        )
    _wrap(
        patcher, tracer, DynamicChunker,
        ("prefill_budget", "latency_budget"), "core.chunking",
        counts={"prefill_budget": "core.chunking.calls"},
    )

    def predicted(result, args, kwargs):
        if tracer.active("core.chunking"):
            tracer.counts["core.chunking.predicts"] += 1

    _wrap(
        patcher, tracer, ForestBatchPredictor, ("predict",), "forest",
        counts={"predict": "forest.predict_calls"},
        on_result={"predict": predicted},
    )
    _wrap(
        patcher, tracer, FusedForest, ("leaf_votes_one", "leaf_votes"),
        "forest",
        counts={"leaf_votes_one": "forest.leaf_votes_one"},
    )
    _wrap(
        patcher, tracer, RelegationPolicy, ("plan",), "core.relegation",
        counts={"plan": "core.relegation.calls"},
    )


def _install_cluster(patcher: Patcher, tracer: SpanTracer) -> None:
    from repro.cluster.deployment import ClusterDeployment

    _wrap(
        patcher, tracer, ClusterDeployment,
        ("submit", "submit_now", "_pick_replica"), "cluster",
        counts={"_pick_replica": "cluster.route_calls"},
    )


def _install_obs(patcher: Patcher, tracer: SpanTracer) -> None:
    from repro.obs.observer import TracingObserver
    from repro.obs.trace import JSONLSink, TraceRecorder

    hooks = tuple(
        name
        for name, value in TracingObserver.__dict__.items()
        if name.startswith("on_") and inspect.isfunction(value)
    )
    _wrap(patcher, tracer, TracingObserver, hooks, "obs")
    _wrap(
        patcher, tracer, TraceRecorder, ("emit",), "obs",
        counts={"emit": "obs.events"},
    )
    _wrap(patcher, tracer, JSONLSink, ("append",), "obs")


def _install_serve(patcher: Patcher, tracer: SpanTracer) -> None:
    from repro.serve.admission import AdmissionController
    from repro.serve.clock import VirtualClock
    from repro.serve.gateway import ServeGateway

    _wrap(
        patcher, tracer, ServeGateway,
        ("_arrive", "_on_token", "_on_completion", "_shed_victim"),
        "serve",
        counts={"_arrive": "serve.submit_calls"},
    )
    _wrap(patcher, tracer, AdmissionController, ("decide",), "serve")
    _wrap(
        patcher, tracer, VirtualClock, ("target", "wall_delay_until"),
        "serve",
    )


def _install_metrics(patcher: Patcher, tracer: SpanTracer) -> None:
    from repro.api import Session

    _wrap(patcher, tracer, Session, ("summary",), "metrics")


def install(tracer: SpanTracer) -> Patcher:
    """Wrap every layer's entry points; returns the patcher to undo it."""
    patcher = Patcher()
    try:
        _install_simcore(patcher, tracer)
        _install_engine(patcher, tracer)
        _install_schedulers(patcher, tracer)
        _install_cluster(patcher, tracer)
        _install_obs(patcher, tracer)
        _install_serve(patcher, tracer)
        _install_metrics(patcher, tracer)
    except BaseException:
        patcher.restore()
        raise
    return patcher


def time_advance(samples: list[float]) -> Patcher:
    """Record the duration of every ``Session.advance`` call.

    In the gateway workload each call blocks the event loop that also
    runs the generator and the token consumers.  One clock read per
    call, no span: cheap enough for an untraced run.
    """
    from repro.api import Session

    patcher = Patcher()
    patcher.replace(
        Session, "advance",
        timing_wrapper(samples, Session.__dict__["advance"]),
    )
    return patcher
