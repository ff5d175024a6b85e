"""Typed trace events: the vocabulary of iteration-level telemetry.

Every scheduling-relevant occurrence in a simulated run maps to one of
the dataclasses below.  Producers (engine, schedulers, cluster,
gateway) build the event and hand it to
:meth:`~repro.obs.observer.Observer.emit`.  Recorded events serialize
to flat JSON objects via :meth:`TraceEvent.to_dict` (one object per
JSONL line) and the same schema drives :func:`validate_event`, which
the CI smoke test and the ``repro trace --validate`` command use to
keep recorded traces honest.  Metric-only events
(``recorded = False``) feed metric series but never reach a trace;
they are outside :data:`EVENT_TYPES` and the schema.

Design constraints:

* events are immutable and carry only plain scalars / tuples, so
  observers can never alias or mutate engine state;
* non-finite floats are serialized as ``null`` (JSON has no ``NaN``);
* the ``kind`` discriminator is stable across versions — downstream
  tooling switches on it.
"""

from __future__ import annotations

import dataclasses
import math
import types
import typing
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, ClassVar, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.core.chunking import ChunkDecision
    from repro.core.request import Request
    from repro.engine.batch import PrefillAssignment


#: Trace format version, written by tooling that needs to gate on
#: capabilities rather than sniff fields.  History:
#:
#: * **1** — initial event vocabulary (13 kinds).
#: * **2** — ``IterationScheduled.queue_depth`` (scheduler backlog at
#:   dispatch), ``RequestCompleted.qos_class`` (governing-SLO class for
#:   latency attribution) and the ``relegation_served`` kind.  All
#:   additions are defaulted, and :func:`validate_event` only requires
#:   fields without defaults, so v1 traces remain valid.
#: * **3** — the ``gateway_admitted`` and ``gateway_shed`` kinds
#:   (online serving gateway admission decisions).  New kinds only;
#:   every v1/v2 trace remains valid.
#: * **4** — the ``span_start`` and ``span_end`` kinds (request-scoped
#:   lifecycle spans emitted by the gateway, router and engine; see
#:   :mod:`repro.obs.spans`).  New kinds only; every v1/v2/v3 trace
#:   remains valid.
#: * **5** — the ``fault_skipped`` kind (a fault plan event targeting a
#:   replica that no longer exists or has been drained from an elastic
#:   fleet resolved to a well-defined no-op) and the ``fleet_resized``
#:   kind (the heterogeneous fleet provisioned, drained or released a
#:   replica; see :mod:`repro.cluster.fleet`).  New kinds only; every
#:   v1–v4 trace remains valid.
#: * **6** — the ``prefix_hit`` kind (a new request's prompt matched a
#:   shared radix-cached prefix and skipped that prefill work; see
#:   :mod:`repro.engine.prefix`).  New kinds only; every v1–v5 trace
#:   remains valid.
TRACE_SCHEMA_VERSION = 6


class TraceSchemaError(ValueError):
    """A serialized event does not match the declared schema."""


@dataclass(frozen=True)
class TraceEvent:
    """Base class: every event has a simulated timestamp ``ts``."""

    kind: ClassVar[str] = "event"
    #: False for metric-only events, which observers see but no trace
    #: records.
    recorded: ClassVar[bool] = True

    ts: float

    def to_dict(self) -> dict[str, Any]:
        """Flat JSON-safe payload with the ``kind`` discriminator."""
        cls = type(self)
        names = _FIELD_NAMES.get(cls)
        if names is None:
            names = _FIELD_NAMES[cls] = tuple(
                f.name for f in _trace_fields(cls)
            )
        payload: dict[str, Any] = {"kind": self.kind}
        for name in names:
            value = getattr(self, name)
            if isinstance(value, float) and not math.isfinite(value):
                value = None
            elif isinstance(value, tuple):
                value = list(value)
            payload[name] = value
        return payload


#: Event class -> its serialized field names in declaration order,
#: filled on first serialization.
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}

#: Field metadata marking a value observers read but traces omit.
_UNRECORDED = {"recorded": False}


def _trace_fields(cls: type[TraceEvent]) -> list[dataclasses.Field]:
    return [
        f for f in dataclasses.fields(cls)
        if f.metadata.get("recorded", True)
    ]


@dataclass(frozen=True)
class IterationScheduled(TraceEvent):
    """One engine iteration was planned and dispatched.

    ``dur`` is the execution model's batch time, known at dispatch
    (the simulator advances by exactly this much), so the event doubles
    as a complete span for the Chrome-trace exporter.
    """

    kind: ClassVar[str] = "iteration_scheduled"

    replica_id: int
    iteration: int
    dur: float
    prefill_tokens: int
    num_prefills: int
    num_decodes: int
    decode_context_tokens: int
    prefill_request_ids: tuple[int, ...] = ()
    #: Scheduler backlog (pending requests) when the iteration was
    #: planned; -1 in schema-v1 traces recorded before the field existed.
    queue_depth: int = -1

    @classmethod
    def of(
        cls, replica_id: int, now: float, exec_time: float, iteration: int,
        assignments: "Sequence[PrefillAssignment]", num_decodes: int,
        decode_context_tokens: int, queue_depth: int,
    ) -> "IterationScheduled":
        return cls(
            now, replica_id, iteration, exec_time,
            sum(a.tokens for a in assignments), len(assignments),
            num_decodes, decode_context_tokens,
            tuple(a.request.request_id for a in assignments), queue_depth,
        )


@dataclass(frozen=True)
class ChunkSized(TraceEvent):
    """The dynamic chunker converted decode slack into a token budget."""

    kind: ClassVar[str] = "chunk_sized"

    chunk_budget: int
    latency_budget: float | None
    predicted_latency: float
    num_decodes: int

    @classmethod
    def of(
        cls, now: float, decision: "ChunkDecision", num_decodes: int
    ) -> "ChunkSized":
        return cls(
            now, decision.prefill_budget, decision.latency_budget,
            decision.predicted_latency, num_decodes,
        )


@dataclass(frozen=True)
class Relegated(TraceEvent):
    """Eager relegation demoted a request behind all regular work."""

    kind: ClassVar[str] = "relegated"

    request_id: int
    tier: str
    important: bool
    remaining_prefill: int


@dataclass(frozen=True)
class RelegationServed(TraceEvent):
    """A relegated request finally received opportunistic service.

    Emitted at the first prefill assignment after demotion; ``waited``
    is the time spent parked behind regular work (now minus relegation
    time).  Together with :class:`Relegated` this brackets the
    relegation stall that latency attribution charges to the eager
    relegation mechanism.
    """

    kind: ClassVar[str] = "relegation_served"

    replica_id: int
    request_id: int
    tier: str
    tokens: int
    waited: float

    @classmethod
    def of(
        cls, replica_id: int, request: "Request", now: float, tokens: int
    ) -> "RelegationServed":
        relegated_at = request.relegated_time
        return cls(
            now, replica_id, request.request_id, request.qos.name, tokens,
            now - relegated_at if relegated_at is not None else 0.0,
        )


@dataclass(frozen=True)
class Preempted(TraceEvent):
    """A partial prefill lost its KV to break a memory deadlock."""

    kind: ClassVar[str] = "preempted"

    replica_id: int
    request_id: int
    prefill_tokens_lost: int


@dataclass(frozen=True)
class DecodeEvicted(TraceEvent):
    """A decoding request was evicted under KV pressure (recompute)."""

    kind: ClassVar[str] = "decode_evicted"

    replica_id: int
    request_id: int
    context_tokens_lost: int


@dataclass(frozen=True)
class RequestCompleted(TraceEvent):
    """A request produced its final token.

    Carries the full latency anchor set so the Chrome exporter can
    render the request's lifetime span without joining other events.
    """

    kind: ClassVar[str] = "request_completed"

    replica_id: int
    request_id: int
    tier: str
    arrival_time: float
    scheduled_first_time: float | None
    first_token_time: float | None
    completion_time: float
    relegated: bool
    violated: bool
    evictions: int
    #: "interactive" (TTFT/TBT-governed) or "non-interactive"
    #: (TTLT-governed); "" in schema-v1 traces, where consumers fall
    #: back to tier-name conventions.
    qos_class: str = ""
    #: Output tokens produced (for the mean-TBT metric; not recorded).
    decoded: int = field(default=0, metadata=_UNRECORDED)

    @classmethod
    def of(
        cls, replica_id: int, request: "Request", now: float
    ) -> "RequestCompleted":
        return cls(
            ts=now,
            replica_id=replica_id,
            request_id=request.request_id,
            tier=request.qos.name,
            arrival_time=request.arrival_time,
            scheduled_first_time=request.scheduled_first_time,
            first_token_time=request.first_token_time,
            completion_time=(
                request.completion_time
                if request.completion_time is not None
                else now
            ),
            relegated=request.relegated,
            violated=request.violated_deadline,
            evictions=request.evictions,
            qos_class=request.qos.qos_class.value,
            decoded=request.decoded,
        )


@dataclass(frozen=True)
class KVCacheSnapshot(TraceEvent):
    """Point-in-time KV occupancy of one replica."""

    kind: ClassVar[str] = "kv_cache_snapshot"

    replica_id: int
    used_blocks: int
    capacity_blocks: int
    utilization: float


@dataclass(frozen=True)
class ReplicaCrashed(TraceEvent):
    """A replica failed: KV cache and in-flight batch lost."""

    kind: ClassVar[str] = "replica_crashed"

    replica_id: int
    lost_requests: int
    kv_blocks_dropped: int


@dataclass(frozen=True)
class ReplicaRecovered(TraceEvent):
    """A crashed replica came back with a cold cache."""

    kind: ClassVar[str] = "replica_recovered"

    replica_id: int
    downtime: float


@dataclass(frozen=True)
class ReplicaSlowdown(TraceEvent):
    """A replica's iteration time changed by a straggler multiplier.

    ``factor`` 1.0 marks the end of a slowdown window.
    """

    kind: ClassVar[str] = "replica_slowdown"

    replica_id: int
    factor: float


@dataclass(frozen=True)
class RequestRetried(TraceEvent):
    """A request lost to a crash was re-enqueued after backoff."""

    kind: ClassVar[str] = "request_retried"

    request_id: int
    tier: str
    attempt: int
    backoff: float
    from_replica: int


@dataclass(frozen=True)
class RequestShed(TraceEvent):
    """Admission control refused an arrival under degraded capacity."""

    kind: ClassVar[str] = "request_shed"

    request_id: int
    tier: str
    important: bool
    alive_fraction: float


@dataclass(frozen=True)
class RequestCancelled(TraceEvent):
    """A request was abandoned (deadline timeout or retry budget)."""

    kind: ClassVar[str] = "request_cancelled"

    replica_id: int
    request_id: int
    tier: str
    reason: str
    waited: float

    @classmethod
    def of(
        cls, replica_id: int, request: "Request", now: float, reason: str
    ) -> "RequestCancelled":
        return cls(
            now, replica_id, request.request_id, request.qos.name, reason,
            now - request.arrival_time,
        )


@dataclass(frozen=True)
class FaultSkipped(TraceEvent):
    """A fault plan event resolved to a no-op instead of firing.

    Elastic fleets resize while a fault plan (armed against the
    maximum pool size) keeps firing; a crash or slowdown aimed at a
    replica slot that has since been drained, released, or never
    provisioned is recorded here instead of raising mid-run.
    ``fault_kind`` mirrors :class:`repro.faults.plan.FaultEvent.kind`
    (``"crash"`` / ``"recover"`` / ``"slowdown"``); ``reason`` says why
    the target was invalid (``"drained"``, ``"released"``,
    ``"not_provisioned"``).
    """

    kind: ClassVar[str] = "fault_skipped"

    replica_id: int
    fault_kind: str
    reason: str


@dataclass(frozen=True)
class FleetResized(TraceEvent):
    """The heterogeneous fleet changed size or composition.

    ``action`` is ``"provision"`` (cold-start begun), ``"ready"`` (a
    provisioned replica came online), ``"drain"`` (a replica stopped
    accepting work) or ``"release"`` (a drained replica finished its
    backlog and left the pool).  ``fleet_size`` counts replicas that
    are provisioned and not yet released after the action.
    """

    kind: ClassVar[str] = "fleet_resized"

    action: str
    replica_id: int
    hardware: str
    fleet_size: int
    reason: str = ""


@dataclass(frozen=True)
class PrefixHit(TraceEvent):
    """An arrival's prompt matched a shared radix-cached prefix.

    ``hit_tokens`` prefill tokens were skipped (the scheduler only
    ever plans the uncached suffix); ``cached_tokens`` is the tree's
    resident footprint after locking the matched path.  A miss is the
    metric-only :class:`PrefixMissed`.
    """

    kind: ClassVar[str] = "prefix_hit"

    replica_id: int
    request_id: int
    tier: str
    hit_tokens: int
    prompt_tokens: int
    cached_tokens: int


@dataclass(frozen=True)
class GatewayAdmitted(TraceEvent):
    """The online gateway accepted an arrival into a replica."""

    kind: ClassVar[str] = "gateway_admitted"

    request_id: int
    tier: str
    important: bool
    queue_depth: int


@dataclass(frozen=True)
class GatewayShed(TraceEvent):
    """The online gateway refused or evicted a request.

    ``reason`` is ``"rate_limit"`` (per-tier token bucket empty) or
    ``"backpressure"`` (queue depth cap; the victim follows the
    relegation demotable ordering).
    """

    kind: ClassVar[str] = "gateway_shed"

    request_id: int
    tier: str
    important: bool
    reason: str
    queue_depth: int


@dataclass(frozen=True)
class _SpanEvent(TraceEvent):
    """Fields shared by :class:`SpanStart` and :class:`SpanEnd`."""

    name: str
    request_id: int
    replica_id: int = -1
    tier: str = ""

    @classmethod
    def of(
        cls, name: str, request: "Request", now: float,
        replica_id: int = -1,
    ) -> "_SpanEvent":
        return cls(now, name, request.request_id, replica_id,
                   request.qos.name)


@dataclass(frozen=True)
class SpanStart(_SpanEvent):
    """A request entered a lifecycle stage (see :mod:`repro.obs.spans`).

    ``name`` is the stage: ``gateway`` (offered to the serving front
    door), ``admission`` (admission decision), ``dispatch`` (router
    chose a replica), ``queue`` (enqueued on a scheduler), ``prefill``
    (first chunk scheduled) or ``decode`` (first output token).
    ``replica_id`` is -1 for stages outside any replica.
    """

    kind: ClassVar[str] = "span_start"


@dataclass(frozen=True)
class SpanEnd(_SpanEvent):
    """A request left a lifecycle stage opened by :class:`SpanStart`."""

    kind: ClassVar[str] = "span_end"


# --- metric-only events: observed, never recorded -----------------------


@dataclass(frozen=True)
class RelegationScan(TraceEvent):
    """A relegation feasibility scan finished (possibly demoting none)."""

    kind: ClassVar[str] = "relegation_scan"
    recorded: ClassVar[bool] = False

    important_saved: int


@dataclass(frozen=True)
class PrefixMissed(TraceEvent):
    """An arrival's radix-cache lookup matched no blocks."""

    kind: ClassVar[str] = "prefix_missed"
    recorded: ClassVar[bool] = False

    replica_id: int
    cached_tokens: int


@dataclass(frozen=True)
class PrefixInserted(TraceEvent):
    """A finished prefill published its prompt blocks into the radix
    tree: ``new_blocks`` transferred ownership, ``deduped_blocks``
    freed duplicates of already-shared blocks."""

    kind: ClassVar[str] = "prefix_inserted"
    recorded: ClassVar[bool] = False

    replica_id: int
    new_blocks: int
    deduped_blocks: int
    cached_tokens: int


@dataclass(frozen=True)
class PrefixEvicted(TraceEvent):
    """Memory pressure reclaimed unreferenced prefix blocks (LRU)."""

    kind: ClassVar[str] = "prefix_evicted"
    recorded: ClassVar[bool] = False

    replica_id: int
    blocks: int
    cached_tokens: int


@dataclass(frozen=True)
class TokenStreamed(TraceEvent):
    """The gateway delivered one output token to a consumer."""

    kind: ClassVar[str] = "token_streamed"
    recorded: ClassVar[bool] = False

    request_id: int
    tier: str


@dataclass(frozen=True)
class FleetComposition(TraceEvent):
    """Provisioned replicas per hardware class after a resize."""

    kind: ClassVar[str] = "fleet_composition"
    recorded: ClassVar[bool] = False

    by_hardware: tuple[tuple[str, int], ...]


#: kind -> event class, the closed registry of trace event types.
EVENT_TYPES: dict[str, type[TraceEvent]] = {
    cls.kind: cls
    for cls in (
        IterationScheduled,
        ChunkSized,
        Relegated,
        RelegationServed,
        Preempted,
        DecodeEvicted,
        RequestCompleted,
        KVCacheSnapshot,
        ReplicaCrashed,
        ReplicaRecovered,
        ReplicaSlowdown,
        RequestRetried,
        RequestShed,
        RequestCancelled,
        FaultSkipped,
        FleetResized,
        PrefixHit,
        GatewayAdmitted,
        GatewayShed,
        SpanStart,
        SpanEnd,
    )
}


def _checkers(cls: type[TraceEvent]) -> dict[str, tuple[type, ...]]:
    """Per-field accepted runtime types, derived from annotations."""
    out: dict[str, tuple[type, ...]] = {}
    hints = typing.get_type_hints(cls)
    for f in _trace_fields(cls):
        hint = hints[f.name]
        origin = typing.get_origin(hint)
        accepted: tuple[type, ...]
        if origin is typing.Union or origin is types.UnionType:
            members = [a for a in typing.get_args(hint)
                       if a is not type(None)]
            accepted = tuple(
                t for m in members for t in _scalar_types(m)
            ) + (type(None),)
        else:
            accepted = _scalar_types(hint)
        out[f.name] = accepted
    return out


def _scalar_types(hint: Any) -> tuple[type, ...]:
    origin = typing.get_origin(hint)
    if hint is float:
        return (int, float)
    if hint is int:
        return (int,)
    if hint is bool:
        return (bool,)
    if hint is str:
        return (str,)
    if origin in (tuple, list) or hint in (tuple, list):
        return (list, tuple)
    return (object,)


_SCHEMA: dict[str, dict[str, tuple[type, ...]]] = {
    kind: _checkers(cls) for kind, cls in EVENT_TYPES.items()
}


def _required_fields(cls: type[TraceEvent]) -> frozenset[str]:
    """Fields without a dataclass default.

    Defaulted fields are the schema-evolution seam: new fields must
    ship with defaults, so older traces (which lack them) still
    validate, and the reader reconstructs the default.
    """
    return frozenset(
        f.name
        for f in _trace_fields(cls)
        if f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    )


_REQUIRED: dict[str, frozenset[str]] = {
    kind: _required_fields(cls) for kind, cls in EVENT_TYPES.items()
}


def validate_event(payload: dict[str, Any]) -> None:
    """Raise :class:`TraceSchemaError` unless ``payload`` is a valid
    serialized event.

    Fields without dataclass defaults are required; defaulted fields
    may be absent (older schema versions), but when present must
    type-check.  Unknown fields are always rejected.
    """
    if not isinstance(payload, dict):
        raise TraceSchemaError(f"event must be an object, got {payload!r}")
    kind = payload.get("kind")
    if kind not in _SCHEMA:
        raise TraceSchemaError(f"unknown event kind {kind!r}")
    schema = _SCHEMA[kind]
    missing = _REQUIRED[kind] - set(payload)
    if missing:
        raise TraceSchemaError(f"{kind}: missing fields {sorted(missing)}")
    extra = set(payload) - set(schema) - {"kind"}
    if extra:
        raise TraceSchemaError(f"{kind}: unexpected fields {sorted(extra)}")
    for name, accepted in schema.items():
        if name not in payload:
            continue
        value = payload[name]
        # bool passes isinstance(..., int); keep them distinct except
        # where bool is the declared type.
        if isinstance(value, bool) and bool not in accepted:
            raise TraceSchemaError(
                f"{kind}.{name}: bool not accepted, got {value!r}"
            )
        if not isinstance(value, accepted):
            raise TraceSchemaError(
                f"{kind}.{name}: expected {accepted}, got {value!r}"
            )
        if (
            isinstance(value, float)
            and not isinstance(value, bool)
            and not math.isfinite(value)
        ):
            raise TraceSchemaError(
                f"{kind}.{name}: non-finite float {value!r}"
            )
