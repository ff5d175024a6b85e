"""Prefill/decode disaggregation (Section 4.1.3).

The paper applies QoServe's hybrid prioritization and eager relegation
to the *prefill nodes* of vLLM's disaggregated mode and reports max
goodput per prefill replica.  The decode side is held identical across
schemes: "the number of decode replicas and their SLO attainment is
identical as they work with a maximum batch size that meets the
strictest TBT."  We therefore model the decode pool as a fixed-pace
token generator (one token per ``token_pace`` seconds per request, the
strictest-TBT iteration time) with unconstrained parallelism, and put
all the scheduling under test on the prefill replicas, which run with
a large 8K chunk budget since no colocated decodes constrain them.
"""

from __future__ import annotations

from repro.core.request import Request
from repro.engine import arrays
from repro.engine.replica import ReplicaConfig
from repro.metrics.summary import RunSummary, summarize_run
from repro.perfmodel.execution import ExecutionModel
from repro.simcore.simulator import Simulator
from repro.workload.trace import Trace
from repro.cluster.deployment import SchedulerFactory


class DecodePool:
    """Fixed-pace decode service shared by all schemes under test.

    Generates each handed-off request's tokens at ``token_pace``
    intervals starting one pace after the handoff.  Token timestamps
    are materialized directly (no events) because the pool is
    explicitly unconstrained — its capacity is identical across the
    schemes being compared, so it cancels out of the comparison.
    """

    def __init__(self, token_pace: float = 0.025) -> None:
        if token_pace <= 0:
            raise ValueError("token_pace must be positive")
        self.token_pace = float(token_pace)
        self.completed: list[Request] = []

    def accept(self, request: Request, handoff_time: float) -> None:
        """Receive a prefilled request and synthesize its decode."""
        for i in range(request.remaining_decode):
            request.record_output_token(
                handoff_time + (i + 1) * self.token_pace
            )
        self.completed.append(request)


class DisaggregatedDeployment:
    """Prefill replicas under test feeding a shared decode pool."""

    def __init__(
        self,
        execution_model: ExecutionModel,
        scheduler_factory: SchedulerFactory,
        num_prefill_replicas: int = 1,
        token_pace: float = 0.025,
        replica_config: ReplicaConfig | None = None,
        simulator: Simulator | None = None,
    ) -> None:
        if num_prefill_replicas < 1:
            raise ValueError("num_prefill_replicas must be >= 1")
        self.simulator = simulator or Simulator()
        self.decode_pool = DecodePool(token_pace=token_pace)
        base_config = replica_config or ReplicaConfig()
        config = ReplicaConfig(
            max_decode_slots=base_config.max_decode_slots,
            kv_block_size=base_config.kv_block_size,
            record_iterations=base_config.record_iterations,
            prefill_only=True,
        )
        self.replicas = [
            arrays.build_replica(
                self.simulator,
                execution_model,
                scheduler_factory(),
                config,
                replica_id=i,
                prefill_sink=self.decode_pool.accept,
            )
            for i in range(num_prefill_replicas)
        ]
        self._next_replica = 0

    def submit(self, request: Request) -> None:
        self.replicas[self._next_replica].submit(request)
        self._next_replica = (self._next_replica + 1) % len(self.replicas)

    def submit_trace(self, trace: Trace) -> None:
        for request in trace:
            self.submit(request)

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        return self.simulator.run(until=until, max_events=max_events)

    def all_requests(self) -> list[Request]:
        return [r for replica in self.replicas for r in replica.submitted]

    def summarize(self, now: float | None = None) -> RunSummary:
        return summarize_run(
            self.all_requests(),
            now=now if now is not None else self.simulator.now,
        )
