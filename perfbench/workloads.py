"""The three benchmark workloads and how one repetition of each runs.

Every workload keeps ``ServeConfig`` defaults except the settings that
define it, so a later change of a default (the engine core, routing)
shows up in the numbers.  All traffic is open loop: arrival times are
drawn from the seed before timing starts and never wait on the system.

This module imports only the standard library at import time; the
program (``repro``) is imported inside :meth:`Workload.setup`, which is
what the ``setup_s`` metric times.

Why these three (the layer -> metric map is in :mod:`perfbench.report`):

* ``azcode-cluster-burst`` - prefill-heavy AzCode on 16 replicas with a
  square wave of 3 and 6 QPS per replica, overloaded in the high phase:
  scheduler planning, the dynamic chunker, forest inference,
  relegation, routing and a 16-replica event heap are the hot layers.
* ``agent-sessions-traced`` - multi-turn agent sessions sharing a
  1024-token system prompt with the radix prefix cache on and the JSONL
  trace export writing: the only load on ``engine.prefix`` and ``obs``,
  and, being decode-heavy on one replica, the heaviest on the engine
  iteration loop and the KV ledger.
* ``gateway-live`` - AzConv replayed against an in-process
  ``ServeGateway`` at a finite clock speed: the only load on ``serve``
  and virtual/wall pacing, where program cost shows up as latency.

The rates sit where one run's simulated percentiles are steady from
seed to seed; the comments on each class say what moved them there.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import selectors
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.hostspeed import PROBE


@dataclass
class Rep:
    """What one repetition of a workload leaves behind."""

    offered: list
    engines: list
    session: object
    #: Wall seconds from the first submit until every request drained.
    drain_s: float
    #: Seconds of ``drain_s`` spent in host-speed probes, and how many
    #: probes ran (:mod:`perfbench.hostspeed`).
    probe_s: float
    probes: int
    #: Wall seconds from the first submit until the run summary exists.
    total_s: float
    summary: object = None
    #: Wall seconds the event loop spent waiting with nothing to run.
    idle_s: float = 0.0
    gateway: object = None
    #: Workload-specific samples (gateway latencies) and counters.
    extra: dict = field(default_factory=dict)
    #: Correctness-gate findings and terminal-state counts.
    problems: list = field(default_factory=list)
    terminal: dict = field(default_factory=dict)
    digest: str = ""
    #: Work counters and per-request outcomes, kept after :meth:`release`.
    counters: dict = field(default_factory=dict)
    outcomes: dict = field(default_factory=dict)

    def release(self) -> None:
        """Drop the simulated state; a run keeps only the summaries."""
        self.offered, self.engines = [], []
        self.session = self.summary = self.gateway = None


class Workload:
    """One traffic mix: its stack, its inputs and one timed repetition.

    A run simulates ``parts(seconds)`` independent sub-traces drawn from
    the seed and pools their requests: the metrics average over more
    traffic than one sub-trace holds, and which inputs a run simulates
    depends only on its arguments, never on how fast the host is.
    """

    name = ""
    #: The ``ServeConfig`` settings that define the workload; every
    #: other setting keeps its default.
    overrides: dict = {}
    #: Wall seconds one sub-trace takes on a 2-CPU host; sizes a run.
    sub_trace_s = 1.0

    def parts(self, seconds: float) -> int:
        """Sub-traces a run of ``seconds`` simulates."""
        return max(1, round(seconds / self.sub_trace_s))

    def config(self):
        from repro.api import ServeConfig

        return ServeConfig(**self.overrides)

    def setup(self, workdir: Path) -> dict:
        """Import the program and build the serving stack.

        Returns a handle for :meth:`run`; the timed ``setup_s`` is the
        duration of this call in a fresh interpreter.
        """
        from repro.api import Session

        return {"session": Session(self.config())}

    def inputs(self, seed: int) -> list:
        """One sub-trace's offered requests (never simulated)."""
        raise NotImplementedError

    def run(self, handle: dict, requests: list, probed: bool = False) -> Rep:
        """Offer ``requests`` to the stack in ``handle`` and drain it,
        under the host-speed probe if ``probed``."""
        session = handle["session"]
        max_events = session.config.max_events
        start = time.perf_counter()
        probe_s, probes = PROBE.spent_s, PROBE.count
        with PROBE if probed else contextlib.nullcontext():
            for request in requests:
                session.submit(request)
            session.advance(max_events=max_events)
            self.finish(handle)
        drained = time.perf_counter()
        probe_s, probes = PROBE.spent_s - probe_s, PROBE.count - probes
        summary = session.summary(requests=requests)
        done = time.perf_counter()
        return Rep(
            offered=requests,
            engines=session.engines,
            session=session,
            drain_s=drained - start,
            probe_s=probe_s,
            probes=probes,
            total_s=done - start,
            summary=summary,
        )

    def finish(self, handle: dict) -> None:
        """Flush anything the run writes (inside the timed region)."""

    def close(self, handle: dict) -> None:
        """Release what :meth:`setup` opened."""


class AzCodeClusterBurst(Workload):
    name = "azcode-cluster-burst"
    replicas = 16
    overrides = {"num_replicas": replicas}
    low_qps_per_replica = 3.0
    #: Above one replica's capacity; at 7 QPS the backlog of each high
    #: phase outlives the next low phase and the median TTFT, which
    #: sits on the knee between served and deferred tiers, moves by a
    #: fifth between seeds.
    high_qps_per_replica = 6.0
    #: Section 4.3 alternates every 15 minutes over 4 hours; the wave is
    #: compressed so one run crosses several low/high phases.
    phase_s = 15.0
    low_priority_fraction = 0.2
    num_requests = 6000
    sub_trace_s = 6.0

    def inputs(self, seed: int) -> list:
        from repro.api import build_trace
        from repro.workload import AZURE_CODE
        from repro.workload.arrivals import DiurnalArrivals

        arrivals = DiurnalArrivals(
            low_qps=self.low_qps_per_replica * self.replicas,
            high_qps=self.high_qps_per_replica * self.replicas,
            phase_duration=self.phase_s,
        )
        return list(
            build_trace(
                AZURE_CODE, qps=arrivals.mean_qps(),
                num_requests=self.num_requests, seed=seed,
                low_priority_fraction=self.low_priority_fraction,
                arrivals=arrivals,
            )
        )


class AgentSessionsTraced(Workload):
    name = "agent-sessions-traced"
    overrides = {"kv_reuse": "radix"}
    session_qps = 1.0
    #: Sessions are taken in start order until the sub-trace holds this
    #: many prompt tokens.  A request's cost and memory follow its
    #: prompt, which grows with the session's turns, so sizing by tokens
    #: rather than by sessions keeps each sub-trace's work steady from
    #: seed to seed (200 sessions held 3.6M to 5.5M prompt tokens).
    prompt_tokens = 4_500_000
    #: ...and at least this many requests, so one sub-trace's p99
    #: latencies have ten samples beyond them.
    min_requests = 1050
    #: Sessions generated, more than any seed needs; the kept ones are
    #: the earliest.  The trace is generated twice: first without token
    #: ids, to find the sessions kept, then with token ids for those
    #: sessions only.  Token ids cost no random draws, so both passes
    #: draw the same lengths and times; they are most of the inputs'
    #: memory, and generating them for every session would make input
    #: generation, not the program, set the peak memory.
    num_sessions = 400
    sub_trace_s = 10.0

    def setup(self, workdir: Path) -> dict:
        from repro.api import Session
        from repro.obs.observer import TracingObserver
        from repro.obs.trace import JSONLSink, TraceRecorder

        fd, path = tempfile.mkstemp(
            prefix="trace-", suffix=".jsonl", dir=workdir
        )
        os.close(fd)
        recorder = TraceRecorder([JSONLSink(path)])
        session = Session(
            self.config(), observer=TracingObserver(recorder)
        )
        return {"session": session, "recorder": recorder, "path": path}

    def inputs(self, seed: int) -> list:
        from repro.workload.sessions import AGENT_PROFILE, SessionWorkload

        kept: set[str] = set()

        class KeptTokenIds(SessionWorkload):
            def _token_ids(self, session_index, count):
                if f"session-{session_index}" not in kept:
                    return None
                return super()._token_ids(session_index, count)

        def generate() -> list:
            return list(
                KeptTokenIds(
                    AGENT_PROFILE, session_qps=self.session_qps, seed=seed
                ).build(self.num_sessions)
            )

        kept |= self._first_sessions(generate())
        return [r for r in generate() if r.session_id in kept]

    def _first_sessions(self, requests: list) -> set[str]:
        """Ids of the fewest earliest-starting sessions that hold enough
        prompt tokens and requests."""
        # A session's first turn arrives at its start, so first
        # appearance in the arrival-sorted trace is start order.
        sessions: dict[str, list] = {}
        for request in requests:
            sessions.setdefault(request.session_id, []).append(request)
        kept, tokens, count = set(), 0, 0
        for session_id, turns in sessions.items():
            kept.add(session_id)
            tokens += sum(r.prompt_tokens for r in turns)
            count += len(turns)
            if tokens >= self.prompt_tokens and count >= self.min_requests:
                return kept
        raise ValueError(
            f"{len(sessions)} sessions hold fewer than "
            f"{self.prompt_tokens} prompt tokens or "
            f"{self.min_requests} requests"
        )

    def finish(self, handle: dict) -> None:
        handle["recorder"].close()

    def run(self, handle: dict, requests: list, probed: bool = False) -> Rep:
        rep = super().run(handle, requests, probed)
        rep.extra["trace_events"] = handle["recorder"].total_events
        rep.extra["trace_bytes"] = os.path.getsize(handle["path"])
        return rep

    def close(self, handle: dict) -> None:
        handle["recorder"].close()
        os.unlink(handle["path"])


class _TimedSelector(selectors.DefaultSelector):
    """Selector that accumulates the wall time spent blocked in select."""

    idle_s = 0.0

    def select(self, timeout=None):
        start = time.perf_counter()
        try:
            return super().select(timeout)
        finally:
            self.idle_s += time.perf_counter() - start


class GatewayLive(Workload):
    name = "gateway-live"
    #: Virtual seconds per wall second of the gateway's clock.
    speed = 40.0
    #: Virtual arrival rate; the wall rate is ``qps * speed``.  At
    #: 4 QPS one replica saturates and the simulated TTFT tail moves
    #: tenfold between seeds.
    qps = 2.0
    num_requests = 2000
    sub_trace_s = 26.0

    def setup(self, workdir: Path) -> dict:
        from repro.api import Session
        from repro.serve.gateway import GatewayConfig, ServeGateway

        session = Session(self.config())
        gateway = ServeGateway(
            session, config=GatewayConfig(speed=self.speed)
        )
        return {"session": session, "gateway": gateway}

    def inputs(self, seed: int) -> list:
        from repro.api import build_trace
        from repro.workload import AZURE_CONV

        return list(
            build_trace(
                AZURE_CONV, qps=self.qps, num_requests=self.num_requests,
                seed=seed,
            )
        )

    def run(self, handle: dict, requests: list, probed: bool = False) -> Rep:
        """The gateway's wall clock paces this run, so the host-speed
        probe never runs during it: ``probed`` is ignored."""
        selector = _TimedSelector()
        loop = asyncio.SelectorEventLoop(selector)
        try:
            rep = loop.run_until_complete(
                self._drive(handle["gateway"], requests, selector)
            )
        finally:
            loop.close()
        return rep

    async def _drive(self, gateway, requests, selector) -> Rep:
        from repro.serve.gateway import AdmissionRefused

        session = gateway.session
        await gateway.start()
        # Map virtual instants to wall instants through the gateway's
        # own clock, read once right after it was anchored.
        before = time.monotonic()
        virtual = gateway.clock.target()
        after = time.monotonic()
        anchor = 0.5 * (before + after)

        def wall_of(virtual_time: float) -> float:
            return anchor + (virtual_time - virtual) / self.speed

        samples = {
            "ttft_s": [], "tbt_s": [], "token_lag_s": [], "gen_late_s": [],
        }
        received: dict[int, list] = {}
        problems: list[str] = []

        async def consume(request_id: int, due: float) -> None:
            events = received[request_id] = []
            last = None
            async for event in gateway.stream(request_id):
                now = time.monotonic()
                events.append(event)
                if last is None:
                    samples["ttft_s"].append(now - due)
                else:
                    samples["tbt_s"].append(now - last)
                last = now
                samples["token_lag_s"].append(
                    now - wall_of(event.virtual_time)
                )

        consumers = []
        idle_before = 0.0
        start = None
        for original in sorted(requests, key=lambda r: r.arrival_time):
            due = wall_of(original.arrival_time)
            delay = due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = time.monotonic()
            if start is None:
                start = time.perf_counter()
                idle_before = selector.idle_s
            samples["gen_late_s"].append(max(0.0, sent - due))
            # The simulated arrival is the instant the gateway accepts
            # the request, not the trace's: backdating would turn each
            # millisecond of wall lateness into ``speed`` milliseconds
            # of simulated waiting, and the simulated percentiles would
            # follow host jitter.  Wall latencies count from ``due``.
            try:
                admitted = await gateway.submit(
                    prompt_tokens=original.prompt_tokens,
                    decode_tokens=original.decode_tokens,
                    tier=original.qos.name,
                    important=original.important,
                    app_id=original.app_id,
                )
            except AdmissionRefused:
                continue
            consumers.append(
                asyncio.ensure_future(consume(admitted.request_id, due))
            )
        await asyncio.gather(*consumers)
        drained = time.perf_counter()
        summary = session.summary(requests=gateway.offered)
        done = time.perf_counter()
        idle_s = selector.idle_s - idle_before
        await gateway.stop()

        streamed = sum(len(events) for events in received.values())
        if streamed != gateway.stats.tokens_streamed_total:
            problems.append(
                f"received {streamed} tokens, gateway streamed "
                f"{gateway.stats.tokens_streamed_total}"
            )
        for request in gateway.offered:
            events = received.get(request.request_id)
            if events is None or not request.is_finished:
                continue
            indices = [e.index for e in events]
            times = [e.virtual_time for e in events]
            if indices != list(range(1, request.decode_tokens + 1)):
                problems.append(
                    f"request {request.request_id}: streamed token "
                    f"indices {indices[:3]}... for "
                    f"{request.decode_tokens} tokens"
                )
            elif times != sorted(times):
                problems.append(
                    f"request {request.request_id}: streamed tokens "
                    "out of virtual-time order"
                )
        return Rep(
            offered=list(gateway.offered),
            engines=session.engines,
            session=session,
            drain_s=drained - start,
            probe_s=0.0,
            probes=0,
            total_s=done - start,
            summary=summary,
            idle_s=idle_s,
            gateway=gateway,
            extra=samples,
            problems=problems,
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        AzCodeClusterBurst(), AgentSessionsTraced(), GatewayLive(),
    )
}
