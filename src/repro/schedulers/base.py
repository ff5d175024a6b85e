"""Shared machinery for queue-ordered, chunk-budgeted schedulers.

:class:`FixedChunkScheduler` implements Sarathi's scheduling contract:
every iteration carries at most ``chunk_size`` tokens *including* the
decode tokens (Section 2.1 — "chunked prefills split a prefill request
into equal-sized chunks"), and the remaining budget is filled with
prompt tokens drawn from the queue in a policy-defined order.
Subclasses supply the ordering via :meth:`priority`.

The queue is a lazy heap: entries are keyed when pushed, and any entry
whose key may have changed (a request that just received a chunk) is
re-pushed with a fresh key.  This keeps per-iteration cost logarithmic
even when overload grows the queue to thousands of requests, where a
sort-per-iteration design would dominate the simulation.
"""

from __future__ import annotations

import heapq
import itertools
from abc import abstractmethod

from repro.core.request import Request
from repro.engine.batch import PrefillAssignment
from repro.engine.interface import EngineView, Scheduler
from repro.obs.timing import timed


def pack_prefill_assignments(
    order: list[Request],
    budget: int,
    view: EngineView,
    kv_start_watermark: float,
) -> list[PrefillAssignment]:
    """Greedily pack prompt tokens from ``order`` into ``budget``.

    Honours decode-slot and KV constraints: a request whose prefill has
    not started (not in ``view.inflight_prefill_ids``) consumes a
    decode slot and is only admitted while KV utilization sits below
    the watermark; every assignment must fit in free KV blocks.
    Unreferenced prefix-cache blocks count as free on both sides of
    the ledger (the ledger's ``grow`` reclaims them on demand) —
    otherwise a cache-full replica would starve its own prefill queue.
    """
    assignments: list[PrefillAssignment] = []
    kv = view.kv_cache
    reclaimable = kv.reclaimable_blocks
    free_blocks = kv.free_blocks + reclaimable
    free_slots = max(
        0,
        view.max_decode_slots
        - len(view.decode_requests)
        - len(view.inflight_prefill_ids),
    )
    watermark_blocks = int(kv_start_watermark * kv.capacity_blocks)
    used_blocks = kv.used_blocks - reclaimable

    assigned: set[int] = set()
    for request in order:
        if budget <= 0:
            break
        remaining = request.remaining_prefill
        if remaining <= 0 or request.request_id in assigned:
            continue
        assigned.add(request.request_id)
        is_new = request.request_id not in view.inflight_prefill_ids
        if is_new:
            if free_slots <= 0:
                continue
            if used_blocks >= watermark_blocks:
                continue
        tokens = min(budget, remaining)
        need = kv.blocks_needed(request.request_id, tokens)
        if need > free_blocks:
            # Shrink to what fits rather than skipping outright.
            fit_tokens = _tokens_fitting(kv, request.request_id, free_blocks)
            tokens = min(tokens, fit_tokens)
            if tokens <= 0:
                continue
            need = kv.blocks_needed(request.request_id, tokens)
        assignments.append(PrefillAssignment(request, tokens))
        budget -= tokens
        free_blocks -= need
        used_blocks += need
        if is_new:
            free_slots -= 1
    return assignments


def _tokens_fitting(kv, request_id: int, free_blocks: int) -> int:
    """Largest token growth for ``request_id`` within ``free_blocks``."""
    held = kv.holding(request_id)
    slack_in_block = (-held) % kv.block_size
    return slack_in_block + free_blocks * kv.block_size


class FixedChunkScheduler(Scheduler):
    """Sarathi-style fixed token budget with pluggable queue ordering."""

    name = "fixed-chunk"

    #: Queue entries examined per iteration before giving up.  Bounds
    #: the cost of skipping inadmissible (slot/KV-blocked) requests.
    MAX_EXAMINED = 64

    def __init__(
        self,
        chunk_size: int = 256,
        kv_start_watermark: float = 0.90,
    ) -> None:
        """Args:
        chunk_size: Total tokens per iteration (prefill + decode).
            The paper's shared-cluster baselines use 256 to satisfy the
            strictest 50 ms TBT tier; throughput silos use 2048.
        kv_start_watermark: New requests begin prefilling only while
            KV utilization is below this, leaving headroom for decode
            growth (vLLM's watermark admission).
        """
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if not 0.0 < kv_start_watermark <= 1.0:
            raise ValueError("kv_start_watermark must be in (0, 1]")
        self.chunk_size = int(chunk_size)
        self.kv_start_watermark = float(kv_start_watermark)
        # Lazy-deletion heap: each queued request has exactly one live
        # entry; re-keying invalidates the old entry in place and
        # pushes a fresh one.  Entries are [key, seq, request, valid].
        self._heap: list[list] = []
        self._entry: dict[int, list] = {}
        self._member: dict[int, Request] = {}
        self._seq = itertools.count()

    # --- queue maintenance --------------------------------------------------

    def _push_entry(self, request: Request, now: float) -> None:
        old = self._entry.get(request.request_id)
        if old is not None:
            old[3] = False
        entry = [self.priority(request, now), next(self._seq), request, True]
        self._entry[request.request_id] = entry
        heapq.heappush(self._heap, entry)

    # --- Scheduler contract ------------------------------------------------

    def enqueue(self, request: Request, now: float) -> None:
        self._member[request.request_id] = request
        self._push_entry(request, now)

    def has_pending_prefill(self) -> bool:
        return bool(self._member)

    def pending_requests(self) -> list[Request]:
        return list(self._member.values())

    def is_pending(self, request: Request) -> bool:
        return request.request_id in self._member

    def queue_length(self) -> int:
        return len(self._member)

    def on_prefill_complete(self, request: Request, now: float) -> None:
        self._member.pop(request.request_id, None)
        entry = self._entry.pop(request.request_id, None)
        if entry is not None:
            entry[3] = False

    @abstractmethod
    def priority(self, request: Request, now: float) -> float:
        """Ordering key; lower runs first."""

    # --- planning ------------------------------------------------------------

    def prefill_token_budget(self, view: EngineView) -> int:
        """Prompt tokens allowed this iteration under the fixed chunk."""
        return max(0, self.chunk_size - len(view.decode_requests))

    @timed("scheduler.plan_prefill")
    def plan_prefill(self, view: EngineView) -> list[PrefillAssignment]:
        budget = self.prefill_token_budget(view)
        if budget <= 0 or not self._member:
            return []
        order = self._pop_candidates()
        assignments = pack_prefill_assignments(
            order, budget, view, self.kv_start_watermark
        )
        # Re-queue everything examined: keys may be stale after chunk
        # progress, and skipped requests must stay in the queue.
        for request in order:
            if request.request_id in self._member:
                self._push_entry(request, view.now)
        return assignments

    def _pop_candidates(self) -> list[Request]:
        """Pop up to MAX_EXAMINED live queue entries in key order.

        Invalidated entries (re-keys, departures) are discarded lazily.
        """
        candidates: list[Request] = []
        while self._heap and len(candidates) < self.MAX_EXAMINED:
            entry = heapq.heappop(self._heap)
            if not entry[3]:
                continue
            entry[3] = False
            request = entry[2]
            self._entry.pop(request.request_id, None)
            candidates.append(request)
        return candidates
