"""Correctness gate, behaviour digest and percentile helpers.

Everything here reads public program state after a run: the offered
requests, each engine's terminal-state lists and KV ledger, and the
prefix cache's reference counts.  The gate is the benchmark's check
that the program's outputs are correct; a run that fails it reports
``"correct": false``.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter

#: Terminal states a request can end in; ``unfinished`` is a request
#: still open when the run drained (it counts as failed).
TERMINAL_STATES = (
    "completed", "rejected", "dropped", "shed", "cancelled", "unfinished",
)


def percentile(values, q: float) -> tuple[float, int]:
    """``q``-th percentile (linear interpolation) and the sample count.

    Raises ``ValueError`` when fewer than ten samples lie beyond the
    percentile: such a tail is not measured, it is guessed.
    """
    values = sorted(values)
    n = len(values)
    if n == 0 or n * (100.0 - q) / 100.0 < 10.0 - 1e-9:
        raise ValueError(
            f"p{q:g} needs at least 10 samples beyond it, got n={n}"
        )
    rank = (n - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, n - 1)
    return values[low] + (values[high] - values[low]) * (rank - low), n


def terminal_states(offered, engines) -> tuple[dict[str, int], list[str]]:
    """Classify each offered request into exactly one terminal state.

    Completion, rejection and drops are read from the engines' own
    lists (``completed``, ``rejected``, ``dropped``), so a request that
    an engine lost or double-counted shows up as a problem.
    """
    problems: list[str] = []
    offered_ids = {id(r) for r in offered}
    if len(offered_ids) != len(offered):
        problems.append("a request was offered twice")
    listed: dict[str, Counter] = {
        key: Counter() for key in ("completed", "rejected", "dropped")
    }
    for engine in engines:
        for key, counter in listed.items():
            for request in getattr(engine, key):
                counter[id(request)] += 1
                if id(request) not in offered_ids:
                    problems.append(
                        f"engine {key} list holds request "
                        f"{request.request_id}, which was never offered"
                    )
    for key, counter in listed.items():
        twice = [rid for rid, k in counter.items() if k > 1]
        if twice:
            problems.append(f"{len(twice)} requests listed twice as {key}")

    counts = dict.fromkeys(TERMINAL_STATES, 0)
    for request in offered:
        key = id(request)
        states = [
            state
            for state, held in (
                ("completed", key in listed["completed"]),
                ("rejected", key in listed["rejected"]),
                ("dropped", key in listed["dropped"]),
                ("shed", request.shed),
                ("cancelled", request.cancelled and not request.shed),
            )
            if held
        ]
        if len(states) > 1:
            problems.append(
                f"request {request.request_id} is in several terminal "
                f"states: {states}"
            )
        if request.is_finished != ("completed" in states):
            problems.append(
                f"request {request.request_id}: finished="
                f"{request.is_finished} but completed-list membership "
                f"says {'completed' in states}"
            )
        counts[states[0] if states else "unfinished"] += 1
    # Conservation counted from the engines' side: every list entry is
    # one terminal request, so an entry for a request offered elsewhere,
    # or listed twice, breaks the equality.
    listed_total = sum(sum(counter.values()) for counter in listed.values())
    flagged = counts["shed"] + counts["cancelled"] + counts["unfinished"]
    if listed_total + flagged != len(offered):
        problems.append(
            f"offered {len(offered)} != {listed_total} listed by engines "
            f"+ {flagged} shed, cancelled or unfinished"
        )
    return counts, problems


def check_completed(offered) -> list[str]:
    """Each completed request has all its tokens, in time order."""
    problems = []
    for r in offered:
        if not r.is_finished:
            continue
        if r.decoded != r.decode_tokens:
            problems.append(
                f"request {r.request_id}: {r.decoded} tokens, "
                f"expected {r.decode_tokens}"
            )
        times = (
            r.arrival_time,
            r.scheduled_first_time,
            r.first_token_time,
            r.last_token_time,
        )
        if any(t is None for t in times) or list(times) != sorted(times):
            problems.append(
                f"request {r.request_id}: timestamps out of order {times}"
            )
        elif r.completion_time != r.last_token_time:
            problems.append(
                f"request {r.request_id}: completion_time "
                f"{r.completion_time} != last token {r.last_token_time}"
            )
        elif r.max_tbt > r.last_token_time - r.first_token_time + 1e-12:
            problems.append(
                f"request {r.request_id}: max_tbt {r.max_tbt} exceeds "
                "its decode span"
            )
    return problems


def check_drained_ledgers(engines) -> list[str]:
    """At drain no request holds KV and no prefix path stays locked."""
    problems = []
    for engine in engines:
        ledger = engine.kv_cache
        holders = [h for h in ledger.holders() if h >= 0]
        if holders:
            problems.append(
                f"replica {engine.replica_id}: {len(holders)} requests "
                "still hold KV blocks at drain"
            )
        cache = engine.prefix_cache
        resident = cache.cached_blocks if cache is not None else 0
        if ledger.used_blocks != resident:
            problems.append(
                f"replica {engine.replica_id}: {ledger.used_blocks} KV "
                f"blocks in use, {resident} owned by the prefix cache"
            )
        if cache is not None and cache.total_refs() != 0:
            problems.append(
                f"replica {engine.replica_id}: prefix cache holds "
                f"{cache.total_refs()} references at drain"
            )
    return problems


def check_run(offered, engines) -> tuple[dict[str, int], list[str]]:
    """The whole gate: terminal states, tokens, drained ledgers."""
    counts, problems = terminal_states(offered, engines)
    problems += check_completed(offered)
    problems += check_drained_ledgers(engines)
    return counts, problems


def digest(offered) -> str:
    """Hash of every request's simulated outcome, in id order.

    Two runs with equal digests made the same decisions at the same
    simulated instants; floats are hashed by ``repr``, so exactly.
    """
    h = hashlib.sha256()
    for r in sorted(offered, key=lambda r: r.request_id):
        h.update(
            repr(
                (
                    r.request_id, r.scheduled_first_time,
                    r.first_token_time, r.completion_time, r.decoded,
                    r.max_tbt, r.relegated, r.evictions, r.cancelled,
                    r.shed,
                )
            ).encode()
        )
    return h.hexdigest()[:16]
