"""Prefix reuse: hit rate x load x scheduler on session traffic.

ROADMAP item 3's scenario gap, measured: multi-turn agent/RAG sessions
(shared 1024-token system prompt, growing per-conversation histories)
served with the radix KV prefix cache on and off, across a load sweep
and the two deadline-ordered schedulers.  Reuse shrinks every turn's
prefill to its uncached suffix, which reshapes the chunking /
relegation frontier the QoServe scheduler works against — the point of
the experiment is *how much* of the frontier shifts, per scheduler and
load, not just that reuse is faster.

Each ``kv_reuse="off"`` / ``"radix"`` pair replays byte-identical
arrivals (fresh request clones of one pinned trace), so every row's
``goodput_x`` ratio is causal.  Hit/eviction statistics come straight
from the replica's :class:`~repro.engine.prefix.RadixPrefixCache`.
"""

from __future__ import annotations

from repro.api import ServeConfig, Session
from repro.core.request import Request
from repro.experiments.configs import BENCH, Scale
from repro.experiments.result import ExperimentResult
from repro.workload.sessions import AGENT_PROFILE, SessionWorkload

#: Session-start rates swept (sessions/s); turn QPS is ~`mean_turns`
#: times higher once conversations overlap.
DEFAULT_LOADS = (0.2, 0.4, 0.8)

DEFAULT_SCHEDULERS = ("qoserve", "medha")


def _goodput(requests: list[Request]) -> float:
    """Requests finished within SLO per second of arrival span."""
    good = sum(
        1 for r in requests if r.is_finished and not r.violated_deadline
    )
    if not requests:
        return 0.0
    span = max(
        1e-9,
        max(r.arrival_time for r in requests)
        - min(r.arrival_time for r in requests),
    )
    return good / span


def _run_once(
    base: list[Request],
    scheduler: str,
    kv_reuse: str,
) -> dict:
    session = Session(ServeConfig(
        scheduler=scheduler, kv_reuse=kv_reuse,
    ))
    requests = [r.clone_fresh() for r in base]
    for request in requests:
        session.submit(request)
    session.drain()
    summary = session.summary()
    prompt_tokens = sum(r.prompt_tokens for r in requests)
    hits = misses = hit_tokens = evictions = 0
    for replica in session.engines:
        cache = replica.prefix_cache
        if cache is None:
            continue
        assert cache.total_refs() == 0, "prefix refcounts leaked"
        hits += cache.hits
        misses += cache.misses
        hit_tokens += cache.hit_tokens
        evictions += cache.evictions
    return {
        "goodput_rps": _goodput(requests),
        "violations_pct": summary.violations.overall_pct,
        "mean_ttft_ms": summary.mean_ttft * 1e3,
        "hits": hits,
        "misses": misses,
        "hit_tokens": hit_tokens,
        "evictions": evictions,
        "prompt_tokens": prompt_tokens,
    }


def run(
    scale: Scale = BENCH,
    deployment: str = "llama3-8b",
    schedulers: tuple[str, ...] = DEFAULT_SCHEDULERS,
    loads: tuple[float, ...] = DEFAULT_LOADS,
) -> ExperimentResult:
    """Sweep kv_reuse x load x scheduler over agent/RAG sessions."""
    num_sessions = max(10, scale.num_requests // 6)
    result = ExperimentResult(
        experiment="fig-prefix",
        title="Radix KV prefix reuse on multi-turn session traffic",
        notes=[
            f"{num_sessions} sessions, AGENT_PROFILE (shared "
            f"{AGENT_PROFILE.shared_prefix_tokens}-token system "
            f"prompt), deployment={deployment}",
            "each off/radix pair replays identical arrivals",
        ],
    )
    hit_rates: dict[str, float] = {}
    for load in loads:
        base = list(
            SessionWorkload(
                AGENT_PROFILE, session_qps=load, seed=scale.seed
            ).build(num_sessions)
        )
        for scheduler in schedulers:
            off = _run_once(base, scheduler, "off")
            radix = _run_once(base, scheduler, "radix")
            lookups = radix["hits"] + radix["misses"]
            hit_rate = radix["hits"] / lookups if lookups else 0.0
            token_rate = (
                radix["hit_tokens"] / radix["prompt_tokens"]
                if radix["prompt_tokens"] else 0.0
            )
            hit_rates[f"{scheduler}@{load}"] = hit_rate
            result.rows.append({
                "scheduler": scheduler,
                "session_qps": load,
                "requests": len(base),
                "hit_rate_pct": 100.0 * hit_rate,
                "prefill_saved_pct": 100.0 * token_rate,
                "evictions": radix["evictions"],
                "goodput_off_rps": off["goodput_rps"],
                "goodput_radix_rps": radix["goodput_rps"],
                "goodput_x": (
                    radix["goodput_rps"] / off["goodput_rps"]
                    if off["goodput_rps"] else float("inf")
                ),
                "violations_off_pct": off["violations_pct"],
                "violations_radix_pct": radix["violations_pct"],
                "ttft_off_ms": off["mean_ttft_ms"],
                "ttft_radix_ms": radix["mean_ttft_ms"],
            })
    result.extras["hit_rates"] = hit_rates
    return result


if __name__ == "__main__":
    from repro.experiments.configs import SMOKE

    print(run(SMOKE).render())
