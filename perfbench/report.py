"""Metric definitions, and how each is computed from finished runs.

``END_TO_END`` and ``PER_LAYER`` are the metric lists of
``BENCHMARK.json`` (a test keeps the two in step).  ``LAYER_MAP``
records, for each layer, which end-to-end metric its per-layer numbers
should move and on which workload: a change that claims to speed up a
layer names the row it expects to move, and the other workloads are
where the prediction is "no change".
"""

from __future__ import annotations

import resource
import statistics

from perfbench import gate, hostspeed
from perfbench.tracing import LAYERS

#: (name, unit, better) of every end-to-end metric; each workload
#: reports all of them, with tracing off.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("tok_per_ref_s", "tok/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("completed_frac", "frac", "higher"),
    ("slo_attainment", "frac", "higher"),
    ("sim_ttft_p50_s", "s", "lower"),
    ("sim_ttft_p99_s", "s", "lower"),
    ("sim_worst_tbt_p99_s", "s", "lower"),
)

#: (name, unit, better) of every per-layer metric of the traced run.
PER_LAYER = (
    ("simcore.self_s", "s", "lower"),
    ("simcore.events", "count", "lower"),
    ("simcore.schedules", "count", "lower"),
    ("engine.self_s", "s", "lower"),
    ("engine.iterations", "count", "lower"),
    ("engine.decode_batch_mean", "tok/iter", "higher"),
    ("engine.evictions", "count", "lower"),
    ("engine.kv_high_water", "frac", "lower"),
    ("engine.kv.self_s", "s", "lower"),
    ("engine.kv.calls", "count", "lower"),
    ("engine.prefix.self_s", "s", "lower"),
    ("engine.prefix.lookups", "count", "lower"),
    ("engine.prefix.token_hit_rate", "frac", "higher"),
    ("engine.prefix.evictions", "count", "lower"),
    ("schedulers.self_s", "s", "lower"),
    ("schedulers.plan_calls", "count", "lower"),
    ("schedulers.preemptions", "count", "lower"),
    ("schedulers.queue_wait_p50_s", "s", "lower"),
    ("schedulers.queue_wait_p99_s", "s", "lower"),
    ("core.chunking.self_s", "s", "lower"),
    ("core.chunking.calls", "count", "lower"),
    ("core.chunking.predicts_per_call", "count", "lower"),
    ("forest.self_s", "s", "lower"),
    ("forest.predict_calls", "count", "lower"),
    ("forest.memo_hit_rate", "frac", "higher"),
    ("core.relegation.self_s", "s", "lower"),
    ("core.relegation.calls", "count", "lower"),
    ("core.relegation.relegated", "count", "lower"),
    ("cluster.self_s", "s", "lower"),
    ("cluster.route_calls", "count", "lower"),
    ("cluster.replica_load_max_over_mean", "x", "lower"),
    ("obs.self_s", "s", "lower"),
    ("obs.events", "count", "lower"),
    ("obs.bytes", "bytes", "lower"),
    ("serve.self_s", "s", "lower"),
    ("serve.submit_calls", "count", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.advance_block_ms_p99", "ms", "lower"),
    ("serve.gen_late_ms_p99", "ms", "lower"),
    ("serve.ttft_ms_p50", "ms", "lower"),
    ("serve.ttft_ms_p99", "ms", "lower"),
    ("serve.tbt_ms_p99", "ms", "lower"),
    ("serve.token_lag_ms_p99", "ms", "lower"),
    ("metrics.summary_s", "s", "lower"),
    ("idle_s", "s", "lower"),
    ("unattributed_s", "s", "lower"),
    ("traced_wall_s", "s", "lower"),
    ("trace_overhead", "x", "lower"),
)

#: layer -> (metric its per-layer numbers should move, workload where
#: they do).  Every other workload is where the prediction is "no
#: change".  The gateway's cost shows as wall-clock latency, which only
#: the gateway workload has, so ``serve`` points at a per-layer metric.
LAYER_MAP = {
    "simcore": ("tok_per_ref_s", "azcode-cluster-burst"),
    "engine": ("tok_per_ref_s", "agent-sessions-traced"),
    "engine.kv": ("tok_per_ref_s", "agent-sessions-traced"),
    "engine.prefix": ("sim_ttft_p50_s", "agent-sessions-traced"),
    "schedulers": ("tok_per_ref_s", "azcode-cluster-burst"),
    "core.chunking": ("tok_per_ref_s", "azcode-cluster-burst"),
    "core.relegation": ("slo_attainment", "azcode-cluster-burst"),
    "forest": ("tok_per_ref_s", "azcode-cluster-burst"),
    "cluster": ("sim_ttft_p99_s", "azcode-cluster-burst"),
    "obs": ("tok_per_ref_s", "agent-sessions-traced"),
    "serve": ("serve.token_lag_ms_p99", "gateway-live"),
    "metrics": ("tok_per_ref_s", "azcode-cluster-burst"),
}
# Secondary links the numbers should also show: engine batch size ->
# sim_worst_tbt_p99_s on agent-sessions-traced; scheduler queue waits ->
# sim_ttft_p99_s and slo_attainment on azcode-cluster-burst;
# engine.prefix -> tok_per_ref_s on agent-sessions-traced; cluster ->
# tok_per_ref_s on azcode-cluster-burst; forest training -> setup_s on
# every workload; serve.advance_block_ms_p99 -> serve.ttft_ms_p99 on
# gateway-live.


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def outcomes(rep) -> dict:
    """What the end-to-end metrics need from one repetition."""
    done = [r for r in rep.offered if r.is_finished]
    return {
        "offered": len(rep.offered),
        "completed": len(done),
        "met": sum(1 for r in done if not r.violated_deadline),
        "terminal": len(rep.offered) - rep.terminal["unfinished"],
        "tokens": sum(r.prompt_tokens + r.decode_tokens for r in done),
        "ttft": [r.ttft for r in done],
        "max_tbt": [r.max_tbt for r in done],
    }


def end_to_end(reps, setups) -> tuple[dict, dict]:
    """Every end-to-end metric of one run.

    A run's repetitions are independent sub-traces; the simulated
    metrics pool their requests.

    ``tok_per_ref_s`` is the pooled rate of served tokens (prompt plus
    decode tokens of completed requests) from the first submit to
    drain, its wall seconds re-expressed at the reference host speed
    measured by the probes that ran during the repetitions
    (:mod:`perfbench.hostspeed`).  Tokens, not requests, because a
    request's cost follows its length: over 200-session sub-traces of
    ``agent-sessions-traced`` the seconds per request varied 14% from
    seed to seed (coefficient of variation), the seconds per token 9%.
    The gateway's wall clock paces its repetitions, which run unprobed:
    its rate is the wall rate, and falls only if the program cannot
    keep up.

    ``setups`` holds (wall seconds, probe seconds, probes) of each
    timed set-up; ``setup_s`` is the median of their durations, each
    re-expressed at the reference speed by its own probes.
    """
    def pooled(key):
        return [x for rep in reps for x in rep.outcomes[key]]

    def total(key):
        return sum(rep.outcomes[key] for rep in reps)

    def summed(attr):
        return sum(getattr(rep, attr) for rep in reps)

    ttft_p50, n_ttft = gate.percentile(pooled("ttft"), 50)
    ttft_p99, _ = gate.percentile(pooled("ttft"), 99)
    tbt_p99, n_tbt = gate.percentile(pooled("max_tbt"), 99)
    host_speed = hostspeed.speed(summed("probe_s"), summed("probes"))
    ref_s = sum(
        hostspeed.reference_s(rep.drain_s, rep.probe_s, host_speed)
        for rep in reps
    )
    setup_ref = [
        hostspeed.reference_s(wall, p, hostspeed.speed(p, n))
        for wall, p, n in setups
    ]
    values = {
        "setup_s": statistics.median(setup_ref),
        "tok_per_ref_s": total("tokens") / ref_s,
        "peak_rss_mb": peak_rss_mb(),
        "completed_frac": total("completed") / total("offered"),
        "slo_attainment": total("met") / total("offered"),
        "sim_ttft_p50_s": ttft_p50,
        "sim_ttft_p99_s": ttft_p99,
        "sim_worst_tbt_p99_s": tbt_p99,
    }
    detail = {
        "setups_wall_s": [wall for wall, _, _ in setups],
        "setups_s": setup_ref,
        "host_speed": host_speed,
        "wall_req_per_s": total("terminal") / summed("drain_s"),
        "ref_req_per_s": total("terminal") / ref_s,
        "drain_s": [rep.drain_s for rep in reps],
        "samples": {"sim_ttft": n_ttft, "sim_worst_tbt": n_tbt},
    }
    return values, detail


def work_counters(rep) -> dict:
    """Exact, host-independent counts read from public program state."""
    stats = rep.summary.scheduler_stats
    counters = {
        "events_processed": rep.session.simulator.events_processed,
        "iterations": stats["iterations"],
        "relegations": stats["relegations_total"],
        "preemptions": stats["preemptions"],
        "decode_evictions": stats["decode_evictions"],
        "output_tokens": sum(r.decoded for r in rep.offered),
    }
    caches = [e.prefix_cache for e in rep.engines if e.prefix_cache]
    counters["prefix_hits"] = sum(c.hits for c in caches)
    counters["prefix_misses"] = sum(c.misses for c in caches)
    counters["prefix_hit_tokens"] = sum(c.hit_tokens for c in caches)
    counters["prefix_evictions"] = sum(c.evictions for c in caches)
    counters["trace_events"] = rep.extra.get("trace_events", 0)
    return counters


def _ms_p(samples, q) -> float:
    return 1000.0 * gate.percentile(samples, q)[0] if samples else 0.0


def gateway_latency(rep) -> dict[str, float]:
    """Wall-clock latencies a streaming client of the gateway saw, and
    how long each ``Session.advance`` blocked the gateway's loop."""
    extra = rep.extra
    if rep.gateway is None:
        return {
            key: 0.0
            for key in (
                "serve.ttft_ms_p50", "serve.ttft_ms_p99",
                "serve.tbt_ms_p99", "serve.token_lag_ms_p99",
                "serve.gen_late_ms_p99", "serve.advance_block_ms_p99",
            )
        }
    return {
        "serve.advance_block_ms_p99": _ms_p(extra["advance_block_s"], 99),
        "serve.ttft_ms_p50": _ms_p(extra["ttft_s"], 50),
        "serve.ttft_ms_p99": _ms_p(extra["ttft_s"], 99),
        "serve.tbt_ms_p99": _ms_p(extra["tbt_s"], 99),
        "serve.token_lag_ms_p99": _ms_p(extra["token_lag_s"], 99),
        "serve.gen_late_ms_p99": _ms_p(extra["gen_late_s"], 99),
    }


def per_layer(traced, tracer, untraced) -> dict[str, float]:
    """Every per-layer metric from one traced and one untraced rep.

    Self times come from the traced rep; the gateway's wall latencies
    from the untraced one, which tracing does not slow.
    ``unattributed_s`` is the traced wall time not inside any span and
    not spent idle in the event loop, so the self times, ``idle_s`` and
    ``unattributed_s`` add up to ``traced_wall_s``.
    """
    counts = tracer.counts
    counters = traced.counters
    engines = traced.engines
    offered = traced.offered

    def ratio(a, b) -> float:
        return a / b if b else 0.0

    iterations = counters["iterations"]
    first_tokens = sum(1 for r in offered if r.decoded >= 1)
    waits = [
        r.scheduled_first_time - r.arrival_time
        for r in offered
        if r.scheduled_first_time is not None
    ]
    loads = [len(e.submitted) for e in engines]
    values = {f"{layer}.self_s": tracer.self_s.get(layer, 0.0)
              for layer in LAYERS}
    values["metrics.summary_s"] = values.pop("metrics.self_s")
    values.update({
        "simcore.events": counters["events_processed"],
        "simcore.schedules": counts["simcore.schedules"],
        "engine.iterations": iterations,
        "engine.decode_batch_mean": ratio(
            counters["output_tokens"] - first_tokens, iterations
        ),
        "engine.evictions": counters["decode_evictions"],
        "engine.kv_high_water": max(
            e.kv_cache.high_water_utilization for e in engines
        ),
        "engine.kv.calls": counts["engine.kv.calls"],
        "engine.prefix.lookups": counts["engine.prefix.lookups"],
        "engine.prefix.token_hit_rate": ratio(
            counts["engine.prefix.hit_tokens"],
            counts["engine.prefix.lookup_tokens"],
        ),
        "engine.prefix.evictions": counters["prefix_evictions"],
        "schedulers.plan_calls": counts["schedulers.plan_calls"],
        "schedulers.preemptions": counters["preemptions"],
        "schedulers.queue_wait_p50_s": gate.percentile(waits, 50)[0],
        "schedulers.queue_wait_p99_s": gate.percentile(waits, 99)[0],
        "core.chunking.calls": counts["core.chunking.calls"],
        "core.chunking.predicts_per_call": ratio(
            counts["core.chunking.predicts"], counts["core.chunking.calls"]
        ),
        "forest.predict_calls": counts["forest.predict_calls"],
        "forest.memo_hit_rate": (
            1.0 - ratio(
                counts["forest.leaf_votes_one"],
                counts["forest.predict_calls"],
            )
            if counts["forest.predict_calls"] else 0.0
        ),
        "core.relegation.calls": counts["core.relegation.calls"],
        "core.relegation.relegated": counters["relegations"],
        "cluster.route_calls": counts["cluster.route_calls"],
        "cluster.replica_load_max_over_mean": max(loads)
        / statistics.mean(loads),
        "obs.events": counts["obs.events"],
        "obs.bytes": traced.extra.get("trace_bytes", 0),
        "serve.submit_calls": counts["serve.submit_calls"],
        "serve.shed": (
            traced.gateway.stats.shed_total if traced.gateway else 0
        ),
        "idle_s": traced.idle_s,
        "traced_wall_s": traced.total_s,
    })
    values.update(gateway_latency(untraced))
    values["unattributed_s"] = (
        traced.total_s - tracer.total_self_s() - traced.idle_s
    )
    # Wall pacing fixes the gateway's wall time, so its overhead is
    # measured on the busy (non-idle) part of each run.
    values["trace_overhead"] = (
        (traced.total_s - traced.idle_s)
        / (untraced.total_s - untraced.idle_s)
        - 1.0
    )
    return values
