"""Tests of the benchmark harness itself (not of the program)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import gate, hostspeed, report, run
from perfbench.tracing import (
    LAYERS,
    SpanTracer,
    action_wrapper,
    span_wrapper,
)
from perfbench.workloads import (
    WORKLOADS,
    AgentSessionsTraced,
    AzCodeClusterBurst,
)

ROOT = Path(__file__).resolve().parent.parent


def fake_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_of_nested_spans():
    # engine [0, 10] holds kv [1, 5], which holds prefix [2, 4], and a
    # second kv span [6, 7].
    tracer = SpanTracer(clock=fake_clock([0, 1, 2, 4, 5, 6, 7, 10]))
    tracer.enter("engine", "a")
    tracer.enter("engine.kv", "b")
    tracer.enter("engine.prefix", "c")
    assert tracer.exit() == 2
    assert tracer.exit() == 4
    tracer.enter("engine.kv", "d")
    tracer.exit()
    assert tracer.exit() == 10
    assert tracer.self_s == {
        "engine": 10 - 4 - 1,
        "engine.kv": (4 - 2) + 1,
        "engine.prefix": 2,
    }
    assert tracer.total_self_s() == 10
    assert tracer.depth == 0


def test_self_times_of_sibling_top_level_spans_add_up():
    tracer = SpanTracer(clock=fake_clock([0, 3, 5, 6, 7, 9]))
    tracer.enter("simcore", "run")
    tracer.enter("engine", "action")
    tracer.exit()  # engine 3..5
    tracer.exit()  # simcore 0..6
    tracer.enter("metrics", "summary")
    tracer.exit()  # metrics 7..9
    assert tracer.self_s == {"simcore": 4, "engine": 2, "metrics": 2}
    # The gap 6..7 lies outside every span: it is the unattributed part.
    assert 9 - tracer.total_self_s() == 1


def test_count_skips_nested_call_of_same_name():
    tracer = SpanTracer()

    class Base:
        def plan(self):
            return "base"

    class Child(Base):
        def plan(self):
            return super().plan()

    Base.plan = span_wrapper(tracer, "schedulers", Base.__dict__["plan"],
                             count="plans")
    Child.plan = span_wrapper(tracer, "schedulers", Child.__dict__["plan"],
                              count="plans")
    assert Child().plan() == "base"
    assert Base().plan() == "base"
    assert tracer.counts["plans"] == 2


def test_action_spans_are_named_after_the_defining_layer():
    tracer = SpanTracer()
    seen = []

    def action():
        seen.append(tracer.innermost())

    action.__module__ = "repro.cluster.deployment"
    action_wrapper(tracer, action)()
    assert seen == [("cluster", "action")]
    # Callbacks from modules outside every layer run unwrapped.
    action.__module__ = "repro.api"
    assert action_wrapper(tracer, action) is action


def test_percentile_needs_ten_samples_beyond():
    assert gate.percentile(range(1000), 99) == (pytest.approx(989.01), 1000)
    with pytest.raises(ValueError):
        gate.percentile(range(999), 99)
    assert gate.percentile([3, 1, 2] * 10, 50)[0] == 2


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]
    ] == list(report.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == list(report.PER_LAYER)
    assert set(report.LAYER_MAP) == set(LAYERS)
    names = {name for name, _, _ in report.END_TO_END + report.PER_LAYER}
    for metric, workload in report.LAYER_MAP.values():
        assert metric in names and workload in WORKLOADS


class SmallCluster(AzCodeClusterBurst):
    replicas = 4
    overrides = {"num_replicas": replicas}
    num_requests = 400


class SmallAgents(AgentSessionsTraced):
    num_sessions = 12
    prompt_tokens = 1
    min_requests = 1


def test_reference_seconds_scale_work_by_host_speed():
    # 50 probes of 4 ms each: the host runs at half the reference speed.
    speed = hostspeed.speed(50 * 0.004, 50)
    assert speed == pytest.approx(0.5)
    # 10 s of wall time, 0.2 s of it in probes: 9.8 s of work at half
    # speed is 4.9 s at the reference speed.
    assert hostspeed.reference_s(10.0, 0.2, speed) == pytest.approx(4.9)
    assert hostspeed.speed(0.0, 0) == 1.0


def test_host_speed_probe_changes_no_behaviour(tmp_path):
    workload = SmallCluster()
    inputs = workload.inputs(seed=4)
    reps = []
    for probed in (False, True):
        handle = workload.setup(tmp_path)
        reps.append(run.run_rep(workload, handle, inputs, probed=probed))
    plain, probed = reps
    assert plain.probes == 0 and probed.probes > 0
    assert 0 < probed.probe_s < probed.drain_s
    assert plain.problems == [] and probed.problems == []
    assert probed.digest == plain.digest
    assert probed.counters == plain.counters


@pytest.mark.parametrize("workload", [SmallCluster(), SmallAgents()])
def test_tracing_changes_no_behaviour(workload, tmp_path):
    untraced, traced, tracer = run.traced(
        workload, workload.inputs(seed=3), tmp_path
    )
    assert untraced.problems == [] and traced.problems == []
    assert traced.digest == untraced.digest
    assert traced.counters == untraced.counters
    assert tracer.counts["simcore.schedules"] > 0
    # Spans never overlap, so their self times fit inside the wall time.
    assert all(v >= 0 for v in tracer.self_s.values())
    assert 0 < tracer.total_self_s() <= traced.total_s


def small_rep(tmp_path):
    workload = SmallCluster()
    handle = workload.setup(tmp_path)
    rep = run.run_rep(workload, handle, workload.inputs(seed=5))
    assert rep.problems == []
    assert rep.terminal["completed"] == len(rep.offered)
    return rep


def test_gate_fails_when_a_completed_request_is_removed(tmp_path):
    rep = small_rep(tmp_path)
    engine = next(e for e in rep.engines if e.completed)
    lost = engine.completed.pop()
    _, problems = gate.check_run(rep.offered, rep.engines)
    assert any(str(lost.request_id) in p for p in problems)


def test_gate_fails_when_an_offered_request_goes_missing(tmp_path):
    rep = small_rep(tmp_path)
    missing = rep.offered.pop()
    _, problems = gate.check_run(rep.offered, rep.engines)
    assert any(
        f"request {missing.request_id}, which was never offered" in p
        for p in problems
    )


def test_gate_counts_rejections_as_terminal(tmp_path):
    rep = small_rep(tmp_path)
    request = rep.offered[0]
    # An engine that refused a request lists it as rejected instead.
    for engine in rep.engines:
        if request in engine.completed:
            engine.completed.remove(request)
            engine.rejected.append(request)
    request.decoded = 0
    request.completion_time = None
    counts, problems = gate.check_run(rep.offered, rep.engines)
    assert problems == []
    assert counts["rejected"] == 1
    assert sum(counts.values()) == len(rep.offered)
