"""Differential run forensics: repro.obs.diff and the repro diff CLI.

The two acceptance pins live here: diffing a run against itself (or
the arrays engine against the objects engine on the same workload) is
an empty delta, and diffing two schedulers reports the first
diverging event plus cause deltas that sum exactly to the goodput
gap, byte-identically across recomputation.
"""

import json

import pytest

from repro.api import ServeConfig, Session, build_trace
from repro.cli import main
from repro.obs import (
    ListSink,
    TraceRecorder,
    TracingObserver,
    diff_runs,
    find_first_divergence,
    render_diff_html,
    render_diff_terminal,
)
from repro.obs.diff import ATTRIBUTION_TOL
from tests.conftest import ENGINE_CORES, engine_core

SCHEDULERS = ("qoserve", "medha", "fcfs", "edf")


def capture_events(scheduler, engine="arrays", qps=3.0,
                   num_requests=40, seed=7, dataset="AzCode"):
    """Run one traced simulation, return its serialized events.

    ``engine`` picks the core (see :func:`tests.conftest.engine_core`).
    """
    sink = ListSink()
    with engine_core(engine):
        session = Session(
            ServeConfig(scheduler=scheduler),
            observer=TracingObserver(TraceRecorder([sink])),
        )
    trace = build_trace(
        dataset, qps=1.0, num_requests=num_requests, seed=seed
    ).scaled_arrivals(qps)
    for request in trace:
        session.submit(request)
    session.advance()
    return sink.events


@pytest.fixture(scope="module")
def qoserve_events():
    return capture_events("qoserve")


@pytest.fixture(scope="module")
def medha_events():
    return capture_events("medha")


class TestSelfDiffDeterminism:
    """Satellite: self-diff is empty for every scheduler and engine."""

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("engine", ENGINE_CORES)
    def test_self_diff_is_empty(self, scheduler, engine):
        first = capture_events(scheduler, engine=engine,
                               num_requests=25)
        second = capture_events(scheduler, engine=engine,
                                num_requests=25)
        diff = diff_runs(first, second)
        assert diff.identical
        assert diff.first_divergence is None
        assert diff.goodput["good_delta"] == 0
        assert diff.goodput["goodput_gap_pct"] == 0.0
        assert not any(diff.cause_goodput_delta.values())
        assert diff.flips == {
            "regressed": 0, "fixed": 0, "cause_changed": 0,
        }
        assert all(
            delta.flip == "" and delta.goodput_delta == 0
            for delta in diff.requests
        )
        assert all(
            value == 0.0
            for totals in diff.phase_total_deltas.values()
            for value in totals.values()
        )

    def test_arrays_vs_objects_zero_divergence(self):
        """Acceptance: the engine-parity pinned trace diffs empty."""
        objects = capture_events("qoserve", engine="objects")
        arrays = capture_events("qoserve", engine="arrays")
        diff = diff_runs(objects, arrays, base_label="objects",
                         other_label="arrays")
        assert diff.identical
        assert diff.first_divergence is None


class TestSchedulerDiff:
    def test_reports_first_divergence(self, qoserve_events,
                                      medha_events):
        diff = diff_runs(qoserve_events, medha_events,
                         base_label="qoserve", other_label="medha")
        assert not diff.identical
        divergence = diff.first_divergence
        assert divergence is not None
        # Streams agree up to the divergence index and not at it.
        canon = lambda e: json.dumps(e, sort_keys=True)  # noqa: E731
        for i in range(divergence.index):
            assert canon(qoserve_events[i]) == canon(medha_events[i])
        assert (
            divergence.base_event is None
            or divergence.other_event is None
            or canon(divergence.base_event)
            != canon(divergence.other_event)
        )
        # The context ring holds shared events just before the split.
        for event in divergence.context:
            assert event in qoserve_events[:divergence.index]

    def test_cause_deltas_sum_to_goodput_gap(self, qoserve_events,
                                             medha_events):
        """Acceptance: exact conservation of the attribution."""
        diff = diff_runs(qoserve_events, medha_events)
        assert diff.attribution_residual <= ATTRIBUTION_TOL
        assert (
            sum(diff.cause_goodput_delta.values())
            == diff.goodput["good_delta"]
        )
        # Per-tier deltas tile the global ones.
        per_tier = {}
        for deltas in diff.tier_cause_goodput_delta.values():
            for cause, delta in deltas.items():
                per_tier[cause] = per_tier.get(cause, 0) + delta
        assert per_tier == {
            c: d for c, d in diff.cause_goodput_delta.items()
        }

    def test_byte_identical_across_recomputation(self, qoserve_events,
                                                 medha_events):
        """Acceptance: the serialized diff is deterministic."""
        serialize = lambda d: json.dumps(  # noqa: E731
            d.to_dict(), sort_keys=True
        )
        first = serialize(diff_runs(qoserve_events, medha_events))
        second = serialize(diff_runs(qoserve_events, medha_events))
        assert first == second

    def test_flip_direction_and_charging(self, qoserve_events,
                                         medha_events):
        diff = diff_runs(qoserve_events, medha_events)
        for delta in diff.requests:
            if delta.flip == "regressed":
                assert not delta.violated_base and delta.violated_other
                assert delta.goodput_delta == -1
                assert delta.cause == delta.cause_other
            elif delta.flip == "fixed":
                assert delta.violated_base and not delta.violated_other
                assert delta.goodput_delta == 1
                assert delta.cause == delta.cause_base
            else:
                assert delta.goodput_delta == 0

    def test_phase_deltas_and_sketches(self, qoserve_events,
                                       medha_events):
        diff = diff_runs(qoserve_events, medha_events)
        assert diff.phase_total_deltas
        for tier, sketches in diff.phase_delta_sketches.items():
            assert "ttft" in sketches and "ttlt" in sketches
            # Every aligned request of the tier contributed a sample.
            count = sum(
                1 for d in diff.requests
                if d.status == "aligned" and d.tier == tier
            )
            assert sketches["ttlt"].count == count


class TestAlignment:
    """Hand-built traces: presence mismatches and cause flips."""

    @staticmethod
    def completion(request_id, tier="Q2", arrival=0.0, first=1.0,
                   done=2.0, violated=False):
        return {
            "kind": "request_completed", "ts": done, "replica_id": 0,
            "request_id": request_id, "tier": tier,
            "arrival_time": arrival, "scheduled_first_time": 0.5,
            "first_token_time": first, "completion_time": done,
            "relegated": False, "violated": violated, "evictions": 0,
        }

    def test_only_base_good_request_charged(self):
        base = [self.completion(1), self.completion(2)]
        other = [self.completion(1)]
        diff = diff_runs(base, other)
        assert diff.only_base == [2]
        assert diff.cause_goodput_delta == {"missing_in_other": -1}
        assert diff.goodput["good_delta"] == -1
        assert diff.attribution_residual <= ATTRIBUTION_TOL

    def test_only_other_good_request_charged(self):
        base = [self.completion(1)]
        other = [self.completion(1), self.completion(3)]
        diff = diff_runs(base, other)
        assert diff.only_other == [3]
        assert diff.cause_goodput_delta == {"missing_in_base": 1}
        assert diff.goodput["good_delta"] == 1

    def test_missing_violated_request_not_charged(self):
        # A request the other run dropped was already violated: its
        # absence changes completed counts but not goodput.
        base = [self.completion(1), self.completion(2, violated=True)]
        other = [self.completion(1)]
        diff = diff_runs(base, other)
        assert diff.goodput["good_delta"] == 0
        assert not diff.cause_goodput_delta

    def test_regression_flip(self):
        base = [self.completion(1)]
        other = [self.completion(1, done=700.0, violated=True)]
        diff = diff_runs(base, other)
        (delta,) = diff.requests
        assert delta.flip == "regressed"
        assert diff.flips["regressed"] == 1
        assert delta.cause is not None
        assert diff.goodput["good_delta"] == -1
        assert diff.attribution_residual <= ATTRIBUTION_TOL

    def test_slack_uses_governing_slo(self):
        # Q2 is TTLT-governed (600 s): slack = 600 - ttlt.
        diff = diff_runs([self.completion(1, done=100.0)],
                         [self.completion(1, done=150.0)])
        (delta,) = diff.requests
        assert delta.slack_base == pytest.approx(500.0)
        assert delta.slack_other == pytest.approx(450.0)
        assert delta.slack_delta == pytest.approx(-50.0)
        assert delta.ttlt_delta == pytest.approx(50.0)

    def test_empty_inputs(self):
        diff = diff_runs([], [])
        assert diff.identical
        assert diff.aligned == 0
        assert render_diff_terminal(diff)


class TestFirstDivergence:
    def test_identical_streams(self):
        events = [{"kind": "a", "ts": 1.0}, {"kind": "b", "ts": 2.0}]
        assert find_first_divergence(events, list(events)) is None

    def test_length_divergence(self):
        events = [{"kind": "a", "ts": 1.0}, {"kind": "b", "ts": 2.0}]
        divergence = find_first_divergence(events, events[:1])
        assert divergence is not None
        assert divergence.index == 1
        assert divergence.other_event is None
        assert divergence.base_event == events[1]

    def test_context_ring_is_bounded(self):
        base = [{"kind": "e", "ts": float(i)} for i in range(20)]
        other = list(base)
        other[15] = {"kind": "x", "ts": 15.0}
        divergence = find_first_divergence(base, other, context=4)
        assert divergence is not None
        assert divergence.index == 15
        assert len(divergence.context) == 4
        assert divergence.context == tuple(base[11:15])
        assert divergence.base_after
        assert divergence.other_after


class TestRendering:
    def test_terminal_report(self, qoserve_events, medha_events):
        diff = diff_runs(qoserve_events, medha_events,
                         base_label="qoserve", other_label="medha")
        text = render_diff_terminal(diff)
        assert "first divergence" in text
        assert "goodput change by cause" in text
        assert "qoserve" in text and "medha" in text

    def test_terminal_identical(self, qoserve_events):
        diff = diff_runs(qoserve_events, list(qoserve_events))
        assert "byte-identical" in render_diff_terminal(diff)

    def test_html_single_file(self, qoserve_events, medha_events):
        diff = diff_runs(qoserve_events, medha_events)
        html = render_diff_html(diff, title="t")
        assert html.startswith("<!DOCTYPE html>")
        assert "<script src" not in html and "<link" not in html
        assert "First divergence" in html


class TestCli:
    @pytest.fixture(scope="class")
    def trace_files(self, tmp_path_factory, qoserve_events,
                    medha_events):
        root = tmp_path_factory.mktemp("diffcli")
        paths = {}
        for name, events in (("qoserve", qoserve_events),
                             ("medha", medha_events)):
            path = root / f"{name}.jsonl"
            with path.open("w") as sink:
                for event in events:
                    sink.write(json.dumps(event) + "\n")
            paths[name] = path
        return paths

    def test_diff_command(self, trace_files, tmp_path, capsys):
        json_out = tmp_path / "delta.json"
        html_out = tmp_path / "delta.html"
        code = main([
            "diff", str(trace_files["qoserve"]),
            str(trace_files["medha"]),
            "--json", str(json_out), "--out", str(html_out),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "first divergence" in stdout
        payload = json.loads(json_out.read_text())
        assert payload["base_label"] == "qoserve"
        assert payload["attribution_residual"] <= ATTRIBUTION_TOL
        assert html_out.read_text().startswith("<!DOCTYPE html>")

    def test_diff_json_deterministic(self, trace_files, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main([
                "diff", str(trace_files["qoserve"]),
                str(trace_files["medha"]), "--json", str(out),
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_expect_identical_pass(self, trace_files, tmp_path,
                                   capsys):
        copy = tmp_path / "copy.jsonl"
        copy.write_bytes(trace_files["qoserve"].read_bytes())
        code = main([
            "diff", str(trace_files["qoserve"]), str(copy),
            "--expect-identical",
        ])
        assert code == 0
        assert "byte-identical" in capsys.readouterr().out

    def test_expect_identical_fail(self, trace_files, capsys):
        code = main([
            "diff", str(trace_files["qoserve"]),
            str(trace_files["medha"]), "--expect-identical",
        ])
        assert code == 1
        assert "diverge" in capsys.readouterr().err

    def test_three_way_diff(self, trace_files, tmp_path, capsys):
        copy = tmp_path / "again.jsonl"
        copy.write_bytes(trace_files["qoserve"].read_bytes())
        code = main([
            "diff", str(trace_files["qoserve"]),
            str(trace_files["medha"]), str(copy),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "byte-identical" in out  # the self comparison
        assert "first divergence" in out  # the medha comparison

    def test_single_trace_rejected(self, trace_files, capsys):
        assert main(["diff", str(trace_files["qoserve"])]) == 2

    def test_missing_trace(self, trace_files, tmp_path):
        assert main([
            "diff", str(trace_files["qoserve"]),
            str(tmp_path / "nope.jsonl"),
        ]) == 1


class TestBenchDiffBaseline:
    """``repro bench --diff-baseline``: behavioral identity gate."""

    def test_record_then_verify_then_catch_drift(self, tmp_path):
        from repro.bench import diff_baseline_check

        baseline = tmp_path / "baseline.jsonl"
        first = diff_baseline_check(baseline, quick=True)
        assert first["recorded"] is True
        assert baseline.exists()
        assert first["num_events"] > 0

        second = diff_baseline_check(baseline, quick=True)
        assert second["recorded"] is False
        assert second["identical"] is True

        # Corrupt one recorded event: the gate must report exactly
        # where behavior diverged.
        lines = baseline.read_text().splitlines()
        tampered = json.loads(lines[3])
        tampered["ts"] = tampered["ts"] + 1.0
        lines[3] = json.dumps(tampered, sort_keys=True,
                              separators=(",", ":"))
        baseline.write_text("\n".join(lines) + "\n")
        third = diff_baseline_check(baseline, quick=True)
        assert third["identical"] is False
        assert third["first_divergence_index"] == 3
