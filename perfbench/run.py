"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload azcode-cluster-burst --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
is timed three times (here and in two fresh interpreters, reporting
the median) and the workload runs as many independent sub-traces of
the seed as fill about ``--seconds`` on a 2-CPU host.  Set-ups and
batch sub-traces run under the host-speed probe
(:mod:`perfbench.hostspeed`), and their times are reported at the
probe's reference speed.  ``--trace 1``
runs the first sub-trace once with every layer's entry points wrapped
in spans and once untraced, and reports the per-layer metrics.  Every
sub-trace passes through the correctness gate (:mod:`perfbench.gate`).

The last line of standard output is the result object; the line before
it holds the behaviour digests, exact work counters, terminal-state
counts and percentile sample counts.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Fresh-interpreter set-ups timed per ``--trace 0`` run, besides this
#: process's own.
COLD_SETUPS = 2


def cold_setup(workload: str, workdir: Path) -> tuple[float, float, int]:
    """Set-up wall seconds of ``workload`` in a fresh interpreter, and
    the seconds and count of the host-speed probes within them."""
    done = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "cold_setup.py"),
            workload, str(workdir),
        ],
        capture_output=True, text=True, timeout=120, check=True,
    )
    wall, probe_s, probes = done.stdout.split()[-3:]
    return float(wall), float(probe_s), int(probes)


def run_rep(workload, handle, inputs, probed=False):
    """One repetition on fresh copies of ``inputs``, through the gate."""
    from perfbench import gate, report

    requests = [r.clone_fresh() for r in inputs]
    rep = workload.run(handle, requests, probed)
    rep.terminal, problems = gate.check_run(rep.offered, rep.engines)
    rep.problems += problems
    rep.digest = gate.digest(rep.offered)
    rep.counters = report.work_counters(rep)
    rep.outcomes = report.outcomes(rep)
    return rep


def measure(workload, seed, seconds, workdir):
    """Run each of the workload's sub-traces for ``seed`` once.

    Only one sub-trace's requests and serving stack are alive at a
    time: the stack holds reference cycles, so it is collected before
    the next sub-trace's inputs are built.
    """
    parts = workload.parts(seconds)
    reps = []
    for part in range(parts):
        handle = workload.setup(workdir)
        rep = run_rep(
            workload, handle, workload.inputs(seed * parts + part),
            probed=True,
        )
        workload.close(handle)
        del handle
        rep.release()
        gc.collect()
        reps.append(rep)
    return reps


def traced(workload, inputs, workdir):
    """One traced and then one untraced repetition of one sub-trace.

    The traced repetition goes first, so it meets the same cold
    in-process caches (the forest predictor's memo) as the first
    repetition of an untraced run; its memo hit rate is then the one a
    fresh process sees.
    """
    from perfbench import layers
    from perfbench.tracing import SpanTracer

    # The gateway binds its engine callbacks at construction, so the
    # traced stack is built after the wrappers are in place.
    tracer = SpanTracer()
    patcher = layers.install(tracer)
    try:
        handle = workload.setup(workdir)
        rep = run_rep(workload, handle, inputs)
    finally:
        patcher.restore()
    workload.close(handle)
    if tracer.depth:
        rep.problems.append(f"{tracer.depth} spans left open")
    blocks: list[float] = []
    patcher = layers.time_advance(blocks)
    try:
        handle = workload.setup(workdir)
        untraced = run_rep(workload, handle, inputs)
    finally:
        patcher.restore()
    workload.close(handle)
    if untraced.gateway is not None:
        untraced.extra["advance_block_s"] = blocks
    return untraced, rep, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source under {ROOT / 'src'}",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import report
    from perfbench.hostspeed import probed
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"options: {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        handle, setup = probed(workload.setup, workdir)
        setups = [setup]
        workload.close(handle)
        del handle
        if not args.trace:
            setups += [
                cold_setup(workload.name, workdir)
                for _ in range(COLD_SETUPS)
            ]
        if args.trace:
            parts = workload.parts(args.seconds)
            untraced, rep, tracer = traced(
                workload, workload.inputs(args.seed * parts), workdir
            )
            reps = [untraced, rep]
            metrics = report.per_layer(rep, tracer, untraced)
            detail = {"self_s": dict(tracer.self_s)}
            names = report.PER_LAYER
        else:
            reps = measure(workload, args.seed, args.seconds, workdir)
            metrics, detail = report.end_to_end(reps, setups)
            names = report.END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for rep in reps for p in rep.problems]
    if args.trace and reps[0].digest != reps[1].digest and (
        workload.name != "gateway-live"
    ):
        # Same inputs on a deterministic simulator: the wrappers
        # changed what the program did.
        problems.append("traced and untraced repetitions disagree")
    for problem in problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)

    counters, terminal = Counter(), Counter()
    for rep in reps[1:] if args.trace else reps:
        counters.update(rep.counters)
        terminal.update(rep.terminal)
    detail.update(
        workload=workload.name,
        seed=args.seed,
        digests=[rep.digest for rep in reps],
        counters=dict(counters),
        terminal=dict(terminal),
    )
    print(json.dumps({"detail": detail}, sort_keys=True))
    attempted = sum(rep.outcomes["offered"] for rep in reps)
    failed = attempted - sum(rep.outcomes["completed"] for rep in reps)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit, _ in names
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
