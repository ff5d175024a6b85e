#!/usr/bin/env python3
"""Quickstart: serve a mixed-QoS workload on one simulated replica.

Builds a 500-request trace of the Azure Code workload split across the
paper's three QoS tiers (Table 3), serves it with the QoServe scheduler
on a simulated Llama3-8B / A100 replica, and prints the latency and
SLO-violation summary.

Run:
    python examples/quickstart.py
"""

from repro import (
    AZURE_CODE,
    PoissonArrivals,
    ServeConfig,
    Session,
    TierAssigner,
    TraceBuilder,
)


def main() -> None:
    # 1. The workload: Azure Code lengths, Poisson arrivals at 3 QPS,
    #    requests split equally across Q1/Q2/Q3 (Table 3).
    trace = TraceBuilder(
        AZURE_CODE,
        arrivals=PoissonArrivals(qps=3.0),
        tier_assigner=TierAssigner(),
        seed=7,
    ).build(500)

    # 2. The serving stack: full QoServe — hybrid prioritization,
    #    dynamic chunking with the trained random-forest predictor,
    #    eager relegation, selective preemption — on one simulated
    #    Llama3-8B / A100 replica (Table 1, row 1).
    session = Session(ServeConfig(deployment="llama3-8b",
                                  scheduler="qoserve"))

    # 3. Simulate to completion.
    for request in trace:
        session.submit(request)
    session.drain()

    # 4. Report.
    summary = session.summary()
    print(f"requests: {summary.num_requests}  "
          f"finished: {summary.finished}")
    print(f"simulated span: {session.now:.0f}s, "
          f"iterations: {session.engine.iterations_run}")
    print()
    print("governing latency per tier (p50 / p99 seconds):")
    for tier in ("Q1", "Q2", "Q3"):
        p50 = summary.tier_percentile(tier, 0.50)
        p99 = summary.tier_percentile(tier, 0.99)
        print(f"  {tier}: {p50:8.2f} / {p99:8.2f}")
    print()
    violations = summary.violations
    print(f"SLO violations: {violations.overall_pct:.2f}% overall "
          f"(Q1 {violations.tier('Q1'):.1f}%, "
          f"Q2 {violations.tier('Q2'):.1f}%, "
          f"Q3 {violations.tier('Q3'):.1f}%)")
    print(f"TBT deadline misses among on-time interactive requests: "
          f"{violations.tbt_miss_pct:.2f}%")
    print(f"relegated: {violations.relegated_pct:.2f}%")


if __name__ == "__main__":
    main()
