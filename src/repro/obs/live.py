"""Live telemetry snapshots and the ``repro top`` dashboard.

:func:`build_live_snapshot` freezes one JSON-safe frame of a running
gateway's state — virtual time, queue depth, admission bucket fill,
per-tier goodput, windowed sketch quantiles and burn rates — the frame
``GET /v1/live`` streams as server-sent events.  Everything is read
from the gateway's always-on state plus (when a
:class:`~repro.obs.observer.TracingObserver` is attached) its metrics
registry, so a snapshot never perturbs the simulation: admission
bucket fill uses the non-mutating peek, and no event is consumed.

:func:`render_top` turns a frame into the fixed-width terminal
dashboard (``repro top``); :func:`render_incidents` does the same for
a flight-recorder incident file (``repro top --incidents``).
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping

#: Quantiles shown per latency sketch in live frames.
LIVE_QUANTILES: tuple[float, ...] = (0.50, 0.95, 0.99)

#: Latency sketch families surfaced in live frames, keyed by the label
#: used in the frame.
_LATENCY_FAMILIES = {
    "ttft": "repro_request_ttft_seconds",
    "ttlt": "repro_request_ttlt_seconds",
    "tbt": "repro_request_tbt_seconds",
}

#: Burn-rate windows kept per frame (the most recent ones).
_BURN_WINDOWS = 8


def _jsonsafe(value: float | None) -> float | None:
    """None for non-finite floats so frames stay strict JSON."""
    if value is None or not math.isfinite(value):
        return None
    return value


def _tier_goodput(offered: Iterable[Any]) -> dict[str, dict[str, Any]]:
    """Per-tier goodput from the gateway's offered-request ledger."""
    out: dict[str, dict[str, Any]] = {}
    for request in offered:
        tier = request.qos.name
        row = out.setdefault(tier, {
            "offered": 0, "completed": 0, "violated": 0, "shed": 0,
        })
        row["offered"] += 1
        if getattr(request, "shed", False):
            row["shed"] += 1
        elif request.completion_time is not None:
            row["completed"] += 1
            if request.violated_deadline:
                row["violated"] += 1
    for row in out.values():
        row["goodput"] = (
            (row["completed"] - row["violated"]) / row["offered"]
            if row["offered"] else 0.0
        )
    return dict(sorted(out.items()))


def _sketch_quantiles(registry: Any) -> dict[str, dict[str, dict[str, Any]]]:
    """Per-tier quantiles for every live latency family."""
    by_name = {family.name: family for family in registry.families()}
    out: dict[str, dict[str, dict[str, Any]]] = {}
    for label, name in _LATENCY_FAMILIES.items():
        family = by_name.get(name)
        if family is None or family.kind != "sketch":
            continue
        tiers: dict[str, dict[str, Any]] = {}
        for labelvalues, child in sorted(family.series().items()):
            tier = labelvalues[0] if labelvalues else ""
            tiers[tier] = {
                "count": child.count,
                **{
                    f"p{int(q * 100)}": _jsonsafe(
                        child.quantile(q) if child.count else None
                    )
                    for q in LIVE_QUANTILES
                },
            }
        if tiers:
            out[label] = tiers
    return out


def build_live_snapshot(gateway: Any) -> dict[str, Any]:
    """One JSON-safe telemetry frame from a :class:`ServeGateway`.

    Works with any observer: the always-on gateway state is always
    present; sketch quantiles, burn rates and incident counts appear
    when the attached observer (or its flight recorder) provides them.
    """
    now = gateway.session.now
    snapshot: dict[str, Any] = {
        "virtual_now": now,
        "speed": _jsonsafe(gateway.clock.speed),
        "queue_depth": gateway.session.queue_depth(),
        "gateway": gateway.stats.to_dict(),
        "token_bucket_fill": gateway.admission.fill_levels(now),
        "goodput": _tier_goodput(gateway.offered),
    }
    fleet_snapshot = getattr(gateway, "_fleet_snapshot", None)
    fleet = fleet_snapshot() if fleet_snapshot is not None else None
    if fleet is not None:
        snapshot["fleet"] = fleet
    observer = gateway.session.observer
    registry = getattr(observer, "registry", None)
    if registry is not None:
        snapshot["latency_quantiles"] = _sketch_quantiles(registry)
    burn = getattr(observer, "burn_rate", None)
    if burn is not None:
        snapshot["burn_rate"] = {
            "max": burn.max_burn_rate(),
            "windows": burn.series()[-_BURN_WINDOWS:],
        }
    recorder = getattr(observer, "flight_recorder", None)
    if recorder is not None:
        snapshot["incidents"] = {
            "triggered": recorder.triggered,
            "written": recorder.incidents_written,
            "path": str(recorder.path),
        }
    return snapshot


# --- terminal rendering ---------------------------------------------------


def _fmt(value: Any, places: int = 3) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{places}f}"
    return str(value)


def _table(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines.extend(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
        for row in rows
    )
    return lines


def render_top(snapshot: Mapping[str, Any]) -> str:
    """Fixed-width dashboard for one live frame (``repro top``)."""
    speed = snapshot.get("speed")
    lines = [
        "repro top — "
        f"virtual t={_fmt(snapshot.get('virtual_now'))}s  "
        f"speed={'inf' if speed is None else _fmt(speed, 1)}  "
        f"queue_depth={snapshot.get('queue_depth', 0)}",
        "",
    ]

    goodput = snapshot.get("goodput", {})
    rows = [
        [
            tier,
            str(row["offered"]), str(row["completed"]),
            str(row["violated"]), str(row["shed"]),
            f"{row['goodput'] * 100:.1f}%",
            _fmt(snapshot.get("token_bucket_fill", {}).get(tier), 1),
        ]
        for tier, row in goodput.items()
    ]
    lines += _table(
        ["tier", "offered", "done", "violated", "shed", "goodput",
         "bucket"],
        rows,
    )

    quantiles = snapshot.get("latency_quantiles") or {}
    for label in ("ttft", "ttlt", "tbt"):
        tiers = quantiles.get(label)
        if not tiers:
            continue
        lines.append("")
        lines += _table(
            [label, "count"] + [
                f"p{int(q * 100)}" for q in LIVE_QUANTILES
            ],
            [
                [tier, str(row.get("count", 0))] + [
                    _fmt(row.get(f"p{int(q * 100)}"))
                    for q in LIVE_QUANTILES
                ]
                for tier, row in tiers.items()
            ],
        )

    fleet = snapshot.get("fleet")
    if fleet is not None:
        by_hw = " ".join(
            f"{name}={count}"
            for name, count in sorted(fleet["by_hardware"].items())
        )
        lines.append("")
        lines.append(
            f"fleet: {fleet['size']} provisioned "
            f"({fleet['active']} active)  {by_hw}  "
            f"alive={_fmt(fleet['alive_fraction'], 2)}  "
            f"burn={_fmt(fleet['burn_rate'], 2)}x  "
            f"gpu_hours={_fmt(fleet['gpu_hours'], 3)}  "
            f"faults_skipped={fleet['faults_skipped']}"
        )

    burn = snapshot.get("burn_rate")
    if burn is not None:
        lines.append("")
        lines.append(f"burn rate: max {_fmt(burn.get('max'), 2)}x budget")
        for window in burn.get("windows", []):
            bar = "#" * min(40, int(round(window["burn_rate"])))
            lines.append(
                f"  [{_fmt(window['start'], 0)}s-"
                f"{_fmt(window['end'], 0)}s) "
                f"{window['violated']}/{window['total']} "
                f"burn={_fmt(window['burn_rate'], 2)} {bar}"
            )

    incidents = snapshot.get("incidents")
    if incidents is not None:
        lines.append("")
        lines.append(
            f"incidents: {incidents['written']} written "
            f"({incidents['triggered']} triggered) -> "
            f"{incidents['path']}"
        )
    return "\n".join(lines)


def render_incidents(incidents: list[Mapping[str, Any]]) -> str:
    """Tabular rendering of a flight-recorder incident file."""
    if not incidents:
        return "(no incidents recorded)"
    rows = []
    for incident in incidents:
        rows.append([
            incident.get("trigger", "?"),
            _fmt(incident.get("ts")),
            _fmt(incident.get("request_id")),
            str(incident.get("tier") or "-"),
            str(incident.get("dominant_cause") or "-"),
            (
                _fmt(incident.get("burn_rate"), 2)
                if incident.get("burn_rate") is not None else "-"
            ),
            str(incident.get("num_events", 0)),
        ])
    lines = _table(
        ["trigger", "ts", "request", "tier", "dominant_cause",
         "burn", "events"],
        rows,
    )
    lines.append("")
    lines.append(f"{len(incidents)} incident(s)")
    return "\n".join(lines)
