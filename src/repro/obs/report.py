"""Render a telemetry stream into a run report: throughput table,
straggler/occupancy summary, and deterministic SVG timelines.

The input is the merged ``<store>.telemetry.jsonl`` event stream (see
DESIGN.md section 12 for the schema).  The text report is plain aligned
columns — the same no-dependency discipline as the rest of ``repro`` —
and the figures go through :mod:`repro.report.figures`, so their bytes
are a pure function of the event stream.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterator, List, Optional, Sequence

from repro.report.figures import Series, svg_lines

__all__ = ["iter_telemetry", "render_report", "write_figures"]


def iter_telemetry(path: str) -> Iterator[dict]:
    """Yield telemetry events from a JSONL file, skipping undecodable
    lines (a crashed writer's truncated tail) like the trial-store reader."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(row, dict) and "event" in row:
                yield row


def _merge_counters(summaries: Sequence[dict]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for s in summaries:
        for k, v in s.get("counters", {}).items():
            out[k] = out.get(k, 0) + int(v)
    return out


def _merge_timers(summaries: Sequence[dict]) -> Dict[str, dict]:
    out: Dict[str, dict] = {}
    for s in summaries:
        for k, v in s.get("timers", {}).items():
            cell = out.setdefault(k, {"seconds": 0.0, "count": 0})
            cell["seconds"] += float(v["seconds"])
            cell["count"] += int(v["count"])
    return out


def _merge_hists(summaries: Sequence[dict]) -> Dict[str, Dict[int, int]]:
    out: Dict[str, Dict[int, int]] = {}
    for s in summaries:
        for k, v in s.get("hists", {}).items():
            hist = out.setdefault(k, {})
            for bucket, count in v.items():
                b = int(bucket)
                hist[b] = hist.get(b, 0) + int(count)
    return out


def _hist_line(hist: Dict[int, int]) -> str:
    """Compact power-of-two histogram rendering: ``[2^k) count`` cells."""
    cells = []
    for b in sorted(hist):
        hi = 2 ** b
        lo = 0 if b == 0 else 2 ** (b - 1)
        label = "0" if b == 0 else (f"{lo}" if hi == lo * 2 and b == 1 else f"{lo}-{hi - 1}")
        cells.append(f"{label}:{hist[b]}")
    return "  ".join(cells)


def _table(rows: List[List[str]], header: List[str]) -> List[str]:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip(),
        "  ".join("-" * widths[i] for i in range(len(header))),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip())
    return lines


def render_report(events: Sequence[dict]) -> str:
    """The ``repro obs <store>`` text report."""
    events = list(events)
    heartbeats = [e for e in events if e["event"] == "heartbeat"]
    summaries = [e for e in events if e["event"] == "summary"]
    waves = [e for e in events if e["event"] == "wave"]
    merges = [e for e in events if e["event"] == "shard_merge"]
    campaigns = [e for e in events if e["event"] == "campaign"]
    notes = [e for e in events if e["event"] == "fallback_notes"]

    counters = _merge_counters(summaries)
    timers = _merge_timers(summaries)
    hists = _merge_hists(summaries)

    lines: List[str] = ["== repro.obs run report =="]
    if not events:
        lines.append("(empty telemetry stream)")
        return "\n".join(lines) + "\n"

    # -- throughput table (per source, from heartbeats) ---------------------
    if heartbeats:
        per_source: Dict[str, dict] = {}
        for hb in heartbeats:
            cell = per_source.setdefault(
                hb["source"], {"trials": 0, "blocks": 0, "elapsed": 0.0}
            )
            cell["trials"] += int(hb.get("trials", 0))
            cell["blocks"] += 1
            cell["elapsed"] = max(cell["elapsed"], float(hb.get("elapsed", 0.0)))
        rows = []
        total_trials = 0
        for source in sorted(per_source):
            cell = per_source[source]
            total_trials += cell["trials"]
            rate = cell["trials"] / cell["elapsed"] if cell["elapsed"] > 0 else 0.0
            rows.append(
                [source, str(cell["trials"]), str(cell["blocks"]),
                 f"{cell['elapsed']:.2f}", f"{rate:.1f}"]
            )
        lines.append("")
        lines.append("-- throughput (per worker, from heartbeats) --")
        lines.extend(_table(rows, ["source", "trials", "blocks", "busy s", "trials/s"]))
        if campaigns:
            c = campaigns[-1]
            elapsed = float(c.get("elapsed", 0.0))
            rate = total_trials / elapsed if elapsed > 0 else 0.0
            util = ""
            busy = sum(v["elapsed"] for v in per_source.values())
            workers = int(c.get("workers", 0)) or len(per_source)
            if elapsed > 0 and workers:
                # worker elapsed can overlap the parent's shard merge — clamp
                frac = min(busy / (elapsed * workers), 1.0)
                util = f", worker utilization {frac * 100:.0f}%"
            lines.append(
                f"campaign: {total_trials} trials in {elapsed:.2f}s "
                f"({rate:.1f} trials/s across {workers} worker(s){util})"
            )

    # -- kernel summary (straggler / occupancy / passes) --------------------
    kernel_keys = [
        k
        for k in sorted(counters)
        if not k.startswith(("campaign.", "supervise.", "store."))
    ]
    if kernel_keys or timers or hists:
        lines.append("")
        lines.append("-- kernels --")
        for name in sorted(timers):
            t = timers[name]
            per = t["seconds"] / t["count"] * 1e3 if t["count"] else 0.0
            lines.append(
                f"{name}: {t['seconds']:.3f}s over {t['count']} passes "
                f"({per:.3f} ms/pass)"
            )
        for name in kernel_keys:
            lines.append(f"{name}: {counters[name]}")
        for name in sorted(hists):
            lines.append(f"{name} (pow2 buckets): {_hist_line(hists[name])}")
        saved = counters.get("window.slots_committed", 0) - counters.get(
            "window.adv_queries", 0
        )
        if counters.get("window.adv_queries"):
            lines.append(
                f"window stepping saved {saved} adversary queries vs slot "
                f"stepping ({counters['window.adv_queries']} window calls for "
                f"{counters.get('window.slots_committed', 0)} committed slots)"
            )
        prop = counters.get("window.slots_proposed", 0)
        comm = counters.get("window.slots_committed", 0)
        if prop:
            lines.append(
                f"window committed-prefix fraction: {comm / prop * 100:.1f}% "
                f"({comm}/{prop} speculative slots kept)"
            )
        part = counters.get("window.participants", 0)
        cells = counters.get("window.node_slots", 0)
        if cells:
            lines.append(
                f"window participant share: {part / cells * 100:.2f}% "
                f"({part} participants served over {cells} proposed node-slots)"
            )

    # -- adaptive wave trajectory ------------------------------------------
    if waves:
        lines.append("")
        lines.append("-- adaptive waves (CI-width trajectory) --")
        rows = []
        for w in waves:
            widths = w.get("rel_ci", {})
            worst = max(widths.values()) if widths else float("nan")
            rows.append(
                [str(w.get("wave", "?")), str(w.get("cells_open", "?")),
                 str(w.get("scheduled", "?")),
                 f"{worst:.4f}" if widths else "n/a"]
            )
        lines.extend(_table(rows, ["wave", "open cells", "scheduled", "worst rel CI"]))

    # -- supervision: faults seen and recovery actions taken ----------------
    supervise_keys = [
        k
        for k in sorted(counters)
        if k.startswith(("supervise.", "store."))
    ]
    fault_events = [
        e
        for e in events
        if e["event"] in ("retry", "respawn", "straggler", "quarantine", "degrade")
    ]
    if supervise_keys or fault_events:
        lines.append("")
        lines.append("-- faults / recovery --")
        for name in supervise_keys:
            lines.append(f"{name}: {counters[name]}")
        for e in fault_events:
            kind = e["event"]
            if kind == "retry":
                lines.append(
                    f"retry: block {e.get('block', '?')} attempt "
                    f"{e.get('attempt', '?')} ({e.get('error', '?')})"
                )
            elif kind == "respawn":
                lines.append(
                    f"respawn: pool #{e.get('respawns', '?')} with "
                    f"{e.get('blocks_left', '?')} block(s) outstanding"
                )
            elif kind == "straggler":
                lines.append(
                    f"straggler: block {e.get('block', '?')} re-dispatched "
                    f"(attempt {e.get('attempt', '?')})"
                )
            elif kind == "quarantine":
                lines.append(
                    f"quarantine: {e.get('key', '?')} after "
                    f"{e.get('attempts', '?')} attempt(s) ({e.get('error', '?')})"
                )
            else:
                lines.append(
                    f"degrade: {e.get('blocks', '?')} block(s) finished "
                    f"in-process after repeated pool deaths"
                )

    # -- recovery + fallbacks ----------------------------------------------
    if merges:
        lines.append("")
        for m in merges:
            lines.append(
                f"shard-merge recovery: {m.get('records', '?')} record(s) "
                f"folded in at campaign open"
            )
    for note_event in notes:
        snapshot = note_event.get("notes", [])
        if snapshot:
            lines.append("")
            lines.append("-- fallback notes --")
            for info in snapshot:
                lines.append(
                    f"{info.get('protocol', '?')}: {info.get('reason', '?')} "
                    f"({info.get('lanes', 0)} lane(s), {info.get('passes', 0)} pass(es))"
                )
    return "\n".join(lines) + "\n"


def write_figures(events: Sequence[dict], outdir: str) -> List[str]:
    """Emit deterministic SVG timelines for the event stream; returns the
    list of files written.  Figures needing absent events are skipped."""
    events = list(events)
    os.makedirs(outdir, exist_ok=True)
    written: List[str] = []

    heartbeats = [e for e in events if e["event"] == "heartbeat"]
    if heartbeats:
        per_source: Dict[str, List[dict]] = {}
        for hb in heartbeats:
            per_source.setdefault(hb["source"], []).append(hb)
        series = []
        for source in sorted(per_source):
            hbs = sorted(per_source[source], key=lambda e: e["seq"])
            xs = [float(hb.get("elapsed", 0.0)) for hb in hbs]
            ys = [float(hb.get("trials_per_s", 0.0)) for hb in hbs]
            series.append(Series(label=source, x=xs, y=ys))
        path = os.path.join(outdir, "telemetry_throughput.svg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                svg_lines(
                    series,
                    title="Worker throughput over time",
                    xlabel="elapsed (s)",
                    ylabel="trials/s",
                )
            )
        written.append(path)

    depth = [e for e in events if e["event"] == "queue_depth"]
    if depth:
        depth = sorted(depth, key=lambda e: e["seq"])
        path = os.path.join(outdir, "telemetry_queue_depth.svg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                svg_lines(
                    [
                        Series(
                            label="pending blocks",
                            x=[float(e.get("elapsed", 0.0)) for e in depth],
                            y=[float(e.get("pending", 0)) for e in depth],
                        )
                    ],
                    title="Block queue depth over time",
                    xlabel="elapsed (s)",
                    ylabel="pending blocks",
                )
            )
        written.append(path)

    waves = [e for e in events if e["event"] == "wave"]
    wave_pts = [
        (int(w["wave"]), max(w["rel_ci"].values()))
        for w in waves
        if w.get("rel_ci")
    ]
    if wave_pts:
        wave_pts.sort()
        path = os.path.join(outdir, "telemetry_ci_trajectory.svg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                svg_lines(
                    [
                        Series(
                            label="worst open-cell rel CI95",
                            x=[float(w) for w, _ in wave_pts],
                            y=[float(c) for _, c in wave_pts],
                        )
                    ],
                    title="Adaptive-wave CI-width trajectory",
                    xlabel="wave",
                    ylabel="relative CI95 half-width",
                )
            )
        written.append(path)
    return written
