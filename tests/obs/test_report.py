"""The run report and its figures: pure functions of the event stream.

``render_report`` / ``write_figures`` consume the merged telemetry JSONL;
both must be deterministic (same events -> same bytes) and tolerant of
partial streams (a crashed run has heartbeats but no summary, an
oblivious campaign has no wave events, ...).
"""

import json

from repro.obs.report import iter_telemetry, render_report, write_figures


def _events():
    """A synthetic but schema-faithful two-worker campaign stream."""
    return [
        {"event": "heartbeat", "source": "worker-0", "seq": 0,
         "elapsed": 1.0, "trials": 8, "block_s": 1.0, "trials_per_s": 8.0},
        {"event": "heartbeat", "source": "worker-1", "seq": 0,
         "elapsed": 2.0, "trials": 8, "block_s": 2.0, "trials_per_s": 4.0},
        {"event": "queue_depth", "source": "main", "seq": 0,
         "elapsed": 1.0, "pending": 1},
        {"event": "queue_depth", "source": "main", "seq": 1,
         "elapsed": 2.0, "pending": 0},
        {"event": "wave", "source": "main", "seq": 2, "wave": 1,
         "scheduled": 8, "cells_open": 2, "rel_ci": {"cell-a": 0.5, "cell-b": 0.2}},
        {"event": "wave", "source": "main", "seq": 3, "wave": 2,
         "scheduled": 4, "cells_open": 1, "rel_ci": {"cell-a": 0.1}},
        {"event": "shard_merge", "source": "main", "seq": 4,
         "records": 3, "shards": 2},
        {"event": "fallback_notes", "source": "main", "seq": 5,
         "notes": [{"protocol": "scalar-only", "reason": "no run_batch",
                    "lanes": 4, "passes": 2}]},
        {"event": "campaign", "source": "main", "seq": 6,
         "trials": 16, "workers": 2, "elapsed": 2.0},
        {"event": "summary", "source": "main", "seq": 7,
         "counters": {"batch.kernel_passes": 12, "window.adv_queries": 3,
                      "window.slots_proposed": 40, "window.slots_committed": 30,
                      "window.participants": 64, "window.node_slots": 640},
         "timers": {"batch.kernel_s": {"seconds": 1.2, "count": 12}},
         "hists": {"batch.occupancy": {"0": 1, "3": 5}}},
    ]


class TestRenderReport:
    def test_report_is_deterministic(self):
        assert render_report(_events()) == render_report(_events())

    def test_sections_cover_the_stream(self):
        text = render_report(_events())
        assert "== repro.obs run report ==" in text
        # throughput: per-source rows and the campaign utilization line
        assert "worker-0" in text and "worker-1" in text
        assert "16 trials in 2.00s" in text
        # busy = 1.0 + 2.0 over elapsed 2.0 x 2 workers = 75%
        assert "worker utilization 75%" in text
        # kernels: timer with ms/pass, counters, histogram
        assert "batch.kernel_s: 1.200s over 12 passes (100.000 ms/pass)" in text
        assert "batch.kernel_passes: 12" in text
        assert "batch.occupancy (pow2 buckets)" in text
        # window derived lines: queries saved + committed-prefix fraction
        assert "saved 27 adversary queries" in text
        assert "committed-prefix fraction: 75.0% (30/40" in text
        assert "participant share: 10.00% (64 participants served over 640" in text
        # wave trajectory: worst open-cell CI per wave
        assert "0.5000" in text and "0.1000" in text
        # recovery + fallback notes
        assert "shard-merge recovery: 3 record(s)" in text
        assert "scalar-only: no run_batch (4 lane(s), 2 pass(es))" in text

    def test_empty_stream(self):
        assert "empty telemetry stream" in render_report([])

    def test_no_faults_section_on_a_clean_run(self):
        assert "faults / recovery" not in render_report(_events())

    def test_faults_section_renders_recovery_actions(self):
        events = _events() + [
            {"event": "retry", "source": "main", "seq": 8,
             "block": "cell/t0", "attempt": 1, "error": "ValueError: boom"},
            {"event": "respawn", "source": "main", "seq": 9,
             "respawns": 1, "blocks_left": 2},
            {"event": "straggler", "source": "main", "seq": 10,
             "block": "cell/t8", "attempt": 1},
            {"event": "quarantine", "source": "main", "seq": 11,
             "key": "cell/t5", "attempts": 4, "error": "ValueError: boom"},
            {"event": "degrade", "source": "main", "seq": 12, "blocks": 3},
            {"event": "summary", "source": "main", "seq": 13,
             "counters": {"supervise.retries": 1, "supervise.respawns": 1,
                          "store.torn_rows": 2}},
        ]
        text = render_report(events)
        assert "-- faults / recovery --" in text
        assert "supervise.retries: 1" in text
        assert "store.torn_rows: 2" in text
        assert "retry: block cell/t0 attempt 1 (ValueError: boom)" in text
        assert "respawn: pool #1 with 2 block(s) outstanding" in text
        assert "straggler: block cell/t8 re-dispatched (attempt 1)" in text
        assert "quarantine: cell/t5 after 4 attempt(s)" in text
        assert "degrade: 3 block(s) finished in-process" in text

    def test_supervision_counters_stay_out_of_the_kernel_section(self):
        events = _events() + [
            {"event": "summary", "source": "main", "seq": 8,
             "counters": {"supervise.retries": 1, "store.corrupt_rows": 1}},
        ]
        text = render_report(events)
        kernels = text.split("-- kernels --")[1].split("--")[0]
        assert "supervise." not in kernels
        assert "store." not in kernels

    def test_partial_stream_renders(self):
        # a crashed run: heartbeats only, no summary/campaign events
        text = render_report([e for e in _events() if e["event"] == "heartbeat"])
        assert "worker-0" in text


class TestWriteFigures:
    def test_writes_all_three_timelines(self, tmp_path):
        written = write_figures(_events(), str(tmp_path))
        names = sorted(p.rsplit("/", 1)[-1] for p in written)
        assert names == [
            "telemetry_ci_trajectory.svg",
            "telemetry_queue_depth.svg",
            "telemetry_throughput.svg",
        ]
        for path in written:
            body = open(path).read()
            assert body.startswith("<svg") and body.rstrip().endswith("</svg>")

    def test_figures_are_deterministic_bytes(self, tmp_path):
        a = write_figures(_events(), str(tmp_path / "a"))
        b = write_figures(_events(), str(tmp_path / "b"))
        for pa, pb in zip(a, b):
            assert open(pa, "rb").read() == open(pb, "rb").read()

    def test_skips_figures_without_events(self, tmp_path):
        written = write_figures(
            [e for e in _events() if e["event"] == "queue_depth"], str(tmp_path)
        )
        assert [p.rsplit("/", 1)[-1] for p in written] == [
            "telemetry_queue_depth.svg"
        ]


class TestIterTelemetry:
    def test_skips_torn_and_foreign_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps({"event": "ok", "source": "main", "seq": 0}) + "\n"
            + '{"torn": tru\n'
            + '[1, 2, 3]\n'
            + json.dumps({"no_event_key": 1}) + "\n"
            + "\n"
            + json.dumps({"event": "ok2", "source": "main", "seq": 1}) + "\n"
        )
        assert [e["event"] for e in iter_telemetry(str(path))] == ["ok", "ok2"]
