"""The telemetry hard contract: trial stores are byte-identical on and off.

Telemetry writes to a side channel (``<store>.telemetry.jsonl``) and must
never perturb a trial row.  The one physical field in a row — ``wall_time``
— is zeroed via the ``REPRO_ZERO_WALL`` escape hatch (an env var, so it
survives the fork into pool workers), after which "never perturb" sharpens
to *byte-identical store files*.  Pinned here across the three execution
shapes the ISSUE names: serial, sharded (workers=3), and the windowed
arena (a reactive latency-2 jammer).  The same runs double as the
fallback-note contract: the merged telemetry stream carries the campaign's
FallbackNotes exactly once.
"""

import json

import pytest

from repro.core import MultiCast
from repro.exp import CampaignSpec, ResultStore, run_campaign
from repro.exp.pool import ZERO_WALL_ENV
from repro.obs.recorder import active, telemetry_path


@pytest.fixture(autouse=True)
def zero_wall(monkeypatch):
    monkeypatch.setenv(ZERO_WALL_ENV, "1")


def campaign(jammers):
    return CampaignSpec(
        protocols=["multicast"],
        jammers=jammers,
        ns=[16],
        budget=3000,
        trials=4,
        base_seed=7,
    )


def run(tmp_path, name, spec, *, workers, telemetry):
    path = str(tmp_path / f"{name}.jsonl")
    with ResultStore(path) as store:
        run_campaign(spec, store, workers=workers, telemetry=telemetry)
    return path


CONFIGS = [
    ("serial", ["blanket"], 1),
    ("sharded", ["blanket", "sweep"], 3),
    ("windowed-arena", ["reactive:2"], 1),
    ("windowed-arena-sharded", ["reactive:2"], 3),
]


@pytest.mark.parametrize("name,jammers,workers", CONFIGS)
def test_store_bytes_identical_with_telemetry_on_and_off(
    tmp_path, name, jammers, workers
):
    spec = campaign(jammers)
    off = run(tmp_path, f"{name}-off", spec, workers=workers, telemetry=False)
    on = run(tmp_path, f"{name}-on", spec, workers=workers, telemetry=True)
    with open(off, "rb") as a, open(on, "rb") as b:
        assert a.read() == b.read(), name
    # and the side channel actually materialized, ending in the parent summary
    rows = [json.loads(line) for line in open(telemetry_path(on))]
    assert rows, "telemetry-on run produced no events"
    assert rows[-1]["event"] == "summary"
    assert rows[-1]["source"] == "main"


def test_sharded_telemetry_merges_worker_events(tmp_path):
    spec = campaign(["blanket"])
    on = run(tmp_path, "workers", spec, workers=3, telemetry=True)
    rows = [json.loads(line) for line in open(telemetry_path(on))]
    events = {r["event"] for r in rows}
    assert "heartbeat" in events and "campaign" in events
    # worker heartbeats survive the shard merge under their own source tag
    assert any(r["source"].startswith("worker-") for r in rows)
    # aggregates travel via futures, not shards: exactly one summary (parent)
    summaries = [r for r in rows if r["event"] == "summary"]
    assert len(summaries) == 1
    assert summaries[0]["counters"].get("batch.kernel_passes", 0) > 0
    # no shard files survive the closing merge
    import glob

    assert glob.glob(f"{on}.telemetry.shard-*") == []


def test_fallback_notes_appear_exactly_once_in_merged_telemetry(
    tmp_path, monkeypatch
):
    # MultiCast with its lane kernel hidden: every lane in every worker
    # runs the scalar fallback (forked workers inherit the patch), which
    # FallbackNotes tallies campaign-wide
    monkeypatch.delattr(MultiCast, "run_stream")
    spec = campaign(["blanket"])
    on = run(tmp_path, "notes", spec, workers=3, telemetry=True)
    rows = [json.loads(line) for line in open(telemetry_path(on))]
    note_events = [r for r in rows if r["event"] == "fallback_notes"]
    assert len(note_events) == 1
    (note,) = note_events[0]["notes"]
    assert note["reason"] == "has no run_stream"
    assert note["lanes"] == len(spec)
    # the fallback-lane counter made it into the parent summary too
    (summary,) = [r for r in rows if r["event"] == "summary"]
    assert summary["counters"].get("batch.fallback_lanes", 0) == len(spec)


def test_windowed_arena_counters_reach_the_summary(tmp_path):
    spec = campaign(["reactive:2"])
    on = run(tmp_path, "window", spec, workers=1, telemetry=True)
    rows = [json.loads(line) for line in open(telemetry_path(on))]
    (summary,) = [r for r in rows if r["event"] == "summary"]
    counters = summary["counters"]
    assert counters.get("window.passes", 0) > 0
    assert counters.get("window.slots_committed", 0) > 0
    assert "window.proposed" in summary["hists"]


def test_adaptive_campaign_emits_wave_trajectory(tmp_path):
    spec = CampaignSpec(
        protocols=["multicast"],
        jammers=["blanket"],
        ns=[16],
        budget=3000,
        trials=2,
        base_seed=7,
        ci_target=0.9,
        max_trials=6,
    )
    on = run(tmp_path, "adaptive", spec, workers=1, telemetry=True)
    rows = [json.loads(line) for line in open(telemetry_path(on))]
    waves = [r for r in rows if r["event"] == "wave"]
    assert waves, "adaptive run emitted no wave events"
    assert waves[0]["wave"] == 1
    assert waves[0]["scheduled"] > 0
    for row in waves:
        assert isinstance(row["rel_ci"], dict)


def test_telemetry_requires_an_on_disk_store():
    with pytest.raises(ValueError, match="on-disk store"):
        run_campaign(campaign(["blanket"]), ResultStore(None), telemetry=True)


def test_campaign_leaves_no_recorder_installed(tmp_path):
    run(tmp_path, "clean", campaign(["blanket"]), workers=1, telemetry=True)
    assert active() is None


def test_crash_leftover_shards_fold_into_next_run(tmp_path):
    # simulate a killed worker's orphan shard, then run a telemetry campaign
    # against the same store: the orphan's events must lead the merged stream
    spec = campaign(["blanket"])
    path = str(tmp_path / "crash.jsonl")
    from repro.obs.merge import telemetry_shard_path

    with open(telemetry_shard_path(path, 5), "w") as fh:
        fh.write(json.dumps({"event": "orphan", "source": "worker-5", "seq": 0}) + "\n")
    with ResultStore(path) as store:
        run_campaign(spec, store, workers=1, telemetry=True)
    rows = [json.loads(line) for line in open(telemetry_path(path))]
    assert rows[0]["event"] == "orphan"
    assert rows[-1]["event"] == "summary"
