"""Tests for the JSONL result store: append, reload, resume, aggregation."""

import json

from repro.exp import (
    CampaignSpec,
    ResultStore,
    TrialRecord,
    aggregate,
    run_campaign,
    run_trial,
)


def _record(trial=0, protocol="multicast", success=True, slots=100, max_cost=10):
    return TrialRecord(
        key=f"{protocol}/blanket/n16/T1000/s0/t{trial}",
        protocol=protocol,
        jammer="blanket",
        n=16,
        budget=1000,
        trial=trial,
        success=success,
        slots=slots,
        max_cost=max_cost,
        mean_cost=float(max_cost) / 2,
        adversary_spend=1000,
        dissemination_slot=slots - 1 if success else None,
        halted_uninformed=0 if success else 2,
        periods=1,
    )


class TestResultStore:
    def test_append_reload_round_trip(self, tmp_path):
        path = tmp_path / "r.jsonl"
        with ResultStore(str(path)) as store:
            store.append(_record(0))
            store.append(_record(1, slots=200))
        again = ResultStore(str(path))
        assert len(again) == 2
        assert again.completed_keys() == {_record(0).key, _record(1).key}
        assert [r.slots for r in again.records()] == [100, 200]

    def test_duplicate_keys_ignored(self, tmp_path):
        path = tmp_path / "r.jsonl"
        with ResultStore(str(path)) as store:
            store.append(_record(0, slots=100))
            store.append(_record(0, slots=999))
        assert len(ResultStore(str(path))) == 1
        assert ResultStore(str(path)).records()[0].slots == 100

    def test_flushed_per_append(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = ResultStore(str(path))
        store.append(_record(0))
        # visible to a concurrent reader before close(): the crash-safety story
        assert len(path.read_text().strip().splitlines()) == 1
        store.close()

    def test_memory_only_store(self):
        store = ResultStore(None)
        store.append(_record(0))
        assert len(store) == 1

    def test_rows_serialized_only_when_persisted(self, tmp_path, monkeypatch):
        """A memory-only store never serializes a row; an on-disk one
        serializes each row once, and writes what the serializer makes."""
        monkeypatch.setenv("REPRO_ZERO_WALL", "1")
        serialize = TrialRecord.to_json_line
        calls = []

        def spy(record):
            calls.append(record.key)
            return serialize(record)

        monkeypatch.setattr(TrialRecord, "to_json_line", spy)
        c = CampaignSpec(protocols=["multicast"], jammers=["random"], ns=[8], trials=20, budget=2000)
        in_memory = run_campaign(c, workers=1)
        assert len(in_memory) == 20 and calls == []
        path = tmp_path / "r.jsonl"
        with ResultStore(str(path)) as store:
            run_campaign(c, store, workers=1)
        assert len(calls) == 20
        assert sorted(path.read_text().splitlines()) == sorted(
            serialize(r) for r in in_memory
        )

    def test_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text(_record(0).to_json_line() + "\n\n")
        assert len(ResultStore(str(path))) == 1


class TestAggregate:
    def test_cells_and_summaries(self):
        records = [
            _record(0, slots=100, max_cost=10),
            _record(1, slots=300, max_cost=30),
            _record(0, protocol="core", success=False, slots=50),
        ]
        cells = aggregate(records)
        assert [c.cell for c in cells] == [
            ("core", "blanket", 16, 1000, None),
            ("multicast", "blanket", 16, 1000, None),
        ]
        core, mc = cells
        assert core.success_rate == 0.0 and core.violations == 2
        assert mc.success_rate == 1.0 and mc.trials == 2
        assert mc.summary("slots").mean == 200.0
        assert mc.summary("max_cost").lo == 10 and mc.summary("max_cost").hi == 30
        assert mc.competitiveness == 20.0 / 1000

    def test_channel_limited_cells_stay_separate(self):
        a, b = _record(0), _record(0)
        a.channels, a.key = 1, a.key + "/C1"
        b.channels, b.key = 2, b.key + "/C2"
        cells = aggregate([a, b])
        assert len(cells) == 2
        assert [c.channels for c in cells] == [1, 2]

    def test_order_independent(self):
        records = [_record(t, slots=100 * (t + 1)) for t in range(4)]
        fwd = aggregate(records)
        rev = aggregate(list(reversed(records)))
        assert json.dumps([c.summaries["slots"].__dict__ for c in fwd]) == json.dumps(
            [c.summaries["slots"].__dict__ for c in rev]
        )

    def test_round_trips_real_trial(self, tmp_path):
        c = CampaignSpec(protocols=["multicast"], jammers=["blanket"], ns=[16], trials=1, budget=5000)
        (spec,) = c.trial_specs()
        rec = run_trial(spec)
        path = tmp_path / "r.jsonl"
        with ResultStore(str(path)) as store:
            store.append(rec)
        loaded = ResultStore(str(path)).records()[0]
        rec.wall_time = loaded.wall_time = 0.0
        assert loaded == rec
