"""Tests for the campaign pool: parallel == serial, resume, progress."""

import dataclasses
import json
import types

import pytest

from repro.exp import (
    CampaignSpec,
    ResultStore,
    aggregate,
    run_campaign,
    run_trial,
    run_trial_batch,
)
from repro.core.batch import DEFAULT_LANE_WIDTH, stream_width
from repro.exp.pool import STREAM_BLOCK_FACTOR, _lane_blocks
from repro.exp.registry import build_protocol, protocol_names


def small_campaign(**overrides):
    kwargs = dict(
        protocols=["multicast", "core"],
        jammers=["blanket", "sweep"],
        ns=[16],
        budget=4000,
        trials=3,
        base_seed=11,
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


def aggregate_bytes(records) -> str:
    """Canonical byte string of the aggregate statistics (the determinism oracle)."""
    cells = aggregate(records)
    return json.dumps(
        [
            {
                "cell": list(c.cell),
                "trials": c.trials,
                "success_rate": c.success_rate,
                "violations": c.violations,
                "summaries": {m: s.__dict__ for m, s in sorted(c.summaries.items())},
            }
            for c in cells
        ],
        sort_keys=True,
    )


class TestRunTrial:
    def test_reproducible_from_spec_alone(self):
        (spec,) = small_campaign(protocols=["multicast"], jammers=["blanket"], trials=1).trial_specs()
        a, b = run_trial(spec), run_trial(spec)
        a.wall_time = b.wall_time = 0.0
        assert a == b

    def test_jammer_none_runs_clean(self):
        (spec,) = small_campaign(protocols=["multicast"], jammers=["none"], trials=1).trial_specs()
        rec = run_trial(spec)
        assert rec.success and rec.adversary_spend == 0


class TestRunCampaign:
    def test_parallel_matches_serial_byte_identically(self):
        c = small_campaign()
        serial = run_campaign(c, workers=1)
        parallel = run_campaign(c, workers=3)
        assert aggregate_bytes(serial) == aggregate_bytes(parallel)

    def test_records_cover_grid_in_key_order(self):
        c = small_campaign(trials=2)
        records = run_campaign(c, workers=2)
        assert len(records) == len(c)
        assert [r.key for r in records] == sorted(r.key for r in records)
        assert {r.key for r in records} == {s.key() for s in c.trial_specs()}

    def test_resume_skips_completed_trials(self, tmp_path):
        c = small_campaign(protocols=["multicast"], trials=3)
        path = tmp_path / "r.jsonl"
        full = run_campaign(c, ResultStore(str(path)), workers=1)
        # second run with the same store: nothing pending
        ran = []
        again = run_campaign(
            c,
            ResultStore(str(path)),
            workers=1,
            progress=lambda done, total, rec: ran.append(rec.key),
        )
        assert ran == []
        assert aggregate_bytes(again) == aggregate_bytes(full)

    def test_partial_store_resumes_to_identical_aggregates(self, tmp_path):
        c = small_campaign(protocols=["multicast"], trials=4)
        reference = run_campaign(c, workers=1)
        # simulate an interrupt: only half the records made it to disk
        path = tmp_path / "r.jsonl"
        with ResultStore(str(path)) as store:
            for rec in reference[: len(reference) // 2]:
                store.append(rec)
        ran = []
        resumed = run_campaign(
            c,
            ResultStore(str(path)),
            workers=2,
            progress=lambda done, total, rec: ran.append(rec.key),
        )
        assert len(ran) == len(reference) - len(reference) // 2
        assert aggregate_bytes(resumed) == aggregate_bytes(reference)

    def test_shared_store_returns_only_campaign_records(self, tmp_path):
        path = tmp_path / "shared.jsonl"
        a = small_campaign(protocols=["multicast"], jammers=["blanket"], trials=2)
        b = small_campaign(protocols=["core"], jammers=["sweep"], trials=2)
        with ResultStore(str(path)) as store:
            run_campaign(a, store, workers=1)
        with ResultStore(str(path)) as store:
            out = run_campaign(b, store, workers=1)
        assert {r.key for r in out} == {s.key() for s in b.trial_specs()}
        assert len(ResultStore(str(path))) == len(a) + len(b)

    def test_progress_counts_pending_only(self, tmp_path):
        c = small_campaign(protocols=["multicast"], jammers=["blanket"], trials=2)
        seen = []
        run_campaign(c, workers=1, progress=lambda d, t, r: seen.append((d, t)))
        assert seen == [(1, 2), (2, 2)]


class TestBatchedBackend:
    """The serial campaign path batches each cell's trials; records (minus
    wall_time, which reflects execution shape) must match the per-trial
    run_trial oracle."""

    def test_batched_serial_equals_scalar_serial(self):
        c = small_campaign()
        batched = run_campaign(c, workers=1)
        scalar = [run_trial(spec) for spec in sorted(c.trial_specs(), key=lambda s: s.key())]
        assert aggregate_bytes(batched) == aggregate_bytes(scalar)
        assert len(batched) == len(scalar)
        for a, b in zip(batched, scalar):
            a = dataclasses.replace(a, wall_time=0.0)
            b = dataclasses.replace(b, wall_time=0.0)
            assert a == b

    def test_run_trial_batch_matches_run_trial(self):
        specs = small_campaign(
            protocols=["multicast"], jammers=["sweep"], trials=4
        ).trial_specs()
        batched = list(run_trial_batch(specs, lane_width=3))
        for spec, record in zip(specs, batched):
            reference = run_trial(spec)
            assert dataclasses.replace(record, wall_time=0.0) == dataclasses.replace(
                reference, wall_time=0.0
            )

    def test_lane_width_defaults_to_protocol_preference(self, monkeypatch):
        """With no explicit lane_width, run_trial_batch streams at the
        protocol's stream_width: MultiCastAdv's advertised 32 (capped by the
        3 pending trials), else the working-set rule (4 lanes for multicast
        at n = 16) — a throughput knob only, so asserting the width the
        stream ran at suffices."""
        import repro.core.batch as batch

        widths = []

        class RecordingStream(batch.LaneStream):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                widths.append((len(self.trials), self.width))

        monkeypatch.setattr(batch, "LaneStream", RecordingStream)
        adv = small_campaign(
            protocols=["adv"], jammers=["none"], trials=3, budget=0,
            protocol_knobs={"adv": {"b": 0.01, "max_epochs": 2}},
        ).trial_specs()
        list(run_trial_batch(adv))
        # one stream over all pending specs, every trial in flight at once
        assert widths == [(3, 3)]
        widths.clear()
        mc = small_campaign(protocols=["multicast"], jammers=["none"], trials=5).trial_specs()
        list(run_trial_batch(mc))
        assert widths == [(5, 4)]  # 2**18 // (4096 rows * 16 nodes) slots

    def test_run_trial_batch_rejects_mixed_cells(self):
        mixed = small_campaign(protocols=["multicast", "core"], trials=1).trial_specs()
        with pytest.raises(ValueError):
            list(run_trial_batch(mixed))

    def test_run_trial_batch_empty(self):
        assert list(run_trial_batch([])) == []

    def test_resume_skips_with_batched_backend(self, tmp_path):
        c = small_campaign(protocols=["multicast"], jammers=["blanket"], trials=4)
        path = tmp_path / "r.jsonl"
        full = run_campaign(c, ResultStore(str(path)), workers=1)
        ran = []
        again = run_campaign(
            c,
            ResultStore(str(path)),
            workers=1,
            progress=lambda done, total, rec: ran.append(rec.key),
        )
        assert ran == []
        assert aggregate_bytes(again) == aggregate_bytes(full)


class TestStreamWidth:
    """The width rule: an advertised stream_lane_width, else as many lanes
    as fit PASS_VALUES per kernel pass, clamped to [2, 32]."""

    @pytest.mark.parametrize(
        "name, n, width",
        [
            # one n = 64 lane of 4096 rows fills a pass: the floor
            ("core", 64, 2),
            ("multicast", 64, 2),
            ("multicast_c", 64, 2),
            ("single_channel", 64, 2),
            ("multicast", 32, 2),
            ("multicast", 8, 8),
            ("multicast", 16, 4),
            ("core", 8, 8),
            ("core", 16, 4),
            # lg n-row Decay rounds and 64-row Naive blocks: the ceiling
            ("decay", 8, 32),
            ("decay", 64, 32),
            ("naive", 16, 32),
            ("naive", 64, 32),
            ("adv", 8, 32),
            ("adv_c", 32, 32),
        ],
    )
    def test_registry_widths(self, name, n, width):
        assert stream_width(build_protocol(name, n, T=2000, C=2)) == width

    def test_advertised_width_wins(self):
        proto = types.SimpleNamespace(stream_lane_width=32, block_slots=4096, n=64)
        assert stream_width(proto) == 32

    def test_no_block_slots_streams_at_the_floor(self):
        assert stream_width(types.SimpleNamespace(n=8)) == DEFAULT_LANE_WIDTH == 2
        assert stream_width(types.SimpleNamespace(block_slots=64)) == 2


class TestLaneBlocks:
    """The sharded block rule: a worker's block holds STREAM_BLOCK_FACTOR
    times the width it is streamed at, so every full block has a pending
    queue for freed lane slots to refill from — capped at the cell's
    pending trials over the worker count, so no worker idles beside a
    wide block."""

    @pytest.mark.parametrize("name", protocol_names())
    def test_full_blocks_exceed_the_stream_width(self, name):
        width = stream_width(build_protocol(name, 8, T=1000, C=2))
        size = STREAM_BLOCK_FACTOR * width
        specs = small_campaign(
            protocols=[name], jammers=["none"], ns=[8], budget=1000,
            channels=2, trials=2 * size + 1,
        ).trial_specs()
        blocks = _lane_blocks(specs, workers=1)
        assert [len(block) for block in blocks] == [size, size, 1]
        assert size > width
        assert [spec for block in blocks for spec in block] == specs

    @pytest.mark.parametrize(
        "name, trials, sizes",
        [
            ("decay", 100, [50, 50]),  # 4 * 32 = 128 capped at 100 / 2
            ("adv", 5, [3, 2]),  # 4 * 32 = 128 capped at ceil(5 / 2)
            ("multicast", 100, [32, 32, 32, 4]),  # 4 * 8 = 32 < 50: uncapped
        ],
    )
    def test_blocks_cap_at_the_cell_share_of_the_workers(self, name, trials, sizes):
        specs = small_campaign(
            protocols=[name], jammers=["none"], ns=[8], budget=2000, trials=trials,
        ).trial_specs()
        blocks = _lane_blocks(specs, workers=2)
        assert [len(block) for block in blocks] == sizes
        assert [spec for block in blocks for spec in block] == specs

    def test_the_cap_is_per_cell(self):
        """Each cell is capped by its own pending count, and no block
        straddles two cells."""
        specs = small_campaign(
            protocols=["decay"], jammers=["none", "blanket"], ns=[8],
            budget=2000, trials=7,
        ).trial_specs()
        blocks = _lane_blocks(specs, workers=2)
        assert [len(block) for block in blocks] == [4, 3, 4, 3]
        assert all(len({s.jammer for s in block}) == 1 for block in blocks)
