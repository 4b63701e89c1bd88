"""Differential suite: sharded campaigns are row-identical to serial ones.

The contract under test (DESIGN.md section 10): for a fixed campaign spec,
the merged store produced by any worker count holds exactly the same rows —
same keys, same payloads, everything except ``wall_time`` — as the per-trial
``run_trial`` oracle, up to canonical key order.  Trial seeds derive from
spec identity alone, so scheduling must never leak into results; this suite
is what keeps that true as the pool evolves.
"""

import json
import os

from repro.exp import (
    CampaignSpec,
    ResultStore,
    aggregate,
    run_campaign,
    run_trial,
    shard_paths,
)

CONFIGS = [
    ("serial", 1),
    ("sharded-2", 2),
    ("sharded-3", 3),
]


def small_campaign(**overrides):
    kwargs = dict(
        protocols=["multicast", "core"],
        jammers=["blanket", "sweep"],
        ns=[16],
        budget=4000,
        trials=5,
        base_seed=11,
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


def canonical_rows(path):
    """The store's rows as key-sorted dicts, with the one physical
    (non-derived) field — wall_time — removed."""
    rows = []
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            data = json.loads(line)
            data.pop("wall_time", None)
            rows.append(data)
    return sorted(rows, key=lambda d: d["key"])


def oracle_rows(campaign):
    """The campaign's rows as the per-trial ``run_trial`` oracle writes them,
    in :func:`canonical_rows` form."""
    rows = []
    for spec in campaign.trial_specs():
        data = json.loads(run_trial(spec).to_json_line())
        data.pop("wall_time", None)
        rows.append(data)
    return sorted(rows, key=lambda d: d["key"])


def run_config(tmp_path, name, workers, campaign):
    path = str(tmp_path / f"{name}.jsonl")
    with ResultStore(path) as store:
        records = run_campaign(campaign, store, workers=workers)
    return path, records


class TestShardEquivalence:
    def test_every_config_matches_the_batched_reference(self, tmp_path):
        campaign = small_campaign()
        reference = oracle_rows(campaign)
        assert len(reference) == len(campaign)
        for name, workers in CONFIGS:
            path, records = run_config(tmp_path, name, workers, campaign)
            assert len(records) == len(campaign)
            rows = canonical_rows(path)
            assert rows == reference, f"{name} diverged from the run_trial oracle"

    def test_merge_leaves_no_shard_files(self, tmp_path):
        campaign = small_campaign(trials=3)
        path, _ = run_config(tmp_path, "clean", 3, campaign)
        assert shard_paths(path) == []
        assert [p for p in os.listdir(tmp_path) if "shard" in p] == []

    def test_sharded_memory_store_matches_serial(self, tmp_path):
        campaign = small_campaign(trials=3)
        serial = run_campaign(campaign, ResultStore(None), workers=1)
        sharded = run_campaign(campaign, ResultStore(None), workers=2)

        def strip(records):
            rows = []
            for r in sorted(records, key=lambda r: r.key):
                d = dict(r.__dict__)
                d.pop("wall_time")
                rows.append(d)
            return rows

        assert strip(serial) == strip(sharded)

    def test_aggregates_are_byte_identical_across_configs(self, tmp_path):
        campaign = small_campaign(trials=3)

        def blob(records):
            return json.dumps(
                [
                    {
                        "cell": list(c.cell),
                        "trials": c.trials,
                        "success_rate": c.success_rate,
                        "summaries": {
                            m: s.__dict__ for m, s in sorted(c.summaries.items())
                        },
                    }
                    for c in aggregate(records)
                ],
                sort_keys=True,
            )

        blobs = {blob([run_trial(spec) for spec in campaign.trial_specs()])}
        for name, workers in CONFIGS:
            _, records = run_config(tmp_path, f"agg-{name}", workers, campaign)
            blobs.add(blob(records))
        assert len(blobs) == 1

    def test_sharded_resume_completes_a_partial_store(self, tmp_path):
        campaign = small_campaign(trials=4)
        full_path, _ = run_config(tmp_path, "full", 1, campaign)
        full_rows = canonical_rows(full_path)

        # seed a store with a strict prefix of the rows, then resume sharded
        partial_path = str(tmp_path / "partial.jsonl")
        with open(full_path) as src, open(partial_path, "w") as dst:
            for i, line in enumerate(src):
                if i < 5:
                    dst.write(line)
        with ResultStore(partial_path) as store:
            pre = len(store)
            records = run_campaign(campaign, store, workers=2)
        assert pre == 5
        assert len(records) == len(campaign)
        assert canonical_rows(partial_path) == full_rows

    def test_reactive_jammers_shard_too(self, tmp_path):
        # reactive cells route to the arena runtime inside each worker; the
        # scheduling split must not disturb them either
        campaign = small_campaign(
            protocols=["multicast"], jammers=["trailing"], trials=4, budget=2000
        )
        a, _ = run_config(tmp_path, "reactive-serial", 1, campaign)
        b, _ = run_config(tmp_path, "reactive-sharded", 2, campaign)
        assert canonical_rows(a) == canonical_rows(b)
