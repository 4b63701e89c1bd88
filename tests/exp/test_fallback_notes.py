"""Regression: the scalar-fallback warning fires once per campaign, not once
per lane pass.

``run_broadcast_batch`` warns on stderr when lanes run the scalar block
engine instead of batching (a protocol with neither ``run_stream`` nor
``run_batch``, or a ``trace=`` request).  A campaign pushes one
batch call per kernel pass, so the naive warning repeated once per pass; the
fix collects the counts in a campaign-scoped :class:`FallbackNotes` and
emits one summary line per cause.
These tests run serially (``workers=1``) so the monkeypatched protocol class
is visible to the execution path.
"""

import pytest

from repro.core import MultiCast
from repro.core.batch import (
    FallbackNotes,
    collect_fallback_notes,
    run_broadcast_batch,
)
from repro.exp import CampaignSpec, ResultStore, run_campaign


@pytest.fixture
def batchless_multicast(monkeypatch):
    """MultiCast with its lane kernel hidden: every lane scalar-falls-back
    (a streamless protocol runs in width-sized groups, which then dispatch
    per lane)."""
    monkeypatch.delattr(MultiCast, "run_stream")


def fallback_campaign(trials):
    return CampaignSpec(
        protocols=["multicast"],
        jammers=["blanket"],
        ns=[16],
        budget=2000,
        trials=trials,
        base_seed=7,
    )


class TestFallbackNotes:
    def test_tally_merges_lanes_and_passes(self):
        notes = FallbackNotes()
        notes.add("MultiCast", "has no run_batch", 2)
        notes.add("MultiCast", "has no run_batch", 2)
        notes.add("MultiCast", "trace= forces the scalar path", 1)
        other = FallbackNotes()
        other.merge(notes.snapshot())
        other.add("MultiCast", "has no run_batch", 1)
        assert other.counts[("MultiCast", "has no run_batch")] == [5, 3]
        lines = other.summary_lines()
        assert len(lines) == 2
        assert "5 lane(s) in 3 kernel pass(es)" in lines[0]
        assert lines[0].endswith("ran on the scalar fallback")

    def test_uncollected_call_still_warns_per_call(self, batchless_multicast, capsys):
        for seed in (0, 1):
            run_broadcast_batch(MultiCast(16), 16, None, [seed, seed + 10])
        err = capsys.readouterr().err
        assert err.count("scalar fallback") == 2  # legacy behavior, unscoped

    def test_collector_silences_the_calls_and_keeps_the_counts(
        self, batchless_multicast, capsys
    ):
        with collect_fallback_notes() as notes:
            for seed in (0, 1, 2):
                run_broadcast_batch(MultiCast(16), 16, None, [seed, seed + 10])
        assert capsys.readouterr().err == ""
        assert notes.counts[
            ("MultiCast", "has neither run_stream nor run_batch")
        ] == [6, 3]

    def test_campaign_warns_once_with_the_full_count(
        self, batchless_multicast, capsys
    ):
        # 6 trials at lane width 4 (the width rule at n = 16) = 2 kernel
        # passes; the old behavior printed one warning per pass, the
        # campaign must print exactly one summary
        run_campaign(fallback_campaign(trials=6), ResultStore(None), workers=1)
        err = capsys.readouterr().err
        lines = [l for l in err.splitlines() if "scalar fallback" in l]
        assert len(lines) == 1
        assert "6 lane(s) in 2 kernel pass(es)" in lines[0]

    def test_fully_batched_campaign_warns_nothing(self, capsys):
        run_campaign(fallback_campaign(trials=2), ResultStore(None), workers=1)
        assert "scalar fallback" not in capsys.readouterr().err

    def test_fallback_results_identical_to_batched(self, monkeypatch, capsys):
        campaign = fallback_campaign(trials=4)
        batched = run_campaign(campaign, ResultStore(None), workers=1)
        monkeypatch.delattr(MultiCast, "run_stream")
        fell_back = run_campaign(campaign, ResultStore(None), workers=1)

        def strip(records):
            rows = []
            for r in sorted(records, key=lambda r: r.key):
                d = dict(r.__dict__)
                d.pop("wall_time")
                rows.append(d)
            return rows

        assert strip(batched) == strip(fell_back)
