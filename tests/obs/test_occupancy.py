"""Pin the lane-occupancy accounting: every trial lands in exactly one of
``batch.lanes``, ``adv_batch.lanes`` or ``batch.fallback_lanes``.

Regression anchor for the width-1/fallback bypass bug: the batched engines
used to guard their end-of-batch counters behind ``B > 1``, so single-lane
runs (width-1 streams, one-trial cells) and scalar-fallback lanes vanished
from the occupancy books and the telemetry under-counted the campaign.  The
counters are now unconditional, and fallback lanes are both counted and
stamped in the result extras.
"""

import numpy as np
import pytest

from repro.core import MultiCast, run_broadcast_batch
from repro.core.batch import run_broadcast_stream
from repro.exp import CampaignSpec, ResultStore, run_campaign
from repro.exp.registry import build_jammer, build_protocol
from repro.obs import collect_telemetry

N = 8
BUDGET = 2_000
ADV_FAST = dict(
    alpha=0.24, b=0.01, halt_noise_divisor=20.0, helper_wait=2.0, max_epochs=8
)


def jammers(count):
    return [build_jammer("blanket", BUDGET, 100 + t, n=N) for t in range(count)]


def counters_for(run):
    with collect_telemetry() as tel:
        run()
        return tel.take_aggregates()["counters"]


class TestUnguardedLaneCounters:
    def test_width_one_stream_counts_every_lane(self):
        counters = counters_for(
            lambda: run_broadcast_stream(
                build_protocol("multicast", N),
                N,
                jammers(3),
                [3, 7, 11],
                lane_width=1,
            )
        )
        assert counters["batch.lanes"] == 3
        assert counters["batch.batches"] == 1

    def test_single_lane_fixed_batch_counts_its_lane(self):
        counters = counters_for(
            lambda: run_broadcast_batch(MultiCast(N), N, jammers(1), [3])
        )
        assert counters["batch.lanes"] == 1
        assert counters["batch.batches"] == 1

    def test_width_one_adv_stream_counts_every_lane(self):
        counters = counters_for(
            lambda: run_broadcast_stream(
                build_protocol("adv", N, knobs=ADV_FAST),
                N,
                jammers(3),
                [3, 7, 11],
                lane_width=1,
            )
        )
        assert counters["adv_batch.lanes"] == 3
        assert counters["adv_batch.batches"] == 1


class TestFallbackAccounting:
    def test_fallback_lanes_counted_and_stamped(self, monkeypatch, capsys):
        # hide the lane kernel: every lane scalar-falls-back
        monkeypatch.delattr(MultiCast, "run_stream")

        def run():
            return run_broadcast_stream(
                MultiCast(N), N, jammers(3), [3, 7, 11], lane_width=2
            )

        with collect_telemetry() as tel:
            results = run()
            counters = tel.take_aggregates()["counters"]
        capsys.readouterr()  # swallow the per-call fallback warnings
        assert counters["batch.fallback_lanes"] == 3
        assert "batch.lanes" not in counters, "fallback lanes must not double-count"
        for r in results:
            assert r.extras["backend"] == "scalar-fallback"

    @pytest.mark.parametrize("name", ["naive", "decay"])
    def test_always_on_streams_book_their_lanes(self, name):
        """naive/decay stream through EpidemicStream, not
        run_iterations_stream — their lanes must still land in batch.lanes."""
        counters = counters_for(
            lambda: run_broadcast_stream(
                build_protocol(name, N), N, jammers(3), [3, 7, 11], lane_width=2
            )
        )
        assert counters["batch.lanes"] == 3
        assert "batch.fallback_lanes" not in counters

    def test_batched_lanes_carry_no_fallback_stamp(self):
        results = run_broadcast_stream(
            build_protocol("multicast", N), N, jammers(2), [3, 7], lane_width=2
        )
        for r in results:
            assert r.extras.get("backend") != "scalar-fallback"


class TestOccupancyInvariant:
    def test_mixed_campaign_lane_counters_sum_to_trials(self):
        """One campaign spanning every batched engine — shared-coin stream,
        adv stream, the always-on baselines, the limited-channel variant
        — must book every trial in exactly one lane counter."""
        campaign = CampaignSpec(
            protocols=["multicast", "adv", "naive", "decay", "single_channel"],
            jammers=["blanket"],
            ns=[N],
            budget=BUDGET,
            trials=4,
            base_seed=9,
            protocol_knobs={"adv": dict(ADV_FAST)},
        )
        with collect_telemetry() as tel:
            records = run_campaign(campaign, ResultStore(None), workers=1)
            counters = tel.take_aggregates()["counters"]
        occupancy = (
            counters.get("batch.lanes", 0)
            + counters.get("adv_batch.lanes", 0)
            + counters.get("batch.fallback_lanes", 0)
        )
        assert occupancy == len(records) == len(campaign)

    @pytest.mark.parametrize("width", [1, 2, 8])
    def test_stream_occupancy_matches_trials_at_any_width(self, width):
        """Staggered caps force retires/refills; the lane counter must still
        book each trial exactly once at every width."""
        caps = np.asarray([7, 50_000_000, 16, 150, 50_000_000])
        counters = counters_for(
            lambda: run_broadcast_stream(
                build_protocol("multicast", N),
                N,
                jammers(5),
                [3, 7, 11, 19, 23],
                max_slots=caps,
                lane_width=width,
            )
        )
        assert counters["batch.lanes"] == 5
        assert counters.get("batch.refills", 0) == 5 - min(width, 5)
