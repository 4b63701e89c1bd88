"""Unit tests for the jammer strategy gallery."""

import numpy as np
import pytest

from repro.adversary import (
    BlanketJammer,
    FractionalJammer,
    FrontLoadedJammer,
    NoJammer,
    PeriodicBurstJammer,
    PhaseTargetedJammer,
    RandomJammer,
    ReplayJammer,
    ScheduleJammer,
    SweepJammer,
)
from repro.sim.jam import JamBlock


def dense(adv, start, K, C):
    return adv.jam_block(start, K, C).to_dense()


class TestNoJammer:
    def test_never_jams(self):
        adv = NoJammer()
        assert not dense(adv, 0, 20, 8).any()
        assert adv.spent == 0


class TestBlanketJammer:
    def test_prefix_placement(self):
        adv = BlanketJammer(budget=None, channels=3, placement="prefix")
        jam = dense(adv, 0, 5, 8)
        assert jam[:, :3].all() and not jam[:, 3:].any()

    def test_fraction_spec(self):
        adv = BlanketJammer(budget=None, channels=0.5)
        jam = dense(adv, 0, 4, 8)
        assert (jam.sum(axis=1) == 4).all()

    def test_random_placement_count_per_slot(self):
        adv = BlanketJammer(budget=None, channels=3, placement="random", seed=1)
        jam = dense(adv, 0, 50, 8)
        assert (jam.sum(axis=1) == 3).all()

    def test_random_placement_varies(self):
        adv = BlanketJammer(budget=None, channels=2, placement="random", seed=1)
        jam = dense(adv, 0, 50, 16)
        assert len({tuple(row) for row in jam}) > 1

    def test_budget_lifetime(self):
        adv = BlanketJammer(budget=10, channels=1.0)
        jam = dense(adv, 0, 10, 5)
        assert jam[:2].all() and not jam[2:].any()

    def test_invalid_placement(self):
        with pytest.raises(ValueError):
            BlanketJammer(budget=1, placement="middle")


class TestFractionalJammer:
    def test_duty_cycle_exact_over_any_window(self):
        adv = FractionalJammer(budget=None, slot_fraction=0.3, channel_fraction=1.0)
        jam = dense(adv, 0, 1000, 4)
        active = jam.any(axis=1)
        assert active.sum() == 300
        # exactness over sub-windows too (Bresenham property): any window of
        # w slots has floor/ceil(0.3 w) active slots
        for lo in (0, 123, 500):
            w = 200
            count = active[lo : lo + w].sum()
            assert 59 <= count <= 61

    def test_channel_fraction(self):
        adv = FractionalJammer(budget=None, slot_fraction=1.0, channel_fraction=0.9)
        jam = dense(adv, 0, 20, 10)
        assert (jam.sum(axis=1) == 9).all()

    def test_zero_fraction(self):
        adv = FractionalJammer(budget=None, slot_fraction=0.0, channel_fraction=1.0)
        assert not dense(adv, 0, 50, 4).any()

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            FractionalJammer(budget=None, slot_fraction=1.5, channel_fraction=1.0)


class TestFrontLoadedJammer:
    def test_blackout_then_silence(self):
        adv = FrontLoadedJammer(budget=12)
        jam = dense(adv, 0, 10, 4)
        assert jam[:3].all() and not jam[3:].any()
        assert adv.spent == 12

    def test_requires_budget(self):
        with pytest.raises((ValueError, TypeError)):
            FrontLoadedJammer(budget=None)

    def test_partial_slot_spend(self):
        adv = FrontLoadedJammer(budget=6)
        jam = dense(adv, 0, 3, 4)
        assert jam[0].sum() == 4 and jam[1].sum() == 2 and jam[2].sum() == 0


class TestPeriodicBurstJammer:
    def test_burst_pattern(self):
        adv = PeriodicBurstJammer(budget=None, period=5, burst=2, channels=1.0)
        jam = dense(adv, 0, 15, 2)
        on = jam.any(axis=1)
        expected = np.array([True, True, False, False, False] * 3)
        np.testing.assert_array_equal(on, expected)

    def test_phase_shift(self):
        adv = PeriodicBurstJammer(budget=None, period=4, burst=1, phase=2, channels=1.0)
        jam = dense(adv, 0, 8, 1)
        on = jam.any(axis=1)
        np.testing.assert_array_equal(on, [False, False, True, False] * 2)

    def test_pattern_consistent_across_blocks(self):
        adv = PeriodicBurstJammer(budget=None, period=7, burst=3, channels=1.0)
        a = dense(adv, 0, 10, 2)
        b = dense(adv, 10, 10, 2)
        adv.reset()
        whole = dense(adv, 0, 20, 2)
        np.testing.assert_array_equal(np.vstack([a, b]), whole)

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            PeriodicBurstJammer(budget=None, period=0, burst=0)


class TestSweepJammer:
    def test_window_width(self):
        adv = SweepJammer(budget=None, width=3)
        jam = dense(adv, 0, 10, 8)
        assert (jam.sum(axis=1) == 3).all()

    def test_window_rotates(self):
        adv = SweepJammer(budget=None, width=1, dwell=1)
        jam = dense(adv, 0, 8, 8)
        np.testing.assert_array_equal(np.nonzero(jam)[1], np.arange(8))

    def test_dwell(self):
        adv = SweepJammer(budget=None, width=1, dwell=3)
        jam = dense(adv, 0, 6, 8)
        cols = np.nonzero(jam)[1]
        np.testing.assert_array_equal(cols, [0, 0, 0, 1, 1, 1])

    def test_wraparound(self):
        adv = SweepJammer(budget=None, width=3, dwell=1)
        jam = dense(adv, 0, 7, 8)  # at slot 6 the window is {6, 7, 0}
        np.testing.assert_array_equal(np.nonzero(jam[6])[0], [0, 6, 7])

    @staticmethod
    def from_rows_block(adv, start, K, C):
        """The per-row construction the vectorized block replaced: the same
        sorted window rows, fed one array per row to ``JamBlock.from_rows``."""
        w = min(adv.width, C)
        rows = np.arange(K, dtype=np.int64)
        if adv.remaining is not None:
            rows = rows[: max(1, -(-int(adv.remaining) // w) + 1)]
        base = ((start + rows) // adv.dwell) % C
        cols = (base[:, None] + np.arange(w)[None, :]) % C
        cols.sort(axis=1)
        return JamBlock.from_rows(K, C, rows, list(cols))

    @pytest.mark.parametrize(
        "budget, width, dwell, start, K, C",
        [
            (None, 3, 1, 0, 20, 8),  # wrap-around windows
            (None, 3, 1, 5, 11, 8),  # starts mid-rotation
            (None, 2, 3, 7, 25, 5),  # dwell > 1
            (None, 9, 1, 0, 6, 4),  # width >= C: every channel, every row
            (None, 4, 1, 0, 5, 4),  # width == C
            (10, 3, 2, 0, 40, 8),  # budget cap falls mid-row
            (1, 5, 1, 0, 9, 16),  # cap of one entry
        ],
    )
    def test_block_matches_from_rows(self, budget, width, dwell, start, K, C):
        adv = SweepJammer(budget=budget, width=width, dwell=dwell)
        got = adv.propose(start, K, C)
        want = self.from_rows_block(adv, start, K, C)
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.channels, want.channels)
        assert got.channels.dtype == want.channels.dtype
        assert got.total() == want.total()
        if budget is not None:
            # and after the base class clips it to the budget, mid-row
            clipped = adv.jam_block(start, K, C)
            assert clipped.total() == budget
            np.testing.assert_array_equal(
                clipped.to_dense(), want.truncate_budget(budget).to_dense()
            )


class TestRandomJammer:
    def test_rate(self):
        adv = RandomJammer(budget=None, p=0.25, seed=2)
        jam = dense(adv, 0, 400, 10)
        assert abs(jam.mean() - 0.25) < 0.02

    def test_zero_rate(self):
        adv = RandomJammer(budget=None, p=0.0)
        assert not dense(adv, 0, 50, 4).any()

    def test_sparse_path_rate(self):
        """Large C route: Binomial counts + uniform subsets."""
        adv = RandomJammer(budget=None, p=0.001, seed=3)
        jam = adv.jam_block(0, 64, 1 << 20)
        mean = jam.total() / (64 * (1 << 20))
        assert 0.0005 < mean < 0.002

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            RandomJammer(budget=None, p=2.0)


class TestScheduleJammer:
    def test_table_replay_and_padding(self):
        table = np.zeros((4, 3), dtype=bool)
        table[1, 2] = True
        adv = ScheduleJammer(budget=None, schedule=table)
        jam = dense(adv, 0, 6, 3)
        assert jam[1, 2] and jam.sum() == 1  # quiet past the table end

    def test_channel_truncation(self):
        table = np.ones((2, 5), dtype=bool)
        adv = ScheduleJammer(budget=None, schedule=table)
        jam = dense(adv, 0, 2, 3)
        assert jam.shape == (2, 3) and jam.all()

    def test_callable_schedule(self):
        def fn(start, K, C):
            mask = np.zeros((K, C), dtype=bool)
            mask[:, 0] = (np.arange(start, start + K) % 2) == 0
            return mask

        adv = ScheduleJammer(budget=None, schedule=fn)
        jam = dense(adv, 0, 4, 2)
        np.testing.assert_array_equal(jam[:, 0], [True, False, True, False])

    def test_rejects_1d_schedule(self):
        with pytest.raises(ValueError):
            ScheduleJammer(budget=None, schedule=np.ones(4, dtype=bool))


class TestPhaseTargetedJammer:
    def test_jams_only_inside_intervals(self):
        adv = PhaseTargetedJammer(budget=None, intervals=[(5, 10), (20, 22)], channel_fraction=1.0)
        jam = dense(adv, 0, 30, 4)
        on = jam.any(axis=1)
        expected = np.zeros(30, dtype=bool)
        expected[5:10] = True
        expected[20:22] = True
        np.testing.assert_array_equal(on, expected)

    def test_interval_membership_across_blocks(self):
        adv = PhaseTargetedJammer(budget=None, intervals=[(8, 12)], channel_fraction=1.0)
        a = dense(adv, 0, 10, 2)
        b = dense(adv, 10, 10, 2)
        assert a[8:10].all() and b[:2].all() and not b[2:].any()

    def test_channel_fraction_inside(self):
        adv = PhaseTargetedJammer(budget=None, intervals=[(0, 50)], channel_fraction=0.5, seed=4)
        jam = dense(adv, 0, 50, 8)
        assert (jam.sum(axis=1) == 4).all()

    def test_duty_cycle_inside_interval(self):
        adv = PhaseTargetedJammer(
            budget=None, intervals=[(0, 100)], channel_fraction=1.0, slot_fraction=0.5
        )
        jam = dense(adv, 0, 100, 2)
        assert jam.any(axis=1).sum() == 50

    def test_empty_intervals(self):
        adv = PhaseTargetedJammer(budget=None, intervals=[])
        assert not dense(adv, 0, 10, 2).any()

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            PhaseTargetedJammer(budget=None, intervals=[(5, 3)])


class TestReplayJammer:
    def test_exact_replay(self, rng):
        recorded = rng.random((20, 6)) < 0.4
        adv = ReplayJammer(recorded)
        a = dense(adv, 0, 12, 6)
        b = dense(adv, 12, 12, 6)  # 4 rows past end -> quiet
        np.testing.assert_array_equal(a, recorded[:12])
        np.testing.assert_array_equal(b[:8], recorded[12:])
        assert not b[8:].any()

    def test_channel_mismatch_fails_loudly(self):
        adv = ReplayJammer(np.zeros((5, 4), dtype=bool))
        with pytest.raises(ValueError, match="channels"):
            adv.jam_block(0, 5, 8)


class TestHugeChannelCounts:
    """Strategies must never materialize dense masks at MultiCastAdv scale."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: NoJammer(),
            lambda: BlanketJammer(budget=1000, channels=4, placement="random"),
            lambda: BlanketJammer(budget=1000, channels=4, placement="prefix"),
            lambda: FractionalJammer(budget=1000, slot_fraction=0.5, channel_fraction=8),
            lambda: FrontLoadedJammer(budget=1000),
            lambda: PeriodicBurstJammer(budget=1000, period=10, burst=2, channels=4),
            lambda: SweepJammer(budget=1000, width=4),
            lambda: PhaseTargetedJammer(budget=1000, intervals=[(0, 100)], channel_fraction=4),
        ],
    )
    def test_sparse_at_2_to_26_channels(self, factory):
        adv = factory()
        jam = adv.jam_block(0, 256, 1 << 26)
        assert jam.K == 256 and jam.C == 1 << 26
        assert jam.total() <= 1000 or adv.budget is None

    def test_budget_respected_at_huge_c(self):
        adv = FrontLoadedJammer(budget=777)
        jam = adv.jam_block(0, 4, 1 << 26)
        assert jam.total() == 777
