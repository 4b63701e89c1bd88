"""Unit tests for the sparse JamBlock representation."""

import numpy as np
import pytest

from repro.sim.jam import JamBlock


def random_mask(rng, K=7, C=11, p=0.3):
    return rng.random((K, C)) < p


class TestConstruction:
    def test_empty(self):
        jb = JamBlock.empty(5, 3)
        assert jb.total() == 0
        assert (jb.counts() == 0).all()
        assert not jb.to_dense().any()

    def test_dense_roundtrip(self, rng):
        mask = random_mask(rng)
        np.testing.assert_array_equal(JamBlock.from_dense(mask).to_dense(), mask)

    def test_from_rows(self):
        jb = JamBlock.from_rows(4, 10, np.array([1, 3]), [np.array([5, 2]), np.array([0])])
        dense = jb.to_dense()
        assert dense[1, 2] and dense[1, 5] and dense[3, 0]
        assert dense.sum() == 3

    def test_from_rows_sorts_channels(self):
        jb = JamBlock.from_rows(1, 10, np.array([0]), [np.array([7, 1, 4])])
        np.testing.assert_array_equal(jb.channels, [1, 4, 7])

    def test_coerce_passthrough(self):
        jb = JamBlock.empty(2, 2)
        assert JamBlock.coerce(jb) is jb

    def test_coerce_dense(self):
        mask = np.array([[True, False]])
        jb = JamBlock.coerce(mask)
        assert isinstance(jb, JamBlock)
        assert jb.total() == 1

    def test_invalid_indptr_rejected(self):
        with pytest.raises(ValueError):
            JamBlock(2, 3, np.array([0, 1]), np.array([0]))


class TestAccounting:
    def test_total_matches_dense_sum(self, rng):
        mask = random_mask(rng)
        assert JamBlock.from_dense(mask).total() == mask.sum()

    def test_counts_match_dense_rows(self, rng):
        mask = random_mask(rng)
        np.testing.assert_array_equal(
            JamBlock.from_dense(mask).counts(), mask.sum(axis=1)
        )


class TestLookup:
    def test_lookup_matches_dense(self, rng):
        mask = random_mask(rng, K=9, C=13)
        jb = JamBlock.from_dense(mask)
        rows = rng.integers(0, 9, size=50)
        cols = rng.integers(0, 13, size=50)
        np.testing.assert_array_equal(jb.lookup(rows, cols), mask[rows, cols])

    def test_lookup_empty(self):
        jb = JamBlock.empty(3, 5)
        assert not jb.lookup(np.array([0, 2]), np.array([1, 4])).any()

    def test_lookup_keys_empty_builds_no_keys(self):
        jb = JamBlock.empty(4, 8)
        assert not jb.lookup_keys(np.arange(32)).any()
        assert jb._flat_keys is None

    def test_lookup_huge_channel_space(self):
        C = 1 << 40
        jb = JamBlock.from_rows(2, C, np.array([0]), [np.array([C - 1, 12345])])
        assert jb.lookup(np.array([0]), np.array([C - 1]))[0]
        assert jb.lookup(np.array([0]), np.array([12345]))[0]
        assert not jb.lookup(np.array([0]), np.array([12346]))[0]
        assert not jb.lookup(np.array([1]), np.array([C - 1]))[0]


class TestSlice:
    def test_slice_matches_dense_slice(self, rng):
        mask = random_mask(rng, K=10)
        jb = JamBlock.from_dense(mask)
        np.testing.assert_array_equal(jb.slice(3, 8).to_dense(), mask[3:8])

    def test_slice_default_end(self, rng):
        mask = random_mask(rng, K=10)
        jb = JamBlock.from_dense(mask)
        np.testing.assert_array_equal(jb.slice(4).to_dense(), mask[4:])

    def test_slice_bounds_checked(self):
        jb = JamBlock.empty(4, 2)
        with pytest.raises(IndexError):
            jb.slice(3, 6)

    def test_slice_is_view_cheap(self, rng):
        """Slicing shares the channels buffer (no copy)."""
        mask = random_mask(rng, K=10)
        jb = JamBlock.from_dense(mask)
        sl = jb.slice(0, 10)
        assert sl.channels.base is jb.channels or sl.channels is jb.channels


class TestTruncateBudget:
    def test_no_op_when_under_budget(self, rng):
        jb = JamBlock.from_dense(random_mask(rng))
        assert jb.truncate_budget(jb.total()) is jb

    def test_exact_truncation(self):
        mask = np.ones((3, 4), dtype=bool)
        jb = JamBlock.from_dense(mask).truncate_budget(7)
        assert jb.total() == 7
        dense = jb.to_dense()
        # time order: first 7 channel-slots row-major
        assert dense[0].sum() == 4 and dense[1].sum() == 3 and dense[2].sum() == 0

    def test_zero_budget(self, rng):
        jb = JamBlock.from_dense(random_mask(rng)).truncate_budget(0)
        assert jb.total() == 0


class TestFoldRows:
    def test_fold_matches_reshape_semantics(self, rng):
        """fold_rows(S) must equal the dense reshape (K/S, S*C)."""
        K, C, S = 12, 3, 4
        mask = random_mask(rng, K=K, C=C)
        jb = JamBlock.from_dense(mask).fold_rows(S)
        np.testing.assert_array_equal(jb.to_dense(), mask.reshape(K // S, S * C))

    def test_fold_requires_divisibility(self):
        with pytest.raises(ValueError):
            JamBlock.empty(10, 2).fold_rows(3)

    def test_fold_preserves_total(self, rng):
        mask = random_mask(rng, K=8, C=5)
        jb = JamBlock.from_dense(mask)
        assert jb.fold_rows(2).total() == jb.total()

    def test_fold_empty_block(self):
        jb = JamBlock.empty(12, 3).fold_rows(4)
        assert (jb.K, jb.C, jb.total()) == (3, 12, 0)
        np.testing.assert_array_equal(jb.indptr, np.zeros(4, dtype=np.int64))

    def test_fold_single_group(self, rng):
        mask = random_mask(rng, K=4, C=3)
        jb = JamBlock.from_dense(mask).fold_rows(4)
        assert jb.K == 1 and jb.C == 12


class TestEdgeCases:
    """Boundary behaviour the batched execution layer leans on."""

    def test_lookup_on_empty_block(self):
        jb = JamBlock.empty(6, 9)
        rows = np.array([0, 2, 5])
        cols = np.array([0, 8, 4])
        assert not jb.lookup(rows, cols).any()
        assert not jb.lookup_keys(np.array([0, 53])).any()
        assert jb.lookup_keys(np.empty(0, dtype=np.int64)).shape == (0,)

    def test_slice_at_block_boundaries(self, rng):
        mask = random_mask(rng, K=10)
        jb = JamBlock.from_dense(mask)
        np.testing.assert_array_equal(jb.slice(0, 10).to_dense(), mask)
        empty_front = jb.slice(0, 0)
        empty_back = jb.slice(10, 10)
        assert empty_front.K == 0 and empty_front.total() == 0
        assert empty_back.K == 0 and empty_back.total() == 0
        np.testing.assert_array_equal(jb.slice(9, 10).to_dense(), mask[9:])

    def test_coerce_roundtrip_below_dense_cell_limit(self, rng):
        from repro.sim.channel import DENSE_CELL_LIMIT

        K, C = 16, 64
        assert K * C < DENSE_CELL_LIMIT
        mask = random_mask(rng, K=K, C=C)
        np.testing.assert_array_equal(JamBlock.coerce(mask).to_dense(), mask)

    def test_coerce_roundtrip_above_dense_cell_limit(self, rng):
        """The sparse form stays exact where resolve_block would refuse to
        materialize a dense grid (K*C above the dense-path cutoff)."""
        from repro.sim.channel import DENSE_CELL_LIMIT

        K, C = 4, DENSE_CELL_LIMIT // 2  # K*C == 2 * DENSE_CELL_LIMIT
        rows = np.arange(K, dtype=np.int64)
        row_channels = [
            rng.choice(C, size=5, replace=False).astype(np.int64) for _ in range(K)
        ]
        jb = JamBlock.from_rows(K, C, rows, row_channels)
        assert K * C > DENSE_CELL_LIMIT
        dense = jb.to_dense()
        assert dense.sum() == jb.total() == 5 * K
        np.testing.assert_array_equal(JamBlock.coerce(dense).to_dense(), dense)


class TestStack:
    def test_stack_matches_dense_concatenation(self, rng):
        masks = [random_mask(rng, K=k, C=6) for k in (3, 1, 5)]
        stacked = JamBlock.stack([JamBlock.from_dense(m) for m in masks])
        np.testing.assert_array_equal(stacked.to_dense(), np.concatenate(masks))

    def test_stack_of_empties(self):
        stacked = JamBlock.stack([JamBlock.empty(2, 4), JamBlock.empty(3, 4)])
        assert stacked.K == 5 and stacked.total() == 0

    def test_stack_single_block(self, rng):
        mask = random_mask(rng)
        jb = JamBlock.from_dense(mask)
        np.testing.assert_array_equal(JamBlock.stack([jb]).to_dense(), mask)

    def test_stack_rejects_mismatched_channels(self):
        with pytest.raises(ValueError):
            JamBlock.stack([JamBlock.empty(2, 4), JamBlock.empty(2, 5)])

    def test_stack_rejects_empty_list(self):
        with pytest.raises(ValueError):
            JamBlock.stack([])

    def test_stacked_lane_slices_recover_inputs(self, rng):
        """The batched kernel's per-lane addressing: rows [l*K, (l+1)*K)."""
        K = 4
        masks = [random_mask(rng, K=K, C=7) for _ in range(3)]
        stacked = JamBlock.stack([JamBlock.from_dense(m) for m in masks])
        for lane, mask in enumerate(masks):
            np.testing.assert_array_equal(
                stacked.slice(lane * K, (lane + 1) * K).to_dense(), mask
            )
