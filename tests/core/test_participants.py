"""The shared participant extractor against the dense broadcast oracle.

``repro.core.batch._participants`` feeds every block kernel (the shared-coin
kernel of Figs. 1/2/5 and both MultiCastAdv steps).  It compares coins with
one scalar threshold per run of equal-threshold lanes and drops halted nodes
from the sparse hits.  The oracle below is the dense formulation it
replaced: broadcast each lane's threshold over its rows, AND a dense
liveness mask, extract.  Both must return the same hits in the same order.
"""

import numpy as np
import pytest

from repro.core.batch import _participants


def dense_participants(coins, channels, active, threshold, offsets, Cmax):
    """The dense oracle: a ``(T, 1)``-broadcast threshold
    compare AND-ed with ``active[lane_of_row]``."""
    T, n = coins.shape
    L = offsets.size - 1
    lane_of_row = np.repeat(np.arange(L, dtype=np.int64), np.diff(offsets))
    hit = coins < threshold[lane_of_row][:, None]
    if not active.all():
        hit &= active[lane_of_row]
    flat = np.flatnonzero(hit)
    grow = flat // n
    node = flat % n
    lane = lane_of_row[grow]
    row = grow - offsets[lane]
    cell = grow * np.int64(Cmax) + channels.ravel()[flat]
    return flat, lane, row, node, cell


def ragged_block(rng, rows, n, Cs):
    offsets = np.concatenate(([0], np.cumsum(rows))).astype(np.int64)
    T = int(offsets[-1])
    coins = rng.random((T, n))
    channels = np.concatenate(
        [rng.integers(0, C, size=(K, n), dtype=np.int32) for K, C in zip(rows, Cs)]
    )
    return coins, channels, offsets


def assert_same(got, want):
    names = ("flat", "lane", "row", "node", "cell")
    for name, g, w in zip(names, got, want):
        assert g.dtype.kind == w.dtype.kind, name
        np.testing.assert_array_equal(g, w, err_msg=name)


CASES = {
    # lanes: row counts, thresholds, channel counts; T*n odd (27 * 5)
    "mixed-runs": ([4, 6, 3, 5, 9], [0.3, 0.3, 0.1, 0.1, 0.45], [4, 4, 2, 8, 8], 5),
    "all-equal": ([8, 8, 8], [0.2, 0.2, 0.2], [4, 4, 4], 7),
    "all-distinct": ([3, 1, 7, 2], [0.5, 0.05, 0.25, 0.9], [1, 2, 4, 16], 3),
    "no-hit-lane": ([5, 5, 5], [0.4, 0.0, 0.4], [2, 2, 2], 9),
    "single-row-lanes": ([1, 1, 1, 1], [0.6, 0.6, 0.2, 0.6], [3, 3, 3, 3], 5),
}


@pytest.mark.parametrize("halting", ["none", "some", "lane"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_dense_oracle(case, halting):
    rows, thresholds, Cs, n = CASES[case]
    rng = np.random.default_rng(len(case) * 7 + len(halting))
    coins, channels, offsets = ragged_block(rng, rows, n, Cs)
    threshold = np.asarray(thresholds, dtype=np.float64)
    L = len(rows)
    active = np.ones((L, n), dtype=bool)
    if halting in ("some", "lane"):
        active &= rng.random((L, n)) < 0.6
    if halting == "lane":
        active[L // 2] = False  # one lane fully halted
    Cmax = max(Cs)
    got = _participants(coins, channels, active, threshold, offsets, Cmax)
    want = dense_participants(coins, channels, active, threshold, offsets, Cmax)
    assert_same(got, want)
    if halting == "lane":
        assert not (got[1] == L // 2).any()
    if case == "no-hit-lane":
        assert not (got[1] == 1).any()


def test_randomized_blocks_match_dense_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        L = int(rng.integers(1, 7))
        n = int(rng.integers(1, 10))
        rows = rng.integers(1, 12, size=L)
        Cs = 2 ** rng.integers(0, 5, size=L)
        # few distinct thresholds so equal-threshold runs form and break
        threshold = rng.choice([0.0, 0.05, 0.3, 1.0], size=L)
        coins, channels, offsets = ragged_block(rng, rows, n, Cs)
        active = rng.random((L, n)) < rng.choice([0.5, 1.0])
        Cmax = int(Cs.max())
        assert_same(
            _participants(coins, channels, active, threshold, offsets, Cmax),
            dense_participants(coins, channels, active, threshold, offsets, Cmax),
        )
