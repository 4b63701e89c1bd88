"""The always-on kernel against per-lane ``spread_block``.

``_epidemic_ragged`` resolves ragged blocks of the Decay and Naive
baselines: every uninformed node listens in every row, and an informed node
sends where ``sends`` is set.  Its docstring claims equality with the dense
formulation: build each lane's action matrix with the protocol's own builder
(``_decay_actions`` on pre-scaled coins, ``_epidemic_actions``) and resolve
it with ``spread_block``.  The oracle here is exactly that, lane by lane from
the same draws, and the kernel's listen and send counts, ``informed`` and
``informed_slot`` must all equal it.

The randomized blocks are checked to reach lanes with two or more event
rows (C > 1), jammed listener cells and lanes informed in full at entry.
"""

import numpy as np
import pytest

from repro.baselines.decay import _decay_actions
from repro.baselines.naive import _epidemic_actions
from repro.core.batch import _epidemic_ragged
from repro.core.runner import spread_block
from repro.sim.channel import ACT_LISTEN, ACT_SEND_MSG
from repro.sim.jam import JamBlock

N_NODES = 9
BLOCKS = 80  # per (rule, C) case: 320 ragged blocks in all


def random_lane(rng, n, C, rule):
    """One lane's inputs: draws, entry statuses, a dense jam mask, slot 0."""
    K = int(rng.integers(1, 40))
    if rule == "decay":
        # coins pre-scaled by 2**k for row k of a round, as Decay folds them
        coins = rng.random((K, n)) * 2.0 ** (np.arange(K) % 4)[:, None]
        sends = coins < 1.0
    else:
        coins = np.zeros((K, n))  # the always-on builder reads no coin
        sends = np.ones((K, n), dtype=bool)
    informed = rng.random(n) < rng.choice([0.0, 0.3, 0.7, 1.0])
    informed[0] = True
    return {
        "K": K,
        "coins": coins,
        "sends": sends,
        "channels": rng.integers(0, C, size=(K, n), dtype=np.int32),
        "informed": informed,
        "jam": rng.random((K, C)) < rng.choice([0.0, 0.1, 0.5]),
        "slot0": int(rng.integers(0, 10_000)),
    }


def oracle(lane, rule, n):
    """``(listen, send, informed, informed_slot, event_rows, jammed_listens)``
    of one lane from the dense builder and ``spread_block``."""
    build = _decay_actions if rule == "decay" else _epidemic_actions
    slots = np.where(lane["informed"], 0, -1).astype(np.int64)
    out = spread_block(
        lane["channels"], lane["coins"], lane["jam"], lane["informed"],
        np.ones(n, dtype=bool), build, slot0=lane["slot0"], informed_slot=slots,
    )
    listening = out.actions == ACT_LISTEN
    keys = np.arange(lane["K"])[:, None] * lane["jam"].shape[1] + lane["channels"]
    events = np.unique(slots[~lane["informed"] & out.informed]).size
    return (
        listening.sum(axis=0),
        (out.actions == ACT_SEND_MSG).sum(axis=0),
        out.informed,
        slots,
        events,
        int(lane["jam"].ravel()[keys[listening]].sum()),
    )


@pytest.mark.parametrize("C", [1, 4])
@pytest.mark.parametrize("rule", ["decay", "naive"])
def test_kernel_matches_per_lane_spread_block(rule, C):
    rng = np.random.default_rng([C, len(rule)])
    n = N_NODES
    multi_event_lanes = jammed_listens = all_informed_lanes = 0
    for _ in range(BLOCKS):
        lanes = [random_lane(rng, n, C, rule) for _ in range(int(rng.integers(1, 6)))]
        informed = np.stack([lane["informed"] for lane in lanes])
        entry = informed.copy()
        informed_slot = np.where(informed, 0, -1).astype(np.int64)
        listen, send, after = _epidemic_ragged(
            np.concatenate([lane["channels"] for lane in lanes]),
            np.concatenate([lane["sends"] for lane in lanes]),
            JamBlock.stack([JamBlock.from_dense(lane["jam"]) for lane in lanes]),
            np.concatenate(([0], np.cumsum([lane["K"] for lane in lanes]))),
            informed,
            slot0=np.array([lane["slot0"] for lane in lanes], dtype=np.int64),
            informed_slot=informed_slot,
        )
        np.testing.assert_array_equal(informed, entry)
        for l, lane in enumerate(lanes):
            ref_listen, ref_send, ref_informed, ref_slots, events, jammed = oracle(
                lane, rule, n
            )
            np.testing.assert_array_equal(listen[l], ref_listen)
            np.testing.assert_array_equal(send[l], ref_send)
            np.testing.assert_array_equal(after[l], ref_informed)
            np.testing.assert_array_equal(informed_slot[l], ref_slots)
            multi_event_lanes += events >= 2
            jammed_listens += jammed
            all_informed_lanes += bool(lane["informed"].all())
    assert jammed_listens and all_informed_lanes, (jammed_listens, all_informed_lanes)
    # on one channel every uninformed node hears at a lane's first hearing
    # row, so only C > 1 can inform a lane at two rows of one block
    assert multi_event_lanes or C == 1
