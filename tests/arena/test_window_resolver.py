"""The window kernel's one resolver against the block resolver.

:func:`repro.arena.window._listener_feedback` resolves a pass's listeners
from participant lists: flat ``row * C + channel`` keys, the senders'
payload codes and the pass's ``(rows, C)`` busy and jam grids.  Its oracle
is :func:`repro.sim.channel.resolve_block` on the dense ``(W, n)`` window
matrices, lane by lane.  The random participant sets cover beacon and
message senders, jammed cells, listeners sharing a cell with 0, 1, 2 and
3+ senders, lanes of different channel counts stacked into one pass
(``C`` up to ``2**12``), and windows without listeners, senders or any
participant at all.  The two dense-adapter conversions,
``ColumnProtocol._participants`` and ``_densify``, are checked here too.
"""

import numpy as np
import pytest

from repro.arena.columns import ColumnProtocol
from repro.arena.window import _listener_feedback
from repro.sim.channel import (
    ACT_IDLE,
    ACT_LISTEN,
    ACT_SEND_BEACON,
    ACT_SEND_MSG,
    FB_NONE,
    resolve_block,
)

N = 12


def random_lane(rng, W, C, *, listen=0.3, send=0.3, beacon=0.5, jam=0.1):
    """Dense ``(W, N)`` window matrices and a ``(W, C)`` jam mask.  Every
    row draws its channels from a pool of at most three, so cells gather
    several senders and listeners even when ``C`` is large."""
    u = rng.random((W, N))
    actions = np.full((W, N), ACT_IDLE, dtype=np.int8)
    actions[u < listen] = ACT_LISTEN
    senders = (u >= listen) & (u < listen + send)
    actions[senders & (rng.random((W, N)) < beacon)] = ACT_SEND_BEACON
    actions[senders & (actions != ACT_SEND_BEACON)] = ACT_SEND_MSG
    pools = rng.integers(0, C, size=(W, 3))
    channels = np.take_along_axis(pools, rng.integers(0, 3, size=(W, N)), axis=1)
    jammed = rng.random((W, C)) < jam
    return channels, actions, jammed


def resolve_lanes(lanes):
    """Stack the lanes' participants the way ``run_windowed`` does and
    resolve them: ``(listener feedback, listener rows, listener nodes)``."""
    C_max = max(C for _, _, _, C in lanes)
    total = sum(actions.shape[0] for _, actions, _, _ in lanes)
    busy = np.zeros((total, C_max), dtype=bool)
    jam = np.zeros((total, C_max), dtype=bool)
    parts, off = [], 0
    for channels, actions, jammed, C in lanes:
        W = actions.shape[0]
        rows, nodes = np.divmod(np.flatnonzero(actions != ACT_IDLE), N)
        parts.append((rows + off, nodes, actions[rows, nodes], channels[rows, nodes]))
        jam[off:off + W, :C] = jammed
        off += W
    rows, nodes, acts, chans = (np.concatenate(x) for x in zip(*parts))
    sending = np.flatnonzero(acts >= ACT_SEND_MSG)
    send_key = rows[sending] * C_max + chans[sending]
    busy.ravel()[send_key] = True
    listening = np.flatnonzero(acts == ACT_LISTEN)
    feedback = _listener_feedback(
        rows[listening] * C_max + chans[listening], send_key, acts[sending], busy, jam
    )
    return feedback, rows[listening], nodes[listening]


def oracle(lanes):
    """``resolve_block`` per lane, read at the listeners in (row, node) order."""
    out = []
    for channels, actions, jammed, _ in lanes:
        dense = resolve_block(channels, actions, jammed, check=True)
        out.append(dense[actions == ACT_LISTEN])
    return np.concatenate(out)


def sender_counts(lanes):
    """Senders on each listener's cell, listeners in (row, node) order."""
    out = []
    for channels, actions, _, _ in lanes:
        for t in range(actions.shape[0]):
            sends = channels[t][actions[t] >= ACT_SEND_MSG]
            for u in np.flatnonzero(actions[t] == ACT_LISTEN):
                out.append(int((sends == channels[t, u]).sum()))
    return np.array(out, dtype=np.int64)


@pytest.mark.parametrize("seed", range(6))
def test_stacked_lanes_match_resolve_block(seed):
    rng = np.random.default_rng(seed)
    lanes = []
    for C in (2, 6, 64, 2**12):
        W = int(rng.integers(1, 40))
        channels, actions, jammed = random_lane(rng, W, C)
        lanes.append((channels, actions, jammed, C))
    feedback, rows, nodes = resolve_lanes(lanes)
    np.testing.assert_array_equal(feedback, oracle(lanes))
    # (row, node) order is the order absorb_window reads
    assert (np.diff(rows * N + nodes) > 0).all()
    counts = sender_counts(lanes)
    assert {0, 1, 2}.issubset(set(counts.tolist())) and (counts >= 3).any()


@pytest.mark.parametrize("C", [2, 32, 2**12])
def test_lone_beacons_and_lone_messages(C):
    """Every sender a beacon, then every sender a message: a lone sender's
    payload is what its listeners hear."""
    rng = np.random.default_rng(C)
    for beacon in (1.0, 0.0):
        channels, actions, jammed = random_lane(rng, 60, C, beacon=beacon, jam=0.0)
        lanes = [(channels, actions, jammed, C)]
        np.testing.assert_array_equal(resolve_lanes(lanes)[0], oracle(lanes))


def test_empty_windows():
    """Windows with no participant, no sender or no listener stack with
    busy ones, and a pass without listeners resolves to nothing."""
    rng = np.random.default_rng(7)
    idle = np.full((5, N), ACT_IDLE, dtype=np.int8)
    zeros = np.zeros((5, N), dtype=np.int64)
    all_jammed = np.ones((5, 4), dtype=bool)
    ch, act, jam = random_lane(rng, 9, 8)
    lanes = [
        (zeros, idle, all_jammed, 4),
        (ch, np.where(act == ACT_LISTEN, act, ACT_IDLE).astype(np.int8), jam, 8),
        (ch, act, jam, 8),
        (ch, np.where(act >= ACT_SEND_MSG, act, ACT_IDLE).astype(np.int8), jam, 8),
    ]
    np.testing.assert_array_equal(resolve_lanes(lanes)[0], oracle(lanes))
    feedback, rows, nodes = resolve_lanes([(zeros, idle, all_jammed, 4)])
    assert feedback.size == rows.size == nodes.size == 0


class _Dense(ColumnProtocol):
    """Just enough of an adapter to reach the two conversions."""

    n = N
    current_channels = begin_slot = end_slot = begin_window = None
    absorb_window = done = result = None


def test_dense_conversions_round_trip():
    """``_participants`` serves every acting node of a dense window, in
    (row, node) order, and ``_densify`` puts listener feedback back."""
    rng = np.random.default_rng(3)
    channels, actions, _ = random_lane(rng, 17, 5)
    W, rows, nodes, acts, chans = _Dense()._participants(channels, actions)
    assert W == 17
    np.testing.assert_array_equal(
        rows * N + nodes, np.flatnonzero(actions != ACT_IDLE)
    )
    np.testing.assert_array_equal(acts, actions[actions != ACT_IDLE])
    np.testing.assert_array_equal(chans, channels[actions != ACT_IDLE])
    listening = acts == ACT_LISTEN
    codes = rng.integers(0, 4, size=int(listening.sum())).astype(np.int8)
    dense = _Dense()._densify(W, rows[listening], nodes[listening], codes)
    assert dense.shape == (W, N)
    np.testing.assert_array_equal(dense[actions == ACT_LISTEN], codes)
    assert (dense[actions != ACT_LISTEN] == FB_NONE).all()
