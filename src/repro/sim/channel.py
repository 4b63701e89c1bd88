"""Channel-contention semantics of the radio-network model (paper section 3).

This module is the innermost kernel of the simulator.  Given, for a block of
``K`` consecutive slots, each node's channel choice and action, plus the
adversary's jamming mask, :func:`resolve_block` computes every listener's
feedback in one vectorized pass (a single flat ``np.bincount`` per message
type plus boolean algebra — no Python-level slot loop).

Model rules, per (slot, channel):

========================  =========================================
condition                 every listener on the channel observes
========================  =========================================
0 broadcasters, no jam    silence (``FB_SILENCE``)
1 broadcaster,  no jam    the broadcast payload (``FB_MSG``/``FB_BEACON``)
>=2 broadcasters or jam   noise (``FB_NOISE``)
========================  =========================================

Broadcasters receive no feedback (``FB_NONE``), and nodes cannot distinguish
collision noise from jamming noise — both map to ``FB_NOISE``.

Two payload kinds exist because ``MultiCastAdv`` (paper Fig. 4) lets
uninformed nodes broadcast a special beacon ``+-`` in step two; all other
protocols only ever send the source message ``m``.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.sim.jam import JamBlock

__all__ = [
    "ACT_IDLE",
    "ACT_LISTEN",
    "ACT_SEND_MSG",
    "ACT_SEND_BEACON",
    "FB_NONE",
    "FB_SILENCE",
    "FB_MSG",
    "FB_BEACON",
    "FB_NOISE",
    "resolve_block",
    "resolve_slot",
]

# -- node actions (per slot) -------------------------------------------------
ACT_IDLE = np.int8(0)  #: do nothing (free)
ACT_LISTEN = np.int8(1)  #: listen on the chosen channel (cost 1)
ACT_SEND_MSG = np.int8(2)  #: broadcast the source message ``m`` (cost 1)
ACT_SEND_BEACON = np.int8(3)  #: broadcast the beacon ``+-`` (cost 1)

# -- listener feedback --------------------------------------------------------
FB_NONE = np.int8(-1)  #: the node did not listen this slot
FB_SILENCE = np.int8(0)  #: clear channel
FB_MSG = np.int8(1)  #: received the source message ``m``
FB_BEACON = np.int8(2)  #: received the beacon ``+-``
FB_NOISE = np.int8(3)  #: collision and/or jamming (indistinguishable)

_SENDING = (ACT_SEND_MSG, ACT_SEND_BEACON)


#: Above this many (slot, channel) cells the dense grid path switches to the
#: sparse participant-keyed path (``MultiCastAdv`` reaches C = 2^25+).
DENSE_CELL_LIMIT = 1 << 22


def resolve_block(
    channels: np.ndarray,
    actions: np.ndarray,
    jammed: Union[np.ndarray, JamBlock],
    *,
    check: bool = False,
) -> np.ndarray:
    """Resolve a block of slots and return per-node feedback.

    Parameters
    ----------
    channels:
        ``(K, n)`` integer array; ``channels[t, u]`` is node ``u``'s channel in
        slot ``t`` of the block, in ``[0, C)``.  Only consulted for nodes whose
        action is not ``ACT_IDLE``.
    actions:
        ``(K, n)`` int8 array of ``ACT_*`` codes.
    jammed:
        The adversary's mask for the block: a dense ``(K, C)`` boolean array
        or a sparse :class:`repro.sim.jam.JamBlock`.
    check:
        When true, validate shapes/ranges (cheap but not free; used by tests).

    Returns
    -------
    ``(K, n)`` int8 array of ``FB_*`` codes.  Nodes that did not listen get
    ``FB_NONE``.

    Notes
    -----
    Two code paths, same semantics (tests cross-check them):

    * **dense** (K*C small): one flat ``np.bincount`` per payload over a
      (K, C) grid, then classify only at listener positions — O(K·(n + C));
    * **sparse** (K*C large): outcomes are computed only at the <= K·n
      (slot, channel) keys actually touched by a non-idle node, with jamming
      answered by the JamBlock's binary search — O(K·n·log) independent of C.
    """
    jam = JamBlock.coerce(jammed)
    K, n = actions.shape
    C = jam.C
    if check:
        if channels.shape != (K, n):
            raise ValueError(f"channels shape {channels.shape} != {(K, n)}")
        if jam.K != K:
            raise ValueError(f"jam block has {jam.K} slots, actions have {K}")
        busy = actions != ACT_IDLE
        if busy.any():
            chosen = channels[busy]
            if chosen.min() < 0 or chosen.max() >= C:
                raise ValueError("channel index out of range [0, C)")
        if not np.isin(actions, (ACT_IDLE, ACT_LISTEN, ACT_SEND_MSG, ACT_SEND_BEACON)).all():
            raise ValueError("invalid action code")

    if K * C <= DENSE_CELL_LIMIT:
        return _resolve_dense(channels, actions, jam.to_dense())
    return _resolve_sparse(channels, actions, jam)


def _resolve_dense(
    channels: np.ndarray, actions: np.ndarray, jammed: np.ndarray
) -> np.ndarray:
    """Dense-grid resolution (small K*C).

    Senders are counted on the flat ``(K, C)`` grid (one bincount per
    payload), but the outcome rules run only at the cells listeners sit on —
    only listeners get feedback — so no pass sweeps the whole grid.
    """
    K, n = actions.shape
    C = jammed.shape[1]
    feedback = np.full((K, n), FB_NONE, dtype=np.int8)
    listen = actions == ACT_LISTEN
    if not listen.any():
        return feedback
    # Flat (slot, channel) index for every sender; one bincount per payload.
    row = np.arange(K, dtype=np.int64)[:, None]
    flat = row * C + channels  # (K, n); garbage for idle nodes, never used

    send_msg = actions == ACT_SEND_MSG
    send_beacon = actions == ACT_SEND_BEACON
    cells = flat[listen]  # listeners' cells, in the order feedback[listen] takes
    msg = np.bincount(flat[send_msg], minlength=K * C)[cells]
    if send_beacon.any():
        beacon = np.bincount(flat[send_beacon], minlength=K * C)[cells]
        total = msg + beacon
    else:
        beacon = None
        total = msg

    # Per-listener outcome: the grid rules, read at the listener's cell.
    heard = np.full(cells.shape, FB_SILENCE, dtype=np.int8)
    heard[(total == 1) & (msg == 1)] = FB_MSG
    if beacon is not None:
        heard[(total == 1) & (beacon == 1)] = FB_BEACON
    heard[jammed.reshape(-1)[cells] | (total >= 2)] = FB_NOISE
    feedback[listen] = heard
    return feedback


def _resolve_sparse(
    channels: np.ndarray, actions: np.ndarray, jam: JamBlock
) -> np.ndarray:
    """Participant-keyed resolution (large C): O(K·n·log), O(K·n) memory."""
    K, n = actions.shape
    C = jam.C
    feedback = np.full((K, n), FB_NONE, dtype=np.int8)
    busy_rows, busy_cols = np.nonzero(actions != ACT_IDLE)
    if busy_rows.size == 0:
        return feedback
    acts = actions[busy_rows, busy_cols]
    keys = busy_rows * np.int64(C) + channels[busy_rows, busy_cols]

    uniq, inv = np.unique(keys, return_inverse=True)
    m = uniq.shape[0]
    msg_counts = np.bincount(inv[acts == ACT_SEND_MSG], minlength=m)
    beacon_counts = np.bincount(inv[acts == ACT_SEND_BEACON], minlength=m)
    total = msg_counts + beacon_counts
    jam_at = jam.lookup_keys(uniq)
    noisy = jam_at | (total >= 2)

    grid = np.full(m, FB_SILENCE, dtype=np.int8)
    grid[(total == 1) & (msg_counts == 1)] = FB_MSG
    grid[(total == 1) & (beacon_counts == 1)] = FB_BEACON
    grid[noisy] = FB_NOISE

    listening = acts == ACT_LISTEN
    feedback[busy_rows[listening], busy_cols[listening]] = grid[inv[listening]]
    return feedback


def resolve_slot(
    channels: np.ndarray,
    actions: np.ndarray,
    jammed: np.ndarray,
) -> np.ndarray:
    """Scalar-friendly single-slot wrapper around :func:`resolve_block`.

    Parameters are the one-slot analogues of :func:`resolve_block`:
    ``channels`` and ``actions`` are ``(n,)``, ``jammed`` is ``(C,)``.
    Used by the readable reference runtime (:mod:`repro.sim.node`).
    """
    fb = resolve_block(
        np.asarray(channels)[None, :],
        np.asarray(actions, dtype=np.int8)[None, :],
        np.asarray(jammed, dtype=bool)[None, :],
    )
    return fb[0]
