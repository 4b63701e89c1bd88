"""Shared vectorized block machinery for all five protocols.

The protocols differ in their period structure (iterations vs. epoch/phase
lattices) and bookkeeping, but the inner loop is identical: draw each node's
channel and coin for a block of slots, map (coin, status) to an action, resolve
contention, and react to "uninformed node heard the message" events.

Event handling is the performance-critical subtlety.  Channel and coin draws
are *status-independent* in every protocol (a node draws the same randomness
whether informed or not — only the interpretation changes), so when a node
becomes informed mid-block we can keep all draws, re-map actions from the
event slot onward, and re-resolve only the tail.  The informed set only grows,
so a block of K slots costs O(K·n) plus O(K·n) per informing event — in
practice a handful of tail re-resolutions per iteration instead of K Python
iterations.

``MultiCastAdv`` step two freezes statuses mid-step (paper section 6.2), which
is the no-event special case: one resolve per block.

This is the scalar engine every protocol's ``run`` uses, and the oracle the
lane kernels of :mod:`repro.core.batch` and :mod:`repro.core.adv_batch` are
tested against; those kernels never materialize action or feedback matrices
(DESIGN.md section 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.sim.jam import JamBlock
from repro.sim.channel import (
    ACT_IDLE,
    ACT_LISTEN,
    ACT_SEND_BEACON,
    ACT_SEND_MSG,
    FB_BEACON,
    FB_MSG,
    FB_NOISE,
    FB_SILENCE,
    resolve_block,
)
from repro.sim.trace import TraceRecorder

__all__ = [
    "ActionBuilder",
    "BlockOutcome",
    "shared_coin_actions",
    "adv_step_one_actions",
    "adv_step_two_actions",
    "spread_block",
    "count_feedback",
]

#: Maps ``(coins, informed, active)`` to an action matrix.  Builders are
#: shape-polymorphic over an optional leading lane axis: with ``(K, n)``
#: coins and ``(n,)`` statuses they return ``(K, n)`` actions; with
#: ``(B, K, n)`` coins and ``(B, n)`` statuses, ``(B, K, n)`` — the status
#: vectors broadcast as ``status[..., None, :]`` against the coins.
ActionBuilder = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def shared_coin_actions(p: float) -> ActionBuilder:
    """Action rule of Figs. 1/2/5: everyone listens w.p. ``p``; informed nodes
    additionally broadcast ``m`` w.p. ``p``; uninformed nodes idle on the
    broadcast coin.  (Pseudocode: ``coin == 1`` -> listen; ``coin == 2`` and
    informed -> broadcast.)  Requires ``p <= 1/2``."""
    if not 0.0 < p <= 0.5:
        raise ValueError(f"listen/broadcast probability p={p} must be in (0, 1/2]")

    def build(coins: np.ndarray, informed: np.ndarray, active: np.ndarray) -> np.ndarray:
        actions = np.zeros(coins.shape, dtype=np.int8)
        act = active[..., None, :]
        listen = (coins < p) & act
        send = (coins >= p) & (coins < 2 * p) & informed[..., None, :] & act
        actions[listen] = ACT_LISTEN
        actions[send] = ACT_SEND_MSG
        return actions

    return build


def adv_step_one_actions(p: float) -> ActionBuilder:
    """Action rule of Fig. 4 step I: on coin success (prob ``p``) uninformed
    nodes listen and non-uninformed nodes broadcast ``m``; otherwise idle."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"participation probability p={p} must be in (0, 1]")

    def build(coins: np.ndarray, informed: np.ndarray, active: np.ndarray) -> np.ndarray:
        actions = np.zeros(coins.shape, dtype=np.int8)
        hit = (coins < p) & active[..., None, :]
        actions[hit & ~informed[..., None, :]] = ACT_LISTEN
        actions[hit & informed[..., None, :]] = ACT_SEND_MSG
        return actions

    return build


def adv_step_two_actions(p: float) -> ActionBuilder:
    """Action rule of Fig. 4 step II: listen w.p. ``p``; broadcast w.p. ``p``
    — the payload is the beacon ``+-`` for uninformed nodes and ``m`` for
    everyone else.  Statuses are frozen for the whole step, so this builder
    is used without the event loop."""
    if not 0.0 < p <= 0.5:
        raise ValueError(f"listen/broadcast probability p={p} must be in (0, 1/2]")

    def build(coins: np.ndarray, informed: np.ndarray, active: np.ndarray) -> np.ndarray:
        actions = np.zeros(coins.shape, dtype=np.int8)
        act = active[..., None, :]
        listen = (coins < p) & act
        send = (coins >= p) & (coins < 2 * p) & act
        actions[listen] = ACT_LISTEN
        actions[send & informed[..., None, :]] = ACT_SEND_MSG
        actions[send & ~informed[..., None, :]] = ACT_SEND_BEACON
        return actions

    return build


@dataclass
class BlockOutcome:
    """Result of resolving one block: final actions, feedback, new statuses."""

    actions: np.ndarray  #: (K, n) int8 — what each node actually did
    feedback: np.ndarray  #: (K, n) int8 — FB_* per node per slot
    informed: np.ndarray  #: (n,) bool — informed set after the block


def spread_block(
    channels: np.ndarray,
    coins: np.ndarray,
    jam: np.ndarray,
    informed: np.ndarray,
    active: np.ndarray,
    build_actions: ActionBuilder,
    *,
    learn: bool = True,
    slot0: int = 0,
    slot_scale: int = 1,
    informed_slot: Optional[np.ndarray] = None,
    trace: Optional[TraceRecorder] = None,
) -> BlockOutcome:
    """Resolve a block, flipping uninformed listeners to informed on the fly.

    Parameters
    ----------
    channels, coins:
        ``(K, n)`` draws; status-independent (see module docstring).
    jam:
        ``(K, C)`` adversary mask for these slots.
    informed, active:
        ``(n,)`` boolean status vectors *at block entry* (not modified).
    build_actions:
        One of the action rules above.
    learn:
        If False, statuses are frozen (Fig. 4 step II): one resolve, no events.
    slot0:
        Global slot index of the block's first row, for bookkeeping.
    slot_scale:
        Physical slots per row — 1 for the plain protocols; n/(2C) for the
        round-based Fig. 5 variant, so recorded slots stay physical.
    informed_slot:
        Optional ``(n,)`` int64 array updated in place with the global slot at
        which each newly informed node heard the message.
    trace:
        Optional recorder for growth events.
    """
    informed = informed.copy()
    jam = JamBlock.coerce(jam)
    K, n = coins.shape
    # Fast path: frozen statuses (Fig. 4 step II), or nobody left to inform —
    # once every active node is informed no event can fire, so the whole
    # event-scan/tail-re-resolve machinery (and the full-size actions/feedback
    # copies it needs) is skipped.  This is the steady state of every run
    # after dissemination completes.
    if not learn or not (active & ~informed).any():
        actions = build_actions(coins, informed, active)
        feedback = resolve_block(channels, actions, jam)
        return BlockOutcome(actions, feedback, informed)

    # Event loop.  The full-size output arrays are allocated lazily: the
    # common no-event block returns the first resolve's arrays directly
    # instead of copying them.
    actions_full: Optional[np.ndarray] = None
    feedback_full: Optional[np.ndarray] = None
    t0 = 0
    while t0 < K:
        actions = build_actions(coins[t0:], informed, active)
        feedback = resolve_block(channels[t0:], actions, jam.slice(t0))
        can_learn = active & ~informed
        hears = (feedback == FB_MSG) & can_learn[None, :]
        event_rows = np.nonzero(hears.any(axis=1))[0]
        if event_rows.size == 0:
            if actions_full is None:
                return BlockOutcome(actions, feedback, informed)
            actions_full[t0:] = actions
            feedback_full[t0:] = feedback
            break
        if actions_full is None:
            actions_full = np.zeros((K, n), dtype=np.int8)
            feedback_full = np.full((K, n), -1, dtype=np.int8)
        r = int(event_rows[0])
        actions_full[t0 : t0 + r + 1] = actions[: r + 1]
        feedback_full[t0 : t0 + r + 1] = feedback[: r + 1]
        newly = hears[r]
        informed |= newly
        event_slot = slot0 + (t0 + r) * slot_scale
        if informed_slot is not None:
            informed_slot[newly] = event_slot
        if trace is not None:
            trace.record_growth(event_slot, int(informed.sum()))
        t0 += r + 1
    return BlockOutcome(actions_full, feedback_full, informed)


def count_feedback(feedback: np.ndarray) -> dict:
    """Per-node counters over a block: noisy / silent / message / beacon-or-
    message listens — the N_n, N_s, N_m, N'_m of the pseudocode.  Sums over
    the slot axis, so ``(K, n)`` feedback yields ``(n,)`` counters and a
    lane-batched ``(B, K, n)`` block yields ``(B, n)``."""
    noise = (feedback == FB_NOISE).sum(axis=-2, dtype=np.int64)
    silence = (feedback == FB_SILENCE).sum(axis=-2, dtype=np.int64)
    msg = (feedback == FB_MSG).sum(axis=-2, dtype=np.int64)
    beacon = (feedback == FB_BEACON).sum(axis=-2, dtype=np.int64)
    return {"noise": noise, "silence": silence, "msg": msg, "msg_or_beacon": msg + beacon}
