"""Block-stepped (windowed) arena driver: the arena's one production engine.

The slot-stepped arena pays one adversary query and one single-slot kernel
pass per slot, as if a reactive Eve's answer for slot ``t`` could feed back
into who transmits in slot ``t``.  It cannot: a latency-``L`` jammer
(``L >= 0``) decides slot ``t`` from the busy mask of slot ``t - L``, and
two facts then make whole windows resolvable in one batched pass:

1. **Busy masks don't depend on jamming.**  ``busy[t]`` is derived from the
   nodes' channel/action columns alone; jamming corrupts *feedback*, never
   presence.  So for a window whose actions are fixed, every row's busy mask
   — and hence every jam target, via the committed-history ring for the
   first ``L`` rows and in-window rows after that — is known *before* Eve
   answers a single slot.  At ``L = 0`` (within-slot sensing, the sniper)
   there is no ring at all: every row targets its own busy mask.
2. **Actions change rarely and detectably.**  Node actions are precomputed
   from status-independent draws (the ``PeriodDraws`` discipline) and only
   change at informing events (at most ``n - 1`` per run) and schedule
   boundaries adapters already clip windows to.  The driver therefore
   resolves a window *speculatively*, lets the adapter commit the prefix up
   to the first action-changing event (the event row's own feedback is
   final: it was computed from pre-event actions), rolls Eve's generator
   back to the window entry, replays her over exactly the committed prefix
   (identical targets, identical draws — see
   :meth:`~repro.adversary.reactive.ReactiveJammer.jam_window`), and
   re-windows from the event.  Draw-for-draw, the execution is the
   slot-stepped run — the differential suite
   (``tests/arena/test_window_equivalence.py``) asserts bit-identity.

Windows travel as *participant lists* (:meth:`ColumnProtocol.begin_window
<repro.arena.columns.ColumnProtocol.begin_window>`): each acting node's
row, node, action and channel, never a dense ``(W, n)`` matrix.  The
driver marks the busy cells from the senders and resolves every listener
in one call of one resolver (:func:`_listener_feedback`), whose only
grids are the pass's ``(rows, C)`` busy and jam masks.

On top of window stepping, the driver hosts a **trial-lane axis**: ``B``
independent trials of the same protocol stack their participants
lane-major, each lane's rows offset past the previous lane's window, into
one resolver call per pass (rows are resolved independently, so lane
stacking is exact), with per-lane books in
:class:`repro.arena.network.ArenaLanes` and finished lanes dropping out of
the live set.  ``B = 1`` is the single-trial path behind
:func:`~repro.arena.run.run_broadcast_adaptive`.

The driver hosts every adversary the arena accepts, under one rule: a lane
*speculates* (resolves windows wider than one slot) only when its adversary
can be rolled back exactly.  That is no adversary at all; a reactive jammer
with a sensing latency (queried once per window through ``jam_window``); or
an oblivious jammer with ``checkpoint``/``restore``
(:class:`~repro.adversary.base.ObliviousJammer`).  Oblivious rows are asked
one slot at a time, ``jam_block(t, 1, C)`` per row, exactly like the slot
oracle: a single window-sized query may draw differently (``RandomJammer``
switches to per-row binomials once ``K * C`` is large).  After a truncated
window either kind is rewound and replayed over the committed prefix.  Every
other lane (a reactive jammer with ``window_latency`` ``None``, an oblivious
adversary without checkpoints) runs at window width 1, queried per row, so
nothing speculative needs undoing.  The slot-stepped loop itself survives
only as the test oracle :func:`repro.arena.network.run_slot_stepped`.

See DESIGN.md section 11 for the soundness argument and the RNG rollback
discipline.
"""

from __future__ import annotations

import time
from collections import deque
from typing import List, Optional, Sequence

import numpy as np

from repro.arena.columns import ColumnProtocol
from repro.arena.network import ArenaLanes
from repro.core.result import BroadcastResult
from repro.obs.recorder import active as _obs_active
from repro.sim.channel import (
    ACT_LISTEN,
    ACT_SEND_BEACON,
    ACT_SEND_MSG,
    FB_BEACON,
    FB_MSG,
    FB_NOISE,
    FB_SILENCE,
)
from repro.sim.jam import JamBlock

__all__ = ["WINDOW_CAP", "run_windowed"]

#: Default ceiling on speculative window width (slots).  Windows are clipped
#: to schedule boundaries anyway; the cap bounds the per-pass working set and
#: the cost of a discarded suffix after an informing event.
WINDOW_CAP = 2048

#: Opening (and post-event) speculative width.  Informing events truncate the
#: window and discard the resolved suffix, so lanes probe with small windows
#: while events are dense (the spread phase) and double toward ``window_cap``
#: after every fully-committed pass.  Window size never affects results —
#: only how much speculative work an event throws away.
WINDOW_MIN = 64


#: How a lane's adversary is asked for jamming (see the module docstring).
_QUIET, _SENSING, _REACTIVE, _OBLIVIOUS = range(4)


def _lane_kind(adversary):
    """``(kind, speculates)`` for one lane: the single rule deciding how the
    driver queries ``adversary`` and whether the lane may resolve windows
    wider than one slot (only when the adversary rolls back exactly)."""
    if adversary is None:
        return _QUIET, True
    if hasattr(adversary, "jam_slot"):
        latency = getattr(adversary, "window_latency", None)
        if latency is not None and latency >= 0:
            return _SENSING, True
        return _REACTIVE, False
    return _OBLIVIOUS, hasattr(adversary, "checkpoint")


def _query_rows(adversary, clock: int, rows: int, C: int, out=None) -> None:
    """Ask an oblivious adversary for ``rows`` slots one slot at a time —
    the slot oracle's query shape, so the draws match it row for row —
    marking the jammed channels in ``out`` (``None`` replays the draws)."""
    for t in range(rows):
        block = JamBlock.coerce(adversary.jam_block(clock + t, 1, C))
        if out is not None:
            out[t, block.channels] = True


def _listener_feedback(
    listen_key: np.ndarray,
    send_key: np.ndarray,
    send_acts: np.ndarray,
    busy: np.ndarray,
    jam: np.ndarray,
) -> np.ndarray:
    """Resolve a pass's listeners: the window kernel's one resolver.

    Keys are flat ``row * C + channel`` cells of the pass's ``(rows, C)``
    ``busy`` grid (a cell is busy iff it holds a sender) and ``jam`` grid;
    ``send_acts`` are the senders' ``ACT_SEND_*`` codes.  A listener hears
    noise where its cell is jammed or holds two or more senders, the lone
    sender's payload (``m`` or the beacon) where it holds exactly one, and
    silence otherwise — :func:`repro.sim.channel.resolve_block`'s rules.
    Only listeners on busy cells look their senders up, by binary search
    in the sorted sender keys; nothing is sized by the grid but the two
    grids themselves."""
    feedback = np.full(listen_key.size, FB_SILENCE, dtype=np.int8)
    heard = np.flatnonzero(busy.ravel()[listen_key])
    if heard.size:
        order = np.argsort(send_key, kind="stable")
        keys = send_key[order]
        cell = listen_key[heard]
        first = keys.searchsorted(cell)
        after = np.minimum(first + 1, keys.size - 1)
        lone = (first + 1 == keys.size) | (keys[after] != cell)
        payload = np.where(
            send_acts[order[first]] == ACT_SEND_BEACON, FB_BEACON, FB_MSG
        )
        feedback[heard] = np.where(lone, payload, FB_NOISE)
    feedback[jam.ravel()[listen_key]] = FB_NOISE
    return feedback


def run_windowed(
    columns: Sequence[ColumnProtocol],
    adversaries: Sequence[Optional[object]],
    *,
    max_slots=50_000_000,
    window_cap: int = WINDOW_CAP,
) -> List[BroadcastResult]:
    """Run ``B`` lanes window-stepped; lane ``b`` is bit-identical to the
    slot-stepped oracle run of ``(columns[b], adversaries[b])``
    (:func:`repro.arena.network.run_slot_stepped`).

    ``columns`` are freshly-lifted adapters (one per lane, same protocol
    family and ``n``); ``adversaries`` entries are ``None``, oblivious or
    reactive jammers (they are ``reset()`` here, like the slot oracle
    does).  ``max_slots`` is one cap for every lane or one per lane.
    ``window_cap`` bounds the speculative width; it never changes a result.
    Results carry the adapters' usual extras plus
    ``extras["backend"] = "arena-window"``.
    """
    B = len(columns)
    if len(adversaries) != B:
        raise ValueError("need one adversary entry per lane")
    if B == 0:
        return []
    if int(window_cap) < 1:
        raise ValueError("window_cap must be >= 1")
    caps = np.broadcast_to(np.asarray(max_slots, dtype=np.int64), (B,))
    n = columns[0].n
    for cols, adv in zip(columns, adversaries):
        if cols.n != n:
            raise ValueError("all lanes must share one population size")
        if adv is not None:
            adv.reset()
    lanes = ArenaLanes(n, adversaries)
    kinds = [_lane_kind(adv) for adv in adversaries]
    latency = [
        int(adv.window_latency) if kind == _SENSING else 0
        for adv, (kind, _) in zip(adversaries, kinds)
    ]
    # per-lane ring of the last L committed (C, busy_row) pairs — the
    # driver-side stand-in for the jammers' internal sensing history (empty
    # at L = 0: within-slot sensing reads only in-window rows)
    rings = [deque(maxlen=L) for L in latency]
    # lanes whose adversary cannot roll back never speculate: width 1
    lane_cap = [int(window_cap) if speculates else 1 for _, speculates in kinds]
    want = [min(WINDOW_MIN, c) for c in lane_cap]  # adaptive speculative width
    live = list(range(B))
    tel = _obs_active()
    while live:
        # -- propose one window per live lane --------------------------------
        entries = []
        for b in live:
            cols = columns[b]
            clock = lanes.clock(b)
            limit = min(want[b], int(caps[b]) - clock)
            if limit <= 0:
                lanes.overrun[b] = True
                continue
            W, rows, nodes, acts, chans = cols.begin_window(clock, limit)
            entries.append(
                (b, clock, cols.current_channels(), W, rows, nodes, acts, chans)
            )
        if not entries:
            break
        # -- one lane-stacked kernel pass ------------------------------------
        if tel is not None:
            t0 = time.perf_counter()
        widths = [e[3] for e in entries]
        total = sum(widths)
        C_max = max(e[2] for e in entries)
        if len(entries) == 1:  # single live lane: the adapter's own arrays
            rows, nodes, acts, chans = entries[0][4:]
        else:  # stack lanes by offsetting each lane's rows past the last
            starts = np.cumsum([0] + widths[:-1])
            rows = np.concatenate([e[4] + off for e, off in zip(entries, starts)])
            nodes = np.concatenate([e[5] for e in entries])
            acts = np.concatenate([e[6] for e in entries])
            chans = np.concatenate([e[7] for e in entries])
        sending = np.flatnonzero(acts >= ACT_SEND_MSG)
        send_r, send_u = rows[sending], nodes[sending]
        send_key = send_r * C_max + chans[sending]
        busy = np.zeros((total, C_max), dtype=bool)
        busy.ravel()[send_key] = True
        listening = np.flatnonzero(acts == ACT_LISTEN)
        listen_r, listen_u = rows[listening], nodes[listening]
        jam = np.zeros((total, C_max), dtype=bool)
        rollbacks = []  # per-entry (checkpoint, targets, valid) or None
        off = 0
        for i, (b, clock, C, W, *_) in enumerate(entries):
            adv = adversaries[b]
            kind = kinds[b][0]
            rollback = None
            if kind == _SENSING:
                L = latency[b]
                targets = np.zeros((W, C), dtype=bool)
                valid = np.zeros(W, dtype=bool)
                if W > L:
                    # in-window sensing: busy is jam-independent, so rows
                    # L.. see final masks even before Eve answers
                    targets[L:] = busy[off:off + W - L, :C]
                    valid[L:] = True
                ring = rings[b]
                m = len(ring)
                for t in range(min(L, W)):
                    idx = t - L + m  # ring[i] is busy at clock - m + i
                    if idx >= 0:
                        hist_C, hist_row = ring[idx]
                        if hist_C == C:
                            targets[t, :] = hist_row
                            valid[t] = True
                    # idx < 0: warm-up — the per-slot path jams nothing there
                rollback = (adv.checkpoint(), targets, valid)
                jam[off:off + W, :C] = adv.jam_window(clock, targets, valid)
            elif kind == _REACTIVE:  # width 1: the oracle's own query
                jam[off, :C] = adv.jam_slot(clock, busy[off, :C].copy())
            elif kind == _OBLIVIOUS:
                if W > 1:  # a one-slot window always commits whole
                    rollback = (adv.checkpoint(), None, None)
                _query_rows(adv, clock, W, C, jam[off:off + W])
            if kind != _QUIET and tel is not None:
                tel.count("window.adv_queries")
            rollbacks.append(rollback)
            off += W
        feedback = _listener_feedback(
            listen_r * C_max + chans[listening], send_key, acts[sending], busy, jam
        )
        if tel is not None:
            tel.add_time("window.kernel_s", time.perf_counter() - t0)
            tel.count("window.passes")
            tel.count("window.participants", rows.size)
            tel.count("window.node_slots", total * n)
            tel.observe("window.occupancy", len(entries))
        # -- commit per-lane prefixes ----------------------------------------
        next_live = []
        off = 0
        for i, (b, clock, C, W, *_) in enumerate(entries):
            cols = columns[b]
            lo = np.searchsorted(listen_r, off)
            hi = np.searchsorted(listen_r, off + W)
            A = cols.absorb_window(
                clock, W, listen_r[lo:hi] - off, listen_u[lo:hi], feedback[lo:hi]
            )
            cap = lane_cap[b]
            want[b] = min(want[b] * 2, cap) if A == W else min(WINDOW_MIN, cap)
            adv = adversaries[b]
            if tel is not None:
                tel.observe("window.proposed", W)
                tel.observe("window.committed", A)
                tel.count("window.slots_proposed", W)
                tel.count("window.slots_committed", A)
                if A < W:
                    tel.count("window.truncations")
            if A < W and rollbacks[i] is not None:
                # an event truncated the window: rewind Eve and replay her
                # over exactly the committed prefix (identical queries →
                # identical draws → identical masks and spend)
                ckpt, targets, valid = rollbacks[i]
                adv.restore(ckpt)
                if targets is None:
                    _query_rows(adv, clock, A, C)
                else:
                    adv.jam_window(clock, targets[:A], valid[:A])
                if tel is not None:
                    tel.count("window.rollbacks")
                    tel.count("window.adv_queries")
                    tel.count("window.replayed_slots", A)
            hi = np.searchsorted(listen_r, off + A)
            listen_counts = np.bincount(listen_u[lo:hi], minlength=n)
            lo = np.searchsorted(send_r, off)
            hi = np.searchsorted(send_r, off + A)
            send_counts = np.bincount(send_u[lo:hi], minlength=n)
            lanes.commit(
                b,
                listen_counts,
                send_counts,
                int(jam[off:off + A].sum()),
                A,
            )
            ring = rings[b]
            lane_busy = busy[off:off + W, :C]
            for t in range(max(0, A - latency[b]), A):
                ring.append((C, lane_busy[t].copy()))
            off += W
            if not cols.done:
                next_live.append(b)
        live = next_live
    results = [columns[b].result(lanes.view(b)) for b in range(B)]
    for result in results:
        result.extras["backend"] = "arena-window"
    return results
