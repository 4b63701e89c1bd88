"""Block-stepped (windowed) arena driver: reactive runs at block-engine speed.

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

On top of window stepping, the driver hosts a **trial-lane axis**: ``B``
independent trials of the same protocol stack their window rows lane-major
into one :func:`repro.sim.channel.resolve_block` call per pass (rows are
resolved independently, so lane stacking is exact), with per-lane books in
:class:`repro.arena.network.ArenaLanes` and finished lanes dropping out of
the live set.  ``B = 1`` is the single-trial windowed path behind
``run_broadcast_adaptive(backend="window")``.

See DESIGN.md section 11 for the soundness argument and the RNG rollback
discipline.
"""

from __future__ import annotations

import time
from collections import deque
from typing import List, Optional, Sequence

import numpy as np

from repro.arena.columns import ColumnProtocol
from repro.obs.recorder import active as _obs_active
from repro.arena.network import ArenaLanes
from repro.core.result import BroadcastResult
from repro.sim.channel import (
    ACT_LISTEN,
    ACT_SEND_MSG,
    DENSE_CELL_LIMIT,
    FB_MSG,
    FB_NOISE,
    FB_NONE,
    FB_SILENCE,
    _resolve_dense,
    resolve_block,
)

__all__ = ["WINDOW_CAP", "run_windowed", "windowable_adversary"]

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


def windowable_adversary(adversary) -> bool:
    """True when the windowed driver can host ``adversary``: no jamming at
    all, or a reactive jammer advertising a sensing latency >= 0
    (:attr:`~repro.adversary.reactive.ReactiveJammer.window_latency`).

    The single windowability rule: ``run_broadcast_adaptive``'s ``auto``
    routing, ``run_broadcast_batch``'s all-reactive routing and
    :func:`run_windowed`'s validation all ask it.  Oblivious jammers and
    reactive strategies without the window interface (``window_latency``
    ``None``) need the slot-stepped loop."""
    if adversary is None:
        return True
    if not hasattr(adversary, "jam_slot"):
        return False
    latency = getattr(adversary, "window_latency", None)
    return latency is not None and latency >= 0


def run_windowed(
    columns: Sequence[ColumnProtocol],
    adversaries: Sequence[Optional[object]],
    *,
    max_slots: int = 50_000_000,
    window_cap: int = WINDOW_CAP,
) -> List[BroadcastResult]:
    """Run ``B`` lanes window-stepped; lane ``b`` is bit-identical to the
    slot-stepped ``run_broadcast_adaptive(..., backend="slot")`` run of
    ``(columns[b], adversaries[b])``.

    ``columns`` are freshly-lifted adapters (one per lane, same protocol
    family and ``n``); ``adversaries`` entries are ``None`` or reactive
    jammers passing :func:`windowable_adversary` (they are ``reset()`` here,
    like the slot driver does via ``run_broadcast``'s contract).  Results
    carry the adapters' usual extras; the caller stamps ``extras["backend"]``.
    """
    B = len(columns)
    if len(adversaries) != B:
        raise ValueError("need one adversary entry per lane")
    if B == 0:
        return []
    if int(window_cap) < 1:
        raise ValueError("window_cap must be >= 1")
    n = columns[0].n
    for cols, adv in zip(columns, adversaries):
        if cols.n != n:
            raise ValueError("all lanes must share one population size")
        if not cols.supports_windows:
            raise ValueError(f"{type(cols).__name__} has no window interface")
        if not windowable_adversary(adv):
            raise ValueError(
                "adversary cannot be window-stepped (oblivious, or no window "
                "interface) — use the slot-stepped path"
            )
        if adv is not None:
            adv.reset()
    lanes = ArenaLanes(n, adversaries, max_slots=max_slots)
    latency = [0 if a is None else int(a.window_latency) for a in adversaries]
    # per-lane ring of the last L committed (C, busy_row) pairs — the
    # driver-side stand-in for the jammers' internal sensing history (empty
    # at L = 0: within-slot sensing reads only in-window rows)
    rings = [deque(maxlen=L) for L in latency]
    cap = int(window_cap)
    want = [min(WINDOW_MIN, cap)] * B  # adaptive per-lane speculative width
    any_beacons = any(cols.emits_beacons for cols in columns)
    live = list(range(B))
    tel = _obs_active()
    while live:
        # -- propose one window per live lane --------------------------------
        entries = []
        for b in live:
            cols = columns[b]
            clock = lanes.clock(b)
            limit = min(want[b], max_slots - clock)
            if limit <= 0:
                lanes.overrun[b] = True
                continue
            ch, act = cols.begin_window(clock, limit)
            entries.append((b, clock, cols.current_channels(), ch, act))
        if not entries:
            break
        # -- one lane-stacked kernel pass ------------------------------------
        if tel is not None:
            t0 = time.perf_counter()
        widths = [e[4].shape[0] for e in entries]
        rows = sum(widths)
        C_max = max(e[2] for e in entries)
        if len(entries) == 1:  # single live lane: serve the adapter's views
            channels, actions = entries[0][3], entries[0][4]
        else:
            channels = np.concatenate([e[3] for e in entries], axis=0)
            actions = np.concatenate([e[4] for e in entries], axis=0)
        busy = np.zeros((rows, C_max), dtype=bool)
        part_r, part_u = np.nonzero(actions)  # one scan for both classes
        acts = actions[part_r, part_u]
        sending = acts >= ACT_SEND_MSG
        send_r, send_u = part_r[sending], part_u[sending]
        listening = acts == ACT_LISTEN
        listen_r, listen_u = part_r[listening], part_u[listening]
        ch_send = channels[send_r, send_u]
        busy[send_r, ch_send] = True
        jam = np.zeros((rows, C_max), dtype=bool)
        specs = []  # per-entry (checkpoint, targets, valid) for rollback
        off = 0
        for i, (b, clock, C, ch, act) in enumerate(entries):
            W = widths[i]
            adv = adversaries[b]
            if adv is None:
                specs.append(None)
            else:
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
                ckpt = adv.checkpoint()
                jam[off:off + W, :C] = adv.jam_window(clock, targets, valid)
                specs.append((ckpt, targets, valid))
                if tel is not None:
                    tel.count("window.adv_queries")
            off += W
        if not any_beacons:
            # inline no-beacon resolution (same rules as _resolve_dense with
            # an empty beacon class), reusing the sender gather from the busy
            # scatter: all grid work is (rows, C), never (rows, n)
            counts = np.bincount(
                send_r * C_max + ch_send, minlength=rows * C_max
            ).reshape(rows, C_max)
            grid = np.full((rows, C_max), FB_SILENCE, dtype=np.int8)
            grid[counts == 1] = FB_MSG
            grid[jam | (counts >= 2)] = FB_NOISE
            feedback = np.full((rows, n), FB_NONE, dtype=np.int8)
            feedback[listen_r, listen_u] = grid[
                listen_r, channels[listen_r, listen_u]
            ]
        elif rows * C_max <= DENSE_CELL_LIMIT:
            # jam is already the dense (rows, C) mask resolve_block would
            # rebuild; skip its JamBlock round-trip and validation
            feedback = _resolve_dense(channels, actions, jam)
        else:
            feedback = resolve_block(channels, actions, jam)
        if tel is not None:
            tel.add_time("window.kernel_s", time.perf_counter() - t0)
            tel.count("window.passes")
            tel.observe("window.occupancy", len(entries))
        # -- commit per-lane prefixes ----------------------------------------
        next_live = []
        off = 0
        for i, (b, clock, C, ch, act) in enumerate(entries):
            W = widths[i]
            cols = columns[b]
            A = cols.absorb_window(clock, feedback[off:off + W])
            want[b] = min(want[b] * 2, cap) if A == W else min(WINDOW_MIN, cap)
            adv = adversaries[b]
            if tel is not None:
                tel.observe("window.proposed", W)
                tel.observe("window.committed", A)
                tel.count("window.slots_proposed", W)
                tel.count("window.slots_committed", A)
                if A < W:
                    tel.count("window.truncations")
            if adv is not None and A < W:
                # an event truncated the window: rewind Eve and replay her
                # over exactly the committed prefix (identical targets →
                # identical draws → identical masks and spend)
                ckpt, targets, valid = specs[i]
                adv.restore(ckpt)
                adv.jam_window(clock, targets[:A], valid[:A])
                if tel is not None:
                    tel.count("window.rollbacks")
                    tel.count("window.adv_queries")
                    tel.count("window.replayed_slots", A)
            lo = np.searchsorted(listen_r, off)
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
    return [columns[b].result(lanes.view(b)) for b in range(B)]
