"""Batched (lane-axis) trial execution — many seeded runs, one kernel pass.

Every statistic this reproduction reports is a rate over independently
seeded trials, and on a single core the only remaining speed lever is
amortizing per-block interpreter and kernel overhead across those trials.
This module is the protocol-layer half of that move (DESIGN.md sections 6
and 13):

* :func:`_shared_coin_ragged` — the lane-batched block kernel for the
  shared-coin action rule (Figs. 1/2/5).  The iteration loop never consumes
  action or feedback *matrices* — only per-node listen/send/noise totals,
  the informing events, and the resulting statuses — and under the shared
  coin all of those are pure functions of the ~2pKn draws that clear the
  participation coin.  So the kernel extracts those participants once,
  resolves the "uninformed node heard m" cascade as a vectorized
  fixed-point over per-node informing rows, and reduces the counters in one
  sender-keyed pass — no ``resolve_block``, no ``(B, K, n)`` action/feedback
  materialization, one flat key space ``global_row*C + channel``.
* :func:`_epidemic_ragged` — the always-on kernel of the Decay and Naive
  baselines (every uninformed node listens in every row), settling each
  lane's earliest hearing row per pass.
* :class:`LaneStream` — ``W`` lane slots over a pending trial queue; a slot
  whose trial retires is refilled with the next one.  Two drivers host the
  kernels above on it: :func:`run_iterations_stream`, the shared iteration
  loop of ``MultiCastCore`` (Fig. 1), ``MultiCast`` (Fig. 2) and
  ``MultiCast(C)`` (Fig. 5), and :class:`EpidemicStream` for Decay and
  Naive.
* :func:`run_broadcast_stream` — the batch analogue of
  :func:`repro.core.result.run_broadcast` and the one dispatcher: it splits
  its trial list once by adversary family.  Reactive trials run on the
  windowed arena; the rest run as one :class:`LaneStream` through the
  protocol's ``run_stream``.  The scalar block engine is left only for
  ``trace=`` and for protocols without ``run_stream``, and those fallbacks
  are loud: one stderr line (or one campaign-scoped :class:`FallbackNotes`
  entry) and ``extras["backend"] = "scalar-fallback"`` on each lane that
  ran it.  :func:`run_broadcast_batch` is the lockstep schedule: a stream
  as wide as its trial count, so nothing refills.

Determinism contract (enforced by ``tests/core/test_batch_equivalence.py``):
lane ``l`` is **bit-identical** to the scalar execution with the same
``(seed, adversary)`` — same slots, statuses, event slots, energy books and
extras — because each lane draws from its own generator in the same order,
and the kernel computes exactly the quantities the scalar resolver would
(section 6 of DESIGN.md walks through the argument).
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.result import BroadcastResult, run_broadcast
from repro.obs.recorder import active as _obs_active
from repro.sim.engine import BatchNetwork
from repro.sim.jam import JamBlock

__all__ = [
    "run_broadcast_batch",
    "run_broadcast_stream",
    "run_iterations_stream",
    "stream_width",
    "EpidemicStream",
    "LaneStream",
    "FallbackNotes",
    "collect_fallback_notes",
]

#: The floor of the working-set width rule (:func:`stream_width`), and the
#: width of a protocol that exposes no per-pass row count.  Each lane adds
#: ``block_slots * n`` coin doubles to a kernel pass, and at the n = 64
#: shared-coin kernel's 4096-row passes two lanes beat wider passes
#: (measured in BENCH_engine.json).
DEFAULT_LANE_WIDTH = 2

#: Per-pass working set the width rule fills: one n = 64 lane of 4096 rows,
#: so every n >= 32 shared-coin cell keeps :data:`DEFAULT_LANE_WIDTH` and a
#: pass never holds more values than the gallery's do.
PASS_VALUES = 2**18

#: The ceiling of the width rule: past this many lanes the per-pass fixed
#: costs are already amortized and a stream only holds more trials in
#: flight.
MAX_LANE_WIDTH = 32

#: ``schedule(i) -> (R, p, threshold)``: iteration i's length, listen
#: probability and halting threshold (halt iff noisy-slot count < threshold).
IterationSchedule = Callable[[int], Tuple[int, float, float]]


def _hits(
    coins: np.ndarray,
    active: np.ndarray,
    threshold: np.ndarray,
    offsets: np.ndarray,
) -> Tuple[np.ndarray, ...]:
    """The ``(flat, grow, lane, node)`` coordinates of the coins of a ragged
    lane-major ``(T, n)`` block that clear their lane's ``threshold``,
    halted nodes (``~active``) dropped, in flat (lane, row, node) order;
    ``grow`` is the global (concatenated) row.

    The compare is one scalar-threshold ``np.less`` per run of consecutive
    lanes sharing a threshold — lanes at the same schedule point form one
    run — and halted nodes are dropped from the sparse hits rather than
    masked over the dense block."""
    T, n = coins.shape
    L = offsets.size - 1
    hit = np.empty((T, n), dtype=bool)
    cuts = np.flatnonzero(threshold[1:] != threshold[:-1]) + 1
    firsts = np.concatenate(([0], cuts))
    edges = offsets[np.concatenate((firsts, [L]))].tolist()
    for a, b, thr in zip(edges[:-1], edges[1:], threshold[firsts].tolist()):
        np.less(coins[a:b], thr, out=hit[a:b])
    flat = np.flatnonzero(hit)
    grow, node = np.divmod(flat, n)
    lane = np.searchsorted(offsets, grow, side="right") - 1
    if not active.all():
        keep = active[lane, node]
        flat, grow, node, lane = flat[keep], grow[keep], node[keep], lane[keep]
    return flat, grow, lane, node


def _participants(
    coins: np.ndarray,
    channels: np.ndarray,
    active: np.ndarray,
    threshold: np.ndarray,
    offsets: np.ndarray,
    Cmax: int,
) -> Tuple[np.ndarray, ...]:
    """Extract the ``(lane, row, node)`` triples whose coin clears the lane's
    ``threshold``, halted nodes (``~active``) dropped, from a ragged
    lane-major block: ``coins``/``channels`` are ``(T, n)`` with lane ``l``
    owning rows ``offsets[l]:offsets[l+1]``.  Returns ``(flat, lane, row,
    node, cell)`` in flat-index (lane, row, node) order, with ``row``
    lane-local (the scalar-stream position) and ``cell`` a flat key in the
    common space ``global_row * Cmax + channel`` (rows are globally
    disjoint, so keys from lanes with different channel counts never
    collide).  The hits themselves come from :func:`_hits`."""
    flat, grow, lane, node = _hits(coins, active, threshold, offsets)
    row = grow - offsets[lane]
    cell = grow * np.int64(Cmax) + channels.ravel()[flat]
    return flat, lane, row, node, cell


def _cell_groups(cell: np.ndarray) -> Tuple[np.ndarray, int]:
    """One group id per hit, shared by the hits on the same cell, and the
    number of groups ``G``.

    The occupancy of any subset of hits is then ``np.bincount(gid[subset],
    minlength=G)``, read back at the queried hits through ``gid`` — every
    cell count of a kernel pass rides on this one grouping instead of a
    sort and two binary searches per count.  The sort is stable because
    hits arrive in (lane, row, node) order: ``cell`` is already sorted by
    row, and the stable sort only merges the short within-row runs.  A
    dense ``(T * C)`` occupancy table would need no sort, but MultiCastAdv
    phases have up to ``2**j`` channels, so it would need a size cap with
    this path kept behind it (DESIGN.md section 6.3)."""
    order = np.argsort(cell, kind="stable")
    ordered = cell[order]
    starts = np.empty(cell.size, dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    run = np.cumsum(starts)
    gid = np.empty(cell.size, dtype=np.int64)
    gid[order] = run - 1
    return gid, int(run[-1]) if cell.size else 0


def _shared_coin_ragged(
    channels: np.ndarray,
    coins: np.ndarray,
    jam: JamBlock,
    offsets: np.ndarray,
    p: np.ndarray,
    informed: np.ndarray,
    active: np.ndarray,
    *,
    slot0: np.ndarray,
    slot_scale: int = 1,
    informed_slot: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Resolve one *ragged* block of every lane under the shared-coin rule,
    returning ``(listen_counts, send_counts, noise_counts, informed)``.

    Inputs are lane-major concatenations: ``channels``/``coins`` are
    ``(T, n)`` with lane ``l`` owning rows ``offsets[l]:offsets[l+1]``
    (``T = offsets[-1]``; row counts may differ per lane — the continuous
    batching driver merges lanes at different schedule points into one
    pass), ``p`` is one listen probability per lane,
    ``informed``/``active``/``informed_slot`` are ``(L, n)`` (the latter
    updated in place with event slots), ``jam`` is the lanes' stacked
    :class:`~repro.sim.jam.JamBlock` of ``T`` rows in the same lane order
    (one uniform channel count), and ``slot0`` holds each lane's global
    slot of row 0.

    The computation is exact — bit-identical to building the action matrix,
    calling :func:`repro.sim.channel.resolve_block` and reducing, per lane —
    but touches only the draws that clear the participation coin:

    1.  **Participants.**  A node acts iff its coin < 2p (listen below p,
        broadcast — when informed — in [p, 2p)); everything below works on
        the ``(lane, row, node)`` triples of those hits.  Listen energy is
        status-independent and counted immediately.
    2.  **Event cascade.**  Whether a broadcast-coin hit is a real broadcast
        depends on when its node learned ``m``, captured as a per-node
        *informing row* (-1 = knew at block entry, K = not yet).  An
        uninformed listener hears ``m`` iff its (row, channel) cell has
        exactly one current broadcaster and no jamming, and the earliest
        such row per lane is that lane's next event — which adds
        broadcasters at later rows only, so iterating "detect earliest event
        per lane -> record informing rows -> re-detect past it" reaches the
        same fixed point the scalar tail re-resolution loop does, with every
        lane advancing per pass.
    3.  **Counters.**  With informing rows final, a broadcast-coin hit is a
        send iff its row is later than its node's informing row, and a
        listen is noisy iff its cell is jammed or holds >= 2 such sends.

    Every cell count (current broadcasters, potential broadcasters, the
    final noise count) is a ``bincount`` over the pass's one cell grouping
    (:func:`_cell_groups`).
    """
    T, n = coins.shape
    L = offsets.size - 1
    lane_rows = np.diff(offsets)
    C = jam.C
    # One flat extraction pass; the raveled gathers below walk memory in
    # increasing order, which matters more than it looks at these sizes.
    flat, lane, row, node, cell = _participants(
        coins, channels, active, 2.0 * p, offsets, C
    )
    gid, G = _cell_groups(cell)
    is_listen = coins.ravel()[flat] < p[lane]
    node_key = lane * n + node
    listen_counts = np.bincount(node_key[is_listen], minlength=L * n).reshape(L, n)
    # Jamming at listen cells, once for the whole block (binary search in the
    # stacked block's key space).
    jam_at = np.zeros(lane.shape[0], dtype=bool)
    jam_at[is_listen] = jam.lookup_keys(cell[is_listen])

    # sentinel informing row: not informed in this block.  One sentinel past
    # every lane's last local row works for all lanes (rows < lane_rows[l]).
    NEVER = np.int64(lane_rows.max())
    informing_row = np.where(informed, np.int64(-1), NEVER)  # (L, n)

    frontier = np.full(L, -1, dtype=np.int64)  # rows <= frontier are settled
    while True:
        informing_at_hit = informing_row[lane, node]
        learner_idx = np.flatnonzero(
            is_listen & (informing_at_hit == NEVER) & (row > frontier[lane])
        )
        if not learner_idx.size:
            break
        learner_gid = gid[learner_idx]
        sends = ~is_listen & (row > informing_at_hit)
        count = np.bincount(gid[sends], minlength=G)[learner_gid]
        heard = (count == 1) & ~jam_at[learner_idx]
        if not heard.any():
            break
        heard_idx = learner_idx[heard]
        heard_lane = lane[heard_idx]
        heard_row = row[heard_idx]
        heard_node = node[heard_idx]
        # Optimistic acceptance.  A hearing is *cell-safe* — no
        # later-resolved event can flip its own cell — iff no
        # still-uninformed node holds a broadcast coin on it: those are the
        # only broadcasts the cascade can still add (or, by collision,
        # remove).  That is not sufficient on its own: the *same node* may
        # have an earlier listen that is still volatile (pending hearing,
        # or a cell a future broadcast could turn into one), and the node
        # must inform at its earliest hearing — so a cell-safe hearing is
        # accepted only when it is the node's earliest volatile listen.
        # The earliest hearing per lane is additionally always definitive
        # (np.nonzero order is (lane, row, node)-sorted, so the first index
        # per lane is its earliest row): events only add broadcasts at rows
        # past the informing row, and no event precedes the earliest
        # hearing.  Accepted events therefore cannot interfere with one
        # another, and a typical block settles in a couple of passes
        # instead of one per event row.
        potential = ~is_listen & (informing_at_hit == NEVER)
        exposed = np.bincount(gid[potential], minlength=G)[learner_gid] > 0
        cell_safe = ~exposed[heard]
        # first volatile listen row, computed only for the nodes that have a
        # cell-safe hearing to validate (np.minimum.at is an unbuffered
        # per-element loop; keep its input tiny)
        candidate_keys = np.unique(
            heard_lane[cell_safe] * n + heard_node[cell_safe]
        )
        volatile = exposed | heard
        vol_idx = learner_idx[volatile]
        vol_keys = lane[vol_idx] * n + node[vol_idx]
        relevant = vol_idx[
            vol_keys == candidate_keys[
                np.minimum(
                    np.searchsorted(candidate_keys, vol_keys),
                    max(0, candidate_keys.size - 1),
                )
            ]
        ] if candidate_keys.size else vol_idx[:0]
        first_volatile = np.full((L, n), NEVER, dtype=np.int64)
        np.minimum.at(
            first_volatile, (lane[relevant], node[relevant]), row[relevant]
        )
        safe = cell_safe & (heard_row == first_volatile[heard_lane, heard_node])
        event_lanes, first = np.unique(heard_lane, return_index=True)
        first_row = np.full(L, NEVER, dtype=np.int64)
        first_row[event_lanes] = heard_row[first]
        definitive = safe | (heard_row == first_row[heard_lane])
        ev_lane = heard_lane[definitive]
        ev_row = heard_row[definitive]
        ev_node = heard_node[definitive]
        # A node can still carry two accepted hearings (lane-first plus a
        # later cell-safe one); it informs at the earliest, hence minimum
        # rather than last-write-wins.
        np.minimum.at(informing_row, (ev_lane, ev_node), ev_row)
        # New broadcasts appear only at rows past this pass's earliest
        # hearing, so nothing below it can still change.
        frontier[event_lanes] = heard_row[first]

    if informed_slot is not None:
        new_lane, new_node = np.nonzero((informing_row >= 0) & (informing_row < NEVER))
        informed_slot[new_lane, new_node] = (
            slot0[new_lane] + informing_row[new_lane, new_node] * slot_scale
        )

    sends = ~is_listen & (row > informing_row[lane, node])
    send_counts = np.bincount(node_key[sends], minlength=L * n).reshape(L, n)
    count = np.bincount(gid[sends], minlength=G)[gid[is_listen]]
    noisy = jam_at[is_listen] | (count >= 2)
    noise_counts = np.bincount(
        node_key[is_listen][noisy], minlength=L * n
    ).reshape(L, n)
    return listen_counts, send_counts, noise_counts, informing_row < NEVER


def _epidemic_ragged(
    channels: np.ndarray,
    sends: np.ndarray,
    jam: JamBlock,
    offsets: np.ndarray,
    informed: np.ndarray,
    *,
    slot0: np.ndarray,
    informed_slot: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Resolve one *ragged* block of every lane under the always-on rule of
    Decay and Naive, returning ``(listen_counts, send_counts, informed)``.

    The layout is :func:`_shared_coin_ragged`'s: ``channels``/``sends`` are
    ``(T, n)`` with lane ``l`` owning rows ``offsets[l]:offsets[l+1]``,
    ``jam`` is the lanes' stacked ``T``-row :class:`JamBlock`,
    ``informed``/``informed_slot`` are ``(L, n)`` (the latter updated in
    place with event slots) and ``slot0`` holds each lane's global slot of
    row 0.  Every node is active: an uninformed node listens in every row,
    and an informed node sends where ``sends`` is set.

    Each pass settles every open lane's earliest hearing row — an
    uninformed listener whose unjammed cell holds exactly one sender.  That
    is exact: a hearing adds senders only at later rows, so the rows up to
    it are final, and the nodes that heard there send from the next row on.
    A lane closes once a pass finds it no hearing or it has no uninformed
    node left.  A node's listen count is then closed-form — the rows up to
    its informing row — and its send count is its ``sends`` past that row.
    The jam mask is materialized densely, ``(T, C)``, which is no larger
    than the draws because ``C <= n / 2`` (DESIGN.md section 6.3.1).
    """
    T, n = sends.shape
    L = offsets.size - 1
    C = jam.C
    lane_rows = np.diff(offsets)
    row_lane = np.repeat(np.arange(L), lane_rows)
    local = np.arange(T) - offsets[row_lane]
    NEVER = np.int64(lane_rows.max())  # past every lane's last local row
    informing_row = np.where(informed, np.int64(-1), NEVER)
    jammed = jam.to_dense()
    frontier = np.full(L, -1, dtype=np.int64)  # rows <= frontier are settled
    open_lanes = ~informed.all(axis=1)
    while open_lanes.any():
        rows = np.flatnonzero(open_lanes[row_lane] & (local > frontier[row_lane]))
        lanes = row_lane[rows]
        knows = informing_row[lanes] != NEVER
        row_channels = channels[rows]
        cell = np.arange(rows.size)[:, None] * C + row_channels
        count = np.bincount(cell[knows & sends[rows]], minlength=rows.size * C)
        hears = ~knows & ~jammed[rows[:, None], row_channels] & (count[cell] == 1)
        heard = np.flatnonzero(hears.any(axis=1))
        open_lanes[:] = False
        if not heard.size:
            break
        event_lanes, first = np.unique(lanes[heard], return_index=True)
        event = heard[first]  # each lane's earliest hearing row
        event_row = local[rows[event]]
        informing_row[event_lanes] = np.where(
            hears[event], event_row[:, None], informing_row[event_lanes]
        )
        frontier[event_lanes] = event_row
        open_lanes[event_lanes] = (informing_row[event_lanes] == NEVER).any(axis=1)

    new_lane, new_node = np.nonzero((informing_row >= 0) & (informing_row < NEVER))
    informed_slot[new_lane, new_node] = (
        slot0[new_lane] + informing_row[new_lane, new_node]
    )
    listen_counts = np.minimum(informing_row + 1, lane_rows[:, None])
    sent = sends & (local[:, None] > informing_row[row_lane])
    send_counts = np.add.reduceat(sent, offsets[:-1], axis=0, dtype=np.int64)
    return listen_counts, send_counts, informing_row < NEVER


class LaneStream:
    """``W`` reusable lane slots streaming over a pending trial queue.

    The continuous-batching host (DESIGN.md section 13): the first ``W``
    trials are admitted as the lanes of one :class:`BatchNetwork`; when a
    protocol driver retires a lane (halted, truncated, or out of epochs) it
    deposits the result with :meth:`finish` and calls :meth:`refill`, which
    recycles the slot for the next pending trial via
    :meth:`BatchNetwork.replace_lane` — fresh generator, reset adversary,
    zeroed books.  Results land in trial order regardless of which slot
    hosted which trial or when.

    Trials are ``(seed, adversary, max_slots)`` triples; per-trial slot caps
    are first-class because staggered caps are exactly the workload
    compaction exists for (budget-truncated campaign cells).
    """

    def __init__(self, n: int, seeds, adversaries, max_slots, width: int):
        self.trials = list(zip(seeds, adversaries, max_slots))
        if not self.trials:
            raise ValueError("need at least one trial")
        self.width = max(1, min(int(width), len(self.trials)))
        head = self.trials[: self.width]
        for _, adversary, _ in head:
            if adversary is not None:
                adversary.reset()
        self.bnet = BatchNetwork(
            n,
            [seed for seed, _, _ in head],
            [adversary for _, adversary, _ in head],
            max_slots=np.asarray([cap for _, _, cap in head], dtype=np.int64),
        )
        self._slot_trial = list(range(self.width))
        self.next_trial = self.width
        self.results: List[Optional[BroadcastResult]] = [None] * len(self.trials)
        self.refills = 0

    def finish(self, slot: int, result: BroadcastResult) -> None:
        """Deposit the result of the trial currently hosted by ``slot``."""
        trial = self._slot_trial[slot]
        if self.results[trial] is not None:
            raise RuntimeError(f"trial {trial} finished twice")
        self.results[trial] = result

    def refill(self, slot: int) -> bool:
        """Recycle ``slot`` for the next pending trial; False when drained."""
        if self.next_trial >= len(self.trials):
            return False
        seed, adversary, cap = self.trials[self.next_trial]
        self.bnet.replace_lane(slot, seed, adversary, max_slots=cap)
        self._slot_trial[slot] = self.next_trial
        self.next_trial += 1
        self.refills += 1
        return True


def run_iterations_stream(
    proto,
    stream: LaneStream,
    *,
    first_index: int,
    schedule: IterationSchedule,
    make_extras: Callable[[int], dict],
    slots_per_row: int = 1,
    draw_jamming=None,
    count_at_entry: bool = False,
) -> List[BroadcastResult]:
    """Run the shared iteration loop for every trial of ``stream``.

    Mirrors ``repro.core.multicast._run_multicast_iterations`` per trial:
    while a trial still has active nodes it keeps entering iterations.
    Lane slots are *not* in lockstep.  Each slot carries its own iteration
    index, schedule constants and remaining-row count; every pass merges all
    occupied slots — wherever they are in their schedules — into one ragged
    :func:`_shared_coin_ragged` call (per-lane row counts and listen
    probabilities), and a slot that finishes its trial (halted, truncated at
    its ``max_slots``, or out of iterations) is refilled from the stream's
    pending queue.  A stream as wide as its trial list never refills, which
    is the lockstep schedule.  Trial results are bit-identical to the scalar
    path at any width because a lane's draws, and everything derived from
    them, are functions of its own generator only
    (``tests/core/test_batch_equivalence.py`` and
    ``tests/core/test_lane_schedule_invariance.py``).

    ``proto`` supplies ``n``, ``num_channels``, ``block_slots``,
    ``max_iterations`` and ``name``; ``make_extras(lane_iterations)`` builds
    the per-trial extras dict.  ``draw_jamming(lane_ids, rows)`` may
    override the jam source with a ragged drawer returning one stacked
    uniform-C :class:`JamBlock` (the Fig. 5 physical-to-virtual relabeling);
    the default stacks :meth:`BatchNetwork.draw_jamming_ragged` on
    ``proto.num_channels``.  ``count_at_entry`` mirrors a bookkeeping
    difference between the scalar runners: ``MultiCastCore`` increments its
    iteration counter on *entering* an iteration (so a trial truncated
    mid-iteration reports the partial one in ``periods``), ``MultiCast`` on
    completing it.
    """
    n = proto.n
    C = proto.num_channels
    bnet = stream.bnet
    if bnet.n != n:
        raise ValueError(f"batch network has n={bnet.n}, protocol built for n={n}")
    if draw_jamming is None:
        draw_jamming = lambda lane_ids, rows: JamBlock.stack(  # noqa: E731
            bnet.draw_jamming_ragged(lane_ids, rows, C)
        )

    W = stream.width
    informed = np.zeros((W, n), dtype=bool)
    informed[:, 0] = True
    active = np.ones((W, n), dtype=bool)
    informed_slot = np.full((W, n), -1, dtype=np.int64)
    informed_slot[:, 0] = 0
    halt_slot = np.full((W, n), -1, dtype=np.int64)
    halted_uninformed = np.zeros(W, dtype=np.int64)
    completed = np.ones(W, dtype=bool)
    iterations_run = np.zeros(W, dtype=np.int64)
    iter_index = np.full(W, first_index, dtype=np.int64)
    R_arr = np.zeros(W, dtype=np.int64)
    p_arr = np.zeros(W, dtype=np.float64)
    thr_arr = np.zeros(W, dtype=np.float64)
    remaining = np.zeros(W, dtype=np.int64)
    noisy = np.zeros((W, n), dtype=np.int64)
    occupied = np.ones(W, dtype=bool)
    tel = _obs_active()

    def enter_iteration(slot: int) -> None:
        R, p, threshold = schedule(int(iter_index[slot]))
        R_arr[slot] = R
        p_arr[slot] = p
        thr_arr[slot] = threshold
        remaining[slot] = R
        noisy[slot] = 0

    def slot_result(slot: int) -> BroadcastResult:
        return BroadcastResult(
            protocol=proto.name,
            n=n,
            slots=int(bnet.clocks[slot]),
            completed=bool(completed[slot]) and not active[slot].any(),
            informed_slot=informed_slot[slot].copy(),
            halt_slot=halt_slot[slot].copy(),
            node_energy=bnet.energy.lane_node_cost(slot),
            adversary_spend=bnet.energy.lane_adversary_spend(slot),
            halted_uninformed=int(halted_uninformed[slot]),
            periods=int(iterations_run[slot]),
            extras=make_extras(int(iterations_run[slot])),
        )

    def reset_slot(slot: int) -> None:
        informed[slot] = False
        informed[slot, 0] = True
        active[slot] = True
        informed_slot[slot] = -1
        informed_slot[slot, 0] = 0
        halt_slot[slot] = -1
        halted_uninformed[slot] = 0
        completed[slot] = True
        iterations_run[slot] = 0
        iter_index[slot] = first_index
        enter_iteration(slot)

    def retire(slot: int) -> None:
        while True:
            stream.finish(slot, slot_result(slot))
            if tel is not None:
                tel.count("batch.lanes")
            if not stream.refill(slot):
                occupied[slot] = False
                return
            reset_slot(slot)
            if proto.max_iterations is not None and proto.max_iterations <= 0:
                # the scalar loop's top-of-loop check fires before the
                # first iteration of such a (degenerate) schedule
                completed[slot] = False
                continue
            return

    for slot in range(W):
        enter_iteration(slot)
    if proto.max_iterations is not None and proto.max_iterations <= 0:
        for slot in range(W):
            completed[slot] = False
            retire(slot)

    while occupied.any():
        lane_ids = np.nonzero(occupied)[0]
        Ks = np.minimum(proto.block_slots, remaining[lane_ids])
        channels = bnet.draw_channels_ragged(lane_ids, Ks, C)
        coins = bnet.draw_coins_ragged(lane_ids, Ks)
        jam = draw_jamming(lane_ids, Ks)
        offsets = np.concatenate(([0], np.cumsum(Ks)))
        sub_slot = informed_slot[lane_ids]
        t0 = time.perf_counter()
        listen_counts, send_counts, block_noise, new_informed = _shared_coin_ragged(
            channels,
            coins,
            jam,
            offsets,
            p_arr[lane_ids],
            informed[lane_ids],
            active[lane_ids],
            slot0=bnet.clocks[lane_ids],
            slot_scale=slots_per_row,
            informed_slot=sub_slot,
        )
        if tel is not None:
            _book_pass(tel, time.perf_counter() - t0, Ks, W, slots_per_row)
        overrun = bnet.commit_counts_ragged(
            lane_ids, listen_counts, send_counts, Ks, slots_per_row=slots_per_row
        )
        # informed_slot is adopted even for a lane whose commit overran (the
        # scalar path raises *after* the event loop's in-place update);
        # informed/noisy updates belong to survivors only, matching where
        # the scalar exception lands.
        informed_slot[lane_ids] = sub_slot
        for idx, slot in enumerate(lane_ids):
            if overrun[idx]:
                completed[slot] = False
                if count_at_entry:  # the partial iteration counts (Fig. 1)
                    iterations_run[slot] += 1
                retire(slot)
                continue
            informed[slot] = new_informed[idx]
            noisy[slot] += block_noise[idx]
            remaining[slot] -= Ks[idx]
            if remaining[slot] == 0:
                # end of this slot's iteration: halting test on its own
                # threshold, then advance, retire, or refill
                halt_now = active[slot] & (noisy[slot] < thr_arr[slot])
                halted_uninformed[slot] += int((halt_now & ~informed[slot]).sum())
                halt_slot[slot][halt_now] = bnet.clocks[slot]
                active[slot] &= ~halt_now
                iterations_run[slot] += 1
                if not active[slot].any():
                    retire(slot)
                elif (
                    proto.max_iterations is not None
                    and iterations_run[slot] >= proto.max_iterations
                ):
                    completed[slot] = False
                    retire(slot)
                else:
                    iter_index[slot] += 1
                    enter_iteration(slot)

    if tel is not None:
        tel.count("batch.batches")
        tel.count("batch.refills", stream.refills)
    return list(stream.results)


def _book_pass(tel, seconds: float, rows: np.ndarray, width: int, slots_per_row: int = 1) -> None:
    """Book one kernel pass of a ``width``-slot stream whose occupied lanes
    resolved ``rows`` rows each — the per-pass ``batch.*`` counters of every
    shared-kernel driver."""
    lanes = int(rows.size)
    tel.add_time("batch.kernel_s", seconds)
    tel.count("batch.kernel_passes")
    tel.count("batch.lane_rows", int(rows.sum()))
    tel.observe("batch.occupancy", lanes)
    tel.count("batch.lane_passes", lanes)
    tel.count("batch.idle_lane_passes", width - lanes)
    if lanes == 1 and width > 1:
        tel.count("batch.solo_slots", int(rows[0]) * slots_per_row)


class EpidemicStream:
    """Every trial of a :class:`LaneStream` under the always-on rule of
    Decay and Naive: the lanes' books and the pass loop around
    :func:`_epidemic_ragged`.

    The protocol's ``run_stream`` builds one and calls :meth:`run` with two
    hooks that read the books — ``informed``/``informed_slot`` ``(W, n)``,
    ``blocks`` (committed blocks) ``(W,)`` and the stream's ``bnet``:

    * ``draw_block(lane_ids) -> (rows, channels, sends, jam)`` draws the
      occupied lanes' next block from each lane's generator in the order the
      protocol's scalar ``run`` draws it;
    * ``stop(slot) -> Optional[bool]`` is asked when a trial is admitted and
      after each of its committed blocks: ``None`` runs another block, a
      bool retires the trial with that ``completed`` flag.

    A lane whose commit overran its cap retires uncompleted with its
    pre-block informed set but the block's ``informed_slot``, where the
    scalar ``SlotLimitExceeded`` leaves them.  A retired slot is refilled
    from the stream's queue, so results are bit-identical to the scalar
    ``run`` per trial at any width.
    """

    def __init__(self, proto, stream: LaneStream, extras: dict):
        n, W = proto.n, stream.width
        if stream.bnet.n != n:
            raise ValueError(
                f"batch network has n={stream.bnet.n}, protocol built for n={n}"
            )
        self.proto, self.stream, self.bnet, self.extras = proto, stream, stream.bnet, extras
        self.informed = np.zeros((W, n), dtype=bool)
        self.informed_slot = np.full((W, n), -1, dtype=np.int64)
        self.blocks = np.zeros(W, dtype=np.int64)
        self.occupied = np.ones(W, dtype=bool)

    def _admit(self, slot: int) -> None:
        self.informed[slot] = False
        self.informed[slot, 0] = True
        self.informed_slot[slot] = -1
        self.informed_slot[slot, 0] = 0
        self.blocks[slot] = 0

    def _retire(self, slot: int, completed: Optional[bool], stop, tel) -> None:
        """Unless ``completed`` is ``None``, finish ``slot``'s trial with that
        flag and refill the slot — again for each admitted trial that
        ``stop`` ends before its first block."""
        n, bnet = self.proto.n, self.bnet
        while completed is not None:
            clock = int(bnet.clocks[slot])
            self.stream.finish(slot, BroadcastResult(
                protocol=self.proto.name,
                n=n,
                slots=clock,
                completed=completed,
                informed_slot=self.informed_slot[slot].copy(),
                halt_slot=np.full(n, clock, dtype=np.int64),
                node_energy=bnet.energy.lane_node_cost(slot),
                adversary_spend=bnet.energy.lane_adversary_spend(slot),
                halted_uninformed=int((~self.informed[slot]).sum()),
                periods=int(self.blocks[slot]),
                extras=dict(self.extras),
            ))
            if tel is not None:
                tel.count("batch.lanes")
            if not self.stream.refill(slot):
                self.occupied[slot] = False
                return
            self._admit(slot)
            completed = stop(slot)

    def run(self, draw_block, stop) -> List[BroadcastResult]:
        bnet, W = self.bnet, self.stream.width
        tel = _obs_active()
        for slot in range(W):
            self._admit(slot)
            self._retire(slot, stop(slot), stop, tel)
        while self.occupied.any():
            lane_ids = np.flatnonzero(self.occupied)
            rows, channels, sends, jam = draw_block(lane_ids)
            sub_slot = self.informed_slot[lane_ids]
            t0 = time.perf_counter()
            listen_counts, send_counts, new_informed = _epidemic_ragged(
                channels,
                sends,
                jam,
                np.concatenate(([0], np.cumsum(rows))),
                self.informed[lane_ids],
                slot0=bnet.clocks[lane_ids],
                informed_slot=sub_slot,
            )
            if tel is not None:
                _book_pass(tel, time.perf_counter() - t0, rows, W)
            overrun = bnet.commit_counts_ragged(lane_ids, listen_counts, send_counts, rows)
            self.informed_slot[lane_ids] = sub_slot
            for idx, slot in enumerate(lane_ids):
                if overrun[idx]:
                    self._retire(slot, False, stop, tel)
                    continue
                self.informed[slot] = new_informed[idx]
                self.blocks[slot] += 1
                self._retire(slot, stop(slot), stop, tel)
        if tel is not None:
            tel.count("batch.batches")
            tel.count("batch.refills", self.stream.refills)
        return list(self.stream.results)


def _fallback_line(name: str, reason: str, lanes: int, passes=None) -> str:
    """One fallback warning line; ``passes`` is omitted for per-call lines."""
    where = f"{lanes} lane(s)"
    if passes is not None:
        where += f" in {passes} kernel pass(es)"
    return f"fallback: {name} {reason} — {where} ran on the scalar fallback"


class FallbackNotes:
    """Campaign-scoped tally of scalar-fallback lanes, keyed by cause.

    A long campaign can push thousands of lane blocks through
    :func:`run_broadcast_stream`; if its protocol cannot batch, a per-call
    stderr line turns the log into noise (once per kernel pass, not once per
    campaign).  Inside a :func:`collect_fallback_notes` scope the calls
    stay silent and the notes accumulate here; the campaign runner emits one
    summary line per (protocol, reason) at the end.  Counts survive process
    boundaries as plain dicts (:meth:`snapshot` / :meth:`merge`), which is
    how sharded workers report theirs back to the parent.
    """

    def __init__(self):
        #: (protocol name, reason) -> [lanes, kernel passes]
        self.counts: Dict[Tuple[str, str], List[int]] = {}

    def add(self, name: str, reason: str, lanes: int, passes: int = 1) -> None:
        entry = self.counts.setdefault((name, reason), [0, 0])
        entry[0] += lanes
        entry[1] += passes

    def snapshot(self) -> Dict[Tuple[str, str], List[int]]:
        """A picklable copy of the tally (worker -> parent transport)."""
        return {key: list(value) for key, value in self.counts.items()}

    def merge(self, counts: Dict[Tuple[str, str], List[int]]) -> None:
        for (name, reason), (lanes, passes) in counts.items():
            self.add(name, reason, lanes, passes)

    def __bool__(self) -> bool:
        return bool(self.counts)

    def summary_lines(self) -> List[str]:
        """One line per cause, in first-seen order."""
        return [
            _fallback_line(name, reason, lanes, passes)
            for (name, reason), (lanes, passes) in self.counts.items()
        ]

    def emit(self, stream=None) -> None:
        for line in self.summary_lines():
            print(line, file=stream if stream is not None else sys.stderr)


#: The active collector, if any (installed by collect_fallback_notes).
_FALLBACK_NOTES: Optional[FallbackNotes] = None


@contextmanager
def collect_fallback_notes():
    """Collect fallback warnings instead of printing them per call.

    Yields the :class:`FallbackNotes`; nests by shadowing (the innermost
    scope collects).  The campaign runner wraps each run in one of these and
    emits the summary once, which is the "one warning per campaign, not one
    per lane pass" contract ``tests/exp/test_fallback_notes.py`` pins.
    """
    global _FALLBACK_NOTES
    previous = _FALLBACK_NOTES
    notes = FallbackNotes()
    _FALLBACK_NOTES = notes
    try:
        yield notes
    finally:
        _FALLBACK_NOTES = previous


def _note_fallback(protocol, reason: str, lanes: int) -> None:
    """Record a scalar fallback: collected note inside a campaign scope,
    one stderr line otherwise — plus a telemetry counter when recording."""
    name = getattr(protocol, "name", type(protocol).__name__)
    if _FALLBACK_NOTES is not None:
        _FALLBACK_NOTES.add(name, reason, lanes)
    else:
        print(_fallback_line(name, reason, lanes), file=sys.stderr)
    tel = _obs_active()
    if tel is not None:
        tel.count("batch.fallback_lanes", lanes)


def _lane_caps(max_slots, count: int) -> np.ndarray:
    """Normalize a scalar-or-per-lane ``max_slots`` to a ``(count,)`` array."""
    caps = np.asarray(max_slots, dtype=np.int64)
    if caps.ndim == 0:
        return np.full(count, int(caps), dtype=np.int64)
    if caps.shape != (count,):
        raise ValueError(
            f"max_slots shaped {caps.shape}, expected a scalar or ({count},)"
        )
    return caps.copy()


def stream_width(protocol) -> int:
    """The lane width ``protocol`` streams at: its advertised
    ``stream_lane_width``, else as many lanes as fit its per-pass working
    set — ``PASS_VALUES // (block_slots * n)`` clamped to
    [:data:`DEFAULT_LANE_WIDTH`, :data:`MAX_LANE_WIDTH`] — and
    :data:`DEFAULT_LANE_WIDTH` for a protocol without ``block_slots`` or
    ``n``.

    The one width rule: the stream entry point, ``run_trials``,
    ``run_trial_batch`` and the sharded pool's block sizing all ask it.  A
    throughput knob only — results are bit-identical at any width."""
    advertised = getattr(protocol, "stream_lane_width", None)
    if advertised is not None:
        return max(1, int(advertised))
    rows, n = getattr(protocol, "block_slots", None), getattr(protocol, "n", None)
    if rows is None or n is None:
        return DEFAULT_LANE_WIDTH
    fit = PASS_VALUES // (int(rows) * int(n))
    return min(MAX_LANE_WIDTH, max(DEFAULT_LANE_WIDTH, fit))


def _run_reactive(protocol, n, adversaries, seeds, caps, width):
    """Reactive trials: the windowed arena, ``width`` lanes per lockstep
    batch (every arena lane is bit-identical to its per-trial run)."""
    from repro.arena.run import run_broadcast_windowed_batch  # import cycle

    results: List[BroadcastResult] = []
    for start in range(0, len(seeds), width):
        stop = start + width
        results.extend(
            run_broadcast_windowed_batch(
                protocol, n, adversaries[start:stop], seeds[start:stop],
                max_slots=caps[start:stop],
            )
        )
    return results


def _run_oblivious(protocol, n, adversaries, seeds, caps, width):
    """Oblivious (or absent) adversaries: one :class:`LaneStream` for a
    protocol with ``run_stream``; else per trial through the scalar block
    engine — stamped and noted."""
    if hasattr(protocol, "run_stream"):
        stream = LaneStream(n, seeds, adversaries, caps.tolist(), width)
        results = protocol.run_stream(stream)
        missing = [t for t, r in enumerate(results) if r is None]
        if missing:  # a driver bug, not a user error — fail loudly
            raise RuntimeError(f"stream driver left trials {missing} unfinished")
        return results
    results = []
    for start in range(0, len(seeds), width):
        stop = start + width
        group = adversaries[start:stop]
        for adversary, seed, cap in zip(group, seeds[start:stop], caps[start:stop]):
            result = run_broadcast(protocol, n, adversary, seed=seed, max_slots=int(cap))
            result.extras["backend"] = "scalar-fallback"
            results.append(result)
        _note_fallback(protocol, "has no run_stream", len(group))
    return results


def run_broadcast_stream(
    protocol,
    n: int,
    adversaries: Optional[Sequence] = None,
    seeds: Sequence[int] = (0,),
    *,
    max_slots=50_000_000,
    lane_width: Optional[int] = None,
    trace=None,
) -> List[BroadcastResult]:
    """Run ``len(seeds)`` trials through ``lane_width`` continuously-refilled
    lane slots — the batch analogue of :func:`repro.core.result.run_broadcast`.

    Trial ``t`` runs ``protocol`` against ``adversaries[t]`` (reset first)
    under seed ``seeds[t]`` and cap ``max_slots`` (a scalar or one cap per
    trial), and the returned list matches what scalar ``run_broadcast``
    calls would produce, result for result — a trial's result is a pure
    function of its (seed, adversary, cap), never of lane placement, width,
    or refill schedule (``tests/core/test_lane_schedule_invariance.py``).
    ``lane_width=None`` takes :func:`stream_width`.

    The trial list is split once by adversary family.  Reactive trials run
    on the windowed arena in lockstep batches of ``lane_width``; the rest
    run as one :class:`LaneStream` — exactly ``lane_width`` slots stay
    busy, and a slot whose trial retires (halts, truncates at its own cap,
    or runs out of epochs) is refilled from the pending queue — or, for a
    protocol without ``run_stream``, per trial on the scalar engine
    (:func:`_run_oblivious`).

    ``trace=`` (a :class:`~repro.core.trace.TraceRecorder`) is honored only
    by the scalar engine, so it takes exactly one trial: a trace records one
    execution, and attaching it to one lane of many (or dropping it) would
    misreport what ran.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one trial (seed)")
    if adversaries is None:
        adversaries = [None] * len(seeds)
    adversaries = list(adversaries)
    if len(adversaries) != len(seeds):
        raise ValueError(
            f"{len(adversaries)} adversaries for {len(seeds)} seeds (need one per trial)"
        )
    caps = _lane_caps(max_slots, len(seeds))
    if trace is not None:
        if len(seeds) > 1:
            raise ValueError(
                "trace recording is scalar-only: got trace= with "
                f"{len(seeds)} trials — record one trial per trace, or drop "
                "trace= to run batched"
            )
        result = run_broadcast(
            protocol, n, adversaries[0], seed=seeds[0], max_slots=int(caps[0]),
            trace=trace,
        )
        result.extras["backend"] = "scalar-fallback"
        _note_fallback(protocol, "trace= forces the scalar path", 1)
        return [result]
    width = stream_width(protocol) if lane_width is None else max(1, int(lane_width))
    results: List[Optional[BroadcastResult]] = [None] * len(seeds)
    reactive = [hasattr(adversary, "jam_slot") for adversary in adversaries]
    partition = (
        ([t for t, r in enumerate(reactive) if r], _run_reactive),
        ([t for t, r in enumerate(reactive) if not r], _run_oblivious),
    )
    for idx, run in partition:
        if not idx:
            continue
        part = run(
            protocol, n, [adversaries[t] for t in idx], [seeds[t] for t in idx],
            caps[idx], width,
        )
        for t, result in zip(idx, part):
            results[t] = result
    return results


def run_broadcast_batch(
    protocol,
    n: int,
    adversaries: Optional[Sequence] = None,
    seeds: Sequence[int] = (0,),
    *,
    max_slots=50_000_000,
    trace=None,
) -> List[BroadcastResult]:
    """Run ``len(seeds)`` trials as one lockstep batch: a
    :func:`run_broadcast_stream` as wide as its trial list, so every trial
    is admitted at once and no slot ever refills."""
    seeds = list(seeds)
    return run_broadcast_stream(
        protocol, n, adversaries, seeds, max_slots=max_slots,
        lane_width=max(1, len(seeds)), trace=trace,
    )


# perfbench/spans.py traces the retired lockstep driver under this name;
# the alias keeps that target resolving.  Remove it with that target.
run_iterations_batch = run_iterations_stream
