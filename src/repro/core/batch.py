"""Batched (lane-axis) trial execution — many seeded runs, one kernel pass.

Every statistic this reproduction reports is a rate over independently
seeded trials, and on a single core the only remaining speed lever is
amortizing per-block interpreter and kernel overhead across those trials.
This module is the protocol-layer half of that move (DESIGN.md section 6):

* :func:`_shared_coin_block` — the lane-batched block kernel for the
  shared-coin action rule (Figs. 1/2/5).  The iteration loop never consumes
  action or feedback *matrices* — only per-node listen/send/noise totals,
  the informing events, and the resulting statuses — and under the shared
  coin all of those are pure functions of the ~2pKn draws that clear the
  participation coin.  So the kernel extracts those participants once,
  resolves the "uninformed node heard m" cascade as a vectorized
  fixed-point over per-node informing rows, and reduces the counters in one
  sender-keyed pass — no ``resolve_block``, no ``(B, K, n)`` action/feedback
  materialization, one flat key space ``lane*K*C + slot*C + channel``.
* :func:`run_iterations_batch` — the lane-batched counterpart of the shared
  iteration loop used by ``MultiCastCore`` (Fig. 1), ``MultiCast`` (Fig. 2)
  and ``MultiCast(C)`` (Fig. 5): all protocols whose periods are iterations
  of R slots with a shared-coin action rule and a noisy-slot halting test.
  Lanes run the same iteration schedule in lockstep; a lane that halts (or
  overruns ``max_slots``) is masked out of subsequent blocks rather than
  blocking the batch.
* :func:`run_broadcast_batch` — the batch analogue of
  :func:`repro.core.result.run_broadcast`: build one
  :class:`repro.sim.engine.BatchNetwork` over per-lane seeds/adversaries and
  dispatch to the protocol's ``run_batch``.  Every shipped protocol has one
  (``MultiCastAdv``/``MultiCastAdvC`` batch through
  :mod:`repro.core.adv_batch`); a protocol without one (or a batch mixing
  reactive with oblivious adversaries) falls back to a per-lane loop behind
  the same interface — loudly: the fallback prints one stderr line and
  stamps ``extras["backend"] = "scalar-fallback"`` on each lane that ran
  the scalar block engine, so campaign logs and stores show which cells
  didn't batch.

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
    "run_iterations_batch",
    "run_iterations_stream",
    "LaneStream",
    "FallbackNotes",
    "collect_fallback_notes",
]

#: ``schedule(i) -> (R, p, threshold)``: iteration i's length, listen
#: probability and halting threshold (halt iff noisy-slot count < threshold).
IterationSchedule = Callable[[int], Tuple[int, float, float]]


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
    collide).

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
    grow, node = np.divmod(flat, n)  # global (concatenated) row, node
    lane = np.searchsorted(offsets, grow, side="right") - 1
    if not active.all():
        keep = active[lane, node]
        flat, grow, node, lane = flat[keep], grow[keep], node[keep], lane[keep]
    row = grow - offsets[lane]
    cell = grow * np.int64(Cmax) + channels.ravel()[flat]
    return flat, lane, row, node, cell


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
        listen is noisy iff its cell is jammed or holds >= 2 such sends —
        one sorted-key count plus one lookup over the listen hits.
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

    def sends_now():
        return ~is_listen & (row > informing_row[lane, node])

    def broadcasters_at(query_cells: np.ndarray, send_mask: np.ndarray) -> np.ndarray:
        """Current broadcaster count at each queried cell."""
        send_cells = np.sort(cell[send_mask])
        if not send_cells.size:
            return np.zeros(query_cells.shape[0], dtype=np.int64)
        lo = np.searchsorted(send_cells, query_cells, side="left")
        hi = np.searchsorted(send_cells, query_cells, side="right")
        return hi - lo

    frontier = np.full(L, -1, dtype=np.int64)  # rows <= frontier are settled
    while True:
        informing_at_hit = informing_row[lane, node]
        learners = (
            is_listen & (informing_at_hit == NEVER) & (row > frontier[lane])
        )
        if not learners.any():
            break
        sends = ~is_listen & (row > informing_at_hit)
        count = broadcasters_at(cell[learners], sends)
        heard = (count == 1) & ~jam_at[learners]
        if not heard.any():
            break
        learner_idx = np.nonzero(learners)[0]
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
        potential = np.sort(cell[~is_listen & (informing_at_hit == NEVER)])
        learner_cells = cell[learner_idx]
        exposed = (
            np.searchsorted(potential, learner_cells, side="right")
            - np.searchsorted(potential, learner_cells, side="left")
        ) > 0
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

    sends = sends_now()
    send_counts = np.bincount(node_key[sends], minlength=L * n).reshape(L, n)
    count = broadcasters_at(cell[is_listen], sends)
    noisy = jam_at[is_listen] | (count >= 2)
    noise_counts = np.bincount(
        node_key[is_listen][noisy], minlength=L * n
    ).reshape(L, n)
    return listen_counts, send_counts, noise_counts, informing_row < NEVER


def _shared_coin_block(
    channels: np.ndarray,
    coins: np.ndarray,
    jam: JamBlock,
    informed: np.ndarray,
    active: np.ndarray,
    p: float,
    *,
    slot0: np.ndarray,
    slot_scale: int = 1,
    informed_slot: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fixed-shape adapter over :func:`_shared_coin_ragged` — the lockstep
    driver's view: ``channels``/``coins`` are ``(L, K, n)`` (every lane at
    the same schedule point, so every lane contributes K rows and shares one
    listen probability).  The reshape is a view; the ragged core is the
    single implementation of the event cascade."""
    L, K, n = coins.shape
    offsets = np.arange(L + 1, dtype=np.int64) * K
    return _shared_coin_ragged(
        channels.reshape(L * K, n),
        coins.reshape(L * K, n),
        jam,
        offsets,
        np.full(L, p, dtype=np.float64),
        informed,
        active,
        slot0=slot0,
        slot_scale=slot_scale,
        informed_slot=informed_slot,
    )


def run_iterations_batch(
    proto,
    bnet: BatchNetwork,
    *,
    first_index: int,
    schedule: IterationSchedule,
    make_extras: Callable[[int], dict],
    slots_per_row: int = 1,
    draw_jamming=None,
    count_at_entry: bool = False,
) -> List[BroadcastResult]:
    """Run the shared iteration loop for every lane of ``bnet`` in lockstep.

    Mirrors ``repro.core.multicast._run_multicast_iterations`` lane-by-lane:
    while a lane still has active nodes it keeps entering iterations, and
    since every lane starts at ``first_index`` all live lanes are always on
    the *same* iteration — so they share R, p and the block structure, and
    the whole batch advances through one sequence of draw/resolve/commit
    calls, with each block resolved by :func:`_shared_coin_block`.
    ``proto`` supplies ``n``, ``num_channels``, ``block_slots``,
    ``max_iterations`` and ``name``; ``make_extras(lane_iterations)`` builds
    the per-lane extras dict.

    ``draw_jamming(lane_ids, rows)`` may override the jam source (the Fig. 5
    physical-to-virtual relabeling); the default draws on
    ``proto.num_channels`` directly.

    ``count_at_entry`` mirrors a bookkeeping difference between the scalar
    runners: ``MultiCastCore`` increments its iteration counter on *entering*
    an iteration (so a lane truncated mid-iteration reports the partial one
    in ``periods``), ``MultiCast`` on completing it.
    """
    n = proto.n
    C = proto.num_channels
    if bnet.n != n:
        raise ValueError(f"batch network has n={bnet.n}, protocol built for n={n}")
    if draw_jamming is None:
        draw_jamming = lambda lane_ids, rows: bnet.draw_jamming(lane_ids, rows, C)  # noqa: E731

    B = bnet.B
    informed = np.zeros((B, n), dtype=bool)
    informed[:, 0] = True
    active = np.ones((B, n), dtype=bool)
    informed_slot = np.full((B, n), -1, dtype=np.int64)
    informed_slot[:, 0] = 0
    halt_slot = np.full((B, n), -1, dtype=np.int64)
    halted_uninformed = np.zeros(B, dtype=np.int64)
    completed = np.ones(B, dtype=bool)
    iterations_run = np.zeros(B, dtype=np.int64)
    live = np.ones(B, dtype=bool)
    i = first_index
    tel = _obs_active()

    while live.any():
        if proto.max_iterations is not None and int(iterations_run[live].max()) >= proto.max_iterations:
            completed[live] = False
            break
        R, p, threshold = schedule(i)
        noisy = np.zeros((B, n), dtype=np.int64)
        lane_ids = np.nonzero(live)[0]
        remaining = R
        while remaining > 0 and lane_ids.size:
            K = min(proto.block_slots, remaining)
            channels = bnet.draw_channels(lane_ids, K, C)
            coins = bnet.draw_coins(lane_ids, K)
            jam = draw_jamming(lane_ids, K)
            sub_slot = informed_slot[lane_ids]
            if tel is not None:
                t0 = time.perf_counter()
            listen_counts, send_counts, block_noise, new_informed = _shared_coin_block(
                channels,
                coins,
                jam,
                informed[lane_ids],
                active[lane_ids],
                p,
                slot0=bnet.clocks[lane_ids],
                slot_scale=slots_per_row,
                informed_slot=sub_slot,
            )
            if tel is not None:
                tel.add_time("batch.kernel_s", time.perf_counter() - t0)
                tel.count("batch.kernel_passes")
                tel.count("batch.lane_rows", int(lane_ids.size) * K)
                tel.observe("batch.occupancy", int(lane_ids.size))
                tel.count("batch.lane_passes", int(lane_ids.size))
                tel.count("batch.idle_lane_passes", B - int(lane_ids.size))
                if lane_ids.size == 1 and B > 1:
                    # slots simulated with the batch drained to one lane —
                    # the straggler tail continuous batching removes
                    tel.count("batch.solo_slots", K * slots_per_row)
            overrun = bnet.commit_counts(
                lane_ids, listen_counts, send_counts, K, slots_per_row=slots_per_row
            )
            # informed_slot is adopted even for a lane whose commit overran
            # (the scalar path raises *after* the event loop's in-place
            # update); informed/noisy updates belong to survivors only,
            # matching where the scalar exception lands.
            informed_slot[lane_ids] = sub_slot
            if overrun.any():
                dead = lane_ids[overrun]
                completed[dead] = False
                live[dead] = False
                if count_at_entry:  # the partial iteration counts (Fig. 1)
                    iterations_run[dead] += 1
                lane_ids = lane_ids[~overrun]
                new_informed = new_informed[~overrun]
                block_noise = block_noise[~overrun]
            informed[lane_ids] = new_informed
            noisy[lane_ids] += block_noise
            remaining -= K
        if lane_ids.size:
            halt_now = active[lane_ids] & (noisy[lane_ids] < threshold)  # (L, n)
            halted_uninformed[lane_ids] += (halt_now & ~informed[lane_ids]).sum(axis=1)
            lane_halt = halt_slot[lane_ids]
            lane_clocks = bnet.clocks[lane_ids]
            lane_halt[halt_now] = np.broadcast_to(lane_clocks[:, None], lane_halt.shape)[halt_now]
            halt_slot[lane_ids] = lane_halt
            active[lane_ids] &= ~halt_now
            iterations_run[lane_ids] += 1
            finished = ~active[lane_ids].any(axis=1)
            live[lane_ids[finished]] = False
        i += 1

    if tel is not None:
        if B > 1:
            # straggler wait: slots the slowest lane ran past the second-
            # slowest — per-pass occupancy says *when* lanes drop out, this
            # says how much tail one lane adds to the whole batch
            clocks = np.sort(bnet.clocks)
            tel.count("batch.straggler_slots", int(clocks[-1] - clocks[-2]))
        # lanes/batches are counted even for B == 1 so the occupancy
        # invariant (every trial lands in exactly one lane counter) holds
        # at any width — see tests/obs/test_occupancy.py
        tel.count("batch.batches")
        tel.count("batch.lanes", B)

    return [
        BroadcastResult(
            protocol=proto.name,
            n=n,
            slots=int(bnet.clocks[lane]),
            completed=bool(completed[lane]) and not active[lane].any(),
            informed_slot=informed_slot[lane].copy(),
            halt_slot=halt_slot[lane].copy(),
            node_energy=bnet.energy.lane_node_cost(lane),
            adversary_spend=bnet.energy.lane_adversary_spend(lane),
            halted_uninformed=int(halted_uninformed[lane]),
            periods=int(iterations_run[lane]),
            extras=make_extras(int(iterations_run[lane])),
        )
        for lane in range(B)
    ]


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
    """Continuous-batching counterpart of :func:`run_iterations_batch`.

    Same per-trial semantics, different scheduling: lane slots are *not* in
    lockstep.  Each slot carries its own iteration index, schedule constants
    and remaining-row count; every pass merges all occupied slots — wherever
    they are in their schedules — into one ragged kernel call (per-lane row
    counts and listen probabilities), and a slot that finishes its trial is
    refilled from the stream's pending queue instead of idling until the
    batch drains.  Trial results are bit-identical to the lockstep (and
    scalar) paths because a lane's draws, and everything derived from them,
    are functions of its own generator only — the schedule-invariance suite
    (``tests/core/test_lane_schedule_invariance.py``) enforces exactly that.

    ``draw_jamming(lane_ids, rows)`` may override the jam source with a
    ragged drawer returning one stacked uniform-C :class:`JamBlock` (the
    Fig. 5 physical-to-virtual relabeling); the default stacks
    :meth:`BatchNetwork.draw_jamming_ragged` on ``proto.num_channels``.
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
                # the lockstep driver's top-of-loop check fires before the
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
        if tel is not None:
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
            tel.add_time("batch.kernel_s", time.perf_counter() - t0)
            tel.count("batch.kernel_passes")
            tel.count("batch.lane_rows", int(Ks.sum()))
            tel.observe("batch.occupancy", int(lane_ids.size))
            tel.count("batch.lane_passes", int(lane_ids.size))
            tel.count("batch.idle_lane_passes", W - int(lane_ids.size))
            if lane_ids.size == 1 and W > 1:
                tel.count("batch.solo_slots", int(Ks[0]) * slots_per_row)
        overrun = bnet.commit_counts_ragged(
            lane_ids, listen_counts, send_counts, Ks, slots_per_row=slots_per_row
        )
        # informed_slot is adopted even for a lane whose commit overran (the
        # scalar path raises *after* the event loop's in-place update);
        # informed/noisy updates belong to survivors only — same contract as
        # the lockstep driver.
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


#: The execution paths a fallback note can name: what its lanes actually ran.
SCALAR_PATH = "the scalar fallback"
ARENA_SLOT_PATH = "the slot-stepped arena"


def _fallback_line(name: str, reason: str, lanes: int, path: str, passes=None) -> str:
    """One fallback warning line; ``passes`` is omitted for per-call lines."""
    where = f"{lanes} lane(s)"
    if passes is not None:
        where += f" in {passes} kernel pass(es)"
    return f"fallback: {name} {reason} — {where} ran on {path}"


class FallbackNotes:
    """Campaign-scoped tally of fallback lanes, keyed by cause.

    A long campaign can push thousands of lane blocks through
    :func:`run_broadcast_batch`; if its protocol cannot batch, a per-call
    stderr line turns the log into noise (once per kernel pass, not once per
    campaign).  Inside a :func:`collect_fallback_notes` scope the calls
    stay silent and the notes accumulate here; the campaign runner emits one
    summary line per (protocol, reason) at the end, naming the path the
    lanes took (:data:`SCALAR_PATH` or :data:`ARENA_SLOT_PATH`).  Counts
    survive process boundaries as plain dicts (:meth:`snapshot` /
    :meth:`merge`), which is how sharded workers report theirs back to the
    parent.
    """

    def __init__(self):
        #: (protocol name, reason) -> [lanes, kernel passes]
        self.counts: Dict[Tuple[str, str], List[int]] = {}
        #: (protocol name, reason) -> the execution path those lanes ran
        self.paths: Dict[Tuple[str, str], str] = {}

    def add(
        self, name: str, reason: str, lanes: int, passes: int = 1,
        path: str = SCALAR_PATH,
    ) -> None:
        entry = self.counts.setdefault((name, reason), [0, 0])
        entry[0] += lanes
        entry[1] += passes
        self.paths[(name, reason)] = path

    def snapshot(self) -> Dict[Tuple[str, str], list]:
        """A picklable copy of the tally (worker -> parent transport):
        ``(name, reason) -> [lanes, passes, path]``."""
        return {key: [*value, self.paths[key]] for key, value in self.counts.items()}

    def merge(self, counts: Dict[Tuple[str, str], list]) -> None:
        for (name, reason), (lanes, passes, path) in counts.items():
            self.add(name, reason, lanes, passes, path)

    def __bool__(self) -> bool:
        return bool(self.counts)

    def summary_lines(self) -> List[str]:
        """One line per cause, in first-seen order."""
        return [
            _fallback_line(name, reason, lanes, self.paths[(name, reason)], passes)
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
        print(_fallback_line(name, reason, lanes, SCALAR_PATH), file=sys.stderr)
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


def run_broadcast_batch(
    protocol,
    n: int,
    adversaries: Optional[Sequence] = None,
    seeds: Sequence[int] = (0,),
    *,
    max_slots=50_000_000,
    trace=None,
) -> List[BroadcastResult]:
    """Run one execution per lane — ``len(seeds)`` trials in one batch.

    The batch analogue of :func:`repro.core.result.run_broadcast`: lane ``l``
    runs ``protocol`` against ``adversaries[l]`` (reset first) under seed
    ``seeds[l]``, and the returned list matches what ``B`` scalar
    ``run_broadcast`` calls would produce, result for result.

    Protocols advertise batch support with a ``run_batch(bnet)`` method —
    every shipped protocol has one (``MultiCastAdv``/``MultiCastAdvC``
    through :mod:`repro.core.adv_batch`).  A protocol without one — and any
    batch mixing reactive with oblivious adversaries — falls back to a
    per-lane loop behind the same interface, but not silently: every lane
    that actually ran the scalar block engine gets
    ``extras["backend"] = "scalar-fallback"`` and one stderr line counts
    them, so campaign logs and stores show which cells didn't batch.
    (Lanes with *reactive* adversaries are different — they dispatch to the
    vectorized arena runtime by design and are neither warned about nor
    stamped.)

    ``trace=`` (a :class:`~repro.core.trace.TraceRecorder`) is honored only
    by the scalar engine: a one-lane batch falls back scalar with a
    FallbackNote, and a multi-lane batch raises — a trace records one
    execution, so silently attaching it to lane 0 of a batch (or dropping
    it, as batched/windowed dispatch used to) would misreport what ran.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one lane (seed)")
    if adversaries is None:
        adversaries = [None] * len(seeds)
    adversaries = list(adversaries)
    if len(adversaries) != len(seeds):
        raise ValueError(
            f"{len(adversaries)} adversaries for {len(seeds)} seeds (need one per lane)"
        )
    caps = _lane_caps(max_slots, len(seeds))
    if trace is not None:
        if len(seeds) > 1:
            raise ValueError(
                "trace recording is scalar-only: run_broadcast_batch got "
                f"trace= with {len(seeds)} lanes — record one lane per "
                "trace, or drop trace= to run batched"
            )
        result = run_broadcast(
            protocol, n, adversaries[0], seed=seeds[0], max_slots=int(caps[0]),
            trace=trace,
        )
        result.extras["backend"] = "scalar-fallback"
        _note_fallback(protocol, "trace= forces the scalar path", 1)
        return [result]
    from repro.arena.window import windowable_adversary

    if all(
        adversary is not None and windowable_adversary(adversary)
        for adversary in adversaries
    ):
        # an all-reactive batch whose every jammer has the window interface:
        # the arena's windowed lane driver hosts the whole batch in lockstep
        # (bit-identical to the per-lane arena dispatch below, ~10x faster)
        from repro.arena.run import run_broadcast_windowed_batch, supports_protocol

        if supports_protocol(protocol):
            if np.unique(caps).size == 1:
                return run_broadcast_windowed_batch(
                    protocol, n, adversaries, seeds, max_slots=int(caps[0])
                )
            # heterogeneous per-lane caps: the windowed driver takes one cap
            # per batch, so group lanes by cap (grouping cannot change any
            # lane's result — the windowed driver carries the same per-lane
            # determinism contract)
            results = [None] * len(seeds)
            for cap in dict.fromkeys(caps.tolist()):
                idx = [k for k, c in enumerate(caps.tolist()) if c == cap]
                sub = run_broadcast_windowed_batch(
                    protocol,
                    n,
                    [adversaries[k] for k in idx],
                    [seeds[k] for k in idx],
                    max_slots=int(cap),
                )
                for k, r in zip(idx, sub):
                    results[k] = r
            return results
    has_run_batch = hasattr(protocol, "run_batch")
    if not has_run_batch or any(
        hasattr(adversary, "jam_slot") for adversary in adversaries
    ):
        # reactive (adaptive) adversaries cannot run on the oblivious block
        # engine; run_broadcast dispatches those lanes to the arena runtime
        results = []
        fallbacks = 0
        for adversary, seed, cap in zip(adversaries, seeds, caps):
            result = run_broadcast(protocol, n, adversary, seed=seed, max_slots=int(cap))
            if not hasattr(adversary, "jam_slot"):
                # this lane ran the scalar block engine (reactive lanes run
                # the vectorized arena by design and are not stamped)
                result.extras["backend"] = "scalar-fallback"
                fallbacks += 1
            results.append(result)
        if fallbacks:
            _note_fallback(
                protocol,
                "has no run_batch"
                if not has_run_batch
                else "split a mixed reactive/oblivious batch",
                fallbacks,
            )
        return results
    for adversary in adversaries:
        if adversary is not None:
            adversary.reset()
    bnet = BatchNetwork(n, seeds, adversaries, max_slots=caps)
    return protocol.run_batch(bnet)


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
    lane slots — the compaction/refill analogue of :func:`run_broadcast_batch`.

    Where the fixed-lane path chops the trial list into width-sized blocks
    and runs each block to its slowest lane, this one keeps exactly
    ``lane_width`` slots busy: a slot whose trial retires (halts, truncates
    at its own ``max_slots``, or runs out of epochs) is immediately refilled
    from the pending queue.  ``max_slots`` may be a scalar or one cap per
    trial.  Results are bit-identical per trial to the fixed-lane and scalar
    paths — a trial's result is a pure function of its (seed, adversary,
    cap), never of lane placement, width, or refill schedule
    (``tests/core/test_lane_schedule_invariance.py``).

    Protocols advertise stream support with ``run_stream(stream)``; a
    protocol without one — or a trial list with reactive adversaries, or a
    ``trace=`` request — falls back to fixed width-sized blocks through
    :func:`run_broadcast_batch`, which applies its own (stamped, counted)
    dispatch per block.
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
    if lane_width is None:
        # streams prefer the wider stream_lane_width: refill keeps wide
        # batches occupied, where a fixed block would drain to stragglers
        lane_width = getattr(
            protocol,
            "stream_lane_width",
            getattr(protocol, "batch_lane_width", None),
        )
    if lane_width is None:
        from repro.analysis.stats import DEFAULT_LANE_WIDTH

        lane_width = DEFAULT_LANE_WIDTH
    width = max(1, int(lane_width))
    if trace is not None and len(seeds) > 1:
        raise ValueError(
            "trace recording is scalar-only: run_broadcast_stream got "
            f"trace= with {len(seeds)} trials — record one trial per "
            "trace, or drop trace= to run batched"
        )
    if (
        trace is not None
        or not hasattr(protocol, "run_stream")
        or any(hasattr(adversary, "jam_slot") for adversary in adversaries)
    ):
        results: List[BroadcastResult] = []
        for start in range(0, len(seeds), width):
            stop = start + width
            results.extend(
                run_broadcast_batch(
                    protocol,
                    n,
                    adversaries[start:stop],
                    seeds[start:stop],
                    max_slots=caps[start:stop],
                    trace=trace,
                )
            )
        return results
    stream = LaneStream(n, seeds, adversaries, caps.tolist(), width)
    results = protocol.run_stream(stream)
    missing = [t for t, r in enumerate(results) if r is None]
    if missing:  # a driver bug, not a user error — fail loudly
        raise RuntimeError(f"stream driver left trials {missing} unfinished")
    return results
