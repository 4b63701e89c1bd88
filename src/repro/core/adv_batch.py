"""Lane-batched block kernel for ``MultiCastAdv`` / ``MultiCastAdvC``.

The Fig. 4/6 protocols' epoch/phase lattice (unlike the Figs. 1/2/5
iteration loop) has two steps per phase, four feedback counters, and a
channel count that grows without bound — but none of that resists the lane
axis.  This module is the DESIGN.md section 9 kernel:

* :func:`_adv_step_one_ragged` — step I (dissemination) for one block of
  every lane.  A node participates iff its coin clears ``p`` (uninformed ->
  listen, informed -> broadcast ``m``), so the kernel extracts the ~``pKn``
  participating ``(lane, row, node)`` triples once and resolves the
  "uninformed node heard m" events as a per-lane earliest-event loop over
  sorted cell keys — the exact fixed point of the scalar tail re-resolution
  in :func:`repro.core.runner.spread_block`, without materializing
  ``(L, K, n)`` action or feedback matrices.  Once dissemination completes
  (the steady state of every run) there are no listeners and the block
  reduces to one send-count ``bincount``.
* :func:`_adv_step_two_ragged` — step II (status adjustment).  Statuses are
  frozen for the whole step, so the four counters N_m, N'_m, N_n, N_s are a
  pure function of the draws and the jam mask: one participant extraction,
  one sorted-key broadcaster count per payload (``m`` vs the beacon ``±``),
  one jam lookup, four ``bincount`` reductions — the sparse analogue of the
  3-D ``resolve_block`` + ``count_feedback`` pass, vectorized across lanes
  *and* across the R(i, j) slots of the phase.
* :func:`run_adv_stream` — the epoch/phase driver over a
  :class:`repro.core.batch.LaneStream`, mirroring
  :meth:`repro.core.multicast_adv.MultiCastAdv.run` per trial, with the
  end-of-phase checks applied through the *shared*
  :func:`repro.core.multicast_adv.apply_phase_checks` (one implementation of
  the threshold comparisons for both paths), and per-trial ``max_slots``
  overruns retiring lanes mid-phase exactly where the scalar
  ``SlotLimitExceeded`` lands.

Determinism contract (DESIGN.md section 9, enforced by
``tests/core/test_batch_equivalence.py``): every trial is **bit-identical**
to ``run_broadcast(proto, n, adversary, seed=seed)`` — same draw order (per
block: one ``(K, n)`` channel draw then one ``(K, n)`` coin draw,
``K = min(block_slots, remaining)``, from the lane's own generator), same
slots, statuses, event slots, energy books, periods and extras.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

import numpy as np

from repro.obs.recorder import active as _obs_active
from repro.core.multicast_adv import (
    STATUS_HALT,
    STATUS_IN,
    STATUS_UN,
    apply_phase_checks,
)
from repro.core.batch import _participants
from repro.core.result import BroadcastResult

__all__ = ["run_adv_stream"]


def _member_keys(sorted_keys: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Membership of each query key in a sorted key array (the unstacked
    analogue of :meth:`JamBlock.lookup_keys`)."""
    if not sorted_keys.size:
        return np.zeros(query.shape[0], dtype=bool)
    idx = np.minimum(
        np.searchsorted(sorted_keys, query, side="left"), sorted_keys.size - 1
    )
    return sorted_keys[idx] == query


def _ragged_jam_keys(blocks, offsets: np.ndarray, Cmax: int) -> np.ndarray:
    """Sorted global jam keys for per-lane :class:`JamBlock`\\ s: lane ``l``'s
    ``(row, channel)`` entries become ``(offsets[l] + row) * Cmax + channel``.
    Lane-major concatenation of the per-lane (row-major sorted) key arrays is
    globally sorted, because global rows are disjoint and ascending."""
    parts = []
    for l, block in enumerate(blocks):
        if block.total() == 0:
            continue
        rows = np.repeat(np.arange(block.K, dtype=np.int64), block.counts())
        parts.append((np.int64(offsets[l]) + rows) * np.int64(Cmax) + block.channels)
    if not parts:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(parts)


def _counts_by_node(lane: np.ndarray, node: np.ndarray, mask: np.ndarray,
                    L: int, n: int) -> np.ndarray:
    """``(L, n)`` occurrence counts of the masked hits."""
    return np.bincount(
        (lane[mask] * n + node[mask]), minlength=L * n
    ).reshape(L, n)


def _count_at(sorted_cells: np.ndarray, query: np.ndarray) -> np.ndarray:
    """How many entries of the sorted key array equal each query key."""
    if not sorted_cells.size:
        return np.zeros(query.shape[0], dtype=np.int64)
    lo = np.searchsorted(sorted_cells, query, side="left")
    hi = np.searchsorted(sorted_cells, query, side="right")
    return hi - lo


def _adv_step_one_ragged(
    channels: np.ndarray,
    coins: np.ndarray,
    jam_keys: np.ndarray,
    offsets: np.ndarray,
    p: np.ndarray,
    Cmax: int,
    informed: np.ndarray,
    active: np.ndarray,
    *,
    slot0: np.ndarray,
    informed_slot: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Resolve one step-I block of every lane, returning
    ``(listen_counts, send_counts, informed)``.

    Inputs are ragged lane-major: ``channels``/``coins`` are ``(T, n)`` with
    lane ``l`` owning rows ``offsets[l]:offsets[l+1]`` (lanes may carry
    different row counts and different channel counts — ``p`` is per lane,
    ``jam_keys`` the sorted global jam keys in the common ``Cmax`` space from
    :func:`_ragged_jam_keys`); ``informed``/``active``/``informed_slot`` are
    ``(L, n)`` (the latter updated in place with event slots), ``slot0``
    each lane's global slot of its row 0.

    The step-I action rule makes the *same draw* a listen or a send
    depending on when its node learned ``m`` (captured as a per-node
    informing row; -1 = knew at entry, NEVER = not in this block): a hit is
    a send iff its row is past its node's informing row, a listen otherwise.
    An uninformed listener hears ``m`` iff its (row, cell) holds exactly one
    current send and no jamming.  Events only add sends at rows *past* the
    informing row being set, so processing the earliest hearing per lane
    (all hearers of that row flip together) and rescanning past it reaches
    exactly the fixed point of the scalar event loop, with every lane
    advancing one event per pass.  Dissemination needs at most n-1 events
    per lane per run, and the expensive late phases have none.
    """
    T, n = coins.shape
    L = offsets.size - 1
    flat, lane, row, node, cell = _participants(
        coins, channels, active, p, offsets, Cmax
    )
    jam_at = _member_keys(jam_keys, cell)

    # sentinel informing row: larger than any lane-local row in this block
    NEVER = np.int64(np.diff(offsets).max() if L else 0)
    informing_row = np.where(informed, np.int64(-1), NEVER)  # (L, n)
    frontier = np.full(L, -1, dtype=np.int64)  # rows <= frontier are settled
    while True:
        inf_at_hit = informing_row[lane, node]
        listeners = (inf_at_hit == NEVER) & (row > frontier[lane])
        if not listeners.any():
            break
        send_cells = np.sort(cell[row > inf_at_hit])
        heard = (_count_at(send_cells, cell[listeners]) == 1) & ~jam_at[listeners]
        if not heard.any():
            break
        h_idx = np.nonzero(listeners)[0][heard]
        h_lane = lane[h_idx]
        h_row = row[h_idx]
        # earliest hearing row per lane: h_idx is (lane, row, node)-sorted,
        # so the first index per lane carries its smallest row
        ev_lanes, first = np.unique(h_lane, return_index=True)
        ev_row = h_row[first]
        # every hearer of that exact row flips together (scalar: hears[r])
        ev = h_row == ev_row[np.searchsorted(ev_lanes, h_lane)]
        informing_row[h_lane[ev], node[h_idx][ev]] = h_row[ev]
        frontier[ev_lanes] = ev_row

    if informed_slot is not None:
        new_lane, new_node = np.nonzero((informing_row >= 0) & (informing_row < NEVER))
        informed_slot[new_lane, new_node] = (
            slot0[new_lane] + informing_row[new_lane, new_node]
        )

    sends = row > informing_row[lane, node]
    send_counts = _counts_by_node(lane, node, sends, L, n)
    listen_counts = _counts_by_node(lane, node, ~sends, L, n)
    return listen_counts, send_counts, informing_row < NEVER


def _adv_step_two_ragged(
    channels: np.ndarray,
    coins: np.ndarray,
    jam_keys: np.ndarray,
    offsets: np.ndarray,
    p: np.ndarray,
    Cmax: int,
    informed: np.ndarray,
    active: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, dict]:
    """Resolve one step-II block of every lane, returning
    ``(listen_counts, send_counts, counters)`` with ``counters`` holding the
    ``(L, n)`` N_m / N'_m / N_n / N_s increments.  Ragged lane-major inputs
    as in :func:`_adv_step_one_ragged`.

    Statuses are frozen (paper section 6.2), so there is no event loop: a
    hit listens below ``p`` and broadcasts in ``[p, 2p)`` — the payload is
    ``m`` for informed nodes and the beacon ``±`` otherwise — and each
    listen classifies exactly as :func:`repro.sim.channel.resolve_block`
    would: noise iff its cell is jammed or holds >= 2 broadcasts, else the
    payload of its single broadcaster, else silence.
    """
    T, n = coins.shape
    L = offsets.size - 1
    flat, lane, row, node, cell = _participants(
        coins, channels, active, 2.0 * p, offsets, Cmax
    )
    is_listen = coins.ravel()[flat] < p[lane]
    listen_counts = _counts_by_node(lane, node, is_listen, L, n)
    send_counts = _counts_by_node(lane, node, ~is_listen, L, n)

    sender_informed = informed[lane, node] & ~is_listen
    sender_beacon = ~informed[lane, node] & ~is_listen
    msg_cells = np.sort(cell[sender_informed])
    beacon_cells = np.sort(cell[sender_beacon])

    lcell = cell[is_listen]
    msg = _count_at(msg_cells, lcell)
    beacon = _count_at(beacon_cells, lcell)
    total = msg + beacon
    noisy = _member_keys(jam_keys, lcell) | (total >= 2)
    got_msg = ~noisy & (total == 1) & (msg == 1)
    got_beacon = ~noisy & (total == 1) & (beacon == 1)
    silent = ~noisy & (total == 0)

    l_lane = lane[is_listen]
    l_node = node[is_listen]
    n_m = _counts_by_node(l_lane, l_node, got_msg, L, n)
    n_beacon = _counts_by_node(l_lane, l_node, got_beacon, L, n)
    counters = {
        "msg": n_m,
        "msg_or_beacon": n_m + n_beacon,
        "noise": _counts_by_node(l_lane, l_node, noisy, L, n),
        "silence": _counts_by_node(l_lane, l_node, silent, L, n),
    }
    return listen_counts, send_counts, counters


def run_adv_stream(proto, stream) -> List[BroadcastResult]:
    """Run one ``MultiCastAdv`` / ``MultiCastAdvC`` execution per trial of
    ``stream``.

    Slots are *not* in lockstep: each slot carries its own (epoch, phase,
    step) position and remaining-slot count, every pass merges the occupied
    slots of a step into one ragged kernel call (per-lane row counts, listen
    probabilities *and channel counts* — step partitioning keeps the two
    kernels' distinct event semantics), and a slot that retires — halted at
    an epoch boundary, overrun mid-phase, or out of epochs — is refilled
    from the stream's pending queue instead of idling until the batch
    drains.  Lanes retire mid-epoch only on overrun (matching the scalar
    ``SlotLimitExceeded``); a fully-halted lane still draws its remaining
    phases and leaves at the epoch boundary, exactly like the scalar while
    loop.  A stream as wide as its trial list never refills, and its lanes
    then share one timetable position: the lockstep schedule.  Per-trial
    results are bit-identical to the scalar path at any width (DESIGN.md
    sections 9 and 13).
    """
    bnet = stream.bnet
    n = bnet.n  # MultiCastAdv is n-agnostic
    W = stream.width
    status = np.full((W, n), STATUS_UN, dtype=np.int8)
    informed_slot = np.full((W, n), -1, dtype=np.int64)
    halt_slot = np.full((W, n), -1, dtype=np.int64)
    helper_epoch = np.full((W, n), -1, dtype=np.int64)
    helper_phase = np.full((W, n), -1, dtype=np.int64)
    completed = np.ones(W, dtype=bool)
    epochs_run = np.zeros(W, dtype=np.int64)
    occupied = np.ones(W, dtype=bool)
    # phase machine, per slot
    epoch_i = np.zeros(W, dtype=np.int64)
    slot_phases: List[list] = [[] for _ in range(W)]
    phase_pos = np.zeros(W, dtype=np.int64)
    step = np.ones(W, dtype=np.int8)  # 1 = dissemination, 2 = adjustment
    remaining = np.zeros(W, dtype=np.int64)
    R_arr = np.zeros(W, dtype=np.int64)
    p_arr = np.zeros(W, dtype=np.float64)
    C_arr = np.zeros(W, dtype=np.int64)
    j_arr = np.zeros(W, dtype=np.int64)
    ph_active = np.zeros((W, n), dtype=bool)
    ph_informed = np.zeros((W, n), dtype=bool)
    # step-II working state: status copy with step-I promotions, counters
    st = np.zeros((W, n), dtype=np.int8)
    n_m = np.zeros((W, n), dtype=np.int64)
    n_mb = np.zeros_like(n_m)
    n_noise = np.zeros_like(n_m)
    n_silence = np.zeros_like(n_m)
    tel = _obs_active()

    def slot_result(slot: int) -> BroadcastResult:
        halted = status[slot] == STATUS_HALT
        return BroadcastResult(
            protocol=proto.name,
            n=n,
            slots=int(bnet.clocks[slot]),
            completed=bool(completed[slot]) and bool(halted.all()),
            informed_slot=informed_slot[slot].copy(),
            halt_slot=halt_slot[slot].copy(),
            node_energy=bnet.energy.lane_node_cost(slot),
            adversary_spend=bnet.energy.lane_adversary_spend(slot),
            halted_uninformed=int((halted & (informed_slot[slot] < 0)).sum()),
            periods=int(epochs_run[slot]),
            extras={
                "alpha": proto.alpha,
                "b": proto.b,
                "channel_cap": proto.channel_cap,
                "final_status": status[slot].copy(),
                "helper_epoch": helper_epoch[slot].copy(),
                "helper_phase": helper_phase[slot].copy(),
                "informed": (status[slot] >= STATUS_IN).copy(),
                "last_epoch": (
                    proto.first_epoch + int(epochs_run[slot]) - 1
                    if epochs_run[slot]
                    else None
                ),
            },
        )

    def start_phase(slot: int) -> None:
        i = int(epoch_i[slot])
        j = int(slot_phases[slot][phase_pos[slot]])
        j_arr[slot] = j
        R_arr[slot] = proto.phase_length(i, j)
        p_arr[slot] = proto.participation_prob(i, j)
        C_arr[slot] = proto.phase_channels(j)
        ph_active[slot] = status[slot] != STATUS_HALT
        ph_informed[slot] = status[slot] >= STATUS_IN
        step[slot] = 1
        remaining[slot] = R_arr[slot]

    def start_epoch(slot: int) -> bool:
        """Enter the slot's current epoch; False = retired on max_epochs."""
        i = int(epoch_i[slot])
        if proto.max_epochs is not None and i - proto.first_epoch >= proto.max_epochs:
            completed[slot] = False
            return False
        slot_phases[slot] = list(proto.phases_of_epoch(i))
        phase_pos[slot] = 0
        start_phase(slot)
        return True

    def reset_slot(slot: int) -> None:
        status[slot] = STATUS_UN
        status[slot, 0] = STATUS_IN  # the source knows m
        informed_slot[slot] = -1
        informed_slot[slot, 0] = 0
        halt_slot[slot] = -1
        helper_epoch[slot] = -1
        helper_phase[slot] = -1
        completed[slot] = True
        epochs_run[slot] = 0
        epoch_i[slot] = proto.first_epoch

    def retire(slot: int) -> None:
        while True:
            stream.finish(slot, slot_result(slot))
            if tel is not None:
                tel.count("adv_batch.lanes")
            if not stream.refill(slot):
                occupied[slot] = False
                return
            reset_slot(slot)
            if start_epoch(slot):
                return
            # the refilled trial retired immediately (max_epochs <= 0)

    def end_phases(done: np.ndarray) -> None:
        """Phase-end checks for every listed slot in one vectorized call.

        The slots sit at *different* (i, j) positions, so the per-lane
        R·p / R·p² columns are built from the scalars ``start_phase``
        cached — the same ``phase_length``/``participation_prob`` values
        the scalar path uses, multiplied in the same order, keeping the
        threshold comparisons bit-identical per lane.
        """
        p_col = p_arr[done][:, None]
        rp_col = R_arr[done][:, None] * p_col
        sub_st = st[done]
        isl = informed_slot[done]
        hsl = halt_slot[done]
        hep = helper_epoch[done]
        hph = helper_phase[done]
        apply_phase_checks(
            proto,
            epoch_i[done][:, None],
            j_arr[done][:, None],
            active=ph_active[done],
            status=sub_st,
            n_m=n_m[done],
            n_mb=n_mb[done],
            n_noise=n_noise[done],
            n_silence=n_silence[done],
            informed_slot=isl,
            halt_slot=hsl,
            helper_epoch=hep,
            helper_phase=hph,
            clock=bnet.clocks[done][:, None],
            rp=rp_col,
            rp2=rp_col * p_col,
        )
        status[done] = sub_st
        informed_slot[done] = isl
        halt_slot[done] = hsl
        helper_epoch[done] = hep
        helper_phase[done] = hph
        for slot in done:
            slot = int(slot)
            if phase_pos[slot] + 1 < len(slot_phases[slot]):
                phase_pos[slot] += 1
                start_phase(slot)
                continue
            # epoch boundary — the only place a lane retires of its own accord
            epochs_run[slot] += 1
            if (status[slot] == STATUS_HALT).all():
                retire(slot)
                continue
            epoch_i[slot] += 1
            if not start_epoch(slot):
                retire(slot)

    for slot in range(W):
        reset_slot(slot)
        if not start_epoch(slot):
            retire(slot)

    while occupied.any():
        if tel is not None:
            tel.count("adv_batch.idle_lane_passes", int(W - occupied.sum()))
        for step_val in (1, 2):
            sel = occupied & (step == step_val)
            lane_ids = np.nonzero(sel)[0]
            if not lane_ids.size:
                continue
            Ks = np.minimum(proto.block_slots, remaining[lane_ids])
            Cs = C_arr[lane_ids]
            Cmax = int(Cs.max())
            channels = bnet.draw_channels_ragged(lane_ids, Ks, Cs)
            coins = bnet.draw_coins_ragged(lane_ids, Ks)
            blocks = bnet.draw_jamming_ragged(lane_ids, Ks, Cs)
            offsets = np.concatenate(([0], np.cumsum(Ks)))
            jam_keys = _ragged_jam_keys(blocks, offsets, Cmax)
            if tel is not None:
                t0 = time.perf_counter()
            if step_val == 1:
                sub_slot = informed_slot[lane_ids]
                listen_counts, send_counts, new_informed = _adv_step_one_ragged(
                    channels,
                    coins,
                    jam_keys,
                    offsets,
                    p_arr[lane_ids],
                    Cmax,
                    ph_informed[lane_ids],
                    ph_active[lane_ids],
                    slot0=bnet.clocks[lane_ids],
                    informed_slot=sub_slot,
                )
            else:
                listen_counts, send_counts, counters = _adv_step_two_ragged(
                    channels,
                    coins,
                    jam_keys,
                    offsets,
                    p_arr[lane_ids],
                    Cmax,
                    ph_informed[lane_ids],
                    ph_active[lane_ids],
                )
            if tel is not None:
                tel.add_time("adv_batch.kernel_s", time.perf_counter() - t0)
                tel.count("adv_batch.kernel_passes")
                tel.observe("adv_batch.occupancy", int(lane_ids.size))
                tel.count("adv_batch.lane_passes", int(lane_ids.size))
                if lane_ids.size == 1 and W > 1:
                    tel.count("adv_batch.solo_slots", int(Ks[0]))
            overrun = bnet.commit_counts_ragged(lane_ids, listen_counts, send_counts, Ks)
            if step_val == 1:
                # adopted even on overrun, like the scalar path
                informed_slot[lane_ids] = sub_slot
            keep = ~overrun
            live = lane_ids[keep]
            remaining[live] -= Ks[keep]
            if step_val == 1:
                ph_informed[live] = new_informed[keep]
                done = live[remaining[live] == 0]
                if done.size:
                    # step-I learning (un -> in) on a local copy: the
                    # global status array is only written at phase end
                    s = status[done]
                    s[(s == STATUS_UN) & ph_informed[done]] = STATUS_IN
                    st[done] = s
                    n_m[done] = 0
                    n_mb[done] = 0
                    n_noise[done] = 0
                    n_silence[done] = 0
                    step[done] = 2
                    remaining[done] = R_arr[done]
            else:
                n_m[live] += counters["msg"][keep]
                n_mb[live] += counters["msg_or_beacon"][keep]
                n_noise[live] += counters["noise"][keep]
                n_silence[live] += counters["silence"][keep]
                done = live[remaining[live] == 0]
                if done.size:
                    end_phases(done)
            for slot in lane_ids[overrun]:
                # mid-phase death: pre-phase statuses stand, this block's
                # step-II counters are dropped — where SlotLimitExceeded
                # lands on the scalar path
                completed[slot] = False
                retire(int(slot))

    if tel is not None:
        tel.count("adv_batch.batches")
        tel.count("adv_batch.refills", stream.refills)
    return list(stream.results)


# perfbench/spans.py traces the retired lockstep driver under this name;
# the alias keeps that target resolving.  Remove it with that target.
run_adv_batch = run_adv_stream
