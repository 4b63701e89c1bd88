"""Always-on multi-channel epidemic broadcast (the paper's intro scheme).

"In each time slot, let each node independently choose a random channel, then
let informed nodes broadcast and uninformed nodes listen" — with participation
probability 1.  This is the fastest possible dissemination (constant-factor
growth per slot on n/2 channels) and the paper's starting point; its failure
mode, which ``MultiCast`` fixes, is energy: every node pays 1 unit *every
slot*, so blocking progress for t slots costs each node t — per-node energy is
Theta(adversary time), not O~(sqrt(T/n)).

Termination: the scheme has none (another thing the real protocols add); we
run until an oracle sees everyone informed plus ``linger`` extra slots, or
``max_rounds``.  The oracle termination *flatters* this baseline — its honest
implementation could only stop later — so the energy comparison in the
benches is conservative.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.result import BroadcastResult
from repro.core.runner import spread_block
from repro.obs.recorder import active as _obs_active
from repro.sim.channel import ACT_LISTEN, ACT_SEND_MSG
from repro.sim.engine import RadioNetwork, SlotLimitExceeded
from repro.sim.trace import TraceRecorder

__all__ = ["NaiveEpidemic"]


def _epidemic_actions(coins: np.ndarray, informed: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Always-on rule: active informed nodes broadcast, active uninformed
    nodes listen, inactive nodes idle.  Lane-polymorphic like the builders in
    :mod:`repro.core.runner` (statuses broadcast as ``status[..., None, :]``)."""
    actions = np.zeros(coins.shape, dtype=np.int8)
    np.copyto(actions, ACT_LISTEN, where=(active & ~informed)[..., None, :])
    np.copyto(actions, ACT_SEND_MSG, where=(active & informed)[..., None, :])
    return actions


class NaiveEpidemic:
    """The introduction's epidemic scheme with p = 1 and oracle termination.

    Parameters
    ----------
    n:
        Number of nodes; uses n/2 channels like the real protocols.
    linger:
        Slots to keep running after the oracle sees full dissemination
        (models the detection delay a real implementation would pay; 0 is
        maximally charitable).
    max_slots_budget:
        Stop (unsuccessfully) after this many slots if dissemination never
        completes — e.g. under blanket jamming.
    """

    def __init__(self, n: int, *, linger: int = 0, max_slots_budget: int = 1_000_000):
        if n < 4:
            raise ValueError("NaiveEpidemic needs n >= 4 (n/2 >= 2 channels)")
        self.n = int(n)
        self.num_channels = self.n // 2
        self.linger = int(linger)
        self.max_slots_budget = int(max_slots_budget)
        # Small blocks: the oracle can only stop the run at a block boundary,
        # so block size bounds the overshoot charged to this baseline.
        self.block_slots = 64

    @property
    def name(self) -> str:
        return "NaiveEpidemic"

    def run(self, net: RadioNetwork, *, trace: Optional[TraceRecorder] = None) -> BroadcastResult:
        if net.n != self.n:
            raise ValueError(f"network has n={net.n}, protocol built for n={self.n}")
        n, C = self.n, self.num_channels
        informed = np.zeros(n, dtype=bool)
        informed[0] = True
        active = np.ones(n, dtype=bool)
        informed_slot = np.full(n, -1, dtype=np.int64)
        informed_slot[0] = 0
        completed = True
        if trace is not None:
            trace.record_growth(0, 1)

        build = _epidemic_actions

        blocks = 0
        linger_left: Optional[int] = None
        try:
            while True:
                if net.clock >= self.max_slots_budget:
                    completed = False
                    break
                K = min(
                    self.block_slots,
                    self.max_slots_budget - net.clock,
                    linger_left if linger_left is not None else self.block_slots,
                )
                K = max(1, K)
                channels = net.rng.integers(0, C, size=(K, n), dtype=np.int32)
                coins = net.rng.random((K, n))
                jam = net.draw_jamming(K, C)
                out = spread_block(
                    channels,
                    coins,
                    jam,
                    informed,
                    active,
                    build,
                    slot0=net.clock,
                    informed_slot=informed_slot,
                    trace=trace,
                )
                net.commit_block(out.actions)
                informed = out.informed
                blocks += 1
                if informed.all():
                    if linger_left is None:
                        # Oracle fires; trim to the exact dissemination point
                        # plus the linger allowance.
                        overshoot = net.clock - int(informed_slot.max())
                        linger_left = max(0, self.linger - overshoot)
                    else:
                        linger_left -= K
                    if linger_left <= 0:
                        break
        except SlotLimitExceeded:
            completed = False

        halt_slot = np.full(n, net.clock, dtype=np.int64)
        return BroadcastResult(
            protocol=self.name,
            n=n,
            slots=net.clock,
            completed=completed,
            informed_slot=informed_slot,
            halt_slot=halt_slot,
            node_energy=net.energy.node_cost.copy(),
            adversary_spend=net.energy.adversary_spend,
            halted_uninformed=int((~informed).sum()) if not completed else 0,
            periods=blocks,
            extras={"num_channels": C, "oracle_termination": True},
        )

    def run_batch(self, bnet) -> list:
        """Lane-batched :meth:`run` (bit-identical per lane for the same
        seed).

        Naive's block length is lane-local: it shrinks when a lane nears its
        slot budget or counts down a linger allowance.  Each step therefore
        groups live lanes by their next K and batches each group — usually
        one group of everyone at ``block_slots``; the grouping cannot perturb
        results because a lane's draws come from its own generator in its own
        block order regardless of which group ran first.
        """
        from repro.core.runner import spread_block_batch

        if bnet.n != self.n:
            raise ValueError(f"batch network has n={bnet.n}, protocol built for n={self.n}")
        n, C, B = self.n, self.num_channels, bnet.B
        informed = np.zeros((B, n), dtype=bool)
        informed[:, 0] = True
        active = np.ones((B, n), dtype=bool)
        informed_slot = np.full((B, n), -1, dtype=np.int64)
        informed_slot[:, 0] = 0
        completed = np.ones(B, dtype=bool)
        blocks = np.zeros(B, dtype=np.int64)
        linger_left = np.full(B, -1, dtype=np.int64)  # -1 = oracle not fired yet
        live = np.ones(B, dtype=bool)

        while live.any():
            lane_ids = np.nonzero(live)[0]
            clocks = bnet.clocks[lane_ids]
            exhausted = clocks >= self.max_slots_budget
            if exhausted.any():
                completed[lane_ids[exhausted]] = False
                live[lane_ids[exhausted]] = False
                lane_ids = lane_ids[~exhausted]
                clocks = clocks[~exhausted]
                if lane_ids.size == 0:
                    break
            lane_K = np.minimum(self.block_slots, self.max_slots_budget - clocks)
            lingering = linger_left[lane_ids] >= 0
            lane_K = np.where(
                lingering, np.minimum(lane_K, linger_left[lane_ids]), lane_K
            )
            lane_K = np.maximum(1, lane_K)
            for K in np.unique(lane_K):
                group = lane_ids[lane_K == K]
                K = int(K)
                channels = bnet.draw_channels(group, K, C)
                coins = bnet.draw_coins(group, K)
                jam = bnet.draw_jamming(group, K, C)
                sub_slot = informed_slot[group]
                out = spread_block_batch(
                    channels,
                    coins,
                    jam,
                    informed[group],
                    active[group],
                    _epidemic_actions,
                    slot0=bnet.clocks[group],
                    informed_slot=sub_slot,
                )
                overrun = bnet.commit_block(group, out.actions)
                informed_slot[group] = sub_slot
                # the scalar path raises before adopting statuses, so
                # overrun lanes keep their pre-block informed set
                completed[group[overrun]] = False
                live[group[overrun]] = False
                group = group[~overrun]
                informed[group] = out.informed[~overrun]
                blocks[group] += 1
                # Per-lane oracle/linger bookkeeping (the scalar loop's tail).
                for lane in group[informed[group].all(axis=1)]:
                    if linger_left[lane] < 0:
                        overshoot = int(bnet.clocks[lane]) - int(informed_slot[lane].max())
                        linger_left[lane] = max(0, self.linger - overshoot)
                    else:
                        linger_left[lane] -= K
                    if linger_left[lane] <= 0:
                        live[lane] = False

        tel = _obs_active()
        if tel is not None:
            # book the lanes like run_iterations_stream does, so the
            # occupancy invariant (every trial in exactly one lane counter)
            # holds for bespoke run_batch protocols too
            tel.count("batch.batches")
            tel.count("batch.lanes", B)
        return [
            BroadcastResult(
                protocol=self.name,
                n=n,
                slots=int(bnet.clocks[lane]),
                completed=bool(completed[lane]),
                informed_slot=informed_slot[lane].copy(),
                halt_slot=np.full(n, int(bnet.clocks[lane]), dtype=np.int64),
                node_energy=bnet.energy.lane_node_cost(lane),
                adversary_spend=bnet.energy.lane_adversary_spend(lane),
                halted_uninformed=(
                    int((~informed[lane]).sum()) if not completed[lane] else 0
                ),
                periods=int(blocks[lane]),
                extras={"num_channels": C, "oracle_termination": True},
            )
            for lane in range(B)
        ]
