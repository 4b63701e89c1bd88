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
from repro.sim.channel import ACT_LISTEN, ACT_SEND_MSG
from repro.sim.engine import RadioNetwork, SlotLimitExceeded
from repro.sim.jam import JamBlock
from repro.sim.trace import TraceRecorder

__all__ = ["NaiveEpidemic"]


def _epidemic_actions(coins: np.ndarray, informed: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Always-on rule: active informed nodes broadcast, active uninformed
    nodes listen, inactive nodes idle; ``(K, n)`` coins, ``(n,)`` statuses,
    like the builders in :mod:`repro.core.runner`."""
    actions = np.zeros(coins.shape, dtype=np.int8)
    np.copyto(actions, ACT_LISTEN, where=(active & ~informed)[None, :])
    np.copyto(actions, ACT_SEND_MSG, where=(active & informed)[None, :])
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

    def run_stream(self, stream) -> list:
        """Execute one broadcast per trial of a
        :class:`repro.core.batch.LaneStream` on the always-on kernel —
        bit-identical per trial to :meth:`run` under the same seed (DESIGN.md
        sections 6 and 13).

        Once everyone is informed, :meth:`run`'s linger countdown runs out
        exactly at slot ``dissemination + linger`` (at once if the clock is
        already past it), so that slot stands in for the countdown here."""
        from repro.core.batch import EpidemicStream

        C = self.num_channels
        lanes = EpidemicStream(
            self, stream, {"num_channels": C, "oracle_termination": True}
        )
        bnet = stream.bnet

        def draw_block(lane_ids):
            clocks = bnet.clocks[lane_ids]
            linger_left = np.where(
                lanes.informed[lane_ids].all(axis=1),
                lanes.informed_slot[lane_ids].max(axis=1) + self.linger - clocks,
                self.block_slots,
            )
            rows = np.minimum(self.block_slots, self.max_slots_budget - clocks)
            rows = np.maximum(1, np.minimum(rows, linger_left))
            channels = bnet.draw_channels_ragged(lane_ids, rows, C)
            bnet.draw_coins_ragged(lane_ids, rows)  # drawn like run's, never read
            jam = JamBlock.stack(bnet.draw_jamming_ragged(lane_ids, rows, C))
            return rows, channels, np.ones(channels.shape, dtype=bool), jam

        def stop(slot):
            clock = bnet.clocks[slot]
            informed, informed_slot = lanes.informed[slot], lanes.informed_slot[slot]
            if informed.all() and clock >= informed_slot.max() + self.linger:
                return True
            return False if clock >= self.max_slots_budget else None

        return lanes.run(draw_block, stop)
