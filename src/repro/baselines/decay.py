"""The Decay broadcast procedure (Bar-Yehuda, Goldreich & Itai 1992).

The classic single-channel randomized broadcast primitive (the paper's
reference [3]), implemented here as the non-robust baseline: it has no
defense against jamming and no termination detection beyond a fixed epoch
budget, so under Eve it simply burns energy.

Protocol (single-hop specialization): time is divided into *Decay rounds* of
``lg n`` slots.  In slot k of a round (k = 0, 1, ...), every informed node
broadcasts with probability 2^-k; uninformed nodes listen in every slot.
With a single broadcaster surviving the halving with constant probability per
round, an uninformed node is informed with constant probability per round, so
O(lg(1/eps)) rounds inform everyone w.h.p. — in a *clean* channel.  Nodes run
``epochs`` rounds unconditionally (no jamming-aware termination exists in the
original), then stop.

What the comparison benches show: per-node energy is Theta(time) because
uninformed nodes listen constantly, and a blanket jammer with budget T blocks
all progress for T slots (single channel!), so Decay's energy ratio to Eve is
Theta(1) — the motivating failure mode for resource competitiveness.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.result import BroadcastResult
from repro.core.runner import spread_block
from repro.sim.channel import ACT_LISTEN, ACT_SEND_MSG
from repro.sim.engine import RadioNetwork, SlotLimitExceeded
from repro.sim.jam import JamBlock
from repro.sim.trace import TraceRecorder

__all__ = ["DecayBroadcast"]


def _decay_actions(coins: np.ndarray, informed: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Decay action rule: uninformed nodes listen every slot; informed nodes
    send iff their pre-scaled coin clears the slot's halved threshold (coins
    arrive multiplied by 2^k, so the test is ``coin < 1``).  Lane-polymorphic
    like the builders in :mod:`repro.core.runner`: statuses may be ``(n,)``
    against ``(K, n)`` coins or ``(B, n)`` against ``(B, K, n)``."""
    actions = np.zeros(coins.shape, dtype=np.int8)
    np.copyto(actions, ACT_LISTEN, where=(~informed & active)[..., None, :])
    send = (coins < 1.0) & (informed & active)[..., None, :]
    actions[send] = ACT_SEND_MSG
    return actions


class DecayBroadcast:
    """Single-channel Decay baseline.

    Parameters
    ----------
    n:
        Number of nodes.
    epochs:
        Decay rounds to run before stopping; the default 4·lg n gives
        failure probability ~1/n in a clean channel.
    """

    def __init__(self, n: int, *, epochs: Optional[int] = None):
        if n < 2:
            raise ValueError("broadcast needs at least two nodes")
        self.n = int(n)
        self.round_slots = max(1, math.ceil(math.log2(self.n)))
        self.epochs = (
            int(epochs) if epochs is not None else max(1, 4 * self.round_slots)
        )

    @property
    def block_slots(self) -> int:
        """Rows per kernel pass — one Decay round — for the width rule
        (:func:`repro.core.batch.stream_width`)."""
        return self.round_slots

    @property
    def name(self) -> str:
        return "Decay"

    def run(self, net: RadioNetwork, *, trace: Optional[TraceRecorder] = None) -> BroadcastResult:
        if net.n != self.n:
            raise ValueError(f"network has n={net.n}, protocol built for n={self.n}")
        n = self.n
        L = self.round_slots
        informed = np.zeros(n, dtype=bool)
        informed[0] = True
        active = np.ones(n, dtype=bool)
        informed_slot = np.full(n, -1, dtype=np.int64)
        informed_slot[0] = 0
        completed = True
        if trace is not None:
            trace.record_growth(0, 1)

        # Broadcast probability for slot k of a round is 2^-k.  The shared
        # event-driven resolver may rebuild actions from a mid-round offset,
        # so the slot-dependent threshold is folded into the coins up front
        # (send iff coin < 2^-k  <=>  coin·2^k < 1), keeping the builder
        # offset-free.
        scale = (2.0 ** np.arange(L, dtype=np.float64))[:, None]  # (L, 1)
        build = _decay_actions

        epochs_run = 0
        try:
            for _ in range(self.epochs):
                channels = np.zeros((L, n), dtype=np.int32)  # single channel
                coins = net.rng.random((L, n)) * scale
                jam = net.draw_jamming(L, 1)
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
                epochs_run += 1
                if trace is not None:
                    trace.record_period(
                        "iteration",
                        (epochs_run,),
                        net.clock - L,
                        net.clock,
                        int(informed.sum()),
                        int(active.sum()),
                    )
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
            # Decay has no termination detection: stopping uninformed after the
            # epoch budget is the baseline's documented failure mode, counted
            # here so comparison tables surface it.
            halted_uninformed=int((~informed).sum()),
            periods=epochs_run,
            extras={"round_slots": L, "epochs": self.epochs},
        )

    def run_stream(self, stream) -> list:
        """Execute one broadcast per trial of a
        :class:`repro.core.batch.LaneStream` on the always-on kernel —
        bit-identical per trial to :meth:`run` under the same seed (DESIGN.md
        sections 6 and 13).  Like :meth:`run` it draws no channels, and it
        folds each row's halved threshold into the coins."""
        from repro.core.batch import EpidemicStream

        n, L = self.n, self.round_slots
        scale = (2.0 ** np.arange(L, dtype=np.float64))[:, None]  # (L, 1)
        lanes = EpidemicStream(self, stream, {"round_slots": L, "epochs": self.epochs})
        bnet = stream.bnet

        def draw_block(lane_ids):
            rows = np.full(lane_ids.size, L, dtype=np.int64)
            coins = bnet.draw_coins_ragged(lane_ids, rows).reshape(-1, L, n)
            sends = (coins * scale < 1.0).reshape(-1, n)
            jam = JamBlock.stack(bnet.draw_jamming_ragged(lane_ids, rows, 1))
            return rows, np.zeros(sends.shape, dtype=np.int32), sends, jam

        return lanes.run(
            draw_block, lambda slot: True if lanes.blocks[slot] >= self.epochs else None
        )
