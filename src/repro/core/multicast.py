"""``MultiCast`` — paper section 5, Figure 2.

``MultiCastCore`` needs T because its identical iterations each carry a fixed
error probability; ``MultiCast`` removes that input by making iterations grow:
iteration i (starting at i = 6) has R_i = a·i·4^i·lg²n slots and uses
listen/broadcast probability p_i = 2^-i, halting a node iff its noisy-slot
count is below R_i·p_i/2.  Later iterations fail with rapidly vanishing
probability, so the total error is bounded by a function of n alone, and the
"sparse" probabilities buy the improved energy bound.

Guarantee (Theorem 5.4): with n/2 channels, w.h.p. all nodes receive the
message and terminate within O(T/n + lg²n) slots, and each node's cost is
O(√(T/n)·√lgT·lgn + lg²n).  With no jamming everything finishes inside the
first iteration: O(lg²n) time and cost.

Fidelity notes
--------------
* Structural constants are the paper's: growth factor 4 in R_i, probability
  halving p_i = 2^-i, first iteration i = 6, halt threshold R_i·p_i/2.
* ``a`` ("sufficiently large") is a float scale parameter, as in
  :mod:`repro.core.multicast_core`; see there for why.
* This class is also the engine behind ``MultiCast(C)`` (Fig. 5): the
  channel-limited variant maps physical (slot, channel) pairs to virtual
  channels and reuses this exact iteration loop — see
  :mod:`repro.core.limited`.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.result import BroadcastResult
from repro.core.runner import count_feedback, shared_coin_actions, spread_block
from repro.sim.engine import RadioNetwork, SlotLimitExceeded
from repro.sim.trace import TraceRecorder

__all__ = ["MultiCast"]


class MultiCast:
    """Fig. 2 protocol object.

    Parameters
    ----------
    n:
        Number of nodes (node 0 is the source).
    a:
        Iteration-length scale: R_i = max(1, ceil(a · i · 4^i · lg²n)).
        Defaults keep the paper's shape; pick ~0.001–0.05 for laptop-scale
        experiments (see DESIGN.md section 2.2).
    start_iteration:
        The paper starts at i = 6 (so p_i <= 1/64); exposed for tests.
    block_slots, max_iterations:
        As in :class:`repro.core.multicast_core.MultiCastCore`.
    """

    #: per-iteration growth of the iteration length (paper: 4^i).
    LENGTH_GROWTH = 4
    #: halt iff noisy-slot count < R_i * p_i * this (paper: 1/2).
    NOISE_THRESHOLD = 0.5

    def __init__(
        self,
        n: int,
        *,
        a: float = 0.05,
        start_iteration: int = 6,
        block_slots: int = 4096,
        max_iterations: Optional[int] = None,
    ):
        if n < 4:
            raise ValueError("MultiCast needs n >= 4 (n/2 >= 2 channels)")
        if a <= 0:
            raise ValueError("a must be positive")
        if start_iteration < 1:
            raise ValueError("start_iteration must be >= 1")
        self.n = int(n)
        self.a = float(a)
        self.start_iteration = int(start_iteration)
        self.block_slots = int(block_slots)
        self.max_iterations = max_iterations
        self.num_channels = self.n // 2

    @property
    def name(self) -> str:
        return "MultiCast"

    def iteration_length(self, i: int) -> int:
        """R_i = a · i · 4^i · lg²n, at least 1."""
        lg2n = math.log2(self.n) ** 2
        return max(1, math.ceil(self.a * i * (self.LENGTH_GROWTH**i) * lg2n))

    def listen_prob(self, i: int) -> float:
        """p_i = 2^-i."""
        return 2.0**-i

    def run(self, net: RadioNetwork, *, trace: Optional[TraceRecorder] = None) -> BroadcastResult:
        """Execute one broadcast on ``net`` and return the result."""
        if net.n != self.n:
            raise ValueError(f"network has n={net.n}, protocol built for n={self.n}")
        return _run_multicast_iterations(self, net, trace=trace)

    def run_stream(self, stream) -> list:
        """Execute one broadcast per trial of a
        :class:`repro.core.batch.LaneStream` — bit-identical per trial to
        :meth:`run` under the same seed, through compacted/refilled lane
        slots (DESIGN.md sections 6 and 13)."""
        from repro.core.batch import run_iterations_stream

        return run_iterations_stream(
            self,
            stream,
            first_index=self.start_iteration,
            schedule=self._iteration_schedule,
            make_extras=self._batch_extras,
        )

    def _iteration_schedule(self, i: int) -> tuple:
        """(R_i, p_i, halt threshold) for iteration ``i``."""
        R = self.iteration_length(i)
        p = self.listen_prob(i)
        return R, p, R * p * self.NOISE_THRESHOLD

    def _batch_extras(self, iterations: int) -> dict:
        """Per-lane extras matching the scalar runner's, given the lane's
        iteration count."""
        return {
            "num_channels": self.num_channels,
            "first_iteration": self.start_iteration,
            "last_iteration": (
                self.start_iteration + iterations - 1 if iterations else None
            ),
        }


def _run_multicast_iterations(
    proto,
    net: RadioNetwork,
    *,
    trace: Optional[TraceRecorder],
    slots_per_row: int = 1,
    draw_jamming=None,
) -> BroadcastResult:
    """Shared iteration loop for ``MultiCast`` (Fig. 2) and ``MultiCast(C)``
    (Fig. 5).

    ``slots_per_row`` and ``draw_jamming`` are the Fig. 5 hooks: the limited
    variant simulates each virtual slot ("round") with ``n/(2C)`` physical
    slots, and derives the virtual jam mask from the physical one — see
    :mod:`repro.core.limited` for the mapping.  For plain ``MultiCast`` the
    defaults draw jamming directly on n/2 physical channels.
    """
    n = proto.n
    C = proto.num_channels
    if draw_jamming is None:
        draw_jamming = lambda K: net.draw_jamming(K, C)  # noqa: E731

    informed = np.zeros(n, dtype=bool)
    informed[0] = True
    active = np.ones(n, dtype=bool)
    informed_slot = np.full(n, -1, dtype=np.int64)
    informed_slot[0] = 0
    halt_slot = np.full(n, -1, dtype=np.int64)
    halted_uninformed = 0
    completed = True
    iterations_run = 0
    i = proto.start_iteration
    if trace is not None:
        trace.record_growth(0, 1)

    try:
        while active.any():
            if proto.max_iterations is not None and iterations_run >= proto.max_iterations:
                completed = False
                break
            R = proto.iteration_length(i)
            p = proto.listen_prob(i)
            threshold = R * p * proto.NOISE_THRESHOLD
            build = shared_coin_actions(p)
            start_slot = net.clock
            noisy = np.zeros(n, dtype=np.int64)
            remaining = R
            while remaining > 0:
                K = min(proto.block_slots, remaining)
                channels = net.rng.integers(0, C, size=(K, n), dtype=np.int32)
                coins = net.rng.random((K, n))
                jam = draw_jamming(K)
                out = spread_block(
                    channels,
                    coins,
                    jam,
                    informed,
                    active,
                    build,
                    slot0=net.clock,
                    slot_scale=slots_per_row,
                    informed_slot=informed_slot,
                    trace=trace,
                )
                net.commit_block(out.actions, slots_per_row=slots_per_row)
                informed = out.informed
                noisy += count_feedback(out.feedback)["noise"]
                remaining -= K

            halt_now = active & (noisy < threshold)
            halted_uninformed += int((halt_now & ~informed).sum())
            halt_slot[halt_now] = net.clock
            active &= ~halt_now
            iterations_run += 1
            if trace is not None:
                trace.record_period(
                    "iteration",
                    (i,),
                    start_slot,
                    net.clock,
                    int(informed.sum()),
                    int(active.sum()),
                    R=R,
                    p=p,
                    max_noisy=int(noisy.max()),
                    threshold=threshold,
                )
            i += 1
    except SlotLimitExceeded:
        completed = False

    return BroadcastResult(
        protocol=proto.name,
        n=n,
        slots=net.clock,
        completed=completed and not active.any(),
        informed_slot=informed_slot,
        halt_slot=halt_slot,
        node_energy=net.energy.node_cost.copy(),
        adversary_spend=net.energy.adversary_spend,
        halted_uninformed=halted_uninformed,
        periods=iterations_run,
        extras={
            "num_channels": C,
            "first_iteration": proto.start_iteration,
            "last_iteration": i - 1 if iterations_run else None,
        },
    )
