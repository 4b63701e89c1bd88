"""``MultiCastCore`` — paper section 4, Figure 1.

The simplest of the paper's algorithms: identical iterations of R = a·lg T̂
slots (T̂ = max(T, n)); in every slot every active node hops to a uniform
channel in [1, n/2], listens with probability 1/64, and — if informed —
broadcasts with probability 1/64.  At the end of an iteration a node halts iff
it heard noise in fewer than R/128 of its slots.

Guarantee (Theorem 4.4): w.h.p. all nodes receive the message, and each
node's cost and active period is O(T/n + max{lg T, lg n}).  The algorithm
needs *both* n and T as inputs — removing the T requirement is what
``MultiCast`` (section 5) is for.

Fidelity notes
--------------
* Structural constants (1/64 listen/broadcast probability, R/128 noise
  threshold) are the paper's.
* The iteration-length scale ``a`` ("some sufficiently large constant") is a
  float parameter: the paper needs it large only to push the per-iteration
  error probability below 1/T̂^Ω(1); at simulation scale the concentration is
  measured, not assumed, so small ``a`` keeps runs affordable and the shape
  experiments (EXP-T4.4) still hold.
* The paper assumes n is a power of two and uses n/2 channels; we accept any
  n >= 4 and use floor(n/2) channels.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.result import BroadcastResult
from repro.core.runner import count_feedback, shared_coin_actions, spread_block
from repro.sim.engine import RadioNetwork, SlotLimitExceeded
from repro.sim.trace import TraceRecorder

__all__ = ["MultiCastCore"]


class MultiCastCore:
    """Fig. 1 protocol object (stateless across runs; reusable).

    Parameters
    ----------
    n:
        Number of nodes (node 0 is the source).
    T:
        The adversary budget the protocol is provisioned for (an *input* to
        this algorithm, per the paper; the adversary actually attached to the
        network may spend less).
    a:
        Iteration-length scale: R = ceil(a · lg2(max(T, n))).
    block_slots:
        Vectorization granularity (performance only; no semantic effect).
    max_iterations:
        Optional safety cap; ``None`` runs until all nodes halt or the
        network's ``max_slots`` fires.
    """

    #: listen (and broadcast) probability per slot — paper's 1/64.
    LISTEN_PROB = 1.0 / 64.0
    #: halt iff the iteration's noisy-slot count is below R * this — paper's 1/128.
    NOISE_THRESHOLD = 1.0 / 128.0

    def __init__(
        self,
        n: int,
        T: int,
        *,
        a: float = 8192.0,
        block_slots: int = 4096,
        max_iterations: Optional[int] = None,
    ):
        if n < 4:
            raise ValueError("MultiCastCore needs n >= 4 (n/2 >= 2 channels)")
        if T < 0:
            raise ValueError("T must be non-negative")
        if a <= 0:
            raise ValueError("a must be positive")
        self.n = int(n)
        self.T = int(T)
        self.a = float(a)
        self.block_slots = int(block_slots)
        self.max_iterations = max_iterations
        self.num_channels = self.n // 2
        t_hat = max(self.T, self.n)
        #: iteration length R = a · lg T̂ (at least 1 slot)
        self.iteration_slots = max(1, math.ceil(self.a * math.log2(max(2, t_hat))))

    @property
    def name(self) -> str:
        return "MultiCastCore"

    def run_stream(self, stream) -> list:
        """Execute one broadcast per trial of a
        :class:`repro.core.batch.LaneStream` — bit-identical per trial to
        :meth:`run` under the same seed (DESIGN.md sections 6 and 13).
        Fig. 1's identical iterations make this the simplest batched
        schedule: every iteration is (R, 1/64, R/128)."""
        from repro.core.batch import run_iterations_stream

        R = self.iteration_slots
        return run_iterations_stream(
            self,
            stream,
            first_index=1,
            schedule=lambda i: (R, self.LISTEN_PROB, R * self.NOISE_THRESHOLD),
            make_extras=lambda iterations: {
                "iteration_slots": R,
                "num_channels": self.num_channels,
                "provisioned_T": self.T,
            },
            count_at_entry=True,
        )

    def run(self, net: RadioNetwork, *, trace: Optional[TraceRecorder] = None) -> BroadcastResult:
        """Execute one broadcast on ``net`` and return the result."""
        if net.n != self.n:
            raise ValueError(f"network has n={net.n}, protocol built for n={self.n}")
        n, C, R = self.n, self.num_channels, self.iteration_slots
        p = self.LISTEN_PROB
        threshold = R * self.NOISE_THRESHOLD
        build = shared_coin_actions(p)

        informed = np.zeros(n, dtype=bool)
        informed[0] = True
        active = np.ones(n, dtype=bool)
        informed_slot = np.full(n, -1, dtype=np.int64)
        informed_slot[0] = 0
        halt_slot = np.full(n, -1, dtype=np.int64)
        halted_uninformed = 0
        completed = True
        iteration = 0
        if trace is not None:
            trace.record_growth(0, 1)

        try:
            while active.any():
                if self.max_iterations is not None and iteration >= self.max_iterations:
                    completed = False
                    break
                iteration += 1
                start_slot = net.clock
                noisy = np.zeros(n, dtype=np.int64)
                remaining = R
                while remaining > 0:
                    K = min(self.block_slots, remaining)
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
                    noisy += count_feedback(out.feedback)["noise"]
                    remaining -= K

                halt_now = active & (noisy < threshold)
                halted_uninformed += int((halt_now & ~informed).sum())
                halt_slot[halt_now] = net.clock
                active &= ~halt_now
                if trace is not None:
                    trace.record_period(
                        "iteration",
                        (iteration,),
                        start_slot,
                        net.clock,
                        int(informed.sum()),
                        int(active.sum()),
                        R=R,
                        max_noisy=int(noisy.max()),
                        threshold=threshold,
                    )
        except SlotLimitExceeded:
            completed = False

        return BroadcastResult(
            protocol=self.name,
            n=n,
            slots=net.clock,
            completed=completed and not active.any(),
            informed_slot=informed_slot,
            halt_slot=halt_slot,
            node_energy=net.energy.node_cost.copy(),
            adversary_spend=net.energy.adversary_spend,
            halted_uninformed=halted_uninformed,
            periods=iteration,
            extras={
                "iteration_slots": R,
                "num_channels": C,
                "provisioned_T": self.T,
            },
        )
