"""``MultiCastAdv`` — paper section 6, Figure 4 (and Fig. 6 via ``channel_cap``).

When n is unknown the protocol guesses it: epoch i contains phases
j = 0 .. i-1, and an (i, j)-phase runs an epidemic broadcast on 2^j channels
(betting n ≈ 2^{j+1}).  Each phase has two steps of R(i, j) = b·2^{2α(i−j)}·i³
slots with participation probability p(i, j) = 2^{−α(i−j)}/2:

* **Step I — dissemination.**  Uninformed nodes listen w.p. p; everyone else
  broadcasts ``m`` w.p. p.  Hearing ``m`` informs a node immediately.
* **Step II — status adjustment.**  Every node listens w.p. p or broadcasts
  w.p. p (uninformed nodes broadcast the beacon ``±``, others ``m``); statuses
  are frozen for the whole step while four counters accumulate: N_m (heard
  ``m``), N'_m (heard ``m`` or ``±``), N_n (noise), N_s (silence).

End-of-phase checks (pseudocode lines 21–23, applied in order):

1. uninformed and N_m ≥ 1                    -> informed;
2. informed and N_m ≥ 1.5Rp², N_s ≥ 0.9Rp,
   N'_m ≤ 2.2Rp²                              -> helper (records (î, ĵ));
3. helper and i − î ≥ 2/α and j = ĵ and
   N_n ≤ Rp/3000                              -> halt.

The N'_m ceiling is the estimator that the channel-count guess is right
(Lemmas 6.1–6.3: helpers only appear when i > lg n and j = lg n − 1), and the
two-stage helper → halt mechanism guarantees all nodes are helpers before any
halts, so terminations never strand the remaining nodes (Lemma 6.5).

Guarantee (Theorem 6.10): w.h.p. all nodes receive the message and terminate
within Õ(T/n^{1−2α} + n^{2α}) slots at per-node cost Õ(√(T/n^{1−2α}) + n^{2α});
α ∈ (0, 1/4) trades the polynomial improvement against the hidden constant.

**Limited channels (Fig. 6).**  ``channel_cap=C`` clips phases to
j ≤ lg C, and at the boundary phase j = lg C drops the N'_m ≤ 2.2Rp²
condition from the helper check (the paper's "cut-off" mechanism).  With
``channel_cap=None`` this class is exactly Fig. 4.

Fidelity notes: all structural constants (1.5, 0.9, 2.2, 1/3000, 2/α, i³, the
2^{±α(i−j)} scalings) are the paper's; ``b`` ("sufficiently large") is the
usual float scale parameter.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.result import BroadcastResult
from repro.core.runner import (
    adv_step_one_actions,
    adv_step_two_actions,
    count_feedback,
    spread_block,
)
from repro.sim.engine import RadioNetwork, SlotLimitExceeded
from repro.sim.trace import TraceRecorder

__all__ = [
    "MultiCastAdv",
    "STATUS_UN",
    "STATUS_IN",
    "STATUS_HELPER",
    "STATUS_HALT",
    "apply_phase_checks",
]

# Node statuses (paper: un / in / helper / halt).
STATUS_UN = np.int8(0)
STATUS_IN = np.int8(1)
STATUS_HELPER = np.int8(2)
STATUS_HALT = np.int8(3)


def apply_phase_checks(
    proto,
    i: int,
    j: int,
    *,
    active: np.ndarray,
    status: np.ndarray,
    n_m: np.ndarray,
    n_mb: np.ndarray,
    n_noise: np.ndarray,
    n_silence: np.ndarray,
    informed_slot: np.ndarray,
    halt_slot: np.ndarray,
    helper_epoch: np.ndarray,
    helper_phase: np.ndarray,
    clock,
    rp=None,
    rp2=None,
):
    """End-of-phase checks (pseudocode lines 21-23 / 21-25), applied in order,
    mutating ``status`` and the bookkeeping arrays in place.

    This is the *single* implementation of the four threshold comparisons
    (N_m >= 1.5Rp², N_s >= 0.9Rp, N'_m <= 2.2Rp², N_n <= Rp/D): the scalar
    runner (:meth:`MultiCastAdv._run_phase`) calls it with ``(n,)`` arrays
    and an integer ``clock``, the lane-batched runner
    (:mod:`repro.core.adv_batch`) with ``(L, n)`` arrays and an ``(L, 1)``
    per-lane clock column — so an off-by-one at a boundary cannot diverge
    between the two paths (tests/core/test_adv_phase_checks.py pins the
    exact-equality behaviour of every comparison).

    ``i`` and ``j`` may also be ``(L, 1)`` integer columns (the stream
    driver checks lanes sitting at *different* phases in one call); the
    thresholds only need R·p and R·p², so ragged callers pass ``rp``/``rp2``
    columns built from the same ``phase_length``/``participation_prob``
    scalars — the float products are computed in the same order, so the
    comparisons stay bit-identical to the scalar call.

    ``active`` is the phase-entry active mask (statuses that were not HALT
    when the phase began); ``status`` must already reflect the step-I
    promotions.  Returns ``(helper_cond, halt_cond)`` for trace bookkeeping.
    """
    if rp is None:
        R = proto.phase_length(i, j)
        p = proto.participation_prob(i, j)
        rp, rp2 = R * p, R * p * p
    clock_full = np.broadcast_to(np.asarray(clock, dtype=np.int64), status.shape)
    i_full = np.broadcast_to(np.asarray(i, dtype=np.int64), status.shape)
    j_full = np.broadcast_to(np.asarray(j, dtype=np.int64), status.shape)

    # Line 21: un and N_m >= 1 -> in.
    promote = active & (status == STATUS_UN) & (n_m >= 1)
    status[promote] = STATUS_IN
    informed_slot[promote] = clock_full[promote]

    # Line 22 (Fig. 4) / lines 22-24 (Fig. 6): in -> helper.
    helper_cond = (
        active
        & (status == STATUS_IN)
        & (n_m >= proto.HELPER_MSG_FACTOR * rp2)
        & (n_silence >= proto.HELPER_SILENCE_FACTOR * rp)
    )
    if proto.max_phase is None:
        helper_cond &= n_mb <= proto.HELPER_BEACON_CEIL * rp2
    else:
        # The N'_m ceiling applies except at the Fig. 6 boundary phase
        # j = lg C, where the paper removes it.
        helper_cond &= (n_mb <= proto.HELPER_BEACON_CEIL * rp2) | (
            j_full == proto.max_phase
        )
    status[helper_cond] = STATUS_HELPER
    helper_epoch[helper_cond] = i_full[helper_cond]
    helper_phase[helper_cond] = j_full[helper_cond]

    # Line 23 / 25: helper, waited >= 2/alpha epochs, matching phase, and
    # low noise -> halt.  Nodes promoted to helper this very phase fail
    # the wait (i - i = 0), matching the sequential pseudocode.
    halt_cond = (
        active
        & (status == STATUS_HELPER)
        & (i_full - helper_epoch >= proto.helper_wait)
        & (helper_phase == j_full)
        & (n_noise <= rp / proto.halt_noise_divisor)
    )
    status[halt_cond] = STATUS_HALT
    halt_slot[halt_cond] = clock_full[halt_cond]
    return helper_cond, halt_cond


class MultiCastAdv:
    """Fig. 4 protocol object (Fig. 6 when ``channel_cap`` is set).

    Parameters
    ----------
    alpha:
        The tunable exponent, 0 < α < 1/4.
    b:
        Phase-length scale: R(i, j) = max(1, ceil(b · 2^{2α(i−j)} · i³)).
    channel_cap:
        ``None`` -> unlimited channels (Fig. 4).  An integer C -> Fig. 6:
        phases clipped at j = lg C (C is rounded down to a power of two, per
        the paper's "round down" convention) with the modified helper rule.
    first_epoch:
        Paper starts at epoch 1; exposed for tests.
    block_slots:
        Vectorization granularity (performance only).
    max_epochs:
        Safety cap; ``None`` runs until all halt or ``max_slots`` fires.
    halt_noise_divisor:
        The D in the halt condition N_n <= R·p/D.  Paper: 3000.  The paper
        needs D that large only so Lemma 6.9's constants close; since the
        collision-noise rate scales as p², D=3000 forces p < ~1/77 before a
        halt can succeed, i.e. ~lg(3000)/alpha epochs past the helper phase —
        prohibitive at laptop scale.  Experiments may lower D (documented in
        DESIGN.md section 2.2); the default stays faithful.
    helper_wait:
        Epochs a helper waits before it may halt (the 2/α in line 23).
        ``None`` -> the paper's 2/alpha.
    """

    HELPER_MSG_FACTOR = 1.5  #: N_m >= 1.5 R p^2
    HELPER_SILENCE_FACTOR = 0.9  #: N_s >= 0.9 R p
    HELPER_BEACON_CEIL = 2.2  #: N'_m <= 2.2 R p^2

    #: Preferred lane width (:func:`repro.core.batch.stream_width`).  Purely
    #: a throughput knob — results are bit-identical at any width.  The
    #: Fig. 4/6 kernel's per-lane working set is tiny (laptop-scale n), so
    #: merging more lanes per kernel pass wins where the n = 64 shared-coin
    #: kernel is cache-bound at width 2, and refill keeps a wide stream
    #: occupied where a drained one would run its longest trial on a
    #: near-empty batch (DESIGN.md 9.3 and 13.3, measured in
    #: BENCH_adv_batch.json and BENCH_adv_compaction.json).
    stream_lane_width = 32

    def __init__(
        self,
        *,
        alpha: float = 0.2,
        b: float = 1.0,
        channel_cap: Optional[int] = None,
        first_epoch: int = 1,
        block_slots: int = 8192,
        max_epochs: Optional[int] = None,
        halt_noise_divisor: float = 3000.0,
        helper_wait: Optional[float] = None,
    ):
        if not 0.0 < alpha < 0.25:
            raise ValueError("alpha must be in (0, 1/4)")
        if b <= 0:
            raise ValueError("b must be positive")
        if channel_cap is not None and channel_cap < 1:
            raise ValueError("channel_cap must be >= 1")
        if first_epoch < 1:
            raise ValueError("first_epoch must be >= 1")
        self.alpha = float(alpha)
        self.b = float(b)
        self.channel_cap = None if channel_cap is None else int(channel_cap)
        self.first_epoch = int(first_epoch)
        self.block_slots = int(block_slots)
        self.max_epochs = max_epochs
        if halt_noise_divisor <= 0:
            raise ValueError("halt_noise_divisor must be positive")
        self.halt_noise_divisor = float(halt_noise_divisor)
        #: epochs a helper must wait before it may halt: i - î >= 2/α.
        self.helper_wait = 2.0 / self.alpha if helper_wait is None else float(helper_wait)
        if self.helper_wait < 0:
            raise ValueError("helper_wait must be non-negative")
        #: largest phase index when channels are capped (lg of the rounded-
        #: down power-of-two capacity); None = unlimited.
        self.max_phase = (
            None if self.channel_cap is None else int(math.floor(math.log2(self.channel_cap)))
        )

    @property
    def name(self) -> str:
        if self.channel_cap is None:
            return "MultiCastAdv"
        return f"MultiCastAdv(C={self.channel_cap})"

    # -- phase parameters (paper section 6.2) -----------------------------------
    def phase_length(self, i: int, j: int) -> int:
        """R(i, j) = b · 2^{2α(i−j)} · i³ slots per *step* (two steps/phase)."""
        return max(1, math.ceil(self.b * 2 ** (2 * self.alpha * (i - j)) * i**3))

    def participation_prob(self, i: int, j: int) -> float:
        """p(i, j) = 2^{−α(i−j)} / 2."""
        return 2 ** (-self.alpha * (i - j)) / 2.0

    def phase_channels(self, j: int) -> int:
        """2^j channels in phase j."""
        return 2**j

    def phases_of_epoch(self, i: int) -> range:
        """j = 0 .. i-1, clipped at lg C when channels are capped (Fig. 6)."""
        hi = i - 1 if self.max_phase is None else min(i - 1, self.max_phase)
        return range(0, hi + 1)

    # -- execution ---------------------------------------------------------------
    def run(self, net: RadioNetwork, *, trace: Optional[TraceRecorder] = None) -> BroadcastResult:
        """Execute one broadcast on ``net`` and return the result."""
        n = net.n
        status = np.full(n, STATUS_UN, dtype=np.int8)
        status[0] = STATUS_IN  # the source knows m
        informed_slot = np.full(n, -1, dtype=np.int64)
        informed_slot[0] = 0
        halt_slot = np.full(n, -1, dtype=np.int64)
        helper_epoch = np.full(n, -1, dtype=np.int64)  # î per node
        helper_phase = np.full(n, -1, dtype=np.int64)  # ĵ per node
        completed = True
        epochs_run = 0
        i = self.first_epoch
        if trace is not None:
            trace.record_growth(0, 1)

        try:
            while (status != STATUS_HALT).any():
                if self.max_epochs is not None and epochs_run >= self.max_epochs:
                    completed = False
                    break
                for j in self.phases_of_epoch(i):
                    status = self._run_phase(
                        net,
                        i,
                        j,
                        status,
                        informed_slot,
                        halt_slot,
                        helper_epoch,
                        helper_phase,
                        trace,
                    )
                epochs_run += 1
                i += 1
        except SlotLimitExceeded:
            completed = False

        informed = status >= STATUS_IN
        halted = status == STATUS_HALT
        # A node that halted without ever hearing m is a correctness violation;
        # by construction informed_slot < 0 iff the node never learned m.
        halted_uninformed = int((halted & (informed_slot < 0)).sum())
        return BroadcastResult(
            protocol=self.name,
            n=n,
            slots=net.clock,
            completed=completed and bool(halted.all()),
            informed_slot=informed_slot,
            halt_slot=halt_slot,
            node_energy=net.energy.node_cost.copy(),
            adversary_spend=net.energy.adversary_spend,
            halted_uninformed=halted_uninformed,
            periods=epochs_run,
            extras={
                "alpha": self.alpha,
                "b": self.b,
                "channel_cap": self.channel_cap,
                "final_status": status.copy(),
                "helper_epoch": helper_epoch.copy(),
                "helper_phase": helper_phase.copy(),
                "informed": informed,
                "last_epoch": i - 1 if epochs_run else None,
            },
        )

    def run_stream(self, stream) -> list:
        """Execute one broadcast per trial of a
        :class:`repro.core.batch.LaneStream` — bit-identical per trial to
        :meth:`run` under the same seed; trials retire and lane slots refill
        at epoch boundaries (DESIGN.md sections 9 and 13)."""
        from repro.core.adv_batch import run_adv_stream

        return run_adv_stream(self, stream)

    def _run_phase(
        self,
        net: RadioNetwork,
        i: int,
        j: int,
        status: np.ndarray,
        informed_slot: np.ndarray,
        halt_slot: np.ndarray,
        helper_epoch: np.ndarray,
        helper_phase: np.ndarray,
        trace: Optional[TraceRecorder],
    ) -> np.ndarray:
        """Run one (i, j)-phase: step I, step II, end-of-phase checks."""
        n = status.shape[0]
        R = self.phase_length(i, j)
        p = self.participation_prob(i, j)
        C = self.phase_channels(j)
        start_slot = net.clock
        active = status != STATUS_HALT
        informed = status >= STATUS_IN

        # ---- Step I: dissemination (statuses may flip un -> in mid-step) ----
        build1 = adv_step_one_actions(p)
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
                build1,
                slot0=net.clock,
                informed_slot=informed_slot,
                trace=trace,
            )
            net.commit_block(out.actions)
            informed = out.informed
            remaining -= K
        # Commit step-I learning into statuses (un -> in).
        status = status.copy()
        status[(status == STATUS_UN) & informed] = STATUS_IN

        # ---- Step II: frozen statuses, four counters ----
        build2 = adv_step_two_actions(p)
        n_m = np.zeros(n, dtype=np.int64)
        n_mb = np.zeros(n, dtype=np.int64)
        n_noise = np.zeros(n, dtype=np.int64)
        n_silence = np.zeros(n, dtype=np.int64)
        remaining = R
        while remaining > 0:
            K = min(self.block_slots, remaining)
            channels = net.rng.integers(0, C, size=(K, n), dtype=np.int32)
            coins = net.rng.random((K, n))
            jam = net.draw_jamming(K, C)
            out = spread_block(
                channels, coins, jam, informed, active, build2, learn=False
            )
            net.commit_block(out.actions)
            counts = count_feedback(out.feedback)
            n_m += counts["msg"]
            n_mb += counts["msg_or_beacon"]
            n_noise += counts["noise"]
            n_silence += counts["silence"]
            remaining -= K

        # ---- End-of-phase checks, in pseudocode order (shared with the
        # lane-batched runner — see apply_phase_checks) ----
        helper_cond, halt_cond = apply_phase_checks(
            self,
            i,
            j,
            active=active,
            status=status,
            n_m=n_m,
            n_mb=n_mb,
            n_noise=n_noise,
            n_silence=n_silence,
            informed_slot=informed_slot,
            halt_slot=halt_slot,
            helper_epoch=helper_epoch,
            helper_phase=helper_phase,
            clock=net.clock,
        )

        if trace is not None:
            trace.record_period(
                "phase",
                (i, j),
                start_slot,
                net.clock,
                int((status >= STATUS_IN).sum()),
                int((status != STATUS_HALT).sum()),
                R=R,
                p=p,
                C=C,
                helpers=int((status == STATUS_HELPER).sum()),
                new_helpers=int(helper_cond.sum()),
                new_halts=int(halt_cond.sum()),
            )
        return status
