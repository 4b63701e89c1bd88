"""Channel-limited variants — paper section 7, Figures 5 and 6.

``MultiCast`` and ``MultiCastAdv`` assume ~n/2 (or unbounded) channels;
real spectrum is scarce.  The paper gives two fixes:

* **Fig. 5, ``MultiCast(C)``** — a generic simulation of any *channel-uniform*
  algorithm: each virtual slot becomes a *round* of S = n/(2C) physical
  sub-slots; a node that would use virtual channel k acts in sub-slot
  ⌊(k−1)/C⌋+1 on physical channel ((k−1) mod C)+1.  Corollary 7.1: time
  O(T/C + (n/C)·lg²n), per-node cost unchanged.

* **Fig. 6, ``MultiCastAdv(C)``** — a *cut-off*: drop phases with j > lg C,
  and at the boundary phase j = lg C drop the N'_m ceiling from the helper
  rule.  Theorem 7.2: time/cost dominated by the C^{1−2α} terms.

Implementation notes
--------------------
The Fig. 5 round simulation is *exactly* a relabeling: two nodes collide
physically iff they picked the same virtual channel, and virtual channel
k = q·C + c is jammed in round r iff Eve jams physical channel c in physical
slot r·S + q.  So the virtual jam mask is literally
``physical_mask.reshape(rounds, S*C)`` — we reuse the whole ``MultiCast``
iteration loop on n/2 virtual channels, drawing the adversary's mask at
physical granularity and reshaping.  Energy is identical (a node acts at most
once per round); the clock advances S physical slots per round via the
engine's ``slots_per_row``.

``MultiCastAdvC`` is just ``MultiCastAdv(channel_cap=C)`` — Fig. 6 never needs
the round trick because every kept phase uses 2^j <= C physical channels.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.multicast import MultiCast, _run_multicast_iterations
from repro.core.multicast_adv import MultiCastAdv
from repro.core.result import BroadcastResult
from repro.sim.engine import RadioNetwork
from repro.sim.trace import TraceRecorder

__all__ = ["MultiCastC", "MultiCastAdvC", "effective_channels"]


def effective_channels(n: int, C: int) -> int:
    """Largest C' <= C with (n/2) % C' == 0 (the paper's "round down C").

    Fig. 5 needs the virtual channel set [1, n/2] to split evenly into rounds
    of C physical channels.  When C does not divide n/2 the paper says to
    round C down; we round down to the largest divisor of n/2.
    """
    if n < 4 or n % 2:
        raise ValueError("need even n >= 4")
    if C < 1:
        raise ValueError("need C >= 1")
    half = n // 2
    c = min(C, half)
    while half % c:
        c -= 1
    return c


class MultiCastC(MultiCast):
    """Fig. 5: ``MultiCast`` simulated on C <= n/2 physical channels.

    Parameters are those of :class:`repro.core.multicast.MultiCast` plus
    ``C``.  If C does not divide n/2 it is rounded down (see
    :func:`effective_channels`); the value actually used is ``self.C``.
    """

    def __init__(self, n: int, C: int, **kwargs):
        super().__init__(n, **kwargs)
        self.C = effective_channels(n, C)
        #: physical sub-slots per round: S = n / (2C).
        self.slots_per_round = (n // 2) // self.C

    @property
    def name(self) -> str:
        return f"MultiCast(C={self.C})"

    def run(self, net: RadioNetwork, *, trace: Optional[TraceRecorder] = None) -> BroadcastResult:
        if net.n != self.n:
            raise ValueError(f"network has n={net.n}, protocol built for n={self.n}")
        S = self.slots_per_round
        C_phys = self.C

        def draw_jamming(rounds: int):
            # Draw Eve's mask at physical granularity and relabel to
            # virtual channels: physical (slot r*S + q, channel c) becomes
            # virtual (round r, channel q*C + c) — see JamBlock.fold_rows.
            phys = net.draw_jamming(rounds * S, C_phys)
            return phys.fold_rows(S)

        result = _run_multicast_iterations(
            self,
            net,
            trace=trace,
            slots_per_row=S,
            draw_jamming=draw_jamming,
        )
        result.extras["physical_channels"] = C_phys
        result.extras["slots_per_round"] = S
        return result

    def run_stream(self, stream) -> list:
        """Lane-batched :meth:`run`: the Fig. 5 round simulation on every
        trial of a :class:`repro.core.batch.LaneStream`.  The
        physical-to-virtual relabeling survives ragged merging: each lane's
        physical mask is drawn at its own clock as ``rounds_l * S``
        contiguous rows (a multiple of the fold group S), folded per lane
        before stacking, so lane offsets in the virtual key space stay
        aligned whatever mix of round counts a pass carries."""
        from repro.core.batch import run_iterations_stream
        from repro.sim.jam import JamBlock

        S = self.slots_per_round
        C_phys = self.C
        bnet = stream.bnet

        def draw_jamming(lane_ids, rounds):
            blocks = bnet.draw_jamming_ragged(
                lane_ids, np.asarray(rounds, dtype=np.int64) * S, C_phys
            )
            return JamBlock.stack([block.fold_rows(S) for block in blocks])

        results = run_iterations_stream(
            self,
            stream,
            first_index=self.start_iteration,
            schedule=self._iteration_schedule,
            make_extras=self._batch_extras,
            slots_per_row=S,
            draw_jamming=draw_jamming,
        )
        for result in results:
            result.extras["physical_channels"] = C_phys
            result.extras["slots_per_round"] = S
        return results


class MultiCastAdvC(MultiCastAdv):
    """Fig. 6: ``MultiCastAdv`` with the phase cut-off at j = lg C.

    A thin constructor over :class:`repro.core.multicast_adv.MultiCastAdv`
    (which implements the cut-off and the boundary-phase helper rule when
    ``channel_cap`` is set); exists so call sites mirror the paper's naming.
    ``C`` may be any positive integer — it is rounded down to a power of two
    internally, per the paper's convention; for C > n/2 behaviour matches
    plain ``MultiCastAdv`` (Theorem 7.2, first case).
    """

    def __init__(self, C: int, **kwargs):
        if "channel_cap" in kwargs:
            raise TypeError("pass C positionally, not channel_cap")
        super().__init__(channel_cap=C, **kwargs)
