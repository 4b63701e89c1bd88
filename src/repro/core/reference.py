"""Pseudocode-literal scalar implementations (differential-test oracles).

These classes transcribe the paper's Figures 1, 2 and 4 line by line, one
object per node, one decision per slot, using the scalar runtime of
:mod:`repro.sim.node`.  They are deliberately slow and simple: their job is to
certify the semantics of the vectorized implementations in this package (the
two share the channel-resolution kernel but nothing else), and to serve as
documentation you can read next to the paper.

The RNG streams differ from the vectorized runners (per-node generators here
versus one block matrix there), so differential tests against *those* compare
behaviour — success, informedness, energy statistics, halting structure —
over seeds, not bitwise traces.

The adaptive-arena runtime (:mod:`repro.arena`) is different: its column
adapters consume the *same* per-node streams — the Figs. 1/2 nodes through
the shared chunked draw discipline (:class:`PeriodDraws`), the Fig. 4 node
by mirroring its per-slot draws — so arena runs are **bit-identical** to
these oracles — same feedback, energy books and halt slots for the same
seeds — which is what the arena parity suite asserts.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.core.multicast_adv import MultiCastAdv
from repro.core.result import BroadcastResult
from repro.sim.channel import ACT_IDLE, ACT_LISTEN, ACT_SEND_BEACON, ACT_SEND_MSG
from repro.sim.channel import FB_BEACON, FB_MSG, FB_NOISE, FB_SILENCE
from repro.sim.node import NodeProtocol, ScalarNetwork
from repro.sim.rng import RandomFabric

__all__ = [
    "DRAW_CHUNK",
    "PeriodDraws",
    "ScalarMultiCastCoreNode",
    "ScalarMultiCastNode",
    "ScalarMultiCastAdvNode",
    "run_scalar_multicast_core",
    "run_scalar_multicast",
    "run_scalar_multicast_adv",
]

#: Rows per vectorized draw call when pre-fetching a period's randomness.
#: Part of the randomness *contract*, not just a buffer size: a node's stream
#: is consumed as channel-chunk then coin-chunk, in chunks of this length
#: anchored at the period start.  The Figs. 1/2 arena column adapters
#: (:mod:`repro.arena.columns`) replicate exactly this consumption pattern,
#: which is what makes their arena runs bit-identical to these oracles.
DRAW_CHUNK = 8192


class PeriodDraws:
    """One node's pre-drawn randomness for one period (iteration or step).

    NumPy generators consume their bit stream element-wise, so drawing a
    period's channels and coins in vectorized chunks yields the same values
    as per-slot scalar draws — while letting both this scalar runtime and the
    vectorized arena share one draw discipline.  Chunking (rather than one
    ``R``-sized draw) keeps memory bounded for the late, enormous iterations
    of ``MultiCast`` under heavy jamming.

    ``coin_high=None`` draws float coins in [0, 1); an integer draws coins
    uniformly from ``[1, coin_high]`` (the Figs. 1/2 integer coins).
    """

    def __init__(self, rng: np.random.Generator, R: int, num_channels: int,
                 coin_high: Optional[int] = None):
        self.rng = rng
        self.R = int(R)
        self.num_channels = int(num_channels)
        self.coin_high = coin_high
        self._base = 0  # period-absolute index of the loaded chunk's first row
        self._pos = 0  # next row within the loaded chunk
        self._load()

    def _load(self) -> None:
        k = min(DRAW_CHUNK, self.R - self._base)
        self.channels = self.rng.integers(0, self.num_channels, size=k)
        if self.coin_high is None:
            self.coins = self.rng.random(k)
        else:
            self.coins = self.rng.integers(1, self.coin_high + 1, size=k)

    def take(self):
        """Return this slot's ``(channel, coin)`` and advance the cursor."""
        if self._pos == self.channels.shape[0]:
            self._base += self.channels.shape[0]
            self._pos = 0
            self._load()
        ch = int(self.channels[self._pos])
        coin = self.coins[self._pos]
        self._pos += 1
        return ch, coin


class ScalarMultiCastCoreNode(NodeProtocol):
    """Fig. 1, verbatim: fixed iterations of R slots, p = 1/64, halt iff the
    iteration's noisy count is below R/128."""

    def __init__(self, n: int, R: int, *, is_source: bool, rng: np.random.Generator):
        self.n = n
        self.R = R
        self.rng = rng
        self.informed = is_source  # status == in
        self._halted = False
        self.noisy = 0  # N_n for the current iteration
        self.slot_in_iteration = 0
        self.halt_slot: Optional[int] = None
        self.informed_slot: Optional[int] = 0 if is_source else None
        self._draws = PeriodDraws(rng, R, n // 2, coin_high=64)

    @property
    def halted(self) -> bool:
        return self._halted

    def begin_slot(self, slot: int):
        if self._halted:
            return 0, ACT_IDLE
        ch, coin = self._draws.take()  # ch <- rnd(1, n/2); coin <- rnd(1, 64)
        if coin == 1:
            return ch, ACT_LISTEN
        if coin == 2 and self.informed:
            return ch, ACT_SEND_MSG
        return ch, ACT_IDLE

    def end_slot(self, slot: int, feedback: int):
        if not self._halted:
            if feedback == FB_NOISE:
                self.noisy += 1
            elif feedback == FB_MSG and not self.informed:
                self.informed = True
                self.informed_slot = slot
        self.slot_in_iteration += 1
        if self.slot_in_iteration == self.R:  # end of iteration
            if not self._halted and self.noisy < self.R / 128:
                self._halted = True
                self.halt_slot = slot + 1
            self.noisy = 0
            self.slot_in_iteration = 0
            if not self._halted:
                self._draws = PeriodDraws(self.rng, self.R, self.n // 2, coin_high=64)


class ScalarMultiCastNode(NodeProtocol):
    """Fig. 2, verbatim: growing iterations R_i = a·i·4^i·lg²n, p_i = 2^-i,
    halt iff N_n < R_i·p_i/2 = R_i/2^{i+1}."""

    def __init__(self, n: int, a: float, *, is_source: bool, rng: np.random.Generator, start_iteration: int = 6):
        self.n = n
        self.a = a
        self.rng = rng
        self.informed = is_source
        self._halted = False
        self.i = start_iteration
        self.R = self._length(self.i)
        self.noisy = 0
        self.slot_in_iteration = 0
        self.halt_slot: Optional[int] = None
        self.informed_slot: Optional[int] = 0 if is_source else None
        self._draws = PeriodDraws(rng, self.R, n // 2, coin_high=2**self.i)

    def _length(self, i: int) -> int:
        return max(1, math.ceil(self.a * i * 4**i * math.log2(self.n) ** 2))

    @property
    def halted(self) -> bool:
        return self._halted

    def begin_slot(self, slot: int):
        if self._halted:
            return 0, ACT_IDLE
        ch, coin = self._draws.take()  # ch <- rnd(1, n/2); coin <- rnd(1, 2^i)
        if coin == 1:
            return ch, ACT_LISTEN
        if coin == 2 and self.informed:
            return ch, ACT_SEND_MSG
        return ch, ACT_IDLE

    def end_slot(self, slot: int, feedback: int):
        if not self._halted:
            if feedback == FB_NOISE:
                self.noisy += 1
            elif feedback == FB_MSG and not self.informed:
                self.informed = True
                self.informed_slot = slot
        self.slot_in_iteration += 1
        if self.slot_in_iteration == self.R:
            if not self._halted and self.noisy < self.R / 2 ** (self.i + 1):
                self._halted = True
                self.halt_slot = slot + 1
            self.i += 1
            self.R = self._length(self.i)
            self.noisy = 0
            self.slot_in_iteration = 0
            if not self._halted:
                self._draws = PeriodDraws(
                    self.rng, self.R, self.n // 2, coin_high=2**self.i
                )


class ScalarMultiCastAdvNode(NodeProtocol):
    """Fig. 4, verbatim, including the four counters and the three end-of-
    step-two checks.  Phase progression (epoch i, phase j, step, slot-in-step)
    is tracked per node; all nodes advance in lockstep because the timetable
    is deterministic.

    Unlike the Figs. 1/2 nodes above, this class keeps the original per-slot
    draw order (channel then coin, one slot at a time) instead of the
    chunked :class:`PeriodDraws` discipline: the committed w.h.p. tests pin
    this node's behaviour per seed, and the arena adapter replicates the
    per-slot consumption instead (``MultiCastAdv`` is minutes-per-trial
    either way; the arena's speed target concerns the gallery-scale
    protocols).
    """

    UN, IN, HELPER, HALT = 0, 1, 2, 3

    def __init__(self, proto: MultiCastAdv, *, is_source: bool, rng: np.random.Generator):
        self.proto = proto
        self.rng = rng
        self.status = self.IN if is_source else self.UN
        self.i = proto.first_epoch
        self.phase_seq = list(proto.phases_of_epoch(self.i))
        self.phase_idx = 0
        self.step = 1
        self.slot_in_step = 0
        self.i_hat: Optional[int] = None
        self.j_hat: Optional[int] = None
        self.n_m = self.n_mb = self.n_n = self.n_s = 0
        self.halt_slot: Optional[int] = None
        self.informed_slot: Optional[int] = 0 if is_source else None
        self._enter_phase()

    # -- helpers -------------------------------------------------------------
    @property
    def j(self) -> int:
        return self.phase_seq[self.phase_idx]

    def _enter_phase(self) -> None:
        """Fix the current (i, j)-phase's per-slot constants: step length
        ``R``, participation probability ``p`` and channel count ``C``."""
        self.R = self.proto.phase_length(self.i, self.j)
        self.p = self.proto.participation_prob(self.i, self.j)
        self.C = self.proto.phase_channels(self.j)

    @property
    def halted(self) -> bool:
        return self.status == self.HALT

    def current_channels(self) -> int:
        return self.C

    def begin_slot(self, slot: int):
        if self.halted:
            return 0, ACT_IDLE
        p = self.p
        ch = int(self.rng.integers(0, self.C))
        coin = self.rng.random()
        if self.step == 1:
            if coin < p:
                if self.status == self.UN:
                    return ch, ACT_LISTEN
                return ch, ACT_SEND_MSG
            return ch, ACT_IDLE
        # step two
        if coin < p:
            return ch, ACT_LISTEN
        if coin < 2 * p:
            if self.status == self.UN:
                return ch, ACT_SEND_BEACON
            return ch, ACT_SEND_MSG
        return ch, ACT_IDLE

    def end_slot(self, slot: int, feedback: int):
        if not self.halted:
            if self.step == 1:
                if feedback == FB_MSG and self.status == self.UN:
                    self.status = self.IN
                    self.informed_slot = slot
            else:
                if feedback == FB_MSG:
                    self.n_m += 1
                    self.n_mb += 1
                elif feedback == FB_BEACON:
                    self.n_mb += 1
                elif feedback == FB_NOISE:
                    self.n_n += 1
                elif feedback == FB_SILENCE:
                    self.n_s += 1
        self._advance(slot)

    def _advance(self, slot: int) -> None:
        self.slot_in_step += 1
        if self.slot_in_step < self.R:
            return
        self.slot_in_step = 0
        if self.step == 1:
            self.step = 2
            self.n_m = self.n_mb = self.n_n = self.n_s = 0
            return
        # end of step two: the three checks (pseudocode lines 21-23 / 21-25)
        if not self.halted:
            R = self.proto.phase_length(self.i, self.j)
            p = self.proto.participation_prob(self.i, self.j)
            rp, rp2 = R * p, R * p * p
            if self.status == self.UN and self.n_m >= 1:
                self.status = self.IN
                self.informed_slot = slot + 1
            if self.status == self.IN:
                at_cutoff = self.proto.max_phase is not None and self.j == self.proto.max_phase
                ok = (
                    self.n_m >= self.proto.HELPER_MSG_FACTOR * rp2
                    and self.n_s >= self.proto.HELPER_SILENCE_FACTOR * rp
                )
                if not at_cutoff:
                    ok = ok and self.n_mb <= self.proto.HELPER_BEACON_CEIL * rp2
                if ok:
                    self.status = self.HELPER
                    self.i_hat, self.j_hat = self.i, self.j
            if (
                self.status == self.HELPER
                and self.i_hat is not None
                and self.i - self.i_hat >= self.proto.helper_wait
                and self.j == self.j_hat
                and self.n_n <= rp / self.proto.halt_noise_divisor
            ):
                self.status = self.HALT
                self.halt_slot = slot + 1
        # move to the next phase / epoch
        self.step = 1
        self.phase_idx += 1
        if self.phase_idx >= len(self.phase_seq):
            self.i += 1
            self.phase_seq = list(self.proto.phases_of_epoch(self.i))
            self.phase_idx = 0
        self._enter_phase()


# -- scalar execution drivers ----------------------------------------------------


def _scalar_result(name, n, net: ScalarNetwork, nodes, periods: int) -> BroadcastResult:
    informed_slot = np.array(
        [(-1 if node.informed_slot is None else node.informed_slot) for node in nodes],
        dtype=np.int64,
    )
    halt_slot = np.array(
        [(-1 if node.halt_slot is None else node.halt_slot) for node in nodes],
        dtype=np.int64,
    )
    halted = np.array([node.halted for node in nodes])
    return BroadcastResult(
        protocol=name,
        n=n,
        slots=net.clock,
        completed=bool(halted.all()),
        informed_slot=informed_slot,
        halt_slot=halt_slot,
        node_energy=net.energy.node_cost.copy(),
        adversary_spend=net.energy.adversary_spend,
        halted_uninformed=int((halted & (informed_slot < 0)).sum()),
        periods=periods,
        extras={"scalar_reference": True, "overrun": net.overrun},
    )


def run_scalar_multicast_core(
    n: int,
    T: int,
    adversary=None,
    *,
    a: float = 64.0,
    seed: int = 0,
    max_slots: int = 200_000,
) -> BroadcastResult:
    """Run the Fig. 1 oracle end to end (slow; small instances only)."""
    fabric = RandomFabric(seed)
    t_hat = max(T, n)
    R = max(1, math.ceil(a * math.log2(max(2, t_hat))))
    nodes = [
        ScalarMultiCastCoreNode(n, R, is_source=(u == 0), rng=fabric.generator("node", u))
        for u in range(n)
    ]
    if adversary is not None:
        adversary.reset()
    net = ScalarNetwork(nodes, adversary, max_slots=max_slots)
    slots = net.run(n // 2)
    return _scalar_result("MultiCastCore[scalar]", n, net, nodes, periods=slots // R)


def run_scalar_multicast(
    n: int,
    adversary=None,
    *,
    a: float = 0.01,
    start_iteration: int = 6,
    seed: int = 0,
    max_slots: int = 500_000,
) -> BroadcastResult:
    """Run the Fig. 2 oracle end to end (slow; small instances only)."""
    fabric = RandomFabric(seed)
    nodes = [
        ScalarMultiCastNode(
            n, a, is_source=(u == 0), rng=fabric.generator("node", u),
            start_iteration=start_iteration,
        )
        for u in range(n)
    ]
    if adversary is not None:
        adversary.reset()
    net = ScalarNetwork(nodes, adversary, max_slots=max_slots)
    net.run(n // 2)
    periods = max(node.i - start_iteration for node in nodes)
    return _scalar_result("MultiCast[scalar]", n, net, nodes, periods=periods)


def run_scalar_multicast_adv(
    proto: MultiCastAdv,
    n: int,
    adversary=None,
    *,
    seed: int = 0,
    max_slots: int = 500_000,
) -> BroadcastResult:
    """Run the Fig. 4/6 oracle end to end (slow; small instances only)."""
    fabric = RandomFabric(seed)
    nodes = [
        ScalarMultiCastAdvNode(proto, is_source=(u == 0), rng=fabric.generator("node", u))
        for u in range(n)
    ]
    if adversary is not None:
        adversary.reset()
    net = ScalarNetwork(nodes, adversary, max_slots=max_slots)
    # All nodes share one deterministic timetable and advance in lockstep, so
    # any still-active node's view of the channel count is authoritative.
    net.run(lambda _slot: _first_active_channels(nodes))
    periods = max(node.i - proto.first_epoch for node in nodes)
    return _scalar_result(proto.name + "[scalar]", n, net, nodes, periods=periods)


def _first_active_channels(nodes: List[ScalarMultiCastAdvNode]) -> int:
    for node in nodes:
        if not node.halted:
            return node.current_channels()
    return 1
