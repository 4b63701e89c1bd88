"""The adaptive-adversary arena runtime: vectorized, slot-stepped.

The block engine (:mod:`repro.sim.engine`) enforces obliviousness by
construction — Eve only ever sees ``(start_slot, K, C)`` — so adaptive
jammers *cannot* be expressed on it.  The scalar runtime
(:class:`repro.sim.node.ScalarNetwork`) can host them, but it advances one
Python object per node per slot and is far too slow to sweep.

:class:`ArenaNetwork` is the middle path: time still advances one slot at a
time (the granularity adaptivity needs), but the whole node population moves
as numpy *columns* — one ``(n,)`` channel vector and one ``(n,)`` action
vector per slot, resolved by a dedicated single-slot kernel.  The step is
semantically identical to :meth:`ScalarNetwork.step <repro.sim.node.ScalarNetwork.step>`:
same adversary query order (reactive jammers see only the busy-channel mask
of the current slot; oblivious jammers are asked block-by-block for one
slot), same energy books, same feedback rules.  Protocol state lives in a
:class:`repro.arena.columns.ColumnProtocol`, whose randomness follows the
chunked per-node draw discipline of :class:`repro.core.reference.PeriodDraws`
— which is why arena runs are bit-identical to the scalar oracles (the arena
parity suite asserts exactly that).

What Eve can and cannot see here: the sensing interface is the boolean
busy-channel mask of the current slot (``busy[c]`` iff >= 1 transmission on
channel ``c``) — the standard reactive-jammer model of Richa et al.  She
never sees node identities, payloads, statuses, or coins.  Budget rules are
unchanged: one unit per jammed channel-slot, enforced by the same ledger.

Production arena runs window-step (:mod:`repro.arena.window`): whole
windows of slots per kernel pass, bit-identical to this slot-by-slot step.
:func:`run_slot_stepped` — the loop over :class:`ArenaNetwork` — survives
only as the oracle the windowed driver is tested and benchmarked against.

See DESIGN.md section 7 for where this runtime sits in the architecture and
``benchmarks/bench_arena.py`` for the speedup over the scalar loop.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.sim.channel import (
    ACT_LISTEN,
    ACT_SEND_BEACON,
    ACT_SEND_MSG,
    FB_BEACON,
    FB_MSG,
    FB_NOISE,
    FB_NONE,
    FB_SILENCE,
)
from repro.sim.jam import JamBlock
from repro.sim.metrics import EnergyLedger

__all__ = ["ArenaLanes", "ArenaNetwork", "resolve_columns", "run_slot_stepped"]


def resolve_columns(
    channels: np.ndarray,
    actions: np.ndarray,
    jam: Optional[np.ndarray],
    num_channels: int,
) -> np.ndarray:
    """Single-slot column resolution: the arena's inner kernel.

    Same model semantics as :func:`repro.sim.channel.resolve_slot` (one
    bincount per payload over the ``(C,)`` outcome grid instead of the block
    kernel's ``(K, C)`` machinery — cross-checked by tests), but built for
    the per-slot hot loop: no JamBlock coercion, no 2-D temporaries, and
    ``jam=None`` short-circuits the no-adversary case.  ``channels`` entries
    of idle nodes are never read, so stale values are harmless.
    """
    feedback = np.full(actions.shape, FB_NONE, dtype=np.int8)
    listen = actions == ACT_LISTEN
    if not listen.any():
        return feedback
    C = int(num_channels)
    send_msg = actions == ACT_SEND_MSG
    send_beacon = actions == ACT_SEND_BEACON
    grid = np.full(C, FB_SILENCE, dtype=np.int8)
    any_msg = send_msg.any()
    any_beacon = send_beacon.any()
    if any_msg or any_beacon:
        msg_counts = (
            np.bincount(channels[send_msg], minlength=C)
            if any_msg
            else np.zeros(C, dtype=np.int64)
        )
        if any_beacon:
            beacon_counts = np.bincount(channels[send_beacon], minlength=C)
            total = msg_counts + beacon_counts
            grid[(total == 1) & (beacon_counts == 1)] = FB_BEACON
        else:
            total = msg_counts
        grid[(total == 1) & (msg_counts == 1)] = FB_MSG
        noisy = total >= 2
        if jam is not None:
            noisy |= jam
        grid[noisy] = FB_NOISE
    elif jam is not None:
        grid[jam] = FB_NOISE
    feedback[listen] = grid[channels[listen]]
    return feedback


class ArenaNetwork:
    """Slot-stepped network whose per-slot state is numpy columns.

    Parameters mirror :class:`repro.sim.node.ScalarNetwork`: ``adversary``
    may be ``None``, any oblivious jammer (block API, queried one slot at a
    time), or any reactive jammer (``jam_slot`` API — sensing the current
    slot's busy mask).  Energy books are a plain
    :class:`repro.sim.metrics.EnergyLedger`, identical to the scalar
    runtime's.

    Like :meth:`ScalarNetwork.run <repro.sim.node.ScalarNetwork.run>`, a run
    that reaches ``max_slots`` with the protocol still active is truncated,
    never silent: drivers set :attr:`overrun` and report the result as not
    completed (the scalar/batched engines' overrun contract).
    """

    def __init__(
        self,
        n: int,
        adversary=None,
        *,
        max_slots: int = 50_000_000,
    ):
        if n < 2:
            raise ValueError("broadcast needs at least two nodes")
        self.n = int(n)
        self.adversary = adversary
        self.energy = EnergyLedger(self.n)
        self.max_slots = int(max_slots)
        #: True once a driver stopped the run at ``max_slots`` with the
        #: protocol still active (see class docstring).
        self.overrun = False
        self._reactive = adversary is not None and hasattr(adversary, "jam_slot")
        # per-slot scratch, reused across steps (the hot loop runs tens of
        # thousands of slots; two fresh allocations per slot are measurable)
        self._fb = np.empty(self.n, dtype=np.int8)
        self._grid = np.empty(0, dtype=np.int8)

    @property
    def clock(self) -> int:
        """Index of the next slot to be simulated."""
        return self.energy.slots

    def step(
        self,
        channels: np.ndarray,
        actions: np.ndarray,
        num_channels: int,
        *,
        may_beacon: bool = True,
        has_listen: Optional[bool] = None,
        has_send: Optional[bool] = None,
    ) -> Optional[np.ndarray]:
        """Simulate one slot from column vectors; return per-node feedback.

        ``channels``/``actions`` are ``(n,)`` columns (channel entries of
        idle nodes are ignored).  The adversary query order and the energy
        charges are exactly :meth:`repro.sim.node.ScalarNetwork.step`'s;
        the outcome rules are :func:`resolve_columns`'s (cross-checked by
        tests).  Hot-loop concessions: the return value is ``None`` when no
        node listened (every entry would be ``FB_NONE``); the returned
        array is a reused scratch buffer — consume it before the next step;
        ``may_beacon=False`` lets beacon-free protocols skip the payload
        split; and ``has_listen``/``has_send`` let adapters that already
        know their action columns (they precompute whole chunks) spare the
        per-slot reductions.  The hints may err on the side of True — a
        spurious True only costs time — but a False must be exact.
        """
        C = int(num_channels)
        listen = actions == ACT_LISTEN
        sending = actions >= ACT_SEND_MSG  # catches both payload codes (2, 3)
        if has_send is None:
            has_send = bool(sending.any())
        if self.adversary is None:
            jam = None
        elif self._reactive:
            busy = np.zeros(C, dtype=bool)
            if has_send:
                busy[channels[sending]] = True
            before = self.adversary.spent
            jam = np.asarray(self.adversary.jam_slot(self.clock, busy), dtype=bool)
            # the reactive base enforces the budget exactly, so its own spend
            # delta equals jam.sum() without a second reduction
            self.energy.charge_adversary(self.adversary.spent - before)
        else:
            block = JamBlock.coerce(self.adversary.jam_block(self.clock, 1, C))
            jam = block.to_dense()[0]
            self.energy.charge_adversary(int(jam.sum()))
        self.energy.charge_nodes(listen, sending)
        self.energy.advance(1)
        if has_listen is None:
            has_listen = bool(listen.any())
        if not has_listen:
            return None
        feedback = self._fb
        feedback.fill(FB_NONE)
        if not has_send and jam is None:
            feedback[listen] = FB_SILENCE
            return feedback
        if self._grid.shape[0] != C:
            self._grid = np.zeros(C, dtype=np.int8)
        else:
            self._grid.fill(FB_SILENCE)
        grid = self._grid
        if has_send:
            sender_channels = channels[sending]
            if may_beacon:
                beacon = actions[sending] == ACT_SEND_BEACON
                if beacon.any():
                    msg_counts = np.bincount(sender_channels[~beacon], minlength=C)
                    beacon_counts = np.bincount(sender_channels[beacon], minlength=C)
                    total = msg_counts + beacon_counts
                    grid[(total == 1) & (beacon_counts == 1)] = FB_BEACON
                    grid[(total == 1) & (msg_counts == 1)] = FB_MSG
                else:
                    total = np.bincount(sender_channels, minlength=C)
                    grid[total == 1] = FB_MSG
            else:
                total = np.bincount(sender_channels, minlength=C)
                grid[total == 1] = FB_MSG
            noisy = total >= 2
            if jam is not None:
                noisy |= jam
            grid[noisy] = FB_NOISE
        else:
            grid[jam] = FB_NOISE
        feedback[listen] = grid[channels[listen]]
        return feedback

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArenaNetwork(n={self.n}, clock={self.clock}, adversary={self.adversary!r})"


def run_slot_stepped(columns, adversary=None, *, max_slots: int = 50_000_000):
    """The slot-stepped arena loop — a test oracle, never a production path.

    Drives one lifted adapter (:func:`repro.arena.run.lift_protocol`)
    through :class:`ArenaNetwork`: one adversary query and one single-slot
    kernel pass per slot.  The windowed driver
    (:func:`repro.arena.window.run_windowed`) must reproduce it bit for bit
    (``tests/arena/test_window_equivalence.py``); benchmarks time it as the
    windowed driver's baseline.  Stamps ``extras["backend"] = "arena-slot"``.
    """
    if adversary is not None:
        adversary.reset()
    net = ArenaNetwork(columns.n, adversary, max_slots=max_slots)
    may_beacon = columns.emits_beacons
    clock = net.clock  # mirrors net.clock; a local int keeps the loop lean
    while not columns.done:
        if clock >= net.max_slots:
            net.overrun = True
            break
        channels, actions, has_listen, has_send = columns.begin_slot(clock)
        feedback = net.step(
            channels,
            actions,
            columns.current_channels(),
            may_beacon=may_beacon,
            has_listen=has_listen,
            has_send=has_send,
        )
        columns.end_slot(clock, feedback)
        clock += 1
    result = columns.result(net)
    result.extras["backend"] = "arena-slot"
    return result


class _LaneNet:
    """One lane's network-shaped facade over :class:`ArenaLanes` books.

    Exposes exactly the surface :meth:`ColumnProtocol.result
    <repro.arena.columns.ColumnProtocol.result>` reads from
    :class:`ArenaNetwork` — ``clock``, ``overrun`` and the lane's
    :class:`~repro.sim.metrics.EnergyLedger` — so adapters assemble lane
    results without knowing they ran batched."""

    __slots__ = ("n", "energy", "_lanes", "_lane")

    def __init__(self, lanes: "ArenaLanes", lane: int):
        self.n = lanes.n
        self.energy = lanes.energy[lane]
        self._lanes = lanes
        self._lane = lane

    @property
    def clock(self) -> int:
        return self.energy.slots

    @property
    def overrun(self) -> bool:
        return bool(self._lanes.overrun[self._lane])


class ArenaLanes:
    """Trial-lane axis for the arena: ``B`` concurrent single-trial runs.

    Mirrors :class:`repro.sim.engine.BatchNetwork`'s lane bookkeeping in
    arena terms — per-lane adversary, per-lane
    :class:`~repro.sim.metrics.EnergyLedger` (so lane books are bit-identical
    to ``B`` independent :class:`ArenaNetwork` runs), per-lane clock and
    overrun flag, with finished lanes simply dropping out of the driver's
    live set.  The windowed driver (:mod:`repro.arena.window`) stacks all
    live lanes' window rows into one :func:`repro.sim.channel.resolve_block`
    call per pass; this class only keeps the books."""

    def __init__(self, n: int, adversaries):
        if n < 2:
            raise ValueError("broadcast needs at least two nodes")
        self.n = int(n)
        self.adversaries = list(adversaries)
        self.B = len(self.adversaries)
        if self.B == 0:
            raise ValueError("need at least one lane")
        self.energy = [EnergyLedger(self.n) for _ in range(self.B)]
        self.overrun = np.zeros(self.B, dtype=bool)

    def clock(self, lane: int) -> int:
        """Index of the lane's next unsimulated slot."""
        return self.energy[lane].slots

    def commit(
        self,
        lane: int,
        listen_counts: np.ndarray,
        send_counts: np.ndarray,
        jam_spend: int,
        slots: int,
    ) -> None:
        """Charge one lane's books for a committed window prefix."""
        ledger = self.energy[lane]
        ledger.charge_adversary(jam_spend)
        ledger.charge_nodes(listen_counts, send_counts)
        ledger.advance(slots)

    def view(self, lane: int) -> _LaneNet:
        """The lane's network facade for :meth:`ColumnProtocol.result`."""
        return _LaneNet(self, lane)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        clocks = [ledger.slots for ledger in self.energy]
        return f"ArenaLanes(n={self.n}, B={self.B}, clocks={clocks})"
