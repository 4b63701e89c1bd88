"""Column adapters: protocols lifted into the arena runtime.

Two families, two randomness oracles, one interface:

* **Reference-stream adapters** (``MultiCastCoreColumns``,
  ``MultiCastColumns``, ``MultiCastAdvColumns``) vectorize the paper's
  Figs. 1/2/4 exactly as the scalar oracles of :mod:`repro.core.reference`
  play them: one generator per node (``fabric.generator("node", u)``).  The
  Figs. 1/2 adapters consume it through the chunked period-draw discipline
  of :class:`repro.core.reference.PeriodDraws` (same chunk grid,
  channel-chunk then coin-chunk per node); the Fig. 4 adapter mirrors that
  node's original per-slot draws.  Arena runs are therefore
  **bit-identical** to :class:`repro.sim.node.ScalarNetwork` driving the
  reference nodes — the parity suite (``tests/arena/test_parity.py``)
  asserts equality of feedback-derived state, energy books and halt slots,
  oblivious and reactive jammers alike.

* **Engine-stream adapters** (``DecayColumns``, ``NaiveColumns``,
  ``MultiCastCColumns`` — the latter also serving ``SingleChannelCompetitive``)
  lift the baselines, which have no scalar oracle.  Their oracle is the
  block engine itself: they draw from the single ``generator("nodes")``
  stream in exactly the block sizes :func:`repro.core.result.run_broadcast`
  uses, so on jam-free runs (and under deterministic oblivious jammers) they
  reproduce the block engine's results bit for bit, while additionally
  accepting reactive jammers the block path cannot express.

``MultiCastCColumns`` steps the Fig. 5 round simulation at *physical* slot
granularity — each virtual slot is a round of ``S = n/(2C)`` physical
sub-slots, and a reactive Eve senses and jams individual physical slots,
which is precisely the capability the oblivious fold-based path cannot
model.

All adapters end in a standard :class:`repro.core.result.BroadcastResult`
(via :meth:`ColumnProtocol.result`), so analysis, stores and tables treat
adaptive runs exactly like oblivious ones.  See DESIGN.md section 7.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Tuple

import numpy as np

from repro.baselines.decay import DecayBroadcast
from repro.baselines.naive import NaiveEpidemic
from repro.core.limited import MultiCastC
from repro.core.multicast import MultiCast
from repro.core.multicast_adv import (
    MultiCastAdv,
    STATUS_HALT,
    STATUS_HELPER,
    STATUS_IN,
    STATUS_UN,
)
from repro.core.multicast_core import MultiCastCore
from repro.core.reference import DRAW_CHUNK
from repro.core.result import BroadcastResult
from repro.sim.channel import (
    ACT_LISTEN,
    ACT_SEND_BEACON,
    ACT_SEND_MSG,
    FB_BEACON,
    FB_MSG,
    FB_NOISE,
    FB_SILENCE,
)
from repro.sim.rng import RandomFabric, bounded_integers

#: shared empty event list for the all-informed absorb short-circuit
_NO_EVENTS = np.empty(0, dtype=np.int64)

__all__ = [
    "ColumnProtocol",
    "MultiCastCoreColumns",
    "MultiCastColumns",
    "MultiCastAdvColumns",
    "DecayColumns",
    "NaiveColumns",
    "MultiCastCColumns",
]


class ColumnProtocol(ABC):
    """Vectorized whole-population protocol state for the arena runtime.

    The production driver (:func:`repro.arena.window.run_windowed`) calls
    :meth:`begin_window` / :meth:`absorb_window`; the slot-stepped test
    oracle (:func:`repro.arena.network.run_slot_stepped`) calls
    :meth:`begin_slot` / :meth:`end_slot` once per slot.  Both stop when
    :attr:`done`; :meth:`result` assembles the standard
    :class:`~repro.core.result.BroadcastResult`.

    Hot-loop contract with :meth:`ArenaNetwork.step
    <repro.arena.network.ArenaNetwork.step>`: ``end_slot`` may receive
    ``None`` instead of a feedback column when nobody listened (all
    ``FB_NONE``), and a non-``None`` column is a scratch buffer only valid
    until the next step.  Adapters precompute chunk-sized *action matrices*
    and re-derive only the affected rows when a status changes (the same
    draws-are-status-independent property :func:`repro.core.runner.spread_block`
    exploits), so ``begin_slot`` is just two column slices.
    """

    n: int
    #: False lets the network kernel skip the beacon/message payload split
    #: (only Fig. 4's step II ever sends beacons).
    emits_beacons = True

    @abstractmethod
    def current_channels(self) -> int:
        """Channel count of the current slot (phase-dependent for Fig. 4)."""

    @abstractmethod
    def begin_slot(self, slot: int) -> Tuple[np.ndarray, np.ndarray, bool, bool]:
        """Return ``(channels, actions, has_listen, has_send)`` for this slot.

        The two booleans are the presence hints :meth:`ArenaNetwork.step
        <repro.arena.network.ArenaNetwork.step>` accepts — adapters read
        them off per-chunk column summaries instead of re-reducing the
        action column every slot.  They may be conservatively True (after a
        status change the summaries are only widened), never falsely False;
        ``None`` defers the reduction to the kernel (used by the Fig. 4
        adapter, which has no precomputed chunks).
        """

    @abstractmethod
    def end_slot(self, slot: int, feedback: np.ndarray) -> None:
        """Absorb the slot's ``(n,)`` feedback column."""

    # -- window interface (block-stepped driver) --------------------------------
    @abstractmethod
    def begin_window(self, slot: int, limit: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(channels, actions)`` matrices for up to ``limit`` slots.

        The returned matrices are ``(W, n)`` with ``1 <= W <= limit``; the
        adapter clips ``W`` to its own schedule boundaries (chunk / step /
        round / block ends) so no draw block ever straddles a boundary and
        window-sized RNG consumption equals per-slot consumption (the
        ``PeriodDraws`` discipline, extended to windows).  Channels beyond
        row ``W - 1`` of a caller's budget are simply not served — the
        driver re-windows.  Actions in the matrix are *speculative*: they
        assume no informing event inside the window.  The driver resolves
        the whole window, hands the feedback to :meth:`absorb_window`, and
        the adapter commits only the prefix up to (and including) the first
        action-changing event."""

    @abstractmethod
    def absorb_window(self, slot: int, feedback: np.ndarray) -> int:
        """Absorb a prefix of the window's ``(W, n)`` feedback.

        Returns ``A``, the number of slots committed (``1 <= A <= W``): all
        of ``W`` when no action-changing event occurred, else through the
        first event (the event row itself is committed — its feedback was
        computed from actions fixed before the event).  Rows past ``A`` are
        discarded; the driver re-serves them (with patched actions) in the
        next window.  Committing must be state-identical to ``A`` per-slot
        ``begin_slot``/``end_slot`` rounds, including boundary bookkeeping
        when the committed prefix ends an iteration/step/round/block."""

    @property
    @abstractmethod
    def done(self) -> bool:
        """True once the protocol has terminated (or hit its own caps)."""

    @abstractmethod
    def result(self, net) -> BroadcastResult:
        """Assemble the final result from protocol state and ``net``'s books."""


# -- reference-stream adapters (Figs. 1/2) ----------------------------------------


class _SharedCoinColumns(ColumnProtocol):
    """Common machinery of the Figs. 1/2 adapters: per-node streams, integer
    coins (1 = listen; 2 = broadcast if informed), iteration-boundary halting
    on a noisy-slot threshold.  Subclasses define the iteration schedule."""

    emits_beacons = False

    def __init__(self, n: int, seed: int, *, max_periods: Optional[int] = None):
        if n < 4:
            raise ValueError("need n >= 4 (n/2 >= 2 channels)")
        self.n = int(n)
        fabric = RandomFabric(seed)
        self.rngs = [fabric.generator("node", u) for u in range(self.n)]
        self.informed = np.zeros(self.n, dtype=bool)
        self.informed[0] = True
        self.halted = np.zeros(self.n, dtype=bool)
        self.informed_slot = np.full(self.n, -1, dtype=np.int64)
        self.informed_slot[0] = 0
        self.halt_slot = np.full(self.n, -1, dtype=np.int64)
        self.noisy = np.zeros(self.n, dtype=np.int64)
        self.t = 0  # slot within the iteration
        self.periods = 0
        self.max_periods = max_periods
        self.capped = False
        self._done = False
        self._start_period()

    # -- subclass hooks ---------------------------------------------------------
    @abstractmethod
    def _period_params(self) -> Tuple[int, int, float]:
        """Return the current iteration's ``(R, coin_high, halt_threshold)``."""

    def _advance_period(self) -> None:
        """Move the schedule to the next iteration (no-op for Fig. 1)."""

    # -- chunked per-node draws (the PeriodDraws contract) ----------------------
    def _start_period(self) -> None:
        self.R, self.coin_high, self.threshold = self._period_params()
        self._chunk_base = 0
        self._local = 0
        self._load_chunk()

    def _load_chunk(self) -> None:
        k = min(DRAW_CHUNK, self.R - self._chunk_base)
        C = self.n // 2
        self._ch = np.zeros((self.n, k), dtype=np.int64)
        self._coin = np.zeros((self.n, k), dtype=np.int64)
        live = ~self.halted
        for u in np.nonzero(live)[0]:
            rng = self.rngs[u]
            bounded_integers(rng, C, self._ch[u])
            # the reference's coin in [1, coin_high] is a draw in
            # [0, coin_high) plus one — same words, same values
            bounded_integers(rng, self.coin_high, self._coin[u])
        np.add(self._coin, 1, out=self._coin, where=live[:, None])
        # Halted nodes keep all-zero coin rows, which map to idle below —
        # no per-slot liveness mask needed.
        act = np.zeros(self._coin.shape, dtype=np.int8)
        act[self._coin == 1] = ACT_LISTEN
        act[(self._coin == 2) & self.informed[:, None]] = ACT_SEND_MSG
        self._act = act
        self._listen_cols = (act == ACT_LISTEN).any(axis=0)
        self._send_cols = (act == ACT_SEND_MSG).any(axis=0)

    def current_channels(self) -> int:
        return self.n // 2

    def begin_slot(self, slot: int) -> Tuple[np.ndarray, np.ndarray, bool, bool]:
        if self._local == self._ch.shape[1]:
            self._chunk_base += self._ch.shape[1]
            self._local = 0
            self._load_chunk()
        local = self._local
        return (
            self._ch[:, local],
            self._act[:, local],
            bool(self._listen_cols[local]),
            bool(self._send_cols[local]),
        )

    def end_slot(self, slot: int, feedback: Optional[np.ndarray]) -> None:
        if feedback is not None:
            hear = (feedback == FB_MSG) & ~self.informed
            if hear.any():
                self.informed |= hear
                self.informed_slot[hear] = slot
                lo = self._local + 1
                if lo < self._coin.shape[1]:
                    for u in np.nonzero(hear)[0]:
                        tail = self._act[u, lo:]
                        hits = self._coin[u, lo:] == 2
                        tail[hits] = ACT_SEND_MSG
                        self._send_cols[lo:] |= hits
            self.noisy += feedback == FB_NOISE
        self._local += 1
        self.t += 1
        if self.t == self.R:  # end of iteration
            self._end_iteration(slot)

    def _end_iteration(self, last_slot: int) -> None:
        """Iteration-boundary bookkeeping; ``last_slot`` is the iteration's
        final slot (halts are stamped one past it, like the scalar oracle)."""
        halt_now = ~self.halted & (self.noisy < self.threshold)
        self.halted |= halt_now
        self.halt_slot[halt_now] = last_slot + 1
        self.noisy[:] = 0
        self.t = 0
        self.periods += 1
        self._advance_period()
        if self.max_periods is not None and self.periods >= self.max_periods:
            self.capped = True
        if self.capped or self.halted.all():
            self._done = True
        else:
            self._start_period()

    # -- window interface -------------------------------------------------------
    def begin_window(self, slot: int, limit: int) -> Tuple[np.ndarray, np.ndarray]:
        if self._local == self._ch.shape[1]:
            self._chunk_base += self._ch.shape[1]
            self._local = 0
            self._load_chunk()
        lo = self._local
        W = min(int(limit), self._ch.shape[1] - lo)
        return self._ch[:, lo:lo + W].T, self._act[:, lo:lo + W].T

    def absorb_window(self, slot: int, feedback: np.ndarray) -> int:
        W = feedback.shape[0]
        if self.informed.all():
            events = _NO_EVENTS  # nobody left to inform: no truncation
        else:
            hear = (feedback == FB_MSG) & ~self.informed[None, :]
            events = np.nonzero(hear.any(axis=1))[0]
        A = int(events[0]) + 1 if events.size else W
        self.noisy += (feedback[:A] == FB_NOISE).sum(axis=0, dtype=np.int64)
        if events.size:
            heard = hear[A - 1]
            self.informed |= heard
            self.informed_slot[heard] = slot + A - 1
            lo = self._local + A
            if lo < self._coin.shape[1]:
                for u in np.nonzero(heard)[0]:
                    tail = self._act[u, lo:]
                    hits = self._coin[u, lo:] == 2
                    tail[hits] = ACT_SEND_MSG
                    self._send_cols[lo:] |= hits
        self._local += A
        self.t += A
        if self.t == self.R:
            self._end_iteration(slot + A - 1)
        return A

    @property
    def done(self) -> bool:
        return self._done

    def result(self, net) -> BroadcastResult:
        return BroadcastResult(
            protocol=self.name,
            n=self.n,
            slots=net.clock,
            completed=bool(self.halted.all()) and not self.capped,
            informed_slot=self.informed_slot.copy(),
            halt_slot=self.halt_slot.copy(),
            node_energy=net.energy.node_cost.copy(),
            adversary_spend=net.energy.adversary_spend,
            halted_uninformed=int((self.halted & (self.informed_slot < 0)).sum()),
            periods=self.periods,
            extras={"arena_runtime": True, "overrun": net.overrun},
        )


class MultiCastCoreColumns(_SharedCoinColumns):
    """Fig. 1 lifted into the arena: identical iterations of ``R`` slots,
    coin range 64, halt threshold R/128 — bit-identical to
    :class:`repro.core.reference.ScalarMultiCastCoreNode` populations."""

    def __init__(self, proto: MultiCastCore, n: int, seed: int):
        if n != proto.n:
            raise ValueError(f"protocol built for n={proto.n}, arena asked for n={n}")
        self._R = proto.iteration_slots
        self.name = proto.name + "[arena]"
        super().__init__(n, seed, max_periods=proto.max_iterations)

    def _period_params(self):
        return self._R, 64, self._R / 128


class MultiCastColumns(_SharedCoinColumns):
    """Fig. 2 lifted into the arena: growing iterations R_i, coin range 2^i,
    halt threshold R_i/2^{i+1} — bit-identical to
    :class:`repro.core.reference.ScalarMultiCastNode` populations."""

    def __init__(self, proto: MultiCast, n: int, seed: int):
        if n != proto.n:
            raise ValueError(f"protocol built for n={proto.n}, arena asked for n={n}")
        self.proto = proto
        self.i = proto.start_iteration
        self.name = proto.name + "[arena]"
        super().__init__(n, seed, max_periods=proto.max_iterations)

    def _period_params(self):
        R = self.proto.iteration_length(self.i)
        return R, 2**self.i, R / 2 ** (self.i + 1)

    def _advance_period(self):
        self.i += 1


# -- reference-stream adapter (Fig. 4) --------------------------------------------


class MultiCastAdvColumns(ColumnProtocol):
    """Fig. 4/6 lifted into the arena — bit-identical to
    :class:`repro.core.reference.ScalarMultiCastAdvNode` populations.

    The epoch/phase/step timetable is deterministic and shared by all nodes,
    so it is tracked once; statuses, the four counters and the (î, ĵ)
    helper records are ``(n,)`` columns.  Randomness mirrors the scalar
    node's original *per-slot* draw order (channel then coin, per node) —
    the committed w.h.p. tests pin that node's behaviour per seed, so this
    adapter pays a per-node Python loop each slot rather than move the node
    to the chunked discipline.  Phase channel counts reach 2^j and the runs
    are minutes-per-trial regardless — keep ``MultiCastAdv`` out of default
    arena grids (DESIGN.md 7).
    """

    def __init__(self, proto: MultiCastAdv, n: int, seed: int):
        self.proto = proto
        self.n = int(n)
        fabric = RandomFabric(seed)
        self.rngs = [fabric.generator("node", u) for u in range(self.n)]
        self.status = np.full(self.n, STATUS_UN, dtype=np.int8)
        self.status[0] = STATUS_IN
        self.informed_slot = np.full(self.n, -1, dtype=np.int64)
        self.informed_slot[0] = 0
        self.halt_slot = np.full(self.n, -1, dtype=np.int64)
        self.i_hat = np.full(self.n, -1, dtype=np.int64)
        self.j_hat = np.full(self.n, -1, dtype=np.int64)
        self.n_m = np.zeros(self.n, dtype=np.int64)
        self.n_mb = np.zeros(self.n, dtype=np.int64)
        self.n_n = np.zeros(self.n, dtype=np.int64)
        self.n_s = np.zeros(self.n, dtype=np.int64)
        self.i = proto.first_epoch
        self.phase_seq = list(proto.phases_of_epoch(self.i))
        self.phase_idx = 0
        self.step = 1
        self.t = 0
        self.epochs_run = 0
        self.capped = False
        self._done = False
        self.name = proto.name + "[arena]"
        # drawn-but-uncommitted window rows (see begin_window): always within
        # the current step, empty at every step boundary
        self._pend_ch: Optional[np.ndarray] = None
        self._pend_coin: Optional[np.ndarray] = None
        self._start_step()

    @property
    def j(self) -> int:
        return self.phase_seq[self.phase_idx]

    def _start_step(self) -> None:
        self.R = self.proto.phase_length(self.i, self.j)
        self.p = self.proto.participation_prob(self.i, self.j)
        self.C = self.proto.phase_channels(self.j)

    def current_channels(self) -> int:
        return self.C

    def begin_slot(self, slot: int) -> Tuple[np.ndarray, np.ndarray, Optional[bool], Optional[bool]]:
        n = self.n
        ch = np.zeros(n, dtype=np.int64)
        # halted nodes keep coin 2.0, above every action threshold (p <= 1/2)
        coin = np.full(n, 2.0, dtype=np.float64)
        C = self.C
        status = self.status
        for u in range(n):
            if status[u] != STATUS_HALT:
                rng = self.rngs[u]
                ch[u] = rng.integers(0, C)
                coin[u] = rng.random()
        un = status == STATUS_UN
        actions = np.zeros(n, dtype=np.int8)
        p = self.p
        if self.step == 1:
            hit = coin < p
            actions[hit & un] = ACT_LISTEN
            actions[hit & ~un] = ACT_SEND_MSG
        else:
            actions[coin < p] = ACT_LISTEN
            send = (coin >= p) & (coin < 2 * p)
            actions[send & un] = ACT_SEND_BEACON
            actions[send & ~un] = ACT_SEND_MSG
        return ch, actions, None, None

    def end_slot(self, slot: int, feedback: Optional[np.ndarray]) -> None:
        if feedback is None:
            self._advance_timetable(slot)
            return
        if self.step == 1:
            promote = (feedback == FB_MSG) & (self.status == STATUS_UN)
            if promote.any():
                self.status[promote] = STATUS_IN
                self.informed_slot[promote] = slot
        else:
            self.n_m += feedback == FB_MSG
            self.n_mb += (feedback == FB_MSG) | (feedback == FB_BEACON)
            self.n_n += feedback == FB_NOISE
            self.n_s += feedback == FB_SILENCE
        self._advance_timetable(slot)

    def _advance_timetable(self, slot: int) -> None:
        self.t += 1
        if self.t < self.R:
            return
        self._end_step(slot)

    def _end_step(self, slot: int) -> None:
        """Step-boundary bookkeeping; ``slot`` is the step's final slot."""
        self.t = 0
        if self.step == 1:
            self.step = 2
            self.n_m[:] = 0
            self.n_mb[:] = 0
            self.n_n[:] = 0
            self.n_s[:] = 0
            return
        # end of step two: the three checks, in pseudocode order
        proto = self.proto
        active = self.status != STATUS_HALT
        rp = self.R * self.p
        rp2 = self.R * self.p * self.p
        promote = active & (self.status == STATUS_UN) & (self.n_m >= 1)
        self.status[promote] = STATUS_IN
        self.informed_slot[promote] = slot + 1
        helper_cond = (
            active
            & (self.status == STATUS_IN)
            & (self.n_m >= proto.HELPER_MSG_FACTOR * rp2)
            & (self.n_s >= proto.HELPER_SILENCE_FACTOR * rp)
        )
        if not (proto.max_phase is not None and self.j == proto.max_phase):
            helper_cond &= self.n_mb <= proto.HELPER_BEACON_CEIL * rp2
        self.status[helper_cond] = STATUS_HELPER
        self.i_hat[helper_cond] = self.i
        self.j_hat[helper_cond] = self.j
        halt_cond = (
            active
            & (self.status == STATUS_HELPER)
            & (self.i - self.i_hat >= proto.helper_wait)
            & (self.j_hat == self.j)
            & (self.n_n <= rp / proto.halt_noise_divisor)
        )
        self.status[halt_cond] = STATUS_HALT
        self.halt_slot[halt_cond] = slot + 1
        # move to the next phase / epoch
        self.step = 1
        self.phase_idx += 1
        if self.phase_idx >= len(self.phase_seq):
            self.i += 1
            self.epochs_run += 1
            self.phase_seq = list(self.proto.phases_of_epoch(self.i))
            self.phase_idx = 0
            if self.proto.max_epochs is not None and self.epochs_run >= self.proto.max_epochs:
                self.capped = True
        if self.capped or (self.status == STATUS_HALT).all():
            self._done = True
        else:
            self._start_step()

    # -- window interface -------------------------------------------------------
    def _draw_rows(self, count: int) -> None:
        """Draw ``count`` window rows, preserving the scalar node's per-slot
        per-node stream order exactly (channel then coin, node by node,
        slot-major) — batching per node would reorder each node's own
        stream, which the committed w.h.p. seeds pin."""
        n, C = self.n, self.C
        ch = np.zeros((count, n), dtype=np.int64)
        coin = np.full((count, n), 2.0, dtype=np.float64)
        live = np.nonzero(self.status != STATUS_HALT)[0]
        rngs = self.rngs
        for w in range(count):
            ch_row = ch[w]
            coin_row = coin[w]
            for u in live:
                rng = rngs[u]
                ch_row[u] = rng.integers(0, C)
                coin_row[u] = rng.random()
        self._pend_ch = ch
        self._pend_coin = coin

    def _window_actions(self, coin: np.ndarray) -> np.ndarray:
        un = (self.status == STATUS_UN)[None, :]
        actions = np.zeros(coin.shape, dtype=np.int8)
        p = self.p
        if self.step == 1:
            hit = coin < p  # halted nodes hold coin 2.0 — never hit
            actions[hit & un] = ACT_LISTEN
            actions[hit & ~un] = ACT_SEND_MSG
        else:
            actions[coin < p] = ACT_LISTEN
            send = (coin >= p) & (coin < 2 * p)
            actions[send & un] = ACT_SEND_BEACON
            actions[send & ~un] = ACT_SEND_MSG
        return actions

    def begin_window(self, slot: int, limit: int) -> Tuple[np.ndarray, np.ndarray]:
        limit = min(int(limit), self.R - self.t)
        if self._pend_coin is None or self._pend_coin.shape[0] == 0:
            self._draw_rows(limit)
        W = min(limit, self._pend_coin.shape[0])
        return self._pend_ch[:W], self._window_actions(self._pend_coin[:W])

    def absorb_window(self, slot: int, feedback: np.ndarray) -> int:
        W = feedback.shape[0]
        if self.step == 1:
            promote = (feedback == FB_MSG) & (self.status == STATUS_UN)[None, :]
            events = np.nonzero(promote.any(axis=1))[0]
            A = int(events[0]) + 1 if events.size else W
            if events.size:
                hit = promote[A - 1]
                self.status[hit] = STATUS_IN
                self.informed_slot[hit] = slot + A - 1
        else:
            # step II reads its counters only at the step boundary — no
            # in-window action changes, the whole window commits
            A = W
            self.n_m += (feedback == FB_MSG).sum(axis=0, dtype=np.int64)
            self.n_mb += ((feedback == FB_MSG) | (feedback == FB_BEACON)).sum(
                axis=0, dtype=np.int64
            )
            self.n_n += (feedback == FB_NOISE).sum(axis=0, dtype=np.int64)
            self.n_s += (feedback == FB_SILENCE).sum(axis=0, dtype=np.int64)
        self._pend_ch = self._pend_ch[A:]
        self._pend_coin = self._pend_coin[A:]
        self.t += A
        if self.t == self.R:
            self._end_step(slot + A - 1)
        return A

    @property
    def done(self) -> bool:
        return self._done

    def result(self, net) -> BroadcastResult:
        halted = self.status == STATUS_HALT
        return BroadcastResult(
            protocol=self.name,
            n=self.n,
            slots=net.clock,
            completed=bool(halted.all()) and not self.capped,
            informed_slot=self.informed_slot.copy(),
            halt_slot=self.halt_slot.copy(),
            node_energy=net.energy.node_cost.copy(),
            adversary_spend=net.energy.adversary_spend,
            halted_uninformed=int((halted & (self.informed_slot < 0)).sum()),
            periods=self.i - self.proto.first_epoch,
            extras={
                "arena_runtime": True,
                "overrun": net.overrun,
                "final_status": self.status.copy(),
            },
        )


# -- engine-stream adapters (the baselines) ---------------------------------------


class DecayColumns(ColumnProtocol):
    """The Decay baseline lifted into the arena — bit-identical to
    :meth:`repro.baselines.decay.DecayBroadcast.run` on jam-free runs and
    under deterministic oblivious jammers (same ``generator("nodes")``
    stream, same per-round coin block)."""

    emits_beacons = False

    def __init__(self, proto: DecayBroadcast, seed: int):
        self.proto = proto
        self.n = proto.n
        self.rng = RandomFabric(seed).generator("nodes")
        self.L = proto.round_slots
        self._scale = 2.0 ** np.arange(self.L, dtype=np.float64)
        self.informed = np.zeros(self.n, dtype=bool)
        self.informed[0] = True
        self.informed_slot = np.full(self.n, -1, dtype=np.int64)
        self.informed_slot[0] = 0
        self._zero_channels = np.zeros(self.n, dtype=np.int64)
        self.t = 0
        self.epochs_run = 0
        self._load_round()

    def _load_round(self) -> None:
        self._coins = self.rng.random((self.L, self.n)) * self._scale[:, None]
        act = np.zeros((self.L, self.n), dtype=np.int8)
        act[:, ~self.informed] = ACT_LISTEN
        act[(self._coins < 1.0) & self.informed[None, :]] = ACT_SEND_MSG
        self._act = act
        self._has_listen = bool((~self.informed).any())
        self._send_rows = (act == ACT_SEND_MSG).any(axis=1)

    def current_channels(self) -> int:
        return 1

    def begin_slot(self, slot: int) -> Tuple[np.ndarray, np.ndarray, bool, bool]:
        return (
            self._zero_channels,
            self._act[self.t],
            self._has_listen,
            bool(self._send_rows[self.t]),
        )

    def end_slot(self, slot: int, feedback: Optional[np.ndarray]) -> None:
        if feedback is not None:
            hear = (feedback == FB_MSG) & ~self.informed
            if hear.any():
                self.informed |= hear
                self.informed_slot[hear] = slot
                lo = self.t + 1
                if lo < self.L:
                    for u in np.nonzero(hear)[0]:
                        col = self._act[lo:, u]
                        sends = self._coins[lo:, u] < 1.0
                        col[:] = np.where(sends, ACT_SEND_MSG, np.int8(0))
                        self._send_rows[lo:] |= sends
        self.t += 1
        if self.t == self.L:
            self.t = 0
            self.epochs_run += 1
            if self.epochs_run < self.proto.epochs:
                self._load_round()

    # -- window interface -------------------------------------------------------
    def begin_window(self, slot: int, limit: int) -> Tuple[np.ndarray, np.ndarray]:
        lo = self.t
        W = min(int(limit), self.L - lo)
        return (
            np.broadcast_to(self._zero_channels, (W, self.n)),
            self._act[lo:lo + W],
        )

    def absorb_window(self, slot: int, feedback: np.ndarray) -> int:
        W = feedback.shape[0]
        if self.informed.all():
            events = _NO_EVENTS  # nobody left to inform: no truncation
        else:
            hear = (feedback == FB_MSG) & ~self.informed[None, :]
            events = np.nonzero(hear.any(axis=1))[0]
        A = int(events[0]) + 1 if events.size else W
        if events.size:
            heard = hear[A - 1]
            self.informed |= heard
            self.informed_slot[heard] = slot + A - 1
            lo = self.t + A
            if lo < self.L:
                for u in np.nonzero(heard)[0]:
                    col = self._act[lo:, u]
                    sends = self._coins[lo:, u] < 1.0
                    col[:] = np.where(sends, ACT_SEND_MSG, np.int8(0))
                    self._send_rows[lo:] |= sends
        self.t += A
        if self.t == self.L:
            self.t = 0
            self.epochs_run += 1
            if self.epochs_run < self.proto.epochs:
                self._load_round()
        return A

    @property
    def done(self) -> bool:
        return self.epochs_run >= self.proto.epochs

    def result(self, net) -> BroadcastResult:
        return BroadcastResult(
            protocol=self.proto.name,
            n=self.n,
            slots=net.clock,
            completed=not net.overrun,
            informed_slot=self.informed_slot.copy(),
            halt_slot=np.full(self.n, net.clock, dtype=np.int64),
            node_energy=net.energy.node_cost.copy(),
            adversary_spend=net.energy.adversary_spend,
            halted_uninformed=int((~self.informed).sum()),
            periods=self.epochs_run,
            extras={"round_slots": self.L, "epochs": self.proto.epochs},
        )


class NaiveColumns(ColumnProtocol):
    """The always-on epidemic baseline lifted into the arena — bit-identical
    to :meth:`repro.baselines.naive.NaiveEpidemic.run` on jam-free runs and
    under deterministic oblivious jammers, including the oracle/linger
    termination, which only fires at the same block boundaries."""

    emits_beacons = False

    def __init__(self, proto: NaiveEpidemic, seed: int):
        self.proto = proto
        self.n = proto.n
        self.C = proto.num_channels
        self.rng = RandomFabric(seed).generator("nodes")
        self.informed = np.zeros(self.n, dtype=bool)
        self.informed[0] = True
        self.informed_slot = np.full(self.n, -1, dtype=np.int64)
        self.informed_slot[0] = 0
        self.blocks = 0
        self.completed = True
        self._linger_left: Optional[int] = None
        self._done = False
        self._bt = 0  # slot within the current block
        self._refresh_actions()
        self._begin_block(0)

    def _refresh_actions(self) -> None:
        # p = 1 and coins are ignored: the action column only depends on the
        # informed set, so one cached row serves until somebody learns m
        self._act_row = np.where(
            self.informed, ACT_SEND_MSG, ACT_LISTEN
        ).astype(np.int8)
        self._has_listen = not bool(self.informed.all())

    def _begin_block(self, clock: int) -> None:
        if clock >= self.proto.max_slots_budget:
            self.completed = False
            self._done = True
            return
        K = min(
            self.proto.block_slots,
            self.proto.max_slots_budget - clock,
            self._linger_left if self._linger_left is not None else self.proto.block_slots,
        )
        self._K = max(1, K)
        # the block engine draws (K, n) channels + coins per block; the coins
        # are never consulted (p = 1) but the stream consumption is part of
        # the parity contract
        self._channels = bounded_integers(
            self.rng, self.C, np.empty((self._K, self.n), dtype=np.int32)
        )
        self.rng.random((self._K, self.n))
        self._bt = 0

    def current_channels(self) -> int:
        return self.C

    def begin_slot(self, slot: int) -> Tuple[np.ndarray, np.ndarray, bool, bool]:
        # the source is always informed, so a sender always exists
        return self._channels[self._bt], self._act_row, self._has_listen, True

    def end_slot(self, slot: int, feedback: Optional[np.ndarray]) -> None:
        if feedback is not None:
            hear = (feedback == FB_MSG) & ~self.informed
            if hear.any():
                self.informed |= hear
                self.informed_slot[hear] = slot
                self._refresh_actions()
        self._bt += 1
        if self._bt < self._K:
            return
        self._end_block(slot)

    def _end_block(self, last_slot: int) -> None:
        """Block-boundary bookkeeping; ``last_slot`` is the block's final slot."""
        self.blocks += 1
        if self.informed.all():
            if self._linger_left is None:
                overshoot = (last_slot + 1) - int(self.informed_slot.max())
                self._linger_left = max(0, self.proto.linger - overshoot)
            else:
                self._linger_left -= self._K
            if self._linger_left <= 0:
                self._done = True
                return
        self._begin_block(last_slot + 1)

    # -- window interface -------------------------------------------------------
    def begin_window(self, slot: int, limit: int) -> Tuple[np.ndarray, np.ndarray]:
        lo = self._bt
        W = min(int(limit), self._K - lo)
        return (
            self._channels[lo:lo + W],
            np.broadcast_to(self._act_row, (W, self.n)),
        )

    def absorb_window(self, slot: int, feedback: np.ndarray) -> int:
        W = feedback.shape[0]
        if self.informed.all():
            events = _NO_EVENTS  # nobody left to inform: no truncation
        else:
            hear = (feedback == FB_MSG) & ~self.informed[None, :]
            events = np.nonzero(hear.any(axis=1))[0]
        A = int(events[0]) + 1 if events.size else W
        if events.size:
            heard = hear[A - 1]
            self.informed |= heard
            self.informed_slot[heard] = slot + A - 1
            self._refresh_actions()
        self._bt += A
        if self._bt == self._K:
            self._end_block(slot + A - 1)
        return A

    @property
    def done(self) -> bool:
        return self._done

    def result(self, net) -> BroadcastResult:
        completed = self.completed and not net.overrun
        return BroadcastResult(
            protocol=self.proto.name,
            n=self.n,
            slots=net.clock,
            completed=completed,
            informed_slot=self.informed_slot.copy(),
            halt_slot=np.full(self.n, net.clock, dtype=np.int64),
            node_energy=net.energy.node_cost.copy(),
            adversary_spend=net.energy.adversary_spend,
            halted_uninformed=int((~self.informed).sum()) if not completed else 0,
            periods=self.blocks,
            extras={"num_channels": self.C, "oracle_termination": True},
        )


class MultiCastCColumns(ColumnProtocol):
    """Fig. 5 (``MultiCast(C)``, hence also the [14] single-channel baseline)
    lifted into the arena at physical-slot granularity.

    Virtual draws and the iteration schedule replicate the block engine's
    (``generator("nodes")``, blocks of ``block_slots`` virtual rows), so
    jam-free runs match :meth:`repro.core.limited.MultiCastC.run` bit for
    bit.  Each virtual slot is then *played out* as a round of ``S``
    physical sub-slots: a node whose virtual channel is ``k`` acts in
    sub-slot ``k // C`` on physical channel ``k % C`` — and a reactive Eve
    gets to sense and jam every physical slot individually, which the
    fold-based oblivious path cannot express.
    """

    emits_beacons = False

    def __init__(self, proto: MultiCastC, seed: int):
        self.proto = proto
        self.n = proto.n
        self.C_virt = proto.num_channels
        self.C_phys = proto.C
        self.S = proto.slots_per_round
        self.rng = RandomFabric(seed).generator("nodes")
        self.informed = np.zeros(self.n, dtype=bool)
        self.informed[0] = True
        self.active = np.ones(self.n, dtype=bool)
        self.informed_slot = np.full(self.n, -1, dtype=np.int64)
        self.informed_slot[0] = 0
        self.halt_slot = np.full(self.n, -1, dtype=np.int64)
        self.noisy = np.zeros(self.n, dtype=np.int64)
        self.halted_uninformed = 0
        self.i = proto.start_iteration
        self.iterations_run = 0
        self.capped = False
        self._done = False
        self._q = 0  # physical sub-slot within the round
        self._subslot_ids = np.arange(self.S, dtype=np.int64)[:, None]
        self._start_iteration()

    def _start_iteration(self) -> None:
        self.R = self.proto.iteration_length(self.i)
        self.p = self.proto.listen_prob(self.i)
        self.threshold = self.R * self.p * self.proto.NOISE_THRESHOLD
        self._remaining = self.R
        self._load_block()

    def _load_block(self) -> None:
        K = min(self.proto.block_slots, self._remaining)
        self._vch = bounded_integers(
            self.rng, self.C_virt, np.empty((K, self.n), dtype=np.int32)
        )
        self._vcoin = self.rng.random((K, self.n))
        # coin thresholds are fixed for the iteration: classify the whole
        # block once so window expansion touches bools, not floats
        self._vlisten = self._vcoin < self.p
        self._vsendish = ~self._vlisten & (self._vcoin < 2 * self.p)
        self._vphys = self._vch % self.C_phys
        self._vsub = self._vch // self.C_phys
        self._K = K
        self._r = 0  # virtual row within the block
        self._round_actions()

    def _round_actions(self) -> None:
        """Fix the round's virtual actions from the current informed set —
        the shared-coin rule of :func:`repro.core.runner.shared_coin_actions` —
        and expand them into one action column per physical sub-slot."""
        vact = np.zeros(self.n, dtype=np.int8)
        vact[self._vlisten[self._r] & self.active] = ACT_LISTEN
        send = self._vsendish[self._r] & self.informed & self.active
        vact[send] = ACT_SEND_MSG
        self._phys_ch = self._vphys[self._r].astype(np.int64)
        subslot = self._vsub[self._r].astype(np.int64)
        # (S, n): sub-slot q's column holds each node's action iff it acts in q
        self._sub_acts = np.where(
            subslot[None, :] == self._subslot_ids, vact[None, :], np.int8(0)
        )
        self._listen_subs = (self._sub_acts == ACT_LISTEN).any(axis=1)
        self._send_subs = (self._sub_acts == ACT_SEND_MSG).any(axis=1)

    def current_channels(self) -> int:
        return self.C_phys

    def begin_slot(self, slot: int) -> Tuple[np.ndarray, np.ndarray, bool, bool]:
        q = self._q
        return (
            self._phys_ch,
            self._sub_acts[q],
            bool(self._listen_subs[q]),
            bool(self._send_subs[q]),
        )

    def end_slot(self, slot: int, feedback: Optional[np.ndarray]) -> None:
        if feedback is not None:
            hear = (feedback == FB_MSG) & ~self.informed
            if hear.any():
                self.informed |= hear
                # virtual-slot semantics: the event is attributed to the round,
                # i.e. the physical slot the round started at (the block engine
                # records slot0 + row * S); actions of later rounds pick the
                # new informed set up in _round_actions
                self.informed_slot[hear] = slot - self._q
            self.noisy += feedback == FB_NOISE
        self._q += 1
        if self._q < self.S:
            return
        self._q = 0
        self._r += 1
        self._remaining -= 1
        if self._r < self._K:
            self._round_actions()
            return
        if self._remaining > 0:
            self._load_block()
            return
        self._end_iteration(slot)

    def _end_iteration(self, last_slot: int) -> None:
        """Iteration-boundary bookkeeping; ``last_slot`` is the iteration's
        final physical slot."""
        halt_now = self.active & (self.noisy < self.threshold)
        self.halted_uninformed += int((halt_now & ~self.informed).sum())
        self.halt_slot[halt_now] = last_slot + 1
        self.active &= ~halt_now
        self.noisy[:] = 0
        self.iterations_run += 1
        self.i += 1
        if (
            self.proto.max_iterations is not None
            and self.iterations_run >= self.proto.max_iterations
        ):
            self.capped = True
        if self.capped or not self.active.any():
            self._done = True
        else:
            self._start_iteration()

    # -- window interface -------------------------------------------------------
    def begin_window(self, slot: int, limit: int) -> Tuple[np.ndarray, np.ndarray]:
        limit = int(limit)
        S, n = self.S, self.n
        q0 = self._q
        self._win_q0 = q0
        head = S - q0  # physical slots left in the already-expanded round
        first_act = self._sub_acts[q0:]
        rounds_left = self._K - self._r - 1
        extra = min((limit - head) // S, rounds_left) if limit > head else 0
        if extra <= 0:
            W = min(limit, head)
            return np.broadcast_to(self._phys_ch, (W, n)), first_act[:W]
        # expand further whole rounds of the loaded block from the virtual
        # draw matrices — speculative on the current informed/active sets
        rr = slice(self._r + 1, self._r + 1 + extra)
        vact = np.zeros((extra, n), dtype=np.int8)
        vact[self._vlisten[rr] & self.active[None, :]] = ACT_LISTEN
        send = (
            self._vsendish[rr] & self.informed[None, :] & self.active[None, :]
        )
        vact[send] = ACT_SEND_MSG
        phys = self._vphys[rr]
        sub = self._vsub[rr]
        # scatter each node's action into its sub-slot row: O(extra * n)
        # writes instead of an (extra, S, n) comparison grid
        acts3 = np.zeros((extra, self.S, n), dtype=np.int8)
        acts3[np.arange(extra)[:, None], sub, np.arange(n)[None, :]] = vact
        channels = np.concatenate(
            [np.broadcast_to(self._phys_ch, (head, n)), np.repeat(phys, S, axis=0)]
        )
        actions = np.concatenate([first_act, acts3.reshape(extra * S, n)])
        return channels, actions

    def absorb_window(self, slot: int, feedback: np.ndarray) -> int:
        W = feedback.shape[0]
        S = self.S
        q0 = self._win_q0
        head = S - q0
        if self.informed.all():
            events = _NO_EVENTS  # nobody left to inform: no truncation
        else:
            hear = (feedback == FB_MSG) & ~self.informed[None, :]
            events = np.nonzero(hear.any(axis=1))[0]
        if events.size:
            t_star = int(events[0])
            # absorb through the end of the event's round: round actions are
            # fixed at round entry (virtual-slot semantics), so later rows of
            # the same round stay valid; later *rounds* must be re-expanded
            rs = -q0 if t_star < head else head + ((t_star - head) // S) * S
            A = min(W, rs + S)
            heard = hear[max(rs, 0):A].any(axis=0)
            self.informed |= heard
            # the hearing is attributed to the round's first physical slot,
            # exactly like end_slot's ``slot - self._q``
            self.informed_slot[heard] = slot + rs
        else:
            A = W
        self.noisy += (feedback[:A] == FB_NOISE).sum(axis=0, dtype=np.int64)
        # positional advance, replaying the per-slot boundary cascade
        left = A
        stale = False
        while left > 0:
            take = min(left, S - self._q)
            self._q += take
            left -= take
            if self._q < S:
                break
            self._q = 0
            self._r += 1
            self._remaining -= 1
            if self._r < self._K:
                # the cached round expansion is one round behind now; rebuild
                # it once, after the loop (intermediate rounds were already
                # served speculatively and commit as-is — no event hit them)
                stale = True
                continue
            if self._remaining > 0:
                self._load_block()
                stale = False
                continue
            self._end_iteration(slot + A - 1)
            stale = False
        if stale and not self._done:
            self._round_actions()
        return A

    @property
    def done(self) -> bool:
        return self._done

    def result(self, net) -> BroadcastResult:
        completed = not self.capped and not net.overrun
        return BroadcastResult(
            protocol=self.proto.name,
            n=self.n,
            slots=net.clock,
            completed=completed and not self.active.any(),
            informed_slot=self.informed_slot.copy(),
            halt_slot=self.halt_slot.copy(),
            node_energy=net.energy.node_cost.copy(),
            adversary_spend=net.energy.adversary_spend,
            halted_uninformed=self.halted_uninformed,
            periods=self.iterations_run,
            extras={
                "num_channels": self.C_virt,
                "first_iteration": self.proto.start_iteration,
                "last_iteration": self.i - 1 if self.iterations_run else None,
                "physical_channels": self.C_phys,
                "slots_per_round": self.S,
            },
        )
