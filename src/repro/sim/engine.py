"""The synchronous network engine.

:class:`RadioNetwork` owns the three pieces of global state every protocol
needs — the slot clock, the energy ledger, and the adversary — and exposes a
two-phase block API designed for the vectorized protocol runners:

1. ``jam = net.draw_jamming(K, C)`` — fetch Eve's jamming mask for the next
   ``K`` slots on ``C`` channels.  This *commits Eve's spend immediately*:
   jamming energy is burned whether or not any node listens (she is oblivious
   and cannot react to node behaviour), matching the model.
2. (the protocol resolves the block, possibly re-resolving a tail after a
   status change, reusing the same mask and the same node coin draws), then
3. ``net.commit_block(actions)`` — charge node energy for the final action
   matrix and advance the clock by ``K``.

The draw/commit pairing is enforced at runtime (:class:`BlockProtocolError`)
so a buggy protocol cannot double-charge or skip slots.  Obliviousness is
enforced structurally: adversaries only ever see ``(start_slot, K, C)``.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

import numpy as np

from repro.sim.channel import ACT_LISTEN, ACT_SEND_BEACON, ACT_SEND_MSG
from repro.sim.jam import JamBlock
from repro.sim.metrics import BatchEnergyLedger, EnergyLedger
from repro.sim.rng import RandomFabric, bounded_integers, skip_bounded_integers

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.adversary.base import Adversary

__all__ = ["RadioNetwork", "BatchNetwork", "SlotLimitExceeded", "BlockProtocolError"]


class SlotLimitExceeded(RuntimeError):
    """The execution ran past ``max_slots`` without terminating.

    Raised by :meth:`RadioNetwork.commit_block`.  Protocol runners catch this
    and report a truncated (non-completed) result instead of spinning forever
    — relevant when the adversary is strong enough to block termination at
    the configured scale.
    """


class BlockProtocolError(RuntimeError):
    """The draw_jamming / commit_block pairing discipline was violated."""


class RadioNetwork:
    """Synchronous single-hop multi-channel radio network (paper section 3).

    Parameters
    ----------
    n:
        Number of honest nodes.  Node 0 is the source by library convention.
    adversary:
        An oblivious jammer (see :mod:`repro.adversary`); ``None`` means no
        jamming at all.
    seed:
        Root seed; the per-protocol node coins are drawn from
        ``fabric.generator("nodes")`` so that a network seed fully determines
        the execution (the adversary carries its own stream).
    max_slots:
        Safety cap on the global clock.
    """

    def __init__(
        self,
        n: int,
        adversary: Optional["Adversary"] = None,
        *,
        seed: int = 0,
        max_slots: int = 50_000_000,
        listen_cost: float = 1.0,
        send_cost: float = 1.0,
        jam_cost: float = 1.0,
    ):
        if n < 2:
            raise ValueError("broadcast needs at least two nodes (source + 1)")
        self.n = int(n)
        self.adversary = adversary
        self.fabric = RandomFabric(seed)
        self.rng = self.fabric.generator("nodes")
        # Non-unit action costs implement the paper's footnote 1 (different
        # constants per action change nothing structural); see EnergyLedger.
        self.energy = EnergyLedger(
            self.n, listen_cost=listen_cost, send_cost=send_cost, jam_cost=jam_cost
        )
        self.max_slots = int(max_slots)
        self._pending_block: Optional[int] = None  # K of the drawn block

    # -- clock -----------------------------------------------------------------
    @property
    def clock(self) -> int:
        """Index of the next slot to be simulated."""
        return self.energy.slots

    # -- block API ---------------------------------------------------------------
    def draw_jamming(self, block_slots: int, num_channels: int) -> JamBlock:
        """Return Eve's jamming for the next ``K`` slots as a
        :class:`repro.sim.jam.JamBlock` (adversaries may return dense masks
        or JamBlocks; both are normalized here).

        Charges Eve one unit per jammed channel-slot immediately.  Must be
        followed by exactly one :meth:`commit_block` of the same length.
        """
        if self._pending_block is not None:
            raise BlockProtocolError("draw_jamming called twice without commit_block")
        K = int(block_slots)
        C = int(num_channels)
        if K <= 0 or C <= 0:
            raise ValueError("block_slots and num_channels must be positive")
        if self.adversary is None:
            jam = JamBlock.empty(K, C)
        else:
            jam = JamBlock.coerce(self.adversary.jam_block(self.clock, K, C))
            if jam.K != K or jam.C != C:
                raise ValueError(
                    f"adversary returned jamming for (K={jam.K}, C={jam.C}), "
                    f"expected (K={K}, C={C})"
                )
        self.energy.charge_adversary(jam.total())
        self._pending_block = K
        return jam

    def commit_block(self, actions: np.ndarray, *, slots_per_row: int = 1) -> None:
        """Charge node energy for the block's final actions and advance time.

        ``actions`` is the ``(K, n)`` int8 matrix the protocol actually
        executed (after any tail re-resolution).  Listen and send each cost
        one unit; idle is free.

        ``slots_per_row`` supports the round-based channel-limited protocols
        (paper Fig. 5): one action row then stands for a *round* of
        ``slots_per_row`` physical slots in which the node acts at most once.
        The jamming drawn for the block must cover ``K * slots_per_row``
        physical slots.
        """
        if self._pending_block is None:
            raise BlockProtocolError("commit_block called without draw_jamming")
        if slots_per_row <= 0:
            raise ValueError("slots_per_row must be positive")
        K = int(actions.shape[0]) * int(slots_per_row)
        if K != self._pending_block:
            raise BlockProtocolError(
                f"committed {K} physical slots but drew jamming for {self._pending_block}"
            )
        if actions.shape[1] != self.n:
            raise ValueError(f"actions has {actions.shape[1]} columns, expected {self.n}")
        listen = (actions == ACT_LISTEN).sum(axis=0)
        send = ((actions == ACT_SEND_MSG) | (actions == ACT_SEND_BEACON)).sum(axis=0)
        self.energy.charge_nodes(listen, send)
        self.energy.advance(K)
        self._pending_block = None
        if self.energy.slots > self.max_slots:
            raise SlotLimitExceeded(
                f"execution exceeded max_slots={self.max_slots} "
                f"(adversary too strong for this scale, or a termination bug)"
            )

    def abort_block(self) -> None:
        """Discard a drawn-but-uncommitted block (used only by error paths)."""
        self._pending_block = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RadioNetwork(n={self.n}, clock={self.clock}, adversary={self.adversary!r})"


class BatchNetwork:
    """``B`` independent :class:`RadioNetwork` executions: the lanes of a
    :class:`repro.core.batch.LaneStream` (or of a Decay/Naive lockstep
    ``run_batch``).

    One lane = one seeded trial: its own node generator, its own adversary
    instance, its own clock, and its own column set in a
    :class:`repro.sim.metrics.BatchEnergyLedger`.  Lanes never interact —
    batching is purely an execution-layer move that amortizes per-block
    interpreter and kernel overhead across trials (DESIGN.md section 6).

    The block API mirrors :class:`RadioNetwork`'s draw/commit discipline, but
    every call takes ``lane_ids`` — the (sorted) indices of lanes taking part
    in the block.  Finished or truncated lanes are simply omitted from later
    calls: their clocks freeze and their books stop changing, exactly as if
    their scalar execution had ended.

    Determinism contract: lane ``l`` of a :class:`BatchNetwork` built with
    ``seeds[l]`` and ``adversaries[l]`` produces draws bit-identical to
    ``RadioNetwork(n, adversaries[l], seed=seeds[l])``, because each lane's
    generator is constructed the same way and is consumed in the same
    per-lane order (a lane's stream never observes other lanes).

    Parameters
    ----------
    n:
        Number of honest nodes per lane (node 0 is the source).
    seeds:
        Per-lane root seeds; lane count ``B = len(seeds)``.
    adversaries:
        Per-lane jammers (``None`` entries mean no jamming; ``None`` for the
        whole argument means no jamming anywhere).  Each non-``None`` entry
        must be a distinct object — adversaries carry per-execution state.
    max_slots:
        Safety cap applied per lane — a scalar for a uniform cap or one
        value per lane (continuous batching refills a slot with a trial
        that may carry its own cap); :meth:`commit_block` reports (rather
        than raises) per-lane overruns so one runaway lane cannot abort the
        batch.
    """

    def __init__(
        self,
        n: int,
        seeds,
        adversaries=None,
        *,
        max_slots: int = 50_000_000,
        listen_cost: float = 1.0,
        send_cost: float = 1.0,
        jam_cost: float = 1.0,
    ):
        if n < 2:
            raise ValueError("broadcast needs at least two nodes (source + 1)")
        seeds = [int(s) for s in seeds]
        if not seeds:
            raise ValueError("need at least one lane")
        self.n = int(n)
        self.B = len(seeds)
        if adversaries is None:
            adversaries = [None] * self.B
        adversaries = list(adversaries)
        if len(adversaries) != self.B:
            raise ValueError(
                f"{len(adversaries)} adversaries for {self.B} lanes (need one per lane)"
            )
        live_ids = [id(a) for a in adversaries if a is not None]
        if len(set(live_ids)) != len(live_ids):
            raise ValueError("each lane needs its own adversary instance (state!)")
        self.adversaries = adversaries
        self.rngs = [RandomFabric(s).generator("nodes") for s in seeds]
        self.energy = BatchEnergyLedger(
            self.B, self.n, listen_cost=listen_cost, send_cost=send_cost, jam_cost=jam_cost
        )
        cap = np.asarray(max_slots, dtype=np.int64)
        if cap.ndim == 0:
            cap = np.full(self.B, int(cap), dtype=np.int64)
        elif cap.shape != (self.B,):
            raise ValueError(
                f"max_slots shaped {cap.shape}, expected a scalar or ({self.B},)"
            )
        else:
            cap = cap.copy()
        self.max_slots = cap
        self._pending: Optional[tuple] = None  # (lane_ids, physical K)

    # -- clocks ----------------------------------------------------------------
    @property
    def clocks(self) -> np.ndarray:
        """``(B,)`` per-lane next-slot indices (treat as read-only)."""
        return self.energy.slots

    # -- per-lane randomness ---------------------------------------------------
    def draw_channels(self, lane_ids: np.ndarray, block_slots: int, num_channels: int) -> np.ndarray:
        """Stacked per-lane channel draws: ``(len(lane_ids), K, n)`` int32.

        Lane ``l``'s slice comes from lane ``l``'s own generator, filled by
        :func:`~repro.sim.rng.bounded_integers` with exactly the values (and
        stream consumption) of the ``integers(0, C, size=(K, n),
        dtype=int32)`` call a scalar protocol makes, so per-lane streams
        match the scalar path exactly.
        """
        K = int(block_slots)
        out = np.empty((len(lane_ids), K, self.n), dtype=np.int32)
        for j, l in enumerate(lane_ids):
            bounded_integers(self.rngs[l], num_channels, out[j])
        return out

    def draw_coins(self, lane_ids: np.ndarray, block_slots: int) -> np.ndarray:
        """Stacked per-lane coin draws: ``(len(lane_ids), K, n)`` float64."""
        K = int(block_slots)
        out = np.empty((len(lane_ids), K, self.n), dtype=np.float64)
        for j, l in enumerate(lane_ids):
            # filling the slice in place consumes the stream exactly like
            # random((K, n)) would, without the temporary + copy
            self.rngs[l].random(out=out[j])
        return out

    # -- block API ---------------------------------------------------------------
    def draw_jamming(
        self, lane_ids: np.ndarray, block_slots: int, num_channels: int
    ) -> JamBlock:
        """Eve's jamming for the next ``K`` slots of every listed lane, as one
        lane-stacked :class:`repro.sim.jam.JamBlock` of ``len(lane_ids) * K``
        rows (lane-major, matching the batched kernel's key layout).

        Charges each lane's adversary spend immediately, like the scalar
        engine.  Must be followed by exactly one :meth:`commit_block` over
        the same lanes and length.
        """
        if self._pending is not None:
            raise BlockProtocolError("draw_jamming called twice without commit_block")
        lane_ids = np.asarray(lane_ids, dtype=np.int64)
        K = int(block_slots)
        C = int(num_channels)
        if lane_ids.size == 0:
            raise ValueError("need at least one lane in the block")
        if K <= 0 or C <= 0:
            raise ValueError("block_slots and num_channels must be positive")
        blocks = []
        totals = np.zeros(lane_ids.size, dtype=np.int64)
        for j, l in enumerate(lane_ids):
            adversary = self.adversaries[l]
            if adversary is None:
                jam = JamBlock.empty(K, C)
            else:
                jam = JamBlock.coerce(
                    adversary.jam_block(int(self.energy.slots[l]), K, C)
                )
                if jam.K != K or jam.C != C:
                    raise ValueError(
                        f"adversary of lane {int(l)} returned jamming for "
                        f"(K={jam.K}, C={jam.C}), expected (K={K}, C={C})"
                    )
            totals[j] = jam.total()
            blocks.append(jam)
        self.energy.charge_adversary(lane_ids, totals)
        self._pending = (lane_ids, K)
        return JamBlock.stack(blocks)

    def commit_block(
        self, lane_ids: np.ndarray, actions: np.ndarray, *, slots_per_row: int = 1
    ) -> np.ndarray:
        """Charge node energy for the lanes' final actions and advance time.

        ``actions`` is ``(len(lane_ids), K, n)``.  Returns a boolean overrun
        mask: ``True`` where a lane's clock just passed ``max_slots`` — the
        per-lane analogue of :class:`SlotLimitExceeded` (callers mask those
        lanes out and report them truncated; the batch itself continues).
        """
        if self._pending is None:
            raise BlockProtocolError("commit_block called without draw_jamming")
        lane_ids = np.asarray(lane_ids, dtype=np.int64)
        pending_ids, pending_K = self._pending
        if slots_per_row <= 0:
            raise ValueError("slots_per_row must be positive")
        if not np.array_equal(lane_ids, pending_ids):
            raise BlockProtocolError("commit_block lanes differ from draw_jamming lanes")
        K = int(actions.shape[1]) * int(slots_per_row)
        if K != pending_K:
            raise BlockProtocolError(
                f"committed {K} physical slots but drew jamming for {pending_K}"
            )
        if actions.shape[0] != lane_ids.size or actions.shape[2] != self.n:
            raise ValueError(
                f"actions shaped {actions.shape}, expected "
                f"({lane_ids.size}, K, {self.n})"
            )
        listen = (actions == ACT_LISTEN).sum(axis=1)
        send = ((actions == ACT_SEND_MSG) | (actions == ACT_SEND_BEACON)).sum(axis=1)
        return self.commit_counts(
            lane_ids, listen, send, int(actions.shape[1]), slots_per_row=slots_per_row
        )

    def commit_counts(
        self,
        lane_ids: np.ndarray,
        listen_counts: np.ndarray,
        send_counts: np.ndarray,
        block_rows: int,
        *,
        slots_per_row: int = 1,
    ) -> np.ndarray:
        """Commit a block from per-node action *counts* instead of matrices.

        The steady-state kernel (DESIGN.md section 6) never materializes
        action matrices — it derives each node's listen/send slot counts
        straight from the coin draws — so the engine accepts the counts
        directly.  Semantically identical to :meth:`commit_block` on the
        matrix those counts summarize; same pairing discipline, same overrun
        mask.
        """
        if self._pending is None:
            raise BlockProtocolError("commit called without draw_jamming")
        lane_ids = np.asarray(lane_ids, dtype=np.int64)
        pending_ids, pending_K = self._pending
        if slots_per_row <= 0:
            raise ValueError("slots_per_row must be positive")
        if not np.array_equal(lane_ids, pending_ids):
            raise BlockProtocolError("commit lanes differ from draw_jamming lanes")
        K = int(block_rows) * int(slots_per_row)
        if K != pending_K:
            raise BlockProtocolError(
                f"committed {K} physical slots but drew jamming for {pending_K}"
            )
        if listen_counts.shape != (lane_ids.size, self.n) or send_counts.shape != (
            lane_ids.size,
            self.n,
        ):
            raise ValueError(
                f"counts shaped {listen_counts.shape}/{send_counts.shape}, "
                f"expected ({lane_ids.size}, {self.n})"
            )
        self.energy.charge_nodes(lane_ids, listen_counts, send_counts)
        self.energy.advance(lane_ids, K)
        self._pending = None
        return self.energy.slots[lane_ids] > self.max_slots[lane_ids]

    # -- continuous lane batching (ragged blocks + slot reuse) -----------------
    def replace_lane(self, lane: int, seed: int, adversary=None, *, max_slots=None) -> None:
        """Reuse one lane slot for a fresh trial: new generator, new (reset)
        adversary, zeroed books, clock back to 0.

        The slot's history is erased — exactly as if the :class:`BatchNetwork`
        had been built with this (seed, adversary) in that position from the
        start, which is what makes refill schedule-invariant (a lane's stream
        never observes other lanes, so *when* a slot is recycled cannot leak
        into the trial it hosts).
        """
        if self._pending is not None:
            raise BlockProtocolError("replace_lane during a drawn-but-uncommitted block")
        lane = int(lane)
        if not 0 <= lane < self.B:
            raise ValueError(f"lane {lane} out of range for B={self.B}")
        if adversary is not None:
            for other, existing in enumerate(self.adversaries):
                if existing is adversary and other != lane:
                    raise ValueError("each lane needs its own adversary instance (state!)")
            adversary.reset()
        self.adversaries[lane] = adversary
        self.rngs[lane] = RandomFabric(int(seed)).generator("nodes")
        self.energy.reset_lane(lane)
        if max_slots is not None:
            self.max_slots[lane] = int(max_slots)

    def draw_channels_ragged(
        self, lane_ids: np.ndarray, block_rows: np.ndarray, num_channels
    ) -> np.ndarray:
        """Concatenated per-lane channel draws: ``(sum(block_rows), n)`` int32,
        lane-major.  ``block_rows`` gives each listed lane its own row count
        (the ragged analogue of :meth:`draw_channels`); ``num_channels`` is a
        scalar or one channel count per lane.  Lane ``l``'s chunk comes from
        lane ``l``'s own generator, drawn exactly as in :meth:`draw_channels`.
        """
        rows = np.asarray(block_rows, dtype=np.int64)
        Cs = np.broadcast_to(
            np.asarray(num_channels, dtype=np.int64), rows.shape
        )
        out = np.empty((int(rows.sum()), self.n), dtype=np.int32)
        pos = 0
        for l, K, C in zip(lane_ids, rows, Cs):
            bounded_integers(self.rngs[l], C, out[pos : pos + K])
            pos += int(K)
        return out

    def skip_channels_ragged(
        self, lane_ids: np.ndarray, block_rows: np.ndarray, num_channels
    ) -> None:
        """Consume the channel draws :meth:`draw_channels_ragged` would make
        for these lanes without producing them: each lane's generator ends
        where that draw would leave it
        (:func:`~repro.sim.rng.skip_bounded_integers`, a PCG64 jump-ahead for
        power-of-two channel counts).  For blocks whose outcome cannot
        depend on the channels (DESIGN.md section 9.2).
        """
        rows = np.asarray(block_rows, dtype=np.int64)
        Cs = np.broadcast_to(np.asarray(num_channels, dtype=np.int64), rows.shape)
        for l, K, C in zip(lane_ids, rows, Cs):
            skip_bounded_integers(self.rngs[l], C, int(K) * self.n)

    def draw_coins_ragged(self, lane_ids: np.ndarray, block_rows: np.ndarray) -> np.ndarray:
        """Concatenated per-lane coin draws: ``(sum(block_rows), n)`` float64."""
        rows = np.asarray(block_rows, dtype=np.int64)
        out = np.empty((int(rows.sum()), self.n), dtype=np.float64)
        pos = 0
        for l, K in zip(lane_ids, rows):
            # filling the chunk in place consumes the stream exactly like
            # random((K, n)) would, without the temporary + copy
            self.rngs[l].random(out=out[pos : pos + int(K)])
            pos += int(K)
        return out

    def draw_jamming_ragged(
        self, lane_ids: np.ndarray, block_rows: np.ndarray, num_channels
    ) -> list:
        """Eve's jamming for a ragged block: one :class:`JamBlock` per listed
        lane (lane ``l`` covering its own ``block_rows[l]`` physical slots on
        its own channel count).  Charges each lane's spend immediately; must
        be followed by exactly one :meth:`commit_counts_ragged` over the same
        lanes and row counts.  The per-lane blocks are returned unstacked
        because channel counts may differ across lanes (the adv lattice) —
        callers with a uniform C can ``JamBlock.stack`` them.
        """
        if self._pending is not None:
            raise BlockProtocolError("draw_jamming called twice without commit")
        lane_ids = np.asarray(lane_ids, dtype=np.int64)
        rows = np.asarray(block_rows, dtype=np.int64)
        if lane_ids.size == 0:
            raise ValueError("need at least one lane in the block")
        if lane_ids.shape != rows.shape:
            raise ValueError("block_rows must give one row count per lane")
        Cs = np.broadcast_to(np.asarray(num_channels, dtype=np.int64), rows.shape)
        if (rows <= 0).any() or (Cs <= 0).any():
            raise ValueError("block_slots and num_channels must be positive")
        blocks = []
        totals = np.zeros(lane_ids.size, dtype=np.int64)
        for j, (l, K, C) in enumerate(zip(lane_ids, rows, Cs)):
            adversary = self.adversaries[l]
            if adversary is None:
                jam = JamBlock.empty(int(K), int(C))
            else:
                jam = JamBlock.coerce(
                    adversary.jam_block(int(self.energy.slots[l]), int(K), int(C))
                )
                if jam.K != int(K) or jam.C != int(C):
                    raise ValueError(
                        f"adversary of lane {int(l)} returned jamming for "
                        f"(K={jam.K}, C={jam.C}), expected (K={int(K)}, C={int(C)})"
                    )
            totals[j] = jam.total()
            blocks.append(jam)
        self.energy.charge_adversary(lane_ids, totals)
        self._pending = (lane_ids, rows)
        return blocks

    def commit_counts_ragged(
        self,
        lane_ids: np.ndarray,
        listen_counts: np.ndarray,
        send_counts: np.ndarray,
        block_rows: np.ndarray,
        *,
        slots_per_row: int = 1,
    ) -> np.ndarray:
        """Commit a ragged block from per-node action counts; same pairing
        discipline and per-lane overrun mask as :meth:`commit_counts`, with
        each lane advancing by its own ``block_rows[l] * slots_per_row``."""
        if self._pending is None:
            raise BlockProtocolError("commit called without draw_jamming")
        lane_ids = np.asarray(lane_ids, dtype=np.int64)
        rows = np.asarray(block_rows, dtype=np.int64)
        pending_ids, pending_rows = self._pending
        if slots_per_row <= 0:
            raise ValueError("slots_per_row must be positive")
        if not np.array_equal(lane_ids, pending_ids):
            raise BlockProtocolError("commit lanes differ from draw_jamming lanes")
        physical = rows * int(slots_per_row)
        if not np.array_equal(physical, np.broadcast_to(pending_rows, physical.shape)):
            raise BlockProtocolError(
                f"committed {physical.tolist()} physical slots but drew jamming "
                f"for {np.asarray(pending_rows).tolist()}"
            )
        if listen_counts.shape != (lane_ids.size, self.n) or send_counts.shape != (
            lane_ids.size,
            self.n,
        ):
            raise ValueError(
                f"counts shaped {listen_counts.shape}/{send_counts.shape}, "
                f"expected ({lane_ids.size}, {self.n})"
            )
        self.energy.charge_nodes(lane_ids, listen_counts, send_counts)
        self.energy.advance(lane_ids, physical)
        self._pending = None
        return self.energy.slots[lane_ids] > self.max_slots[lane_ids]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BatchNetwork(n={self.n}, B={self.B}, clocks={self.clocks.tolist()})"
