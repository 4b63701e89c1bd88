"""Adversary base classes: the oblivious interface and budget enforcement.

Design notes
------------
* **Obliviousness by construction.**  :meth:`Adversary.jam_block` receives
  only ``(start_slot, num_slots, num_channels)``.  The engine never passes
  node state, feedback, or energy information, so adaptivity is impossible to
  express.  (The paper's future-work section conjectures the algorithms also
  survive adaptive jammers; extending this interface would be where that
  experiment starts.)

* **Exact budgets.**  Strategies implement :meth:`ObliviousJammer.propose`,
  which may over-ask; the base class truncates the proposal channel-slot by
  channel-slot in slot-major order so the cumulative spend never exceeds
  ``budget``.  This mirrors the model: Eve stops jamming mid-slot when her
  last unit is gone.

* **Monotone clock.**  ``jam_block`` calls must be contiguous in time
  (protocols never rewind).  The base class asserts this, which has caught
  real protocol bugs (double-drawn blocks) in development.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Union

import numpy as np

from repro.sim.jam import JamBlock
from repro.sim.rng import RandomFabric

__all__ = ["Adversary", "ObliviousJammer"]

JamMask = Union[np.ndarray, JamBlock]


class Adversary(ABC):
    """Minimal interface the engine requires of Eve."""

    @abstractmethod
    def jam_block(self, start_slot: int, num_slots: int, num_channels: int) -> JamMask:
        """Return the jamming for ``num_slots`` slots on ``num_channels``
        channels — a dense ``(K, C)`` boolean mask or a sparse
        :class:`repro.sim.jam.JamBlock` (mandatory when C is huge).

        The engine charges one unit of energy per jammed channel-slot.
        Implementations must already respect their own budget.
        """

    @abstractmethod
    def reset(self) -> None:
        """Restore the pristine pre-execution state (budget, coins, cursor)."""

    @property
    @abstractmethod
    def spent(self) -> int:
        """Total channel-slots jammed so far in the current execution."""


class ObliviousJammer(Adversary):
    """Budget-enforcing base class for concrete strategies.

    Subclasses implement :meth:`propose` — a pure function of the slot window
    (plus the jammer's private stream ``self.rng``) returning the mask they
    *would like* to jam.  The base class clips it to the remaining budget.

    Parameters
    ----------
    budget:
        Eve's total energy ``T``.  ``None`` means unbounded (useful for unit
        tests of strategy shapes; experiments always set a budget).
    seed:
        Seed for the jammer's private random stream, independent of the
        honest nodes' streams.
    """

    def __init__(self, budget: Optional[int] = None, seed: int = 0):
        if budget is not None and budget < 0:
            raise ValueError("budget must be non-negative")
        self.budget = None if budget is None else int(budget)
        self._seed = int(seed)
        self.rng = RandomFabric(self._seed).generator("jammer")
        self._spent = 0
        self._cursor = 0

    # -- strategy hook -----------------------------------------------------------
    @abstractmethod
    def propose(self, start_slot: int, num_slots: int, num_channels: int) -> JamMask:
        """Desired jamming for the window, pre-budget: a dense
        ``(num_slots, num_channels)`` boolean mask or a JamBlock.  Strategies
        that can be asked about huge channel counts must return JamBlocks
        (dense masks above ~2^22 cells would not be materializable)."""

    # -- Adversary interface -------------------------------------------------------
    def jam_block(self, start_slot: int, num_slots: int, num_channels: int) -> JamBlock:
        if start_slot != self._cursor:
            raise RuntimeError(
                f"non-contiguous jam_block: expected start {self._cursor}, got {start_slot}"
            )
        if num_slots <= 0 or num_channels <= 0:
            raise ValueError("num_slots and num_channels must be positive")
        self._cursor = start_slot + num_slots

        remaining = None if self.budget is None else self.budget - self._spent
        if remaining is not None and remaining <= 0:
            return JamBlock.empty(num_slots, num_channels)

        jam = JamBlock.coerce(self.propose(start_slot, num_slots, num_channels))
        if jam.K != num_slots or jam.C != num_channels:
            raise ValueError(
                f"propose returned (K={jam.K}, C={jam.C}), "
                f"expected (K={num_slots}, C={num_channels})"
            )
        if remaining is not None:
            # Keep the first `remaining` jammed channel-slots in time order —
            # Eve stops jamming mid-slot when her last unit is gone.
            jam = jam.truncate_budget(remaining)
        self._spent += jam.total()
        return jam

    def reset(self) -> None:
        self.rng = RandomFabric(self._seed).generator("jammer")
        self._spent = 0
        self._cursor = 0

    def checkpoint(self):
        """Snapshot (rng state, spent, cursor) for speculative window
        execution on the arena (:mod:`repro.arena.window`).  Strategies
        keeping further mutable state must extend this pair."""
        return (self.rng.bit_generator.state, self._spent, self._cursor)

    def restore(self, state) -> None:
        """Rewind to a :meth:`checkpoint` snapshot (exact rollback)."""
        rng_state, self._spent, self._cursor = state
        self.rng.bit_generator.state = rng_state

    @property
    def spent(self) -> int:
        return self._spent

    @property
    def remaining(self) -> Optional[int]:
        """Budget still unspent (``None`` when unbounded)."""
        return None if self.budget is None else self.budget - self._spent

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(budget={self.budget}, spent={self._spent})"


def resolve_channel_count(spec, num_channels: int) -> int:
    """Turn an int (absolute) or float (fraction) channel spec into a count.

    Shared by strategies that accept e.g. ``channels=4`` or ``channels=0.9``.
    Fractions follow the paper's "y fraction of all channels" phrasing and are
    rounded up (jamming *at least* y-fraction).
    """
    if isinstance(spec, float):
        if not 0.0 <= spec <= 1.0:
            raise ValueError("fractional channel spec must be in [0, 1]")
        return min(num_channels, int(np.ceil(spec * num_channels)))
    count = int(spec)
    if count < 0:
        raise ValueError("channel count must be non-negative")
    return min(num_channels, count)
