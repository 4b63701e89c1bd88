"""Adaptive (reactive) jammers — the paper's section-8 future work.

The paper proves its guarantees for an *oblivious* Eve and conjectures that
``MultiCast``/``MultiCastAdv`` survive an *adaptive* one "with few (or even
no) modifications".  This module implements that extension so the conjecture
can be probed empirically:

* :class:`ReactiveJammer` — the adaptive interface: per slot, Eve first
  *observes* which channels carry at least one transmission (a standard
  reactive-jammer sensing model, cf. Richa et al.), then picks channels to
  jam **within the same slot**.  Budget rules are unchanged: one unit per
  jammed channel-slot.
* :class:`SniperJammer` — jam up to ``k`` of the currently busy channels
  (every unit she spends lands on a live transmission).  NOTE: within-slot
  sensing is *strictly stronger* than both the paper's oblivious model and
  its section-8 adaptive conjecture (which lets Eve react to history, not
  the current slot): empirically the sniper defeats ``MultiCast`` at ~one
  unit per transmission, demonstrating that the obliviousness/latency
  assumption is load-bearing, consistent with the rate-limited reactive
  models of Richa et al. the related-work section cites.
* :class:`TrailingJammer` — jam the channels that were busy in the previous
  slot: the honest one-slot-latency instantiation of "adaptive".  Against
  uniform per-slot rehopping this is barely better than random jamming,
  supporting the paper's conjecture that adaptivity-with-latency does not
  help Eve.
* :class:`ReactiveLatencyJammer` — the latency-parameterized family between
  those endpoints: jam up to ``k`` of the channels that were busy
  ``latency`` slots ago (``latency=0`` is the sniper's sensing power,
  ``latency=1`` the trailing jammer's).  Registered as ``reactive:<latency>``
  in :mod:`repro.exp.registry`, so campaigns can sweep the latency axis and
  locate where Eve's advantage collapses.

Adaptivity cannot be expressed through the oblivious block API (the engine
never shows Eve node behaviour — by design), so reactive jammers run on the
sensing runtimes: :class:`repro.sim.node.ScalarNetwork` (``adversary`` may
be reactive; the readable reference) and the vectorized arena of
:mod:`repro.arena` (the fast path, window-stepped for every jammer here —
benchmarked against the scalar loop in ``benchmarks/bench_arena.py``, with
campaign wiring via :mod:`repro.exp.registry` and ``python -m repro
arena``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional

import numpy as np

from repro.sim.rng import RandomFabric

__all__ = [
    "ReactiveJammer",
    "ReactiveLatencyJammer",
    "SniperJammer",
    "TrailingJammer",
]


class ReactiveJammer(ABC):
    """Adaptive per-slot jammer with sensing.

    Subclasses implement :meth:`react`; the base class enforces the budget
    exactly (channel-by-channel, like the oblivious base).
    """

    def __init__(self, budget: Optional[int] = None, seed: int = 0):
        if budget is not None and budget < 0:
            raise ValueError("budget must be non-negative")
        self.budget = None if budget is None else int(budget)
        self._seed = int(seed)
        self.rng = RandomFabric(self._seed).generator("reactive")
        self._spent = 0

    @property
    def spent(self) -> int:
        return self._spent

    @property
    def remaining(self) -> Optional[int]:
        return None if self.budget is None else self.budget - self._spent

    def reset(self) -> None:
        self.rng = RandomFabric(self._seed).generator("reactive")
        self._spent = 0

    # -- strategy hook ---------------------------------------------------------
    @abstractmethod
    def react(self, slot: int, busy: np.ndarray) -> np.ndarray:
        """Return the boolean jam mask (C,) for this slot.

        ``busy[c]`` is True iff at least one node is transmitting on channel
        ``c`` *in this slot* (within-slot sensing).  The returned mask is
        budget-clipped by the caller.
        """

    # -- window interface (block-stepped arena) --------------------------------
    @property
    def window_latency(self) -> Optional[int]:
        """Sensing latency in slots, or ``None`` when the jammer cannot be
        window-stepped.

        A value ``L >= 0`` promises that :meth:`react` depends only on the
        busy mask of slot ``t - L``, so the windowed arena driver
        (:mod:`repro.arena.window`) may resolve whole blocks of slots and
        query :meth:`jam_window` with externally-reconstructed targets —
        busy masks never depend on jamming, so even ``L == 0`` (within-slot
        sensing) targets are known before Eve answers.  ``None`` (the base
        default) marks a strategy whose sensing the driver cannot
        reconstruct, which forces slot stepping."""
        return None

    def checkpoint(self):
        """Snapshot (rng state, spent) for speculative window execution."""
        return (self.rng.bit_generator.state, self._spent)

    def restore(self, state) -> None:
        """Rewind to a :meth:`checkpoint` snapshot (exact rollback)."""
        rng_state, spent = state
        self.rng.bit_generator.state = rng_state
        self._spent = spent

    def jam_window(
        self, slot0: int, targets: np.ndarray, valid: np.ndarray
    ) -> np.ndarray:
        """Jam a window of ``W`` slots in one call, draw-for-draw identical
        to ``W`` consecutive :meth:`jam_slot` calls.

        ``targets[t]`` is the busy mask the strategy would aim at in slot
        ``slot0 + t`` (the caller reconstructs it from committed history for
        the first ``window_latency`` rows and from in-window busy masks
        after that); ``valid[t]`` is False for rows where the sensed
        snapshot does not exist or has a mismatched channel count — those
        rows jam nothing and consume no randomness, exactly like the
        per-slot warm-up/mismatch paths.

        Per-slot RNG parity, row by row in slot order: a row with exhausted
        budget, ``valid=False``, ``k == 0`` or ``hot == 0`` draws nothing;
        a row with ``0 < hot <= k`` jams the whole target without drawing;
        a row with ``hot > k`` consumes exactly one ``rng.choice``.  The
        budget is spent in row order and the first row that cannot be fully
        afforded is clipped to its first ``remaining`` hot channels in
        ascending channel order — matching :meth:`jam_slot`'s clip."""
        targets = np.asarray(targets, dtype=bool)
        valid = np.asarray(valid, dtype=bool)
        W, C = targets.shape
        masks = np.zeros((W, C), dtype=bool)
        k = int(getattr(self, "k", 0))
        if W == 0 or k == 0:
            return masks
        hot = np.where(valid, targets.sum(axis=1), 0)
        nominal = np.minimum(hot, k)
        if self.budget is None:
            cut = W
            entry_budget = 0
        else:
            remaining = self.budget - self._spent
            if remaining <= 0:
                return masks
            cum = np.cumsum(nominal)
            # rows [0, cut) fit the budget whole; row ``cut`` (if any) is
            # the per-slot path's partially-clipped slot.
            cut = int((cum <= remaining).sum())
            entry_budget = int(remaining - (cum[cut - 1] if cut else 0))
        easy = (hot[:cut] > 0) & (hot[:cut] <= k)
        masks[:cut][easy] = targets[:cut][easy]
        for t in np.nonzero(hot[:cut] > k)[0]:
            pick = self.rng.choice(np.nonzero(targets[t])[0], size=k, replace=False)
            masks[t, pick] = True
        spend = int(nominal[:cut].sum())
        if cut < W and entry_budget > 0:
            t = cut
            if hot[t] <= k:
                row = targets[t].copy()
            else:
                pick = self.rng.choice(np.nonzero(targets[t])[0], size=k, replace=False)
                row = np.zeros(C, dtype=bool)
                row[pick] = True
            pos = np.nonzero(row)[0]
            row[pos[entry_budget:]] = False
            masks[t] = row
            spend += int(row.sum())
        self._spent += spend
        return masks

    # -- runtime entry point -----------------------------------------------------
    def jam_slot(self, slot: int, busy: np.ndarray) -> np.ndarray:
        """Budget-enforced per-slot jamming (runs every slot of an arena
        execution, so it is written lean).  The returned mask may alias
        ``busy`` or internal state; callers must treat it as read-only and
        not mutate ``busy`` afterwards."""
        remaining = self.remaining
        if remaining is not None and remaining <= 0:
            return np.zeros(busy.shape, dtype=bool)
        mask = np.asarray(self.react(slot, busy), dtype=bool)
        if mask.shape != busy.shape:
            raise ValueError("react returned a mask of the wrong shape")
        spend = int(mask.sum())
        if remaining is not None and spend > remaining:
            jam_positions = np.nonzero(mask)[0]
            mask = mask.copy()
            mask[jam_positions[remaining:]] = False
            spend = remaining
        self._spent += spend
        return mask


class SniperJammer(ReactiveJammer):
    """Jam up to ``k`` currently-busy channels per slot (uniformly chosen if
    more are busy).  Every energy unit lands on a live transmission — the
    strongest per-slot adaptive play under unit costs."""

    def __init__(self, budget: Optional[int], k: int = 1, *, seed: int = 0):
        super().__init__(budget=budget, seed=seed)
        if k < 0:
            raise ValueError("k must be non-negative")
        self.k = int(k)

    @property
    def window_latency(self) -> Optional[int]:
        """0: within-slot sensing — each slot's target is its own busy mask,
        which the windowed driver computes before Eve answers."""
        return 0

    def react(self, slot: int, busy: np.ndarray) -> np.ndarray:
        return _jam_k_of(self.rng, busy, busy, self.k)


def _jam_k_of(
    rng: np.random.Generator, target: np.ndarray, shape_like: np.ndarray, k: int
) -> np.ndarray:
    """Mask jamming up to ``k`` of ``target``'s hot channels (uniform subset
    if more are hot).  When everything hot fits the budget the target mask
    itself is the answer — returned by reference (see ``jam_slot``'s
    read-only contract), which keeps the per-slot hot path at two numpy
    calls for the typical one-transmission slot."""
    if k == 0:
        return np.zeros(shape_like.shape, dtype=bool)
    hot_count = int(target.sum())
    if hot_count <= k:
        return target
    hot = rng.choice(np.nonzero(target)[0], size=k, replace=False)
    mask = np.zeros(shape_like.shape, dtype=bool)
    mask[hot] = True
    return mask


class TrailingJammer(ReactiveJammer):
    """Jam the channels that were busy in the *previous* slot (one-slot
    sensing latency).  Against uniform per-slot channel rehopping this is
    barely better than random — which is the point of measuring it."""

    def __init__(self, budget: Optional[int], k: int = 1, *, seed: int = 0):
        super().__init__(budget=budget, seed=seed)
        if k < 0:
            raise ValueError("k must be non-negative")
        self.k = int(k)
        self._last_busy: Optional[np.ndarray] = None

    @property
    def window_latency(self) -> Optional[int]:
        return 1

    def reset(self) -> None:
        super().reset()
        self._last_busy = None

    def react(self, slot: int, busy: np.ndarray) -> np.ndarray:
        prev = self._last_busy
        self._last_busy = busy.copy()
        if prev is None or prev.shape != busy.shape:
            return np.zeros(busy.shape, dtype=bool)
        return _jam_k_of(self.rng, prev, busy, self.k)


class ReactiveLatencyJammer(ReactiveJammer):
    """Jam up to ``k`` of the channels that were busy ``latency`` slots ago.

    The family interpolating between the module's two endpoints:
    ``latency=0`` senses the current slot (the sniper's within-slot power,
    strictly stronger than the paper's section-8 conjecture allows) and
    ``latency>=1`` reacts to stale information (the conjecture's regime —
    ``latency=1`` is exactly the trailing jammer).  Sweeping the latency is
    the cleanest way to measure *where* Eve's advantage collapses; the
    registry exposes this as ``reactive:<latency>``.

    A busy snapshot whose channel count differs from the current slot's
    (``MultiCastAdv`` re-sizes the spectrum between phases) is stale in a
    stronger sense and yields no jamming, like the trailing jammer's
    first-slot blindness.
    """

    def __init__(
        self, budget: Optional[int], *, latency: int = 1, k: int = 1, seed: int = 0
    ):
        super().__init__(budget=budget, seed=seed)
        if latency < 0:
            raise ValueError("latency must be non-negative")
        if k < 0:
            raise ValueError("k must be non-negative")
        self.latency = int(latency)
        self.k = int(k)
        self._history: List[np.ndarray] = []

    @property
    def window_latency(self) -> Optional[int]:
        return self.latency

    def reset(self) -> None:
        super().reset()
        self._history = []

    def react(self, slot: int, busy: np.ndarray) -> np.ndarray:
        if self.latency == 0:
            return _jam_k_of(self.rng, busy, busy, self.k)
        history = self._history
        history.append(busy.copy())
        if len(history) <= self.latency:
            return np.zeros(busy.shape, dtype=bool)
        target = history.pop(0)
        if target.shape != busy.shape:
            return np.zeros(busy.shape, dtype=bool)
        return _jam_k_of(self.rng, target, busy, self.k)
