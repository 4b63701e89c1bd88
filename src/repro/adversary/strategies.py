"""The jammer strategy gallery.

Each strategy is a pure function of the slot window and the jammer's private
coins (see :mod:`repro.adversary.base` for the obliviousness/budget rules).
The gallery spans the shapes the paper's lemmas quantify over plus the
strategies an actual attacker would try first:

===========================  =====================================================
strategy                     role in the reproduction
===========================  =====================================================
:class:`NoJammer`            the ``T = 0`` baseline of every theorem
:class:`BlanketJammer`       jam k channels (or a fraction) every slot until broke
:class:`FractionalJammer`    jam y-fraction of channels in x-fraction of slots —
                             the exact hypothesis of Lemmas 4.1/4.3/5.1/5.3 and
                             the blocking/non-blocking split of Definition 6.6
:class:`FrontLoadedJammer`   spend the whole budget as early as possible — the
                             worst case for the "fast shutdown after Eve stops"
                             property (EXP-FAST)
:class:`PeriodicBurstJammer` duty-cycled bursts (microwave-oven interference)
:class:`SweepJammer`         rotating contiguous channel window (sweep jammer
                             hardware from the systems literature)
:class:`RandomJammer`        i.i.d. Bernoulli channel-slots (environmental noise)
:class:`ScheduleJammer`      arbitrary precomputed mask/callable (worst cases in
                             tests; regression fixtures)
:class:`PhaseTargetedJammer` jam only inside chosen slot intervals — Eve's best
                             play against ``MultiCastAdv``: she knows the public
                             epoch/phase timetable and hits only the "good"
                             phases (j = lg n - 1, or j = lg C for the limited
                             variant)
:class:`ReplayJammer`        replays a recorded mask exactly (differential tests)
===========================  =====================================================

Sparse proposals
----------------
``MultiCastAdv`` phases use 2^j channels with unbounded j, so strategies must
never materialize a dense (K, C) mask for large C.  Every strategy here
builds a :class:`repro.sim.jam.JamBlock` directly; the number of entries it
materializes is additionally capped near the remaining budget (the base class
would truncate there anyway), so memory is O(min(budget, requested)) — never
O(K·C).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.adversary.base import ObliviousJammer, resolve_channel_count
from repro.sim.jam import JamBlock

__all__ = [
    "NoJammer",
    "BlanketJammer",
    "FractionalJammer",
    "FrontLoadedJammer",
    "PeriodicBurstJammer",
    "SweepJammer",
    "RandomJammer",
    "ScheduleJammer",
    "PhaseTargetedJammer",
    "ReplayJammer",
]

ChannelSpec = Union[int, float]

#: Use vectorized subset sampling below this channel count; Floyd's
#: algorithm above it (O(k) per row instead of O(C)).
_VECTOR_SAMPLE_LIMIT = 1 << 14


def _floyd_sample(rng: np.random.Generator, C: int, k: int) -> np.ndarray:
    """Uniform k-subset of [0, C) in O(k) time/memory (Robert Floyd, 1987)."""
    chosen = set()
    for j in range(C - k, C):
        t = int(rng.integers(0, j + 1))
        if t in chosen:
            chosen.add(j)
        else:
            chosen.add(t)
    return np.fromiter(chosen, dtype=np.int64, count=k)


def _uniform_rows_block(
    K: int, C: int, active_rows: np.ndarray, channels: np.ndarray
) -> JamBlock:
    """CSR block with the same entry count on every active row; ``channels``
    is the row-major concatenation, already sorted within rows.  Equivalent
    to :meth:`JamBlock.from_rows` minus its per-row python loop — strategy
    proposals run once per lane per kernel pass, so this constructor is on
    the hot path of every batched campaign."""
    counts = np.zeros(K, dtype=np.int64)
    counts[active_rows] = channels.size // max(1, active_rows.size)
    indptr = np.zeros(K + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return JamBlock(K, C, indptr, channels)


def _subset_block(
    rng: np.random.Generator,
    K: int,
    C: int,
    active_rows: np.ndarray,
    k: int,
    *,
    entry_cap: Optional[int] = None,
) -> JamBlock:
    """JamBlock with a fresh uniform k-subset of channels on each active row.

    ``entry_cap`` stops materializing entries shortly past the caller's
    remaining budget (the base class truncates exactly there).
    """
    if k <= 0 or active_rows.size == 0:
        return JamBlock.empty(K, C)
    if entry_cap is not None:
        max_rows = max(1, -(-int(entry_cap) // k) + 1)  # ceil + 1 row of slack
        active_rows = active_rows[:max_rows]
    nrows = active_rows.size
    if k >= C:
        return _uniform_rows_block(
            K, C, active_rows, np.tile(np.arange(C, dtype=np.int64), nrows)
        )
    if C <= _VECTOR_SAMPLE_LIMIT:
        keys = rng.random((nrows, C))
        idx = np.argpartition(keys, k - 1, axis=1)[:, :k]
        idx.sort(axis=1)
        return _uniform_rows_block(K, C, active_rows, idx.astype(np.int64).ravel())
    per_row = [np.sort(_floyd_sample(rng, C, k)) for _ in range(nrows)]
    return JamBlock.from_rows(K, C, active_rows, per_row)


def _prefix_block(
    K: int, C: int, active_rows: np.ndarray, k: int, *, entry_cap: Optional[int] = None
) -> JamBlock:
    """JamBlock jamming channels 0..k-1 on each active row."""
    if k <= 0 or active_rows.size == 0:
        return JamBlock.empty(K, C)
    if entry_cap is not None:
        max_rows = max(1, -(-int(entry_cap) // k) + 1)
        active_rows = active_rows[:max_rows]
    prefix = np.arange(min(k, C), dtype=np.int64)
    return _uniform_rows_block(
        K, C, active_rows, np.tile(prefix, active_rows.size)
    )


def _duty_cycle_rows(start_slot: int, num_slots: int, fraction: float) -> np.ndarray:
    """Exact Bresenham duty cycle: slot s active iff floor((s+1)f) > floor(sf).

    Deterministic, so the fraction is honoured over *every* window (the
    paper's lemma hypotheses are per-window, not in expectation).
    """
    if fraction <= 0.0:
        return np.empty(0, dtype=np.int64)
    s = np.arange(start_slot, start_slot + num_slots, dtype=np.int64)
    active = np.floor((s + 1) * fraction) > np.floor(s * fraction)
    return np.nonzero(active)[0]


class NoJammer(ObliviousJammer):
    """Eve is absent (T = 0)."""

    def __init__(self):
        super().__init__(budget=0)

    def propose(self, start_slot: int, num_slots: int, num_channels: int) -> JamBlock:
        return JamBlock.empty(num_slots, num_channels)


class BlanketJammer(ObliviousJammer):
    """Jam a fixed number (or fraction) of channels in every slot until broke.

    ``channels=1.0`` jams everything — on C channels this blocks all
    communication for ``budget / C`` slots, which is the strategy behind the
    trivial Omega(T/C) time lower bound the paper cites when arguing
    ``MultiCast(C)`` is near-optimal.

    Parameters
    ----------
    channels:
        int -> absolute count; float in [0, 1] -> fraction of C (ceil).
    placement:
        ``"prefix"`` jams channels ``0..k-1`` (deterministic), ``"random"``
        picks a fresh uniform subset each slot from Eve's private stream.
    """

    def __init__(
        self,
        budget: Optional[int],
        channels: ChannelSpec = 1.0,
        *,
        placement: str = "prefix",
        seed: int = 0,
    ):
        super().__init__(budget=budget, seed=seed)
        if placement not in ("prefix", "random"):
            raise ValueError("placement must be 'prefix' or 'random'")
        self.channels = channels
        self.placement = placement

    def propose(self, start_slot: int, num_slots: int, num_channels: int) -> JamBlock:
        k = resolve_channel_count(self.channels, num_channels)
        rows = np.arange(num_slots, dtype=np.int64)
        if self.placement == "prefix":
            return _prefix_block(num_slots, num_channels, rows, k, entry_cap=self.remaining)
        return _subset_block(
            self.rng, num_slots, num_channels, rows, k, entry_cap=self.remaining
        )


class FractionalJammer(ObliviousJammer):
    """Jam ``channel_fraction`` of channels during ``slot_fraction`` of slots.

    This is the canonical shape from the paper's analysis: e.g. Lemma 4.1's
    hypothesis survives any jammer below (x = 0.9 of slots, y = 0.9 of
    channels), and Definition 6.6's *blocking epoch* is exactly a window
    where Eve exceeds an (x, y) pair.  Slots follow an exact deterministic
    duty cycle; channels are a fresh random subset per active slot.
    """

    def __init__(
        self,
        budget: Optional[int],
        slot_fraction: float,
        channel_fraction: ChannelSpec,
        *,
        seed: int = 0,
    ):
        super().__init__(budget=budget, seed=seed)
        if not 0.0 <= slot_fraction <= 1.0:
            raise ValueError("slot_fraction must be in [0, 1]")
        self.slot_fraction = float(slot_fraction)
        self.channel_fraction = channel_fraction

    def propose(self, start_slot: int, num_slots: int, num_channels: int) -> JamBlock:
        k = resolve_channel_count(self.channel_fraction, num_channels)
        rows = _duty_cycle_rows(start_slot, num_slots, self.slot_fraction)
        return _subset_block(
            self.rng, num_slots, num_channels, rows, k, entry_cap=self.remaining
        )


class FrontLoadedJammer(ObliviousJammer):
    """Jam every channel of every slot until the budget runs out, then stop.

    On C channels this is total blackout for the first ``budget / C`` slots.
    After she goes broke the network is interference-free, which makes this
    the canonical workload for the paper's section-4 remark that
    ``MultiCastCore`` halts within Theta(lg T-hat) slots of Eve stopping.
    Requires a finite budget (blackout forever is not an experiment).
    """

    def __init__(self, budget: int):
        if budget is None:
            raise ValueError("FrontLoadedJammer requires a finite budget")
        super().__init__(budget=budget)

    def propose(self, start_slot: int, num_slots: int, num_channels: int) -> JamBlock:
        remaining = self.remaining
        assert remaining is not None
        rows = np.arange(num_slots, dtype=np.int64)
        return _prefix_block(
            num_slots, num_channels, rows, num_channels, entry_cap=remaining
        )


class PeriodicBurstJammer(ObliviousJammer):
    """Jam in periodic bursts: ``burst`` slots on, ``period - burst`` off.

    Models duty-cycled interferers (e.g. the paper's microwave-oven example).
    ``phase`` shifts the pattern; ``channels`` picks how much of the spectrum
    each burst covers.
    """

    def __init__(
        self,
        budget: Optional[int],
        period: int,
        burst: int,
        *,
        channels: ChannelSpec = 1.0,
        phase: int = 0,
        seed: int = 0,
    ):
        super().__init__(budget=budget, seed=seed)
        if period <= 0 or burst < 0 or burst > period:
            raise ValueError("need 0 <= burst <= period and period > 0")
        self.period = int(period)
        self.burst = int(burst)
        self.phase = int(phase)
        self.channels = channels

    def propose(self, start_slot: int, num_slots: int, num_channels: int) -> JamBlock:
        k = resolve_channel_count(self.channels, num_channels)
        s = np.arange(start_slot, start_slot + num_slots, dtype=np.int64)
        rows = np.nonzero(((s + self.phase) % self.period) < self.burst)[0]
        return _prefix_block(num_slots, num_channels, rows, k, entry_cap=self.remaining)


class SweepJammer(ObliviousJammer):
    """Jam a contiguous window of ``width`` channels that rotates every
    ``dwell`` slots (wrap-around), modelling sweep-jammer hardware."""

    def __init__(
        self,
        budget: Optional[int],
        width: int,
        *,
        dwell: int = 1,
        seed: int = 0,
    ):
        super().__init__(budget=budget, seed=seed)
        if width < 0 or dwell <= 0:
            raise ValueError("width must be >= 0 and dwell > 0")
        self.width = int(width)
        self.dwell = int(dwell)

    def propose(self, start_slot: int, num_slots: int, num_channels: int) -> JamBlock:
        w = min(self.width, num_channels)
        if w == 0:
            return JamBlock.empty(num_slots, num_channels)
        rows = np.arange(num_slots, dtype=np.int64)
        if self.remaining is not None:
            max_rows = max(1, -(-int(self.remaining) // w) + 1)
            rows = rows[:max_rows]
        s = start_slot + rows
        base = (s // self.dwell) % num_channels
        cols = (base[:, None] + np.arange(w)[None, :]) % num_channels
        cols.sort(axis=1)  # wrap-around windows need re-sorting within a row
        return _uniform_rows_block(num_slots, num_channels, rows, cols.ravel())


class RandomJammer(ObliviousJammer):
    """Jam each (slot, channel) independently with probability ``p`` —
    memoryless environmental interference.  For large C the per-slot jammed
    count is drawn Binomial(C, p) and the channels as a uniform subset, which
    is the same distribution without materializing C columns."""

    def __init__(self, budget: Optional[int], p: float, *, seed: int = 0):
        super().__init__(budget=budget, seed=seed)
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        self.p = float(p)

    def propose(self, start_slot: int, num_slots: int, num_channels: int) -> JamBlock:
        if self.p == 0.0:
            return JamBlock.empty(num_slots, num_channels)
        if num_slots * num_channels <= _VECTOR_SAMPLE_LIMIT * 8:
            return JamBlock.from_dense(
                self.rng.random((num_slots, num_channels)) < self.p
            )
        cap = self.remaining
        rows: List[int] = []
        per_row: List[np.ndarray] = []
        emitted = 0
        for t in range(num_slots):
            k = int(self.rng.binomial(num_channels, self.p))
            if k:
                rows.append(t)
                if num_channels <= _VECTOR_SAMPLE_LIMIT:
                    chans = self.rng.choice(num_channels, size=k, replace=False)
                else:
                    chans = _floyd_sample(self.rng, num_channels, k)
                per_row.append(np.sort(chans))
                emitted += k
            if cap is not None and emitted > cap:
                break
        return JamBlock.from_rows(
            num_slots, num_channels, np.array(rows, dtype=np.int64), per_row
        )


class ScheduleJammer(ObliviousJammer):
    """Jam according to an arbitrary precomputed schedule.

    ``schedule`` is either a 2-D boolean array (rows = slots from slot 0;
    slots past its end are quiet; extra/missing channel columns are
    truncated/zero-padded) or a callable ``(start, K, C) -> (K, C) bool``
    (or JamBlock) for procedurally generated worst cases.
    """

    def __init__(
        self,
        budget: Optional[int],
        schedule: Union[np.ndarray, Callable[[int, int, int], np.ndarray]],
    ):
        super().__init__(budget=budget)
        if callable(schedule):
            self._fn = schedule
            self._table = None
        else:
            table = np.asarray(schedule, dtype=bool)
            if table.ndim != 2:
                raise ValueError("schedule array must be 2-D (slots x channels)")
            self._fn = None
            self._table = table

    def propose(self, start_slot: int, num_slots: int, num_channels: int):
        if self._fn is not None:
            return self._fn(start_slot, num_slots, num_channels)
        mask = np.zeros((num_slots, num_channels), dtype=bool)
        table = self._table
        lo = min(start_slot, table.shape[0])
        hi = min(start_slot + num_slots, table.shape[0])
        if hi > lo:
            cols = min(num_channels, table.shape[1])
            mask[lo - start_slot : hi - start_slot, :cols] = table[lo:hi, :cols]
        return mask


class PhaseTargetedJammer(ObliviousJammer):
    """Jam only inside chosen slot intervals, a fraction of channels each.

    The oblivious adversary knows the protocol (paper section 3), hence its
    deterministic timetable.  Against ``MultiCastAdv`` the analysis (section
    6.1) says her best play is to concentrate on the phases where the
    channel-count guess is right (j = lg n − 1); :mod:`repro.core.schedule`
    computes those intervals, and this strategy burns the budget exactly
    there.

    Parameters
    ----------
    intervals:
        Iterable of ``(start, end)`` half-open global-slot intervals.
    channel_fraction:
        Channels to jam inside the intervals (fraction or count).
    slot_fraction:
        Duty cycle *within* the intervals (1.0 = every slot).
    """

    def __init__(
        self,
        budget: Optional[int],
        intervals: Iterable[Tuple[int, int]],
        *,
        channel_fraction: ChannelSpec = 1.0,
        slot_fraction: float = 1.0,
        seed: int = 0,
    ):
        super().__init__(budget=budget, seed=seed)
        ivals: List[Tuple[int, int]] = sorted((int(a), int(b)) for a, b in intervals)
        for (a, b) in ivals:
            if b < a:
                raise ValueError(f"interval ({a}, {b}) has negative length")
        self.intervals = ivals
        self._starts = np.array([a for a, _ in ivals], dtype=np.int64)
        self._ends = np.array([b for _, b in ivals], dtype=np.int64)
        self.channel_fraction = channel_fraction
        if not 0.0 <= slot_fraction <= 1.0:
            raise ValueError("slot_fraction must be in [0, 1]")
        self.slot_fraction = float(slot_fraction)

    def _in_interval(self, slots: np.ndarray) -> np.ndarray:
        """Vectorized membership test against the sorted interval list."""
        if self._starts.size == 0:
            return np.zeros(slots.shape, dtype=bool)
        idx = np.searchsorted(self._starts, slots, side="right") - 1
        valid = idx >= 0
        result = np.zeros(slots.shape, dtype=bool)
        result[valid] = slots[valid] < self._ends[idx[valid]]
        return result

    def propose(self, start_slot: int, num_slots: int, num_channels: int) -> JamBlock:
        k = resolve_channel_count(self.channel_fraction, num_channels)
        s = np.arange(start_slot, start_slot + num_slots, dtype=np.int64)
        active = self._in_interval(s)
        if self.slot_fraction < 1.0:
            f = self.slot_fraction
            duty = np.floor((s + 1) * f) > np.floor(s * f)
            active &= duty
        rows = np.nonzero(active)[0]
        return _subset_block(
            self.rng, num_slots, num_channels, rows, k, entry_cap=self.remaining
        )


class ReplayJammer(ObliviousJammer):
    """Replay a recorded (slots x channels) mask exactly; quiet past its end.

    Unlike :class:`ScheduleJammer`, replay insists the channel dimension
    matches, so differential tests fail loudly on protocol/channel mismatch.
    """

    def __init__(self, recorded: np.ndarray):
        table = np.asarray(recorded, dtype=bool)
        if table.ndim != 2:
            raise ValueError("recorded mask must be 2-D (slots x channels)")
        super().__init__(budget=None)
        self._table = table

    def propose(self, start_slot: int, num_slots: int, num_channels: int) -> np.ndarray:
        if self._table.shape[1] != num_channels:
            raise ValueError(
                f"replay recorded {self._table.shape[1]} channels, engine asked for {num_channels}"
            )
        mask = np.zeros((num_slots, num_channels), dtype=bool)
        lo = min(start_slot, self._table.shape[0])
        hi = min(start_slot + num_slots, self._table.shape[0])
        if hi > lo:
            mask[lo - start_slot : hi - start_slot, :] = self._table[lo:hi, :]
        return mask
