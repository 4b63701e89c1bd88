"""Seeded trial batches and summary statistics.

The paper's guarantees are "with high probability" statements; at laptop
scale we measure success *rates* and cost/time distributions over many
independently seeded executions.  :func:`run_trials` is the single entry
point: protocol and adversary are built fresh per trial from factories so no
state leaks between trials, and every trial is reproducible from
``(base_seed, trial_index)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.result import BroadcastResult
from repro.sim.rng import derive_seed

__all__ = ["TrialBatch", "Summary", "RunningStat", "run_trials", "summarize"]


@dataclass
class Summary:
    """Five-number-ish summary of one metric over a trial batch."""

    mean: float
    std: float
    median: float
    lo: float  #: min
    hi: float  #: max
    ci95: float  #: 1.96 * std / sqrt(k) — half-width of the normal 95% CI

    @classmethod
    def of(cls, values: Sequence[float]) -> "Summary":
        arr = np.asarray(values, dtype=np.float64)
        if arr.size == 0:
            nan = float("nan")
            return cls(nan, nan, nan, nan, nan, nan)
        std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
        return cls(
            mean=float(arr.mean()),
            std=std,
            median=float(np.median(arr)),
            lo=float(arr.min()),
            hi=float(arr.max()),
            ci95=1.96 * std / math.sqrt(arr.size),
        )

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"{self.mean:.4g} ± {self.ci95:.2g}"

    @property
    def rel_ci95(self) -> float:
        """ci95 / |mean| — the relative precision adaptive stopping targets.

        0/0 (a constant-zero metric) counts as perfectly precise; any other
        zero-mean spread is infinitely imprecise.  NaN propagates, so a cell
        with undefined values (e.g. ``dissemination_slot`` of failed trials)
        can never satisfy a precision target by accident.
        """
        if math.isnan(self.mean) or math.isnan(self.ci95):
            return float("nan")
        if self.mean == 0.0:
            return 0.0 if self.ci95 == 0.0 else float("inf")
        return self.ci95 / abs(self.mean)


class RunningStat:
    """Welford online accumulator: mean/std/ci95/min/max in O(1) memory.

    The streaming counterpart of :meth:`Summary.of` for pipelines that must
    not hold the value vector — shard merges, million-row store reductions,
    per-cell precision tracking during adaptive stopping.  Mean and variance
    match the batch computation to float tolerance (the update order differs
    from NumPy's pairwise summation in the last ulps); the median is *not*
    tracked (exact streaming medians need the values), so :meth:`summary`
    reports it as NaN.  Exact-median streaming aggregation lives in
    :class:`repro.exp.store.StreamAggregator`, which keeps compact per-cell
    value buffers instead.
    """

    __slots__ = ("count", "mean", "_m2", "lo", "hi", "_nan")

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.lo = float("inf")
        self.hi = float("-inf")
        self._nan = 0

    def push(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            # one NaN poisons the batch statistics; mirror that
            self._nan += 1
            self.count += 1
            return
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        self.lo = min(self.lo, value)
        self.hi = max(self.hi, value)

    def extend(self, values: Sequence[float]) -> "RunningStat":
        for v in values:
            self.push(v)
        return self

    @property
    def std(self) -> float:
        if self._nan:
            return float("nan")
        if self.count < 2:
            return 0.0 if self.count else float("nan")
        return math.sqrt(self._m2 / (self.count - 1))

    @property
    def ci95(self) -> float:
        if not self.count:
            return float("nan")
        return 1.96 * self.std / math.sqrt(self.count)

    def summary(self) -> Summary:
        """The :class:`Summary` of everything pushed so far (median = NaN)."""
        nan = float("nan")
        if not self.count:
            return Summary(nan, nan, nan, nan, nan, nan)
        if self._nan:
            return Summary(nan, nan, nan, nan, nan, nan)
        return Summary(
            mean=self.mean, std=self.std, median=nan, lo=self.lo, hi=self.hi,
            ci95=self.ci95,
        )


@dataclass
class TrialBatch:
    """Results of k independent executions of one configuration."""

    results: List[BroadcastResult] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.results)

    # -- vectors ------------------------------------------------------------------
    @property
    def slots(self) -> np.ndarray:
        return np.array([r.slots for r in self.results], dtype=np.float64)

    @property
    def max_cost(self) -> np.ndarray:
        return np.array([r.max_cost for r in self.results], dtype=np.float64)

    @property
    def mean_cost(self) -> np.ndarray:
        return np.array([r.mean_cost for r in self.results], dtype=np.float64)

    @property
    def adversary_spend(self) -> np.ndarray:
        return np.array([r.adversary_spend for r in self.results], dtype=np.float64)

    @property
    def dissemination_slots(self) -> np.ndarray:
        """Slot of full dissemination per trial (NaN where incomplete)."""
        return np.array(
            [
                float("nan") if r.dissemination_slot is None else r.dissemination_slot
                for r in self.results
            ],
            dtype=np.float64,
        )

    # -- aggregates ---------------------------------------------------------------
    @property
    def success_rate(self) -> float:
        return sum(r.success for r in self.results) / max(1, len(self.results))

    @property
    def violations(self) -> int:
        """Total halted-while-uninformed nodes across the batch."""
        return sum(r.halted_uninformed for r in self.results)

    def summary(self, metric: str) -> Summary:
        return Summary.of(getattr(self, metric))


def run_trials(
    protocol_factory: Callable[[], object],
    n: int,
    adversary_factory: Optional[Callable[[int], object]] = None,
    *,
    trials: int = 10,
    base_seed: int = 0,
    max_slots: int = 50_000_000,
    label: str = "",
    workers: int = 1,
    lane_width: Optional[int] = None,
    first_trial: int = 0,
) -> TrialBatch:
    """Run ``trials`` fresh executions and collect the results.

    Trials run through the lane engine
    (:func:`repro.core.batch.run_broadcast_stream`), which routes reactive
    adversaries (the adaptive arena's jammers, DESIGN.md section 7) to the
    windowed arena, so the adversary-model axis needs no call-site changes.
    Every trial's result equals the per-trial
    :func:`~repro.core.result.run_broadcast` run with the same seeds
    (DESIGN.md sections 6 and 13).

    Parameters
    ----------
    protocol_factory:
        Zero-argument callable building a fresh protocol object (cheap; the
        protocol classes are stateless across runs, but a factory keeps the
        contract obvious).
    adversary_factory:
        Callable ``seed -> adversary`` (or ``None`` for no jamming).  Each
        trial gets a derived, independent adversary seed.
    trials, base_seed:
        Batch size and root seed; trial t runs with node seed
        ``derive_seed(base_seed, label, "net", t)``.
    workers:
        Process count: ``workers > 1`` splits the trials into contiguous
        slices, one lane stream per slice, fanned out with
        :func:`repro.exp.pool.fork_map`.  Every trial's seeds derive from
        ``(base_seed, label, t)`` alone and results come back in trial
        order, so any worker count produces the identical batch.
    lane_width:
        Trials per batched kernel pass (memory/throughput knob; no effect
        on results).  ``None`` (default) takes the protocol's
        :func:`repro.core.batch.stream_width`.
    first_trial:
        Index of the first trial to run: the batch covers trial indices
        ``[first_trial, first_trial + trials)``.  Because every trial's
        seeds derive from its *index*, running ``trials=10`` equals running
        ``trials=5`` followed by ``trials=5, first_trial=5`` — the
        seed-wave primitive adaptive stopping is built on
        (:mod:`repro.exp.adaptive`).
    """
    from repro.core.batch import run_broadcast_stream

    def adversary_for(t: int):
        if adversary_factory is None:
            return None
        return adversary_factory(derive_seed(base_seed, label, "eve", t))

    def stream(trial_ids: range) -> list:
        return run_broadcast_stream(
            protocol_factory(),
            n,
            [adversary_for(t) for t in trial_ids],
            [derive_seed(base_seed, label, "net", t) for t in trial_ids],
            max_slots=max_slots,
            lane_width=lane_width,
        )

    stop = first_trial + trials
    if workers <= 1 or trials < 2:
        return TrialBatch(results=stream(range(first_trial, stop)))
    from repro.exp.pool import fork_map  # local: repro.exp.store imports Summary

    size = -(-trials // min(workers, trials))
    slices = [range(lo, min(lo + size, stop)) for lo in range(first_trial, stop, size)]
    parts = fork_map(stream, slices, workers=workers)
    return TrialBatch(results=[r for part in parts for r in part])


def summarize(batch: TrialBatch, metric: str) -> Summary:
    """Shorthand for ``batch.summary(metric)``."""
    return batch.summary(metric)
