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

__all__ = ["TrialBatch", "Summary", "run_trials", "summarize"]


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
    lane_width: Optional[int] = None,
) -> TrialBatch:
    """Run ``trials`` fresh executions and collect the results.

    Trials run as one lane stream
    (:func:`repro.core.batch.run_broadcast_stream`), which routes reactive
    adversaries (the adaptive arena's jammers, DESIGN.md section 7) to the
    windowed arena, so the adversary-model axis needs no call-site changes.
    Every trial's result equals the per-trial
    :func:`~repro.core.result.run_broadcast` run with the same seeds
    (DESIGN.md sections 6 and 13).  Process fan-out and adaptive stopping
    belong to campaigns (:func:`repro.exp.run_campaign`).

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
    lane_width:
        Trials per batched kernel pass (memory/throughput knob; no effect
        on results).  ``None`` (default) takes the protocol's
        :func:`repro.core.batch.stream_width`.
    """
    from repro.core.batch import run_broadcast_stream

    def adversary_for(t: int):
        if adversary_factory is None:
            return None
        return adversary_factory(derive_seed(base_seed, label, "eve", t))

    results = run_broadcast_stream(
        protocol_factory(),
        n,
        [adversary_for(t) for t in range(trials)],
        [derive_seed(base_seed, label, "net", t) for t in range(trials)],
        max_slots=max_slots,
        lane_width=lane_width,
    )
    return TrialBatch(results=results)


def summarize(batch: TrialBatch, metric: str) -> Summary:
    """Shorthand for ``batch.summary(metric)``."""
    return batch.summary(metric)
