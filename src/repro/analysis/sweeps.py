"""Parameter sweeps: one trial batch per parameter value, tabulated.

A sweep is the backbone of every bench: vary T (or C, n, alpha), run a seeded
batch at each value, and collect (value, batch) pairs with convenient metric
extraction for fitting and table rendering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.analysis.stats import Summary, TrialBatch, run_trials

__all__ = ["SweepPoint", "SweepResult", "sweep"]


@dataclass
class SweepPoint:
    """One sweep coordinate: the parameter value and its trial batch."""

    value: float
    batch: TrialBatch

    def mean(self, metric: str) -> float:
        return self.batch.summary(metric).mean

    def precision(self, metric: str) -> float:
        """Relative 95% CI half-width (ci95 / |mean|) of one metric."""
        return self.batch.summary(metric).rel_ci95


@dataclass
class SweepResult:
    """All points of one sweep, in parameter order."""

    parameter: str
    points: List[SweepPoint] = field(default_factory=list)

    @property
    def values(self) -> np.ndarray:
        return np.array([p.value for p in self.points], dtype=np.float64)

    def means(self, metric: str) -> np.ndarray:
        return np.array([p.mean(metric) for p in self.points], dtype=np.float64)

    def summaries(self, metric: str) -> List[Summary]:
        return [p.batch.summary(metric) for p in self.points]

    @property
    def success_rates(self) -> np.ndarray:
        return np.array([p.batch.success_rate for p in self.points], dtype=np.float64)

    @property
    def total_violations(self) -> int:
        return sum(p.batch.violations for p in self.points)

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)


def sweep(
    parameter: str,
    values: Sequence[float],
    protocol_factory: Callable[[float], object],
    n_of: Callable[[float], int],
    adversary_factory: Optional[Callable[[float, int], object]] = None,
    *,
    trials: int = 5,
    base_seed: int = 0,
    max_slots: int = 50_000_000,
) -> SweepResult:
    """Run a batch at every parameter value.

    ``protocol_factory(v)`` builds the protocol for value ``v``;
    ``n_of(v)`` gives the network size (usually constant);
    ``adversary_factory(v, seed)`` builds Eve for value ``v``.  Each batch
    is one :func:`~repro.analysis.stats.run_trials` lane stream; process
    fan-out and precision-targeted stopping belong to campaigns
    (:func:`repro.exp.run_campaign`, DESIGN.md section 10).
    """
    result = SweepResult(parameter)
    for v in values:
        batch = run_trials(
            lambda v=v: protocol_factory(v),
            n_of(v),
            None if adversary_factory is None else (lambda seed, v=v: adversary_factory(v, seed)),
            trials=trials,
            base_seed=base_seed,
            max_slots=max_slots,
            label=f"{parameter}={v}",
        )
        result.points.append(SweepPoint(float(v), batch))
    return result
