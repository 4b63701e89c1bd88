"""Append-only JSONL result store with campaign resumption and aggregation.

One line per completed trial, flushed as soon as the trial finishes, so a
campaign killed at any point (SIGINT, OOM, power) loses at most the trials in
flight.  Re-running the same campaign against the same store skips every key
already present (:meth:`ResultStore.completed_keys`), which is the whole
resumption story — there is no separate checkpoint format.

Two record kinds share the file: trial records (one line per execution, no
``kind`` field — the committed stores predate the distinction) and adaptive
*stopping* records (``"kind": "stopping"``, one line per cell that an
adaptive campaign decided was precise enough; see :mod:`repro.exp.adaptive`).
:meth:`ResultStore.records` returns trials only; stopping decisions come
back via :meth:`ResultStore.stopping_records`.

Aggregation groups records by cell (protocol, jammer, n, budget) and reduces
each metric with the :class:`repro.analysis.stats.Summary` confidence-interval
helper.  Records are sorted by trial key before aggregating, so the numbers
are byte-identical whatever order the workers finished in.  Two reduction
paths share that grouping:

* :func:`aggregate` — the exact in-memory path the report layer uses on the
  committed (thousands-of-rows) stores;
* :func:`stream_aggregate` / :class:`StreamAggregator` — the memory-bounded
  path for sharded million-trial stores: records stream off disk one line at
  a time into compact per-cell ``float64`` buffers (~40 bytes/row instead of
  a ~2 KB materialized record), so quantiles stay *exact* while peak memory
  stays a small constant factor of the numeric payload.  Equal to
  :func:`aggregate` to float tolerance (summation order may differ), and
  pinned by ``tests/property/test_stream_aggregate.py``.

Crash tolerance: a worker killed mid-write can leave one truncated JSON line
at a shard's tail; readers skip undecodable lines rather than refuse the
whole store (the interrupted trial simply re-runs on resume).  Rows written
by this version additionally carry a CRC32 checksum field (``cs``) computed
over everything except ``wall_time`` — the one run-varying field — so silent
bit-rot is rejected *loudly* on read (:func:`row_intact`) instead of being
ingested, while logically identical rows keep identical checksums across
runs and worker counts.  Rows without ``cs`` (the committed stores predate
it) are accepted unchanged.  Write failures surface as
:class:`StoreWriteError` with an operator-actionable message (notably
ENOSPC).  See DESIGN.md section 14.
"""

from __future__ import annotations

import errno
import json
import os
import sys
import zlib
from array import array
from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, Iterator, List, Optional, Set, TextIO, Tuple, Union

import numpy as np

from repro.analysis.stats import Summary
from repro.core.result import BroadcastResult
from repro.exp.spec import TrialSpec

__all__ = [
    "TrialRecord",
    "StoppingRecord",
    "ResultStore",
    "CellStats",
    "StoreWriteError",
    "StreamAggregator",
    "aggregate",
    "append_jsonl_line",
    "checksummed_line",
    "iter_jsonl_records",
    "row_intact",
    "stream_aggregate",
    "cells_where",
]

#: Scalar metrics copied off a BroadcastResult into each record, and offered
#: for aggregation by name.  ``dissemination_slot`` is None on failed trials
#: and aggregates as NaN.
METRICS = ("slots", "max_cost", "mean_cost", "adversary_spend", "dissemination_slot")


class StoreWriteError(OSError):
    """A store/shard/ledger append failed; the message says what to do next."""


def _raise_write_error(path: str, exc: OSError) -> "StoreWriteError":
    if exc.errno == errno.ENOSPC:
        err = StoreWriteError(
            f"disk full (ENOSPC) while appending to {path}; rows already "
            f"flushed are safe — free space and re-run the same command to "
            f"resume"
        )
    else:
        err = StoreWriteError(f"cannot append to {path}: {exc}")
    err.errno = exc.errno
    raise err from exc


def _row_checksum(body: dict) -> str:
    return format(zlib.crc32(json.dumps(body, sort_keys=True).encode()), "08x")


def checksummed_line(payload: dict) -> str:
    """Serialize ``payload`` as a canonical JSONL row carrying a ``cs``
    CRC32 field.

    The checksum covers every field except ``wall_time`` (the one physical,
    run-varying field of a trial row) and ``cs`` itself, so two runs that
    agree on everything-but-wall_time emit identical checksums — the
    byte-comparison contracts (``REPRO_ZERO_WALL``, shard equivalence, the
    telemetry never-in-trial-rows gate) hold unchanged.
    """
    body = {k: v for k, v in payload.items() if k not in ("cs", "wall_time")}
    return json.dumps({**payload, "cs": _row_checksum(body)}, sort_keys=True)


def row_intact(data: dict) -> bool:
    """Pop and verify a decoded row's ``cs`` checksum.

    Rows without one (the committed stores predate checksums) pass; a
    mismatch means the payload changed after it was checksummed — bit-rot,
    a torn rewrite, or a hand edit — and the row must not be ingested.
    """
    cs = data.pop("cs", None)
    if cs is None:
        return True
    return cs == _row_checksum({k: v for k, v in data.items() if k != "wall_time"})


def append_jsonl_line(path: str, line: str) -> None:
    """Append one line to a JSONL file (open/write/flush/close), wrapping
    write failures in :class:`StoreWriteError` — the hardened primitive the
    quarantine ledger uses."""
    try:
        with open(path, "a") as fh:
            fh.write(line + "\n")
            fh.flush()
    except OSError as exc:
        _raise_write_error(path, exc)


@dataclass
class TrialRecord:
    """Scalar outcome of one trial, JSONL-serializable.

    Full per-node arrays stay in memory with the live ``BroadcastResult``;
    the store keeps only the scalars every aggregate and table needs, so a
    thousand-trial campaign is a few hundred KB of JSONL, not a pickle dump.
    """

    key: str
    protocol: str
    jammer: str
    n: int
    budget: int
    trial: int
    success: bool
    slots: int
    max_cost: int
    mean_cost: float
    adversary_spend: int
    dissemination_slot: Optional[int]
    halted_uninformed: int
    periods: int
    channels: Optional[int] = None  #: C of the channel-limited variants
    protocol_label: str = ""  #: the protocol object's self-description
    wall_time: float = 0.0  #: seconds of wall clock this trial took

    @classmethod
    def from_result(
        cls, spec: TrialSpec, result: BroadcastResult, *, wall_time: float = 0.0
    ) -> "TrialRecord":
        return cls(
            key=spec.key(),
            protocol=spec.protocol,
            jammer=spec.jammer,
            n=spec.n,
            budget=spec.budget,
            trial=spec.trial,
            success=bool(result.success),
            slots=int(result.slots),
            max_cost=int(result.max_cost),
            mean_cost=float(result.mean_cost),
            adversary_spend=int(result.adversary_spend),
            dissemination_slot=result.dissemination_slot,
            halted_uninformed=int(result.halted_uninformed),
            periods=int(result.periods),
            channels=spec.channels,
            protocol_label=str(result.protocol),
            wall_time=float(wall_time),
        )

    @property
    def cell(self) -> Tuple[str, str, int, int, Optional[int]]:
        return (self.protocol, self.jammer, self.n, self.budget, self.channels)

    def to_json_line(self) -> str:
        return checksummed_line({name: getattr(self, name) for name in self._FIELDS})

    @classmethod
    def from_dict(cls, data: dict) -> "TrialRecord":
        return cls(**data)


@dataclass
class StoppingRecord:
    """An adaptive campaign's per-cell stopping decision, JSONL-serializable.

    One line per cell the scheduler declared done — either the CI target was
    hit (``reason == "ci-target"``) or the seed cap was (``"max-trials"``).
    The key embeds the stopping rule, so re-running the same store under a
    *different* target records a fresh decision instead of trusting a stale
    one, while the trial rows themselves are shared across rules.
    """

    key: str
    protocol: str
    jammer: str
    n: int
    budget: int
    metric: str  #: the metric the CI target applies to
    target: float  #: requested relative 95% CI half-width (ci95 / |mean|)
    achieved: float  #: relative half-width at the stopping decision
    mean: float  #: the metric's mean over the trials used
    trials: int  #: seeds consumed when the cell stopped
    reason: str  #: "ci-target" | "max-trials"
    channels: Optional[int] = None
    kind: str = "stopping"  #: line discriminator (trial records carry none)

    @property
    def cell(self) -> Tuple[str, str, int, int, Optional[int]]:
        return (self.protocol, self.jammer, self.n, self.budget, self.channels)

    def to_json_line(self) -> str:
        return checksummed_line({name: getattr(self, name) for name in self._FIELDS})

    @classmethod
    def from_dict(cls, data: dict) -> "StoppingRecord":
        return cls(**data)


# Row payloads are built from these names: every field is a scalar, so
# ``dataclasses.asdict``'s recursive deep copy (about half of a row's
# serialization cost) would build the same dict.
TrialRecord._FIELDS = tuple(f.name for f in fields(TrialRecord))
StoppingRecord._FIELDS = tuple(f.name for f in fields(StoppingRecord))


def iter_jsonl_records(
    path: str,
) -> Iterator[Union[TrialRecord, StoppingRecord]]:
    """Stream one store file without materializing it: yield each decodable
    line as a :class:`TrialRecord` or :class:`StoppingRecord`.

    Blank lines are skipped silently.  Truncated/undecodable lines (a
    SIGKILLed worker can leave half a line at a shard's tail) and rows whose
    ``cs`` checksum no longer matches their payload (:func:`row_intact`) are
    skipped *loudly* — one stderr line naming the file, line number, and
    reason, plus a telemetry counter when a recorder is active — and the
    trial they belonged to simply re-runs on resume.  Duplicate keys are
    *not* filtered here: single-file stores never contain them, and
    cross-file dedupe belongs to the caller (:func:`stream_aggregate`,
    :func:`repro.exp.shard.merge_shards`) which must track keys across
    files anyway.
    """
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError:
                _warn_skipped_row(path, lineno, "undecodable JSON (torn write)")
                continue
            if not row_intact(data):
                _warn_skipped_row(path, lineno, "checksum mismatch (corrupt row)")
                continue
            if data.get("kind") == "stopping":
                yield StoppingRecord.from_dict(data)
            else:
                yield TrialRecord.from_dict(data)


def _warn_skipped_row(path: str, lineno: int, reason: str) -> None:
    """Loud-skip notice: the row is dropped, its trial re-runs on resume."""
    print(
        f"store: skipping {path}:{lineno} — {reason}; its trial re-runs on "
        f"resume",
        file=sys.stderr,
    )
    # imported here, not at module top: obs depends on nothing, but keeping
    # store importable without obs preserves the layering for tools that
    # vendor the store alone
    from repro.obs.recorder import active as _obs_active

    tel = _obs_active()
    if tel is not None:
        tel.count(
            "store.corrupt_rows" if "checksum" in reason else "store.torn_rows"
        )


class ResultStore:
    """JSONL records at ``path``; append-only, safe to re-open mid-campaign.

    ``materialize=True`` (default) keeps every trial record in memory — the
    right mode for committed-record-sized stores, and what
    :meth:`records` serves from.  ``materialize=False`` keeps only the key
    set (the resume skip-set) plus the stopping records (one per cell):
    appends still persist and dedupe, but :meth:`records` refuses to run —
    reduce such stores with :func:`stream_aggregate` instead, which is the
    point of the mode (a 10^6-row store never loads whole; DESIGN.md
    section 10).
    """

    def __init__(self, path: Optional[str], *, materialize: bool = True):
        if path is None and not materialize:
            raise ValueError("a memory-only store cannot be non-materialized")
        self.path = path
        self.materialize = materialize
        self._records: List[TrialRecord] = []
        self._stopping: List[StoppingRecord] = []
        self._keys: Set[str] = set()
        self._stop_keys: Set[str] = set()
        self._fh: Optional[TextIO] = None
        if path is not None and os.path.exists(path):
            for record in iter_jsonl_records(path):
                self._remember(record)

    def _remember(self, record: Union[TrialRecord, StoppingRecord]) -> None:
        if isinstance(record, StoppingRecord):
            if record.key not in self._stop_keys:
                self._stop_keys.add(record.key)
                self._stopping.append(record)
            return
        if record.key not in self._keys:
            self._keys.add(record.key)
            if self.materialize:
                self._records.append(record)

    def append(self, record: TrialRecord) -> None:
        """Persist one trial record immediately (line-buffered, flushed)."""
        if record.key in self._keys:
            return
        self._remember(record)
        self._write_line(record.to_json_line())

    def append_stopping(self, record: StoppingRecord) -> None:
        """Persist one stopping decision (idempotent per stopping key)."""
        if record.key in self._stop_keys:
            return
        self._remember(record)
        self._write_line(record.to_json_line())

    def _write_line(self, line: str) -> None:
        if self.path is None:
            return
        try:
            if self._fh is None:
                self._fh = open(self.path, "a")
            self._fh.write(line + "\n")
            self._fh.flush()
        except OSError as exc:
            _raise_write_error(self.path, exc)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def completed_keys(self) -> Set[str]:
        """Keys of every trial already on disk (the resume skip-set)."""
        return set(self._keys)

    def stopping_keys(self) -> Set[str]:
        """Keys of every recorded stopping decision."""
        return set(self._stop_keys)

    def records(self) -> List[TrialRecord]:
        """All trial records, sorted by key for order-independent aggregation."""
        if not self.materialize:
            raise RuntimeError(
                "records() would materialize a streaming store — use "
                "iter_records() / stream_aggregate() on it instead"
            )
        return sorted(self._records, key=lambda r: r.key)

    def iter_records(self) -> Iterator[TrialRecord]:
        """Stream the trial records (unsorted); works in either mode."""
        if self.materialize or self.path is None:
            yield from self._records
            return
        for record in iter_jsonl_records(self.path):
            if isinstance(record, TrialRecord):
                yield record

    def stopping_records(self) -> List[StoppingRecord]:
        """All stopping decisions, sorted by key (always materialized —
        there is at most one per cell per rule)."""
        return sorted(self._stopping, key=lambda r: r.key)

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: str) -> bool:
        return key in self._keys


@dataclass
class CellStats:
    """Aggregate statistics of one (protocol, jammer, n, budget, C) cell."""

    protocol: str
    jammer: str
    n: int
    budget: int
    trials: int
    success_rate: float
    violations: int  #: halted-while-uninformed nodes, summed over trials
    channels: Optional[int] = None  #: C of the channel-limited variants
    summaries: Dict[str, Summary] = field(default_factory=dict)

    @property
    def cell(self) -> Tuple[str, str, int, int, Optional[int]]:
        return (self.protocol, self.jammer, self.n, self.budget, self.channels)

    def summary(self, metric: str) -> Summary:
        return self.summaries[metric]

    def precision(self, metric: str) -> float:
        """Relative 95% CI half-width (ci95 / |mean|) of one metric — what
        adaptive stopping targets and the report's precision column shows."""
        return self.summaries[metric].rel_ci95

    @property
    def competitiveness(self) -> float:
        """mean(max_cost) / mean(adversary_spend) — < 1 means Eve outspends."""
        spend = self.summaries["adversary_spend"].mean
        if spend == 0:
            return float("inf")
        return self.summaries["max_cost"].mean / spend


def cells_where(cells: List[CellStats], **filters) -> List[CellStats]:
    """Cells whose attributes equal every given filter, original order kept.

    The report layer slices one store many ways (one protocol's budget
    series, one n's jammer rows); keyword equality on :class:`CellStats`
    attributes covers all of them without each caller re-writing the loop.
    """
    out = []
    for cell in cells:
        if all(getattr(cell, field) == value for field, value in filters.items()):
            out.append(cell)
    return out


def aggregate(records: List[TrialRecord]) -> List[CellStats]:
    """Reduce trial records to per-cell stats, in deterministic cell order.

    Records are sorted by key before a :class:`StreamAggregator` folds
    them, so each cell's values arrive in key order and the output is
    identical for any arrival order — parallel, serial, or resumed — of the
    same trial set.
    """
    agg = StreamAggregator()
    for record in sorted(records, key=lambda r: r.key):
        agg.add(record)
    return agg.cells()


# -- streaming (memory-bounded) aggregation ---------------------------------------


class _CellAccumulator:
    """Compact per-cell state: counters plus one float64 buffer per metric.

    ``array('d')`` grows amortized and stores raw doubles — 8 bytes per value
    against the ~2 KB a materialized :class:`TrialRecord` costs — which is
    what keeps exact quantiles affordable at 10^6 rows (the buffers *are*
    the values, so :meth:`Summary.of` runs on them unchanged).
    """

    __slots__ = ("count", "successes", "violations", "values")

    def __init__(self):
        self.count = 0
        self.successes = 0
        self.violations = 0
        self.values = {metric: array("d") for metric in METRICS}


class StreamAggregator:
    """The one reduction: feed records one at a time, then :meth:`cells`.

    :func:`aggregate` feeds it key-sorted records; :func:`stream_aggregate`
    feeds it rows in file order, which equals :func:`aggregate` to float
    tolerance — summation order moves means and standard deviations by
    last-ulp amounts; medians, minima and maxima are exact.  Peak memory is
    the per-cell numeric payload (8 bytes x rows x metrics) plus the key set
    the caller keeps for dedupe, never the materialized records.
    """

    def __init__(self):
        self._cells: Dict[Tuple, _CellAccumulator] = {}

    def add(self, record: TrialRecord) -> None:
        acc = self._cells.get(record.cell)
        if acc is None:
            acc = self._cells[record.cell] = _CellAccumulator()
        acc.count += 1
        acc.successes += bool(record.success)
        acc.violations += record.halted_uninformed
        for metric, buf in acc.values.items():
            value = getattr(record, metric)
            buf.append(float("nan") if value is None else float(value))

    def __len__(self) -> int:
        return sum(acc.count for acc in self._cells.values())

    def cells(self) -> List[CellStats]:
        """The per-cell statistics so far, in :func:`aggregate`'s cell order."""
        out = []
        for cell in sorted(
            self._cells, key=lambda c: tuple(-1 if x is None else x for x in c)
        ):
            acc = self._cells[cell]
            summaries = {
                metric: Summary.of(np.frombuffer(buf, dtype=np.float64))
                for metric, buf in acc.values.items()
            }
            out.append(
                CellStats(
                    protocol=cell[0],
                    jammer=cell[1],
                    n=cell[2],
                    budget=cell[3],
                    channels=cell[4],
                    trials=acc.count,
                    success_rate=acc.successes / acc.count,
                    violations=acc.violations,
                    summaries=summaries,
                )
            )
        return out


def stream_aggregate(
    source: Union[str, ResultStore, Iterable[str]],
    *,
    keys: Optional[Set[str]] = None,
) -> List[CellStats]:
    """Reduce one store — or several shard files — without materializing it.

    ``source`` may be a store path, an opened :class:`ResultStore` (either
    mode), or an iterable of paths (e.g. a main store plus its unmerged
    shards).  Records stream through a :class:`StreamAggregator`; duplicate
    keys across files are counted once (first occurrence wins, matching
    :func:`repro.exp.shard.merge_shards`); stopping records are skipped.
    ``keys`` restricts the reduction to the given trial keys — the way a
    caller scopes a shared store down to one campaign.

    A *single* file needs no cross-file dedupe (the store dedupes by key on
    append), so the one-path case keeps no key set at all — peak memory is
    just the per-cell numeric buffers, which is what makes reducing a
    10^6-row store affordable (measured in ``benchmarks/bench_shard.py``).
    """
    if isinstance(source, ResultStore):
        paths: List[str] = []
        streams: Iterable[TrialRecord] = source.iter_records()
    elif isinstance(source, str):
        paths = [source]
        streams = None
    else:
        paths = list(source)
        streams = None
    agg = StreamAggregator()
    if streams is not None:
        for record in streams:
            if keys is not None and record.key not in keys:
                continue
            agg.add(record)
        return agg.cells()
    dedupe = len(paths) > 1
    seen: Set[str] = set()
    for path in paths:
        if not os.path.exists(path):
            continue
        for record in iter_jsonl_records(path):
            if isinstance(record, StoppingRecord):
                continue
            if dedupe:
                if record.key in seen:
                    continue
                seen.add(record.key)
            if keys is not None and record.key not in keys:
                continue
            agg.add(record)
    return agg.cells()
