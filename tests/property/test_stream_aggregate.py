"""Property tests: streaming aggregation == whole-store aggregation.

:func:`repro.exp.store.stream_aggregate` and :class:`StreamAggregator` are
the memory-bounded reduction path for sharded million-trial stores; their
contract is equality with the exact in-memory :func:`aggregate` — medians,
minima and maxima exactly, means/stds/CIs to float tolerance (the summation
order differs), counts and rates exactly — for *any* record multiset, any
arrival order, and any split of the rows across shard files (including
duplicates across files and single-row cells).  Hypothesis owns the "any".
"""

import json
import math
import os

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import Summary
from repro.exp.store import (
    METRICS,
    StreamAggregator,
    TrialRecord,
    aggregate,
    stream_aggregate,
)

CELLS = [
    ("multicast", "blanket", 16, 1000),
    ("multicast", "sweep", 16, 1000),
    ("core", "blanket", 32, 2000),
]


@st.composite
def record_sets(draw):
    """A list of trial records spread over up to three cells, with
    non-contiguous trial counts per cell (1..12) and occasional NaN-source
    metrics (dissemination_slot None on failed trials)."""
    records = []
    for cell_index, (protocol, jammer, n, budget) in enumerate(CELLS):
        trials = draw(st.integers(0, 12)) if cell_index else draw(st.integers(1, 12))
        for t in range(trials):
            success = draw(st.booleans())
            records.append(
                TrialRecord(
                    key=f"{protocol}/{jammer}/n{n}/T{budget}/s0/t{t}",
                    protocol=protocol,
                    jammer=jammer,
                    n=n,
                    budget=budget,
                    trial=t,
                    success=success,
                    slots=draw(st.integers(1, 10_000)),
                    max_cost=draw(st.integers(0, 500)),
                    mean_cost=draw(
                        st.floats(0, 1e6, allow_nan=False, allow_infinity=False)
                    ),
                    adversary_spend=draw(st.integers(0, 10_000)),
                    dissemination_slot=draw(st.integers(1, 10_000)) if success else None,
                    halted_uninformed=draw(st.integers(0, 5)),
                    periods=draw(st.integers(1, 50)),
                )
            )
    return records


def assert_cells_match(exact, streamed):
    assert len(exact) == len(streamed)
    for a, b in zip(exact, streamed):
        assert a.cell == b.cell
        assert a.trials == b.trials
        assert a.violations == b.violations
        assert math.isclose(a.success_rate, b.success_rate, abs_tol=0)
        for metric in METRICS:
            sa, sb = a.summaries[metric], b.summaries[metric]
            for field in ("mean", "std", "median", "lo", "hi", "ci95"):
                va, vb = getattr(sa, field), getattr(sb, field)
                if math.isnan(va):
                    assert math.isnan(vb), (metric, field)
                else:
                    assert math.isclose(va, vb, rel_tol=1e-9, abs_tol=1e-9), (
                        metric,
                        field,
                        va,
                        vb,
                    )


@given(record_sets(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_stream_aggregator_matches_aggregate_any_order(records, rnd):
    shuffled = list(records)
    rnd.shuffle(shuffled)
    agg = StreamAggregator()
    for record in shuffled:
        agg.add(record)
    assert len(agg) == len(records)
    assert_cells_match(aggregate(records), agg.cells())


@given(record_sets(), st.data())
@settings(max_examples=25, deadline=None)
def test_stream_aggregate_over_shard_splits(tmp_path_factory, records, data):
    """Splitting the rows across shard files at any boundary — including
    duplicating a prefix into a second file — changes nothing."""
    tmp = tmp_path_factory.mktemp("shards")
    cut = data.draw(st.integers(0, len(records)), label="shard boundary")
    dup = data.draw(st.integers(0, cut), label="duplicated prefix")
    paths = [str(tmp / "a.shard-0.jsonl"), str(tmp / "a.shard-1.jsonl")]
    with open(paths[0], "w") as fh:
        for record in records[:cut]:
            fh.write(record.to_json_line() + "\n")
    with open(paths[1], "w") as fh:
        # duplicates across files must be counted exactly once
        for record in records[:dup]:
            fh.write(record.to_json_line() + "\n")
        for record in records[cut:]:
            fh.write(record.to_json_line() + "\n")
    assert_cells_match(aggregate(records), stream_aggregate(paths))
    for path in paths:
        os.remove(path)


@given(record_sets())
@settings(max_examples=25, deadline=None)
def test_stream_aggregate_key_filter_scopes_to_a_campaign(records):
    keys = {r.key for r in records if r.protocol == "multicast"}
    expected = aggregate([r for r in records if r.key in keys])
    agg = StreamAggregator()
    for record in records:
        if record.key in keys:
            agg.add(record)
    assert_cells_match(expected, agg.cells())


def test_single_row_cell_has_zero_spread():
    record = TrialRecord(
        key="core/blanket/n32/T2000/s0/t0",
        protocol="core",
        jammer="blanket",
        n=32,
        budget=2000,
        trial=0,
        success=True,
        slots=7,
        max_cost=3,
        mean_cost=1.5,
        adversary_spend=9,
        dissemination_slot=6,
        halted_uninformed=0,
        periods=2,
    )
    agg = StreamAggregator()
    agg.add(record)
    (cell,) = agg.cells()
    assert cell.trials == 1
    summary = cell.summaries["slots"]
    assert summary.mean == summary.median == summary.lo == summary.hi == 7.0
    assert summary.std == summary.ci95 == 0.0
