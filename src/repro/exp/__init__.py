"""Parallel, reproducible experiment campaigns.

Monte Carlo confidence on the paper's theorem-level claims takes hundreds of
seeded trials per (protocol x jammer x n) cell; this package turns that from
a hand-rolled loop into a declarative, resumable, parallel pipeline:

1. :mod:`~repro.exp.spec` — declare the grid (:class:`CampaignSpec`) as
   JSON-friendly data; every trial's seeds derive from its identity.
2. :mod:`~repro.exp.pool` — fan per-cell *lane blocks* across worker
   processes (:func:`run_campaign`), each worker lane-batching its blocks
   and writing its own shard file; the single-process fallback is
   bit-identical to the sharded run.
3. :mod:`~repro.exp.store` — stream records to an append-only JSONL store
   (:class:`ResultStore`); re-running the same campaign resumes by skipping
   stored trial keys (after :func:`merge_shards` folds in crash leftovers);
   :func:`aggregate` reduces records to per-cell confidence intervals and
   :func:`stream_aggregate` does the same memory-bounded for million-row
   stores.
4. :mod:`~repro.exp.adaptive` — precision-targeted stopping: with
   ``ci_target`` set on the spec, each cell runs seed waves until its 95%
   CI is tight enough (or ``max_trials``), recording the decision in the
   store.

The ``python -m repro sweep`` CLI wraps exactly this pipeline;
``repro.analysis.run_trials`` runs its in-memory trial batches on the same
lane streams, in-process.  See
DESIGN.md section 3 for the architecture and EXPERIMENTS.md for the measured
record produced with it.

Example::

    from repro.exp import CampaignSpec, ResultStore, aggregate, run_campaign

    campaign = CampaignSpec(protocols=["multicast", "core"],
                            jammers=["blanket", "sweep"],
                            budget=100_000, trials=20, base_seed=1)
    records = run_campaign(campaign, ResultStore("results.jsonl"), workers=0)
    for cell in aggregate(records):
        print(cell.protocol, cell.jammer, cell.success_rate,
              cell.summary("max_cost"))
"""

from repro.exp.adaptive import AdaptiveController, StoppingRule
from repro.exp.pool import (
    CampaignInterrupted,
    default_workers,
    run_campaign,
    run_trial,
    run_trial_batch,
)
from repro.exp.registry import (
    UnknownNameError,
    build_jammer,
    build_protocol,
    canonical_jammer,
    canonical_protocol,
    is_reactive_jammer,
    jammer_names,
    oblivious_jammer_names,
    protocol_names,
    reactive_jammer_names,
)
from repro.exp.shard import merge_shards, shard_path, shard_paths
from repro.exp.spec import CampaignSpec, TrialSpec
from repro.exp.store import (
    CellStats,
    ResultStore,
    StoppingRecord,
    StoreWriteError,
    StreamAggregator,
    TrialRecord,
    aggregate,
    stream_aggregate,
)
from repro.exp.supervisor import (
    QuarantineRecord,
    RecoveryLog,
    Supervisor,
    SupervisorPolicy,
    quarantine_path,
    read_quarantine,
    remaining_quarantined,
)

__all__ = [
    "AdaptiveController",
    "CampaignInterrupted",
    "CampaignSpec",
    "CellStats",
    "QuarantineRecord",
    "RecoveryLog",
    "ResultStore",
    "StoppingRecord",
    "StoppingRule",
    "StoreWriteError",
    "StreamAggregator",
    "Supervisor",
    "SupervisorPolicy",
    "TrialRecord",
    "TrialSpec",
    "UnknownNameError",
    "aggregate",
    "build_jammer",
    "build_protocol",
    "canonical_jammer",
    "canonical_protocol",
    "default_workers",
    "is_reactive_jammer",
    "jammer_names",
    "merge_shards",
    "oblivious_jammer_names",
    "protocol_names",
    "quarantine_path",
    "reactive_jammer_names",
    "read_quarantine",
    "remaining_quarantined",
    "run_campaign",
    "run_trial",
    "run_trial_batch",
    "shard_path",
    "shard_paths",
    "stream_aggregate",
]
