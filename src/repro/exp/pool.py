"""Parallel trial execution: fan a campaign's trials out across processes.

Every execution path shares one contract — *identical results to a serial
loop* — because a trial's randomness derives from its spec, never from which
worker ran it or when:

* :func:`run_campaign` runs :class:`~repro.exp.spec.CampaignSpec` trials
  as lane streams (:func:`run_trial_batch`), either in-process
  (``workers=1`` — the determinism-test fallback) or *sharded* across a
  ``ProcessPoolExecutor``: pending trials are split into per-cell lane
  blocks of ``STREAM_BLOCK_FACTOR * stream_width`` trials (at most a
  cell's share of the workers), each worker runs its blocks as
  continuously-refilled lane streams (compaction/refill, DESIGN.md
  section 13) and appends the finished records to its own
  ``<store>.shard-<k>.jsonl`` (single-writer per file, flushed per block),
  and the parent folds the shards back into the main store with a
  deterministic key-sorted merge (:func:`repro.exp.shard.merge_shards`).
  The merged store is row-for-row identical (up to canonical sort and
  ``wall_time``) to the ``workers=1`` run — ``tests/exp/
  test_shard_equivalence.py`` pins that across worker counts.
* Adaptive campaigns (``ci_target`` set) run seed *waves* through the same
  machinery under :class:`repro.exp.adaptive.AdaptiveController`, recording
  one stopping decision per cell in the store.

Crash discipline: workers ignore SIGINT and SIGTERM; the parent catches the
first of either (SIGTERM is re-raised as ``KeyboardInterrupt`` for the
duration of a campaign, so container/CI termination gets the same resumable
exit), cancels the queued blocks, and raises :class:`CampaignInterrupted` —
blocks already running finish flushing into their shards.  A worker killed
outright (SIGKILL, OOM) surfaces as ``BrokenProcessPool`` and is *survived*:
the :class:`~repro.exp.supervisor.Supervisor` respawns the pool, retries
failing blocks with backoff, quarantines poison trials, and degrades to
serial execution if pools keep dying — all without changing a single result
byte (DESIGN.md section 14).  The next ``run_campaign`` against the same
store begins by merging leftover shards, so every completed trial is kept
exactly once and only genuinely-lost trials re-run.  See DESIGN.md
section 10.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set

from repro.core.batch import (
    FallbackNotes,
    collect_fallback_notes,
    run_broadcast_stream,
    stream_width,
)
from repro.core.result import run_broadcast
from repro.exp.adaptive import AdaptiveController
from repro.exp.registry import build_jammer, build_protocol
from repro.exp.shard import merge_shards, shard_append, shard_path
from repro.exp.spec import CampaignSpec, TrialSpec
from repro.exp.store import ResultStore, TrialRecord
from repro.exp.supervisor import RecoveryLog, Supervisor, SupervisorPolicy
from repro.faults.inject import (
    active as _faults_active,
    injector_from_env as _injector_from_env,
    install as _faults_install,
)
from repro.obs.merge import merge_telemetry_shards, telemetry_shard_path
from repro.obs.recorder import (
    Telemetry,
    _install as _obs_install,
    active as _obs_active,
    collect_telemetry,
    telemetry_path,
)

__all__ = [
    "CampaignInterrupted",
    "ProgressCallback",
    "run_trial",
    "run_trial_batch",
    "run_campaign",
    "default_workers",
]

#: Trials per lane slot in a sharded worker's block (``_lane_blocks``):
#: blocks carry up to ``STREAM_BLOCK_FACTOR * stream_width`` trials so the
#: worker's lane stream has a pending queue to refill from — a freed slot
#: picks up the next trial instead of waiting for the block's straggler.
#: A cell's share of the workers caps it (``ceil(cell trials / workers)``),
#: so a wide block never holds a cell's trials on one worker while another
#: idles.
STREAM_BLOCK_FACTOR = 4

#: ``progress(done, total, record)`` — called after each newly completed
#: trial; ``done``/``total`` count this invocation's pending trials only.
ProgressCallback = Callable[[int, int, TrialRecord], None]


class CampaignInterrupted(KeyboardInterrupt):
    """SIGINT landed mid-campaign; completed trials are already in the store."""

    def __init__(self, done: int, total: int):
        self.done = done
        self.total = total
        super().__init__(f"campaign interrupted after {done}/{total} pending trials")


def default_workers() -> int:
    """Worker count for ``workers=0`` (auto): the CPU count, floor 1."""
    return max(1, os.cpu_count() or 1)


#: Deterministic-wall-time hook: with this env var set, every TrialRecord's
#: ``wall_time`` is stamped 0.0.  ``wall_time`` is the one physical
#: (non-derived) field in a trial row; zeroing it makes whole stores
#: byte-comparable across runs and worker counts — which is exactly how the
#: telemetry never-in-trial-rows contract is enforced
#: (``tests/obs/test_determinism.py``).  Environment variables survive both
#: fork and spawn, so the stamp is consistent across sharded workers.
ZERO_WALL_ENV = "REPRO_ZERO_WALL"


def _wall(seconds: float) -> float:
    return 0.0 if os.environ.get(ZERO_WALL_ENV) else seconds


def run_trial(spec: TrialSpec) -> TrialRecord:
    """Execute one trial from its spec (top-level, hence pool-picklable)."""
    protocol = build_protocol(
        spec.protocol, spec.n, T=spec.budget, C=spec.channels, knobs=spec.protocol_knobs
    )
    adversary = build_jammer(
        spec.jammer, spec.budget, spec.jammer_seed(), knobs=spec.jammer_knobs, n=spec.n
    )
    t0 = time.perf_counter()
    result = run_broadcast(
        protocol, spec.n, adversary, seed=spec.net_seed(), max_slots=spec.max_slots
    )
    return TrialRecord.from_result(spec, result, wall_time=_wall(time.perf_counter() - t0))


def run_trial_batch(
    specs: Sequence[TrialSpec], *, lane_width: Optional[int] = None
) -> Iterator[TrialRecord]:
    """Execute trials that share a cell through the lane-batched engine.

    All specs must agree on everything but their trial index (one protocol,
    one jammer, one n — the unit ``run_campaign`` groups by).  Yields records
    in spec order, streamed through ``lane_width`` continuously-refilled lane
    slots (:func:`repro.core.batch.run_broadcast_stream` — a spec whose
    trial retires frees its slot for the next pending spec), each record
    bit-identical to ``run_trial(spec)`` except for ``wall_time``, which is
    apportioned evenly across the stream's trials (the trials genuinely ran
    together; only their total is physical).  ``lane_width=None`` (default)
    takes the protocol's :func:`repro.core.batch.stream_width`; neither the
    width nor the refill schedule ever changes results, only throughput.
    """
    specs = list(specs)
    if not specs:
        return
    first = specs[0]
    if any(_cell_identity(s) != _cell_identity(first) for s in specs):
        raise ValueError("run_trial_batch specs must share one campaign cell")
    protocol = build_protocol(
        first.protocol, first.n, T=first.budget, C=first.channels,
        knobs=first.protocol_knobs,
    )
    adversaries = [
        build_jammer(s.jammer, s.budget, s.jammer_seed(), knobs=s.jammer_knobs, n=s.n)
        for s in specs
    ]
    t0 = time.perf_counter()
    results = run_broadcast_stream(
        protocol,
        first.n,
        adversaries,
        [s.net_seed() for s in specs],
        max_slots=[s.max_slots for s in specs],
        lane_width=lane_width,
    )
    block_s = time.perf_counter() - t0
    tel = _obs_active()
    if tel is not None:
        tel.heartbeat(
            trials=len(specs),
            block_s=round(block_s, 6),
            trials_per_s=round(len(specs) / block_s, 2) if block_s > 0 else 0.0,
        )
    wall = _wall(block_s) / len(specs)
    for spec, result in zip(specs, results):
        yield TrialRecord.from_result(spec, result, wall_time=wall)


def _cell_identity(spec: TrialSpec):
    """Everything that must agree for trials to share one batch — the whole
    spec except the trial index (the lanes' only degree of freedom)."""
    return dataclasses.replace(spec, trial=0)


def _group_by_cell(specs: Sequence[TrialSpec]) -> List[List[TrialSpec]]:
    """Split specs into per-cell runs (order-preserving; specs arrive in
    canonical campaign order, so each cell's trials are contiguous)."""
    groups: List[List[TrialSpec]] = []
    for spec in specs:
        if groups and _cell_identity(groups[-1][0]) == _cell_identity(spec):
            groups[-1].append(spec)
        else:
            groups.append([spec])
    return groups


def _lane_blocks(pending: Sequence[TrialSpec], workers: int) -> List[List[TrialSpec]]:
    """Split pending specs into per-cell lane blocks — the sharded unit of
    work.  Block size is :data:`STREAM_BLOCK_FACTOR` times the protocol's
    :func:`~repro.core.batch.stream_width`, the width the worker streams
    the block at (``run_trial_batch``), so every full block carries a
    pending queue to compact over — capped at the cell's pending trials
    over ``workers`` (rounded up), so a cell narrower than that spreads
    across every worker; the split never crosses a cell boundary."""
    blocks: List[List[TrialSpec]] = []
    for group in _group_by_cell(pending):
        first = group[0]
        probe = build_protocol(
            first.protocol, first.n, T=first.budget, C=first.channels,
            knobs=first.protocol_knobs,
        )
        size = min(STREAM_BLOCK_FACTOR * stream_width(probe), -(-len(group) // workers))
        for start in range(0, len(group), size):
            blocks.append(group[start : start + size])
    return blocks


#: Worker-side shard state: the worker's own append handle, opened once by
#: the pool initializer (single writer per shard file, by construction).
_SHARD_STATE: dict = {"fh": None}


def _shard_worker_init(
    counter, store_path: Optional[str], telemetry: bool = False
) -> None:
    """Pool initializer: ignore SIGINT/SIGTERM (the parent owns interrupts
    and termination) and — for on-disk stores — claim the next shard index
    and open its file.

    The active telemetry recorder is always cleared first: under the fork
    start method a worker would otherwise inherit the parent's recorder —
    including its open handle on the *merged* telemetry file, breaking the
    single-writer-per-file rule.  With ``telemetry`` set the worker installs
    its own recorder on its own ``<store>.telemetry.shard-<k>.jsonl``.
    Similarly, any inherited fault injector is replaced by a *worker*-role
    one built from ``REPRO_FAULT_PLAN`` (or cleared, when the env var is
    unset) — worker-level faults must never fire in the parent and vice
    versa."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    _SHARD_STATE["fh"] = None
    _obs_install(None)
    _faults_install(_injector_from_env("worker"))
    if store_path is not None:
        with counter.get_lock():
            worker = int(counter.value)
            counter.value = worker + 1
        _SHARD_STATE["fh"] = open(shard_path(store_path, worker), "a")
        if telemetry:
            _obs_install(
                Telemetry(
                    telemetry_shard_path(store_path, worker),
                    source=f"worker-{worker}",
                )
            )


def _run_shard_block(specs: List[TrialSpec], attempt: int = 0):
    """Execute one lane block inside a worker; flush it to the worker's
    shard; return ``(record, line)`` pairs plus the block's scalar-fallback
    tally and telemetry aggregates (both plain dicts — the worker -> parent
    transport; discrete events stream to the worker's telemetry shard).

    ``line`` is the record's store line, serialized once here so the parent
    appends it as is.  It is taken before any injected ``corrupt_line``, so
    a corrupted shard copy never reaches the main store.

    ``attempt`` is the supervisor's dispatch counter for this block — it
    does not change execution (seeds derive from specs alone), only which
    injected faults fire: a fault plan entry with ``times=k`` hits attempts
    ``0..k-1`` and then lets the retry succeed.  The shard flush happens
    only after the whole block ran clean, so a failed attempt contributes
    no rows and the retry cannot create duplicates."""
    keys = [s.key() for s in specs]
    inj = _faults_active()
    if inj is not None:
        inj.on_block_start(keys, attempt)
        inj.check_trials(keys, attempt)
    with collect_fallback_notes() as notes:
        records = list(run_trial_batch(specs))
    lines = [record.to_json_line() for record in records]
    fh = _SHARD_STATE["fh"]
    if fh is not None:
        shard_lines = lines
        if inj is not None:
            shard_lines = [
                inj.corrupt_line(record.key, attempt, line) or line
                for record, line in zip(records, lines)
            ]
        shard_append(fh, shard_lines)
        tail = inj.torn_tail(keys, attempt) if inj is not None else None
        if tail is not None:
            fh.write(tail)
            fh.flush()
    tel = _obs_active()
    telem = tel.take_aggregates() if tel is not None else None
    return list(zip(records, lines)), notes.snapshot(), telem


def _execute_sharded(
    pending: Sequence[TrialSpec],
    store: ResultStore,
    *,
    workers: int,
    record_one: Callable[..., None],
    notes: FallbackNotes,
    policy: Optional[SupervisorPolicy] = None,
    recovery: Optional[RecoveryLog] = None,
) -> None:
    """Fan lane blocks across a *supervised* process pool; fold shards back.

    Futures are consumed in submission (canonical) order, so progress,
    parent-side accounting, and main-store row order are deterministic even
    though workers complete out of order — and the
    :class:`~repro.exp.supervisor.Supervisor` preserves that order through
    every recovery action (retry, pool respawn, straggler re-dispatch,
    quarantine bisect, serial degradation; DESIGN.md section 14).  Two
    writers never share a file: each worker appends to its own shard, and
    the parent — the main store's only writer — appends each block's
    records as its future lands.  The closing :func:`merge_shards`
    therefore normally finds nothing new and just deletes the shards; the
    shards earn their keep on failure — SIGINT/SIGTERM, a worker killed
    hard (``BrokenProcessPool``) — when consumed-but-unmerged rows are
    already in the main store and completed-but-unconsumed rows wait in the
    shards for a respawned pool's (or the next run's) opening merge."""
    Supervisor(
        store=store,
        workers=workers,
        record_one=record_one,
        notes=notes,
        policy=policy,
        recovery=recovery,
    ).run(_lane_blocks(pending, workers))


def _collect(store: ResultStore, keys: Set[str]) -> List[TrialRecord]:
    """The campaign's records, key-sorted — or ``[]`` for a non-materialized
    store, whose whole point is that nobody loads it at once (reduce those
    with :func:`repro.exp.store.stream_aggregate` instead)."""
    if not store.materialize:
        return []
    return [r for r in store.records() if r.key in keys]


@contextmanager
def _sigterm_as_interrupt():
    """SIGTERM parity with SIGINT for the duration of a campaign: container
    and CI termination raises ``KeyboardInterrupt`` in the parent, which
    the campaign body converts to :class:`CampaignInterrupted` — shards
    flush, the exit is resumable, same path as an operator's ^C.  Signal
    handlers are process-global and main-thread-only, so off the main
    thread this is a no-op (such callers keep plain-SIGTERM semantics)."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.getsignal(signal.SIGTERM)

    def _handler(signum, frame):
        raise KeyboardInterrupt()

    signal.signal(signal.SIGTERM, _handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


@contextmanager
def _env_fault_injector():
    """Install a parent-role fault injector from ``REPRO_FAULT_PLAN`` for
    the campaign's duration — unless the caller already installed one
    (tests use :func:`repro.faults.plan_env`, which does both)."""
    if _faults_active() is not None:
        yield
        return
    injector = _injector_from_env("parent")
    if injector is None:
        yield
        return
    previous = _faults_install(injector)
    try:
        yield
    finally:
        _faults_install(previous)


def run_campaign(
    campaign: CampaignSpec,
    store: Optional[ResultStore] = None,
    *,
    workers: int = 0,
    progress: Optional[ProgressCallback] = None,
    telemetry: bool = False,
    policy: Optional[SupervisorPolicy] = None,
    recovery: Optional[RecoveryLog] = None,
) -> List[TrialRecord]:
    """Run every not-yet-completed trial of ``campaign``; return all records.

    Parameters
    ----------
    campaign:
        The grid to run.  With ``ci_target`` set the grid is adaptive:
        ``trials`` becomes the per-wave seed count and each cell stops at
        its precision target or ``max_trials`` cap
        (:mod:`repro.exp.adaptive`), with one stopping record per cell
        appended to the store.
    store:
        Result sink; trials whose key is already in the store are skipped
        (resumption).  ``None`` uses a throwaway in-memory store.  Leftover
        shard files from a crashed sharded run are merged in before the
        skip-set is computed, so nothing completed ever re-runs.
    workers:
        ``0`` -> one per CPU; ``1`` -> in-process serial loop (no
        multiprocessing, the determinism-test fallback); ``>1`` -> sharded
        process pool: per-cell lane blocks, one shard file per worker, a
        deterministic merge at the end.  Either way every lane block runs
        through the lane engine (:func:`run_trial_batch`), and aggregates
        are byte-identical across worker counts; only ``wall_time`` (not
        aggregated) reflects the execution shape.  The engine flushes once
        per lane block instead of once per trial, so an interrupt can lose
        up to one lane block in flight.
    progress:
        Optional per-completion callback (for adaptive campaigns ``total``
        is the work known so far and grows as waves are scheduled).
    telemetry:
        Record run telemetry (:mod:`repro.obs`) to
        ``<store>.telemetry.jsonl`` — needs an on-disk store, since workers
        shard the telemetry stream alongside the trial shards.  Trial rows
        are untouched: the store is byte-identical with telemetry on and
        off (the never-in-trial-rows contract, ``tests/obs/``).
    policy:
        :class:`~repro.exp.supervisor.SupervisorPolicy` for the sharded
        path's fault handling (retry budget, respawn cap, backoff, block
        watchdog); ``None`` uses the defaults.  The ``workers=1`` serial
        loop is unsupervised — a raising trial propagates, which is the
        debuggability the serial fallback exists for.
    recovery:
        Optional :class:`~repro.exp.supervisor.RecoveryLog` the supervisor
        tallies retries/respawns/quarantines into — pass one to inspect
        what recovery the campaign needed (the CLI's post-run summary).

    Scalar-fallback warnings from the batch engine are collected once per
    campaign (one summary line per cause on stderr), not once per lane pass.

    Returns the records of *all* the campaign's trials — freshly run and
    previously stored — sorted by trial key.  Records the store holds for
    *other* campaigns (stores may be shared) are not returned; for a
    non-materialized store the list is empty by design (stream-aggregate
    such stores instead of materializing them).
    """
    if store is None:
        store = ResultStore(None)
    with _sigterm_as_interrupt(), _env_fault_injector():
        if telemetry:
            if store.path is None:
                raise ValueError(
                    "telemetry needs an on-disk store (its event stream shards "
                    "alongside the trial shards)"
                )
            with collect_telemetry(telemetry_path(store.path)):
                return _campaign_body(
                    campaign, store, workers=workers, progress=progress,
                    policy=policy, recovery=recovery,
                )
        return _campaign_body(
            campaign, store, workers=workers, progress=progress,
            policy=policy, recovery=recovery,
        )


def _campaign_body(
    campaign: CampaignSpec,
    store: ResultStore,
    *,
    workers: int,
    progress: Optional[ProgressCallback],
    policy: Optional[SupervisorPolicy],
    recovery: Optional[RecoveryLog],
) -> List[TrialRecord]:
    t_start = time.perf_counter()
    merge_shards(store)  # crash leftovers count as completed before anything
    if store.path is not None:
        # orphaned telemetry shards from an aborted run are recovered here —
        # at campaign open, telemetry on or off — not only on the sharded
        # success path, so no worker's events are stranded forever
        merge_telemetry_shards(store.path)
    if campaign.adaptive:
        return _run_adaptive(
            campaign, store, workers=workers, progress=progress,
            policy=policy, recovery=recovery,
        )
    done_keys = store.completed_keys()
    specs = campaign.trial_specs()
    wanted = {s.key() for s in specs}
    pending = [s for s in specs if s.key() not in done_keys]
    workers = default_workers() if workers == 0 else max(1, int(workers))
    workers = min(workers, max(1, len(pending)))

    total = len(pending)
    done = 0

    def record_one(record: TrialRecord, line: Optional[str] = None) -> None:
        nonlocal done
        store.append(record, line)
        done += 1
        if progress is not None:
            progress(done, total, record)

    with collect_fallback_notes() as notes:
        try:
            if workers == 1 or total == 0:
                for group in _group_by_cell(pending):
                    for record in run_trial_batch(group):
                        record_one(record)
            else:
                _execute_sharded(
                    pending,
                    store,
                    workers=workers,
                    record_one=record_one,
                    notes=notes,
                    policy=policy,
                    recovery=recovery,
                )
        except KeyboardInterrupt:
            raise CampaignInterrupted(done, total) from None
    notes.emit()
    _emit_campaign_events(notes, trials=done, workers=workers, t_start=t_start)
    return _collect(store, wanted)


def _emit_campaign_events(
    notes: FallbackNotes, *, trials: int, workers: int, t_start: float
) -> None:
    """Parent-side end-of-campaign telemetry: one ``campaign`` event and —
    exactly once per campaign, mirroring the stderr summary — the merged
    fallback-note tally."""
    tel = _obs_active()
    if tel is None:
        return
    if notes:
        tel.emit(
            "fallback_notes",
            notes=[
                {"protocol": name, "reason": reason, "lanes": lanes,
                 "passes": passes}
                for (name, reason), (lanes, passes) in notes.counts.items()
            ],
        )
    tel.emit(
        "campaign",
        trials=trials,
        workers=workers,
        elapsed=round(time.perf_counter() - t_start, 6),
    )


def _run_adaptive(
    campaign: CampaignSpec,
    store: ResultStore,
    *,
    workers: int,
    progress: Optional[ProgressCallback],
    policy: Optional[SupervisorPolicy],
    recovery: Optional[RecoveryLog],
) -> List[TrialRecord]:
    """Wave loop of an adaptive campaign: decide, schedule, execute, repeat.

    Each wave's pending specs go through exactly the machinery a fixed
    campaign uses (serial lane batching or the sharded pool), so adaptive
    stopping changes *which* trials run, never how any one trial runs.
    A trial the supervisor quarantines abandons its whole cell
    (:meth:`AdaptiveController.abandon`): the cell's prefix can never
    complete, so scheduling more waves for it would loop forever."""
    t_start = time.perf_counter()
    controller = AdaptiveController(campaign, store)
    recovery = recovery if recovery is not None else RecoveryLog()
    workers = default_workers() if workers == 0 else max(1, int(workers))
    done = 0
    total = 0
    wave_index = 0

    def record_one(record: TrialRecord, line: Optional[str] = None) -> None:
        nonlocal done
        store.append(record, line)
        controller.observe(record)
        done += 1
        if progress is not None:
            progress(done, total, record)

    with collect_fallback_notes() as notes:
        try:
            while True:
                for decision in controller.take_decisions():
                    store.append_stopping(decision)
                wave = controller.next_wave()
                if not wave:
                    break
                total = done + len(wave)
                if workers == 1:
                    for group in _group_by_cell(wave):
                        for record in run_trial_batch(group):
                            record_one(record)
                else:
                    quarantined_before = len(recovery.quarantined)
                    _execute_sharded(
                        wave,
                        store,
                        workers=min(workers, len(wave)),
                        record_one=record_one,
                        notes=notes,
                        policy=policy,
                        recovery=recovery,
                    )
                    for q in recovery.quarantined[quarantined_before:]:
                        controller.abandon(q.key)
                wave_index += 1
                tel = _obs_active()
                if tel is not None:
                    # post-wave precision snapshot: the CI-width trajectory
                    # (cells whose decisions are now due still count as open
                    # — take_decisions runs at the top of the next loop)
                    tel.emit(
                        "wave",
                        wave=wave_index,
                        scheduled=len(wave),
                        cells_open=sum(
                            1
                            for plan in controller.plans
                            if plan.decision is None and not plan.recorded
                        ),
                        rel_ci=controller.precision_snapshot(),
                    )
        except KeyboardInterrupt:
            raise CampaignInterrupted(done, total) from None
    notes.emit()
    _emit_campaign_events(notes, trials=done, workers=workers, t_start=t_start)
    return _collect(store, set(controller.scheduled_keys()))
