"""Supervised execution of sharded campaign blocks (DESIGN.md section 14).

The plain sharded executor dies on the first disrupted worker; the
:class:`Supervisor` keeps the campaign going:

* **Block retry** — a block whose future raises an application exception is
  re-dispatched with capped exponential backoff
  (:meth:`SupervisorPolicy.backoff`), up to ``max_block_attempts``.
* **Pool respawn** — ``BrokenProcessPool`` (a worker SIGKILLed or OOMed)
  tears down the executor; the supervisor respawns a fresh pool and
  resubmits every unfinished block, up to ``max_pool_respawns``.
* **Watchdog / straggler re-dispatch** — with ``block_timeout`` set, a
  block that outlives the timeout gets a racing twin dispatched; whichever
  finishes first wins (results are identical by the determinism contract,
  so the race is free).
* **Poison quarantine** — a block that exhausts its retry budget is
  bisected *in the parent*: halves that run clean deliver their records
  (schedule invariance makes an in-parent rerun bit-identical to the
  worker's), and the culprit trial is recorded in the
  ``<store>.quarantine.jsonl`` ledger, after which the campaign continues
  without it.
* **Graceful degradation** — after ``max_pool_respawns`` pool deaths the
  remaining blocks run in-process (serial), trading throughput for
  completion.

Everything the supervisor does is *order-preserving*: futures are consumed
in submission (canonical) order and a block's records are only delivered
once, so the main store's row order — and therefore its bytes, under
``REPRO_ZERO_WALL`` — match the unsupervised, fault-free run.  Recovery
actions are tallied in a :class:`RecoveryLog` (the CLI's post-run summary)
and emitted as telemetry events/counters for the obs report's faults
section.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from typing import Callable, List, Optional, Sequence, Set

from repro.core.batch import FallbackNotes
from repro.exp.shard import merge_shards
from repro.exp.spec import TrialSpec
from repro.exp.store import (
    ResultStore,
    append_jsonl_line,
    checksummed_line,
    row_intact,
)
from repro.faults.inject import active as _faults_active
from repro.obs.merge import merge_telemetry_shards
from repro.obs.recorder import active as _obs_active

__all__ = [
    "SupervisorPolicy",
    "RecoveryLog",
    "QuarantineRecord",
    "Supervisor",
    "quarantine_path",
    "read_quarantine",
    "remaining_quarantined",
]


def quarantine_path(store_path: str) -> str:
    """The quarantine ledger of a store: ``<store>.quarantine.jsonl``."""
    return f"{store_path}.quarantine.jsonl"


@dataclass
class QuarantineRecord:
    """One quarantined trial: its key, the exception that condemned it, and
    how many attempts it got (ledger JSONL row, checksummed like the store's)."""

    key: str
    error: str
    attempts: int
    kind: str = "quarantine"

    def to_json_line(self) -> str:
        return checksummed_line(asdict(self))


def read_quarantine(store_path: str) -> List["QuarantineRecord"]:
    """The quarantine ledger's rows (tolerant reader: torn or checksum-
    failing lines are dropped, matching the store's discipline)."""
    import json

    path = quarantine_path(store_path)
    out: List[QuarantineRecord] = []
    if not os.path.exists(path):
        return out
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not row_intact(data) or data.get("kind") != "quarantine":
                continue
            data.pop("kind", None)
            try:
                out.append(QuarantineRecord(**data))
            except TypeError:
                continue
    return out


def remaining_quarantined(store: ResultStore, keys: Set[str]) -> List[str]:
    """Quarantined trial keys of this campaign (``keys``) still missing
    from ``store`` — the set that should make ``repro sweep`` exit nonzero.
    A key that later completed (a transient fault resolved on a re-run)
    no longer counts; ledger entries are history, not state."""
    if store.path is None:
        return []
    done = store.completed_keys()
    seen: List[str] = []
    for q in read_quarantine(store.path):
        if q.key in keys and q.key not in done and q.key not in seen:
            seen.append(q.key)
    return seen


@dataclass
class SupervisorPolicy:
    """The supervision knobs: how hard to try before quarantining.

    ``max_block_attempts`` counts dispatches of one block (first try
    included); ``max_pool_respawns`` counts fresh executors after pool
    deaths; ``block_timeout`` (seconds, ``None`` = no watchdog) arms the
    straggler re-dispatch; backoff after the k-th failure is
    ``min(backoff_cap, backoff_base * 2**(k-1))`` seconds.
    """

    max_block_attempts: int = 3
    max_pool_respawns: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    block_timeout: Optional[float] = None

    def backoff(self, failures: int) -> float:
        """Seconds to sleep after the ``failures``-th failure (1-based)."""
        return min(self.backoff_cap, self.backoff_base * (2 ** max(0, failures - 1)))


@dataclass
class RecoveryLog:
    """Tally of every recovery action a campaign needed — the post-run
    summary ``repro sweep`` prints, and the tests' assertion surface."""

    retries: int = 0  #: block re-dispatches after an application exception
    respawns: int = 0  #: fresh pools after BrokenProcessPool
    redispatches: int = 0  #: watchdog straggler re-dispatches
    degraded: bool = False  #: fell back to in-process serial execution
    quarantined: List[QuarantineRecord] = field(default_factory=list)

    def any(self) -> bool:
        return bool(
            self.retries
            or self.respawns
            or self.redispatches
            or self.degraded
            or self.quarantined
        )

    def summary_lines(self) -> List[str]:
        lines = []
        if self.retries:
            lines.append(f"{self.retries} block retr{'y' if self.retries == 1 else 'ies'}")
        if self.respawns:
            lines.append(f"{self.respawns} pool respawn(s) after worker death")
        if self.redispatches:
            lines.append(f"{self.redispatches} straggler block(s) re-dispatched")
        if self.degraded:
            lines.append("degraded to serial execution after repeated pool failures")
        for q in self.quarantined:
            lines.append(f"quarantined {q.key} after {q.attempts} attempt(s): {q.error}")
        return lines


class _Block:
    """One lane block's supervision state: its specs, how many times it has
    been dispatched, and whether its records were delivered."""

    __slots__ = ("specs", "keys", "attempt", "done")

    def __init__(self, specs: List[TrialSpec]):
        self.specs = specs
        self.keys = [s.key() for s in specs]
        self.attempt = 0  #: next dispatch's attempt number (bumped on failure)
        self.done = False


class Supervisor:
    """Runs lane blocks through a process pool, surviving worker faults.

    One instance supervises one :func:`~repro.exp.pool._execute_sharded`
    call (a fixed campaign's pending set, or one adaptive wave).  The
    constructor takes the same collaborators the plain executor took, plus
    a :class:`SupervisorPolicy` and a :class:`RecoveryLog` to tally into.
    ``record_one(record, line=None)`` gets each delivered record, with the
    store line its worker serialized when it came from the pool.
    """

    def __init__(
        self,
        *,
        store: ResultStore,
        workers: int,
        record_one: Callable[..., None],
        notes: FallbackNotes,
        policy: Optional[SupervisorPolicy] = None,
        recovery: Optional[RecoveryLog] = None,
    ):
        self.store = store
        self.workers = workers
        self.record_one = record_one
        self.notes = notes
        self.policy = policy or SupervisorPolicy()
        self.recovery = recovery if recovery is not None else RecoveryLog()
        self._zombies: list = []  # losing straggler futures, drained per round

    def run(self, blocks: Sequence[List[TrialSpec]]) -> None:
        """Execute every block, in order, to completion or quarantine."""
        # imported at call time: pool imports this module at its top level
        from repro.exp import pool as _pool

        self._pool = _pool
        queue = [_Block(list(specs)) for specs in blocks]
        respawns = 0
        while queue:
            if respawns > self.policy.max_pool_respawns:
                self._degrade(queue)
                break
            try:
                self._pool_round(queue)
            except BrokenProcessPool:
                queue = [b for b in queue if not b.done]
                respawns += 1
                self.recovery.respawns += 1
                self._count("supervise.respawns")
                self._emit("respawn", respawns=respawns, blocks_left=len(queue))
                print(
                    f"supervisor: worker pool broke; respawning "
                    f"({respawns}/{self.policy.max_pool_respawns}), "
                    f"{len(queue)} block(s) outstanding",
                    file=sys.stderr,
                )
                for block in queue:
                    block.attempt += 1
                time.sleep(self.policy.backoff(respawns))
                continue
            queue = [b for b in queue if not b.done]
        self._finish_merges()

    # -- one executor's lifetime ---------------------------------------------------

    def _pool_round(self, queue: List[_Block]) -> None:
        """Submit every queued block to a fresh pool and consume the futures
        in submission order; raises ``BrokenProcessPool`` to the respawn
        loop, propagates interrupts after cancelling the backlog."""
        ctx = multiprocessing.get_context()
        counter = ctx.Value("i", 0)
        tel = _obs_active()
        executor = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=ctx,
            initializer=self._pool._shard_worker_init,
            initargs=(counter, self.store.path, tel is not None and self.store.path is not None),
        )
        try:
            pairs = [
                (executor.submit(
                    self._pool._run_shard_block, block.specs, block.attempt
                ), block)
                for block in queue
            ]
            for i, (future, block) in enumerate(pairs):
                self._consume(executor, future, block, pending_after=len(pairs) - i - 1)
        except BaseException:
            executor.shutdown(wait=False, cancel_futures=True)
            raise
        executor.shutdown(wait=True)
        self._drain_zombies()

    def _consume(self, executor, future, block: _Block, *, pending_after: int) -> None:
        """Drive one block to delivery: wait (with the watchdog), retry on
        application failure, bisect-and-quarantine when retries run out."""
        candidates = [future]
        while True:
            done, _ = wait(
                candidates,
                timeout=self.policy.block_timeout,
                return_when=FIRST_COMPLETED,
            )
            if not done:
                # watchdog fired: race a twin against the straggler (results
                # are identical by construction, so first-home wins safely);
                # one twin only — a third copy would just pile on
                if (
                    len(candidates) == 1
                    and block.attempt + 1 < self.policy.max_block_attempts
                ):
                    block.attempt += 1
                    self.recovery.redispatches += 1
                    self._count("supervise.redispatches")
                    self._emit(
                        "straggler", block=block.keys[0], attempt=block.attempt
                    )
                    print(
                        f"supervisor: block {block.keys[0]}.. exceeded "
                        f"{self.policy.block_timeout}s; re-dispatching",
                        file=sys.stderr,
                    )
                    candidates.append(
                        executor.submit(
                            self._pool._run_shard_block,
                            block.specs,
                            block.attempt,
                        )
                    )
                continue
            fut = done.pop()
            candidates.remove(fut)
            try:
                rows, counts, telem = fut.result()
            except (BrokenProcessPool, KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                if candidates:
                    continue  # the racing twin may still deliver
                block.attempt += 1
                self.recovery.retries += 1
                self._count("supervise.retries")
                self._emit(
                    "retry",
                    block=block.keys[0],
                    attempt=block.attempt,
                    error=_describe(exc),
                )
                if block.attempt >= self.policy.max_block_attempts:
                    self._bisect(block.specs, block.attempt, exc)
                    block.done = True
                    return
                time.sleep(self.policy.backoff(block.attempt))
                candidates = [
                    executor.submit(
                        self._pool._run_shard_block,
                        block.specs,
                        block.attempt,
                    )
                ]
                continue
            self._zombies.extend(candidates)  # losing twin, if any
            self._deliver(rows, counts, telem, pending_after)
            block.done = True
            return

    def _deliver(self, rows, counts, telem, pending_after: int) -> None:
        """Hand a worker block's ``(record, line)`` rows to ``record_one``
        in order, after folding its fallback tally and telemetry."""
        self.notes.merge(counts)
        tel = _obs_active()
        if tel is not None:
            if telem:
                tel.merge_aggregates(telem)
            tel.emit(
                "queue_depth",
                pending=pending_after,
                elapsed=round(time.perf_counter() - tel.t0, 6),
            )
        for record, line in rows:
            self.record_one(record, line)

    def _drain_zombies(self) -> None:
        """Collect losing straggler twins after the round's shutdown; their
        outcome no longer matters (duplicates dedup by key in the merge)."""
        for future in self._zombies:
            try:
                future.result(timeout=0)
            except Exception:
                pass
        self._zombies = []

    # -- in-parent recovery paths --------------------------------------------------

    def _bisect(self, specs: List[TrialSpec], attempt: int, cause) -> None:
        """Resolve a repeatedly-failing block in the parent: run it, split
        on failure, quarantine singleton culprits, deliver everything else.

        In-parent execution is safe for the determinism contract: a trial's
        result depends only on its spec (schedule invariance, DESIGN.md
        section 13), so records computed here are bit-identical to the
        worker's — minus the shard flush, which the closing merge no longer
        needs for these keys because delivery appends them directly."""
        inj = _faults_active()
        keys = [s.key() for s in specs]
        try:
            if inj is not None:
                inj.check_trials(keys, attempt)
            records = list(self._pool.run_trial_batch(specs))
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            if len(specs) == 1:
                if attempt + 1 < self.policy.max_block_attempts:
                    self.recovery.retries += 1
                    self._count("supervise.retries")
                    self._emit(
                        "retry", block=keys[0], attempt=attempt + 1,
                        error=_describe(exc),
                    )
                    time.sleep(self.policy.backoff(attempt + 1))
                    self._bisect(specs, attempt + 1, exc)
                    return
                self._quarantine(specs[0], exc, attempt + 1)
                return
            mid = len(specs) // 2
            self._bisect(specs[:mid], attempt, exc)
            self._bisect(specs[mid:], attempt, exc)
            return
        for record in records:
            self.record_one(record)

    def _quarantine(self, spec: TrialSpec, exc: BaseException, attempts: int) -> None:
        q = QuarantineRecord(
            key=spec.key(), error=_describe(exc), attempts=attempts
        )
        self.recovery.quarantined.append(q)
        self._count("supervise.quarantined")
        self._emit("quarantine", key=q.key, error=q.error, attempts=attempts)
        print(
            f"supervisor: quarantined {q.key} after {attempts} attempt(s): "
            f"{q.error}",
            file=sys.stderr,
        )
        if self.store.path is not None:
            append_jsonl_line(quarantine_path(self.store.path), q.to_json_line())

    def _degrade(self, queue: List[_Block]) -> None:
        """Last resort after repeated pool deaths: run what's left in this
        process.  Shard rows the dead pools flushed are folded in first so
        only genuinely-lost trials re-run."""
        self.recovery.degraded = True
        self._count("supervise.degraded")
        self._emit("degrade", blocks=len(queue))
        print(
            "supervisor: worker pool keeps dying; finishing "
            f"{len(queue)} block(s) in-process (serial)",
            file=sys.stderr,
        )
        merge_shards(self.store)
        done_keys = self.store.completed_keys()
        for block in queue:
            specs = [s for s in block.specs if s.key() not in done_keys]
            if specs:
                self._bisect(specs, block.attempt, None)
            block.done = True

    def _finish_merges(self) -> None:
        merge_shards(self.store)
        if _obs_active() is not None and self.store.path is not None:
            merge_telemetry_shards(self.store.path)

    # -- telemetry plumbing --------------------------------------------------------

    def _count(self, name: str) -> None:
        tel = _obs_active()
        if tel is not None:
            tel.count(name)

    def _emit(self, event: str, **fields) -> None:
        tel = _obs_active()
        if tel is not None:
            tel.emit(event, **fields)


def _describe(exc) -> str:
    if exc is None:
        return "unknown failure"
    return f"{type(exc).__name__}: {exc}"[:500]
