"""Per-layer self time, measured from outside ``src/``.

:class:`Tracer` wraps the public entry points of each ``repro`` layer (module
functions, wherever a module imported them by name, and methods on their
classes) with spans.  A layer's *self time* is the time inside its spans
minus the time inside spans nested in them, so the self times of all layers
plus the self time of the root spans (the unattributed residual) add up to
the root spans' wall time exactly.

Root spans are the benchmark's own ``run_campaign`` call in the parent and
each lane block a pool worker runs.  Pool workers are forked from the parent
after :meth:`Tracer.install`, so they inherit the wrappers; a worker ships
its aggregates back inside the block's existing telemetry dict, and the
parent folds them in when the supervisor delivers the block.

Nothing is wrapped until :meth:`install` runs, and :meth:`uninstall` puts
every original back, so an untraced run executes no wrapper at all.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from typing import Callable, Dict, List, Optional

#: Key under which a worker's span aggregates ride in its telemetry dict.
WORKER_KEY = "perfbench.spans"

#: Attribute marking a traced wrapper (the self-tests look for it).
MARK = "__perfbench_layer__"

ROOT = "root.campaign"
WORKER_ROOT = "root.worker"


class Tracer:
    """Span stack and aggregates for one process."""

    def __init__(self):
        self._patches: List[tuple] = []
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self.stack: List[list] = []  # one [child seconds] cell per open span
        self.self_s: Dict[str, float] = {}
        self.total_s: Dict[str, float] = {}  # root spans only
        self.counts: Dict[str, float] = {}

    # -- spans ---------------------------------------------------------------

    def _close(self, layer: str, cell: list, t0: float) -> float:
        dur = time.perf_counter() - t0
        self.stack.pop()
        self.self_s[layer] = self.self_s.get(layer, 0.0) + dur - cell[0]
        if self.stack:
            self.stack[-1][0] += dur
        return dur

    def wrap(self, layer: str, fn: Callable, count: Optional[Callable] = None):
        """``fn`` inside a span of ``layer``; ``count(counts, args, out)``
        tallies work done by the call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cell = [0.0]
            tracer.stack.append(cell)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                if count is not None:
                    count(tracer.counts, args, out)
                return out
            finally:
                tracer._close(layer, cell, t0)

        setattr(traced, MARK, layer)
        return traced

    def root(self, fn: Callable, *args, name: str = ROOT, **kwargs):
        """Call ``fn`` as a root span; its self time is the residual no
        layer claimed."""
        cell = [0.0]
        self.stack.append(cell)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.total_s[name] = self.total_s.get(name, 0.0) + self._close(name, cell, t0)

    # -- cross-process aggregation ---------------------------------------------

    def take(self) -> dict:
        snap = {
            "self_s": self.self_s,
            "total_s": self.total_s,
            "counts": self.counts,
        }
        self.self_s, self.total_s, self.counts = {}, {}, {}
        return snap

    def fold(self, snap: dict) -> None:
        for field in ("self_s", "total_s", "counts"):
            mine = getattr(self, field)
            for name, value in snap[field].items():
                mine[name] = mine.get(name, 0) + value

    # -- patching ----------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer entry point in :func:`layer_targets`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, name, layer, count in layer_targets():
            if isinstance(owner, type):
                self._patch_method(owner, name, layer, count)
            else:
                self._patch_function(getattr(owner, name), layer, count)
        self._patch_worker_transport()

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    def _set(self, owner, name: str, value) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, value)

    def _patch_method(self, cls: type, name: str, layer: str, count) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            self._set(cls, name, classmethod(self.wrap(layer, raw.__func__, count)))
        else:
            self._set(cls, name, self.wrap(layer, raw, count))

    def _patch_function(self, fn: Callable, layer: str, count) -> None:
        """Replace ``fn`` in every loaded ``repro`` module that holds it --
        ``from m import f`` copies the binding into the importer."""
        traced = self.wrap(layer, fn, count)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "repro":
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, traced)

    def _patch_worker_transport(self) -> None:
        """Root span around each worker block, shipped home with its results.

        The wrapper keeps the original's module and name (``functools.wraps``),
        so the pool pickles it by reference and forked workers resolve it to
        this same wrapper."""
        from repro.exp import pool
        from repro.exp.supervisor import Supervisor

        tracer = self
        block = pool._run_shard_block

        @functools.wraps(block)
        def traced_block(*args, **kwargs):
            if tracer.pid != os.getpid():  # first block in a forked worker
                tracer.reset()
            records, notes, telem = tracer.root(block, *args, name=WORKER_ROOT, **kwargs)
            telem = dict(telem or {})
            telem[WORKER_KEY] = tracer.take()
            return records, notes, telem

        deliver = Supervisor._deliver

        @functools.wraps(deliver)
        def folding_deliver(self, records, counts, telem, pending_after):
            if telem and WORKER_KEY in telem:
                telem = dict(telem)
                tracer.fold(telem.pop(WORKER_KEY))
            return deliver(self, records, counts, telem or None, pending_after)

        self._set(pool, "_run_shard_block", traced_block)
        self._set(Supervisor, "_deliver", folding_deliver)


# -- what gets wrapped ---------------------------------------------------------


def _count_size(name: str):
    def count(counts, args, out):
        counts[name] = counts.get(name, 0) + out.size

    return count


def _count_acts(counts, args, out):
    # commit_counts*(self, lane_ids, listen_counts, send_counts, ...)
    counts["acts"] = counts.get("acts", 0) + int(args[2].sum()) + int(args[3].sum())


def _count_call(name: str):
    def count(counts, args, out):
        counts[name] = counts.get(name, 0) + 1

    return count


def layer_targets() -> list:
    """``(owner, attribute, layer, count)`` for every traced entry point."""
    from repro.arena import run as arena_run, window
    from repro.core import adv_batch, batch, multicast_adv
    from repro.exp import pool, registry, shard, supervisor
    from repro.exp.store import ResultStore, TrialRecord
    from repro.exp.supervisor import Supervisor
    from repro.obs import merge
    from repro.sim import channel
    from repro.sim.engine import BatchNetwork, RadioNetwork
    from repro.sim.jam import JamBlock

    jam_call = _count_call("jam_calls")
    return [
        # sim.engine: RNG draws and commit
        (BatchNetwork, "draw_coins", "sim.draw", _count_size("coins")),
        (BatchNetwork, "draw_coins_ragged", "sim.draw", _count_size("coins")),
        (BatchNetwork, "draw_channels", "sim.draw", _count_size("channels")),
        (BatchNetwork, "draw_channels_ragged", "sim.draw", _count_size("channels")),
        (BatchNetwork, "commit_block", "sim.commit", None),
        (BatchNetwork, "commit_counts", "sim.commit", _count_acts),
        (BatchNetwork, "commit_counts_ragged", "sim.commit", _count_acts),
        (RadioNetwork, "commit_block", "sim.commit", None),
        (channel, "resolve_block", "sim.resolve", None),
        # adversary: jam construction
        (BatchNetwork, "draw_jamming", "adversary.jam", jam_call),
        (BatchNetwork, "draw_jamming_ragged", "adversary.jam", jam_call),
        (RadioNetwork, "draw_jamming", "adversary.jam", jam_call),
        (JamBlock, "stack", "adversary.jam", None),
        # core: lane-batch hosts and kernels
        (batch, "run_broadcast_stream", "core.batch", None),
        (batch, "run_broadcast_batch", "core.batch", None),
        (batch, "run_iterations_stream", "core.batch", None),
        (batch, "run_iterations_batch", "core.batch", None),
        (adv_batch, "run_adv_stream", "core.adv_batch", None),
        (adv_batch, "run_adv_batch", "core.adv_batch", None),
        (multicast_adv, "apply_phase_checks", "core.adv_batch.phase_checks", None),
        # arena
        (arena_run, "run_broadcast_adaptive", "arena.slot", None),
        (arena_run, "run_broadcast_windowed_batch", "arena.window", None),
        (window, "run_windowed", "arena.window", None),
        # exp
        (registry, "build_protocol", "exp.build", None),
        (registry, "build_jammer", "exp.build", None),
        (TrialRecord, "from_result", "exp.record", None),
        (TrialRecord, "to_json_line", "exp.serialize", None),
        (ResultStore, "append", "exp.store_append", None),
        (shard, "shard_append", "exp.shard_append", None),
        (shard, "merge_shards", "exp.shard_merge", None),
        (merge, "merge_telemetry_shards", "exp.shard_merge", None),
        (Supervisor, "_pool_round", "exp.supervise", None),
        (supervisor, "wait", "exp.parent_wait", None),
    ]


# -- per-layer metrics -----------------------------------------------------------

#: (metric, unit) in report order; BENCHMARK.json lists the same names.
LAYER_METRICS = [
    ("sim.draw_s", "s"),
    ("sim.draw_mvalues", "Mvalues"),
    ("core.draw_use_frac", "frac"),
    ("sim.commit_s", "s"),
    ("sim.resolve_s", "s"),
    ("adversary.jam_s", "s"),
    ("adversary.jam_calls", "count"),
    ("core.batch.self_s", "s"),
    ("batch.kernel_passes", "count"),
    ("batch.occupancy_frac", "frac"),
    ("core.adv_batch.self_s", "s"),
    ("core.adv_batch.phase_checks_s", "s"),
    ("adv_batch.kernel_passes", "count"),
    ("adv_batch.occupancy_frac", "frac"),
    ("adv_batch.solo_slots", "count"),
    ("arena.slot_s", "s"),
    ("arena.window_s", "s"),
    ("window.commit_frac", "frac"),
    ("window.rollbacks", "count"),
    ("arena.slot_fallbacks", "count"),
    ("exp.build_s", "s"),
    ("exp.record_s", "s"),
    ("exp.serialize_s", "s"),
    ("exp.store_append_s", "s"),
    ("exp.shard_append_s", "s"),
    ("exp.shard_merge_s", "s"),
    ("exp.supervise_s", "s"),
    ("exp.parent_wait_s", "s"),
    ("exp.worker_busy_frac", "frac"),
    ("exp.share_frac", "frac"),
    ("supervise.retries", "count"),
    ("supervise.respawns", "count"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(spans: dict, telemetry: dict, workers: int) -> Dict[str, float]:
    """One traced campaign's per-layer metrics (all but ``trace.overhead_frac``,
    which needs the untraced runs) from the tracer's aggregates and the
    ``repro.obs`` counters recorded alongside.  Seconds are summed over
    processes."""
    s = spans["self_s"].get
    c = spans["counts"].get
    tc = telemetry["counters"].get
    roots = (ROOT, WORKER_ROOT)
    wall = spans["total_s"].get(ROOT, 0.0)
    span_total = sum(spans["total_s"].get(r, 0.0) for r in roots)
    residual = sum(s(r, 0.0) for r in roots)
    # the exp layer's share of busy time: the parent waiting on workers is
    # neither work nor unattributed, so it leaves both sides of the ratio
    wait = s("exp.parent_wait", 0.0)
    exp_self = sum(v for k, v in spans["self_s"].items() if k.startswith("exp.")) - wait
    busy = spans["total_s"].get(WORKER_ROOT, 0.0)
    return {
        "sim.draw_s": s("sim.draw", 0.0),
        "sim.draw_mvalues": (c("coins", 0) + c("channels", 0)) / 1e6,
        "core.draw_use_frac": _ratio(c("acts", 0), c("coins", 0)),
        "sim.commit_s": s("sim.commit", 0.0),
        "sim.resolve_s": s("sim.resolve", 0.0),
        "adversary.jam_s": s("adversary.jam", 0.0),
        "adversary.jam_calls": c("jam_calls", 0),
        "core.batch.self_s": s("core.batch", 0.0),
        "batch.kernel_passes": tc("batch.kernel_passes", 0),
        "batch.occupancy_frac": _ratio(
            tc("batch.lane_passes", 0),
            tc("batch.lane_passes", 0) + tc("batch.idle_lane_passes", 0),
        ),
        "core.adv_batch.self_s": s("core.adv_batch", 0.0),
        "core.adv_batch.phase_checks_s": s("core.adv_batch.phase_checks", 0.0),
        "adv_batch.kernel_passes": tc("adv_batch.kernel_passes", 0),
        "adv_batch.occupancy_frac": _ratio(
            tc("adv_batch.lane_passes", 0),
            tc("adv_batch.lane_passes", 0) + tc("adv_batch.idle_lane_passes", 0),
        ),
        "adv_batch.solo_slots": tc("adv_batch.solo_slots", 0),
        "arena.slot_s": s("arena.slot", 0.0),
        "arena.window_s": s("arena.window", 0.0),
        "window.commit_frac": _ratio(
            tc("window.slots_committed", 0), tc("window.slots_proposed", 0)
        ),
        "window.rollbacks": tc("window.rollbacks", 0),
        "arena.slot_fallbacks": tc("arena.slot_fallbacks", 0),
        "exp.build_s": s("exp.build", 0.0),
        "exp.record_s": s("exp.record", 0.0),
        "exp.serialize_s": s("exp.serialize", 0.0),
        "exp.store_append_s": s("exp.store_append", 0.0),
        "exp.shard_append_s": s("exp.shard_append", 0.0),
        "exp.shard_merge_s": s("exp.shard_merge", 0.0),
        "exp.supervise_s": s("exp.supervise", 0.0),
        "exp.parent_wait_s": s("exp.parent_wait", 0.0),
        "exp.worker_busy_frac": _ratio(busy, workers * wall) if busy else 0.0,
        "exp.share_frac": _ratio(exp_self, span_total - wait),
        "supervise.retries": tc("supervise.retries", 0),
        "supervise.respawns": tc("supervise.respawns", 0),
        "trace.wall_s": wall,
        "trace.unattributed_frac": _ratio(residual, span_total),
    }
