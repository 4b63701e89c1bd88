"""The adaptive-adversary arena: reactive jammers as first-class experiments.

The paper proves its guarantees for an *oblivious* Eve and conjectures
(section 8) that the protocols survive an *adaptive* one "with few (or even
no) modifications".  The block engine cannot even express that question —
obliviousness is enforced structurally — and the readable per-node scalar
runtime is too slow to sweep.  This package is the probe:

* :mod:`~repro.arena.window` — :func:`run_windowed`, the arena's one
  production engine: whole speculative windows of slots per batched kernel
  pass, a trial-lane axis, and exact adversary rollback.  It hosts every
  adversary the arena accepts — none, oblivious, reactive — bit-identical
  to the slot-stepped oracle.
* :mod:`~repro.arena.network` — :class:`ArenaNetwork`, the vectorized
  slot-stepped runtime (per slot, one ``(n,)`` channel column and one
  ``(n,)`` action column, a busy-mask query to the adversary, one
  single-slot kernel pass), and :func:`run_slot_stepped`, the loop over it
  that tests and benchmarks keep as the windowed driver's oracle.
* :mod:`~repro.arena.columns` — adapters lifting the reference protocols
  (bit-identical to the scalar oracles of :mod:`repro.core.reference`) and
  the baselines (bit-identical to the block engine on jam-free runs) into
  that runtime.
* :mod:`~repro.arena.run` — :func:`run_broadcast_adaptive`, the one-call
  entry point returning a standard
  :class:`~repro.core.result.BroadcastResult`.

Reactive jammers live in :mod:`repro.adversary.reactive` and are registered
in :mod:`repro.exp.registry` (``sniper``, ``trailing``, and the
``reactive:<latency>`` family), so ``run_trials`` / ``repro sweep`` /
``python -m repro arena`` accept them by name.  See DESIGN.md sections 7 and
11 and EXPERIMENTS.md section 8 for the measured oblivious-vs-adaptive
record.
"""

from repro.arena.columns import (
    ColumnProtocol,
    DecayColumns,
    MultiCastAdvColumns,
    MultiCastCColumns,
    MultiCastColumns,
    MultiCastCoreColumns,
    NaiveColumns,
)
from repro.arena.network import (
    ArenaLanes,
    ArenaNetwork,
    resolve_columns,
    run_slot_stepped,
)
from repro.arena.run import (
    lift_protocol,
    run_broadcast_adaptive,
    run_broadcast_windowed_batch,
    supports_protocol,
)
from repro.arena.window import WINDOW_CAP, run_windowed

__all__ = [
    "ArenaLanes",
    "ArenaNetwork",
    "ColumnProtocol",
    "DecayColumns",
    "MultiCastAdvColumns",
    "MultiCastCColumns",
    "MultiCastColumns",
    "MultiCastCoreColumns",
    "NaiveColumns",
    "WINDOW_CAP",
    "lift_protocol",
    "resolve_columns",
    "run_broadcast_adaptive",
    "run_broadcast_windowed_batch",
    "run_slot_stepped",
    "run_windowed",
    "supports_protocol",
]
