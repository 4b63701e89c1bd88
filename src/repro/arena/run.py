"""One-call adaptive execution: lift a protocol, run it, return a result.

:func:`run_broadcast_adaptive` is the arena's analogue of
:func:`repro.core.result.run_broadcast` — same signature shape, same
:class:`~repro.core.result.BroadcastResult` out — so trial batches, campaign
workers, stores and tables treat adaptive runs exactly like oblivious ones.
:func:`repro.core.result.run_broadcast` itself dispatches here whenever the
adversary is reactive, which is what carries the adversary-model axis
through ``run_trials`` / ``CampaignSpec`` / ``repro sweep`` end to end.

Every run window-steps on :func:`repro.arena.window.run_windowed`, whatever
the adversary (no adversary, oblivious, reactive with or without a sensing
latency) and bit-identical to the slot-stepped oracle
:func:`repro.arena.network.run_slot_stepped`; ``extras["backend"]`` reads
``"arena-window"``.  :func:`run_broadcast_windowed_batch` is the
lane-batched form behind :func:`repro.core.batch.run_broadcast_stream`'s
reactive partition.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.arena.columns import (
    ColumnProtocol,
    DecayColumns,
    MultiCastAdvColumns,
    MultiCastCColumns,
    MultiCastColumns,
    MultiCastCoreColumns,
    NaiveColumns,
)
from repro.arena.window import run_windowed
from repro.baselines.decay import DecayBroadcast
from repro.baselines.naive import NaiveEpidemic
from repro.core.limited import MultiCastC
from repro.core.multicast import MultiCast
from repro.core.multicast_adv import MultiCastAdv
from repro.core.multicast_core import MultiCastCore
from repro.core.result import BroadcastResult

__all__ = [
    "lift_protocol",
    "run_broadcast_adaptive",
    "run_broadcast_windowed_batch",
    "supports_protocol",
]

#: Adapter dispatch table, most-derived type first (``MultiCastC`` — which
#: also covers ``SingleChannelCompetitive`` — before ``MultiCast``).
_ADAPTERS = (
    (MultiCastCore, lambda proto, n, seed: MultiCastCoreColumns(proto, n, seed)),
    (MultiCastC, lambda proto, n, seed: MultiCastCColumns(proto, seed)),
    (MultiCast, lambda proto, n, seed: MultiCastColumns(proto, n, seed)),
    (MultiCastAdv, lambda proto, n, seed: MultiCastAdvColumns(proto, n, seed)),
    (DecayBroadcast, lambda proto, n, seed: DecayColumns(proto, seed)),
    (NaiveEpidemic, lambda proto, n, seed: NaiveColumns(proto, seed)),
)


def supports_protocol(protocol) -> bool:
    """True iff :func:`lift_protocol` has a column adapter for this object
    (lets callers pre-validate without paying for adapter construction)."""
    return isinstance(protocol, tuple(cls for cls, _ in _ADAPTERS))


def lift_protocol(protocol, n: int, seed: int) -> ColumnProtocol:
    """Build the arena column adapter for a standard protocol object.

    Anything unknown fails loudly: an arena run silently falling back to a
    different protocol would corrupt a study.
    """
    for cls, make in _ADAPTERS:
        if isinstance(protocol, cls):
            return make(protocol, n, seed)
    raise TypeError(
        f"no arena column adapter for {type(protocol).__name__}; "
        "see repro.arena.columns for the supported protocols"
    )


def run_broadcast_adaptive(
    protocol,
    n: int,
    adversary=None,
    *,
    seed: int = 0,
    max_slots: int = 50_000_000,
) -> BroadcastResult:
    """Run one execution on the arena runtime and return the result.

    ``adversary`` may be ``None``, any oblivious jammer, or any reactive
    jammer — the arena hosts all three behind one entry point, so a study
    can put oblivious and adaptive cells in the same table.  Reaching
    ``max_slots`` truncates the run (``completed`` False, overrun recorded
    in ``extras`` where the adapter keeps one) instead of raising, mirroring
    the batched engine's per-lane overrun handling.  The run is one lane of
    :func:`run_broadcast_windowed_batch`.
    """
    (result,) = run_broadcast_windowed_batch(
        protocol, n, [adversary], [seed], max_slots=max_slots
    )
    return result


def run_broadcast_windowed_batch(
    protocol,
    n: int,
    adversaries: Sequence[Optional[object]],
    seeds: Sequence[int],
    *,
    max_slots=50_000_000,
) -> List[BroadcastResult]:
    """Window-step a lane batch of trials of one protocol in lockstep.

    The lane-batched arena entry behind
    :func:`repro.core.batch.run_broadcast_stream`'s reactive partition:
    lane ``b`` runs ``(seed=seeds[b], adversary=adversaries[b])`` under
    ``max_slots`` (one cap, or one per lane) and is bit-identical to
    ``run_broadcast_adaptive(protocol, n, adversaries[b], seed=seeds[b])``
    — same trial seeds, same draws, same books — so batched campaigns match
    per-trial ones byte for byte.
    """
    if len(adversaries) != len(seeds):
        raise ValueError("need one adversary entry per seed")
    columns = [lift_protocol(protocol, n, seed) for seed in seeds]
    return run_windowed(columns, list(adversaries), max_slots=max_slots)
