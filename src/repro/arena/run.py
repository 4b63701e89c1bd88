"""One-call adaptive execution: lift a protocol, run it, return a result.

:func:`run_broadcast_adaptive` is the arena's analogue of
:func:`repro.core.result.run_broadcast` — same signature shape, same
:class:`~repro.core.result.BroadcastResult` out — so trial batches, campaign
workers, stores and tables treat adaptive runs exactly like oblivious ones.
:func:`repro.core.result.run_broadcast` itself dispatches here whenever the
adversary is reactive, which is what carries the adversary-model axis
through ``run_trials`` / ``CampaignSpec`` / ``repro sweep`` end to end.

Two execution backends share that entry point (``backend=``):

* ``"slot"`` — the original per-slot loop over :class:`ArenaNetwork`: one
  adversary query and one single-slot kernel pass per slot.  The oracle.
* ``"window"`` — the block-stepped driver of :mod:`repro.arena.window`:
  sound whenever there is no adversary or a reactive one advertising a
  sensing latency (``window_latency >= 0``, within-slot sensing included),
  bit-identical to ``"slot"`` and ~an order of magnitude faster.
  ``"auto"`` (the default) picks it exactly then
  (:func:`~repro.arena.window.windowable_adversary` decides); a reactive
  jammer without the window interface (``window_latency`` ``None``, e.g. a
  user-defined :class:`~repro.adversary.reactive.ReactiveJammer` subclass)
  falls back with a once-per-campaign
  :class:`~repro.core.batch.FallbackNotes` entry.

:func:`run_broadcast_windowed_batch` is the lane-batched form behind
:func:`repro.core.batch.run_broadcast_batch`'s reactive routing.
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
from repro.arena.network import ArenaNetwork
from repro.arena.window import WINDOW_CAP, run_windowed, windowable_adversary
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


def _note_slot_fallback(adversary) -> None:
    """Record (once per campaign, via the active collector) that a reactive
    adversary without the window interface forced slot stepping — mirrors
    ``run_broadcast_batch``'s scalar-fallback notes, so ``repro sweep``
    surfaces the backend choice instead of silently running 10x slower."""
    from repro.core import batch as _batch
    from repro.obs.recorder import active as _obs_active

    tel = _obs_active()
    if tel is not None:
        tel.count("arena.slot_fallbacks")
    if _batch._FALLBACK_NOTES is None:
        return
    _batch._FALLBACK_NOTES.add(
        f"arena[{type(adversary).__name__}]",
        "has no window-sensing interface",
        1,
        path=_batch.ARENA_SLOT_PATH,
    )


def run_broadcast_adaptive(
    protocol,
    n: int,
    adversary=None,
    *,
    seed: int = 0,
    max_slots: int = 50_000_000,
    backend: str = "auto",
    window_cap: Optional[int] = None,
) -> BroadcastResult:
    """Run one execution on the arena runtime and return the result.

    ``adversary`` may be ``None``, any oblivious jammer, or any reactive
    jammer — the arena hosts all three behind one entry point, so a study
    can put oblivious and adaptive cells in the same table.  Reaching
    ``max_slots`` truncates the run (``completed`` False, overrun recorded
    in ``extras`` where the adapter keeps one) instead of raising, mirroring
    the batched engine's per-lane overrun handling.

    ``backend`` selects the execution path (see the module docstring):
    ``"auto"`` window-steps whenever that is sound, ``"slot"`` forces the
    per-slot oracle, ``"window"`` demands window stepping and raises when
    the adversary cannot be window-stepped (oblivious jammers and reactive
    jammers without the window interface).  Either way ``extras["backend"]``
    records the path actually taken.  ``window_cap`` overrides the windowed
    driver's speculative width ceiling (tests sweep it; leave ``None`` for
    the default).
    """
    if backend not in ("auto", "slot", "window"):
        raise ValueError(f"unknown arena backend {backend!r}")
    columns = lift_protocol(protocol, n, seed)
    windowable = columns.supports_windows and windowable_adversary(adversary)
    if backend == "window" and not windowable:
        raise ValueError(
            "backend='window' needs a window-capable adapter and either no "
            "adversary or a reactive jammer with a window_latency"
        )
    if backend == "auto" and windowable:
        backend = "window"
    if backend == "window":
        result = run_windowed(
            [columns],
            [adversary],
            max_slots=max_slots,
            window_cap=WINDOW_CAP if window_cap is None else window_cap,
        )[0]
        result.extras["backend"] = "arena-window"
        return result
    if hasattr(adversary, "jam_slot") and not windowable:
        _note_slot_fallback(adversary)
    if adversary is not None:
        adversary.reset()
    net = ArenaNetwork(n, adversary, max_slots=max_slots)
    may_beacon = columns.emits_beacons
    clock = net.clock  # mirrors net.clock; a local int keeps the loop lean
    while not columns.done:
        if clock >= net.max_slots:
            net.overrun = True
            break
        channels, actions, has_listen, has_send = columns.begin_slot(clock)
        feedback = net.step(
            channels,
            actions,
            columns.current_channels(),
            may_beacon=may_beacon,
            has_listen=has_listen,
            has_send=has_send,
        )
        columns.end_slot(clock, feedback)
        clock += 1
    result = columns.result(net)
    result.extras["backend"] = "arena-slot"
    return result


def run_broadcast_windowed_batch(
    protocol,
    n: int,
    adversaries: Sequence[Optional[object]],
    seeds: Sequence[int],
    *,
    max_slots: int = 50_000_000,
) -> List[BroadcastResult]:
    """Window-step a lane batch of trials of one protocol in lockstep.

    The lane-batched arena entry behind
    :func:`repro.core.batch.run_broadcast_batch`: lane ``b`` runs
    ``(seed=seeds[b], adversary=adversaries[b])`` and is bit-identical to
    ``run_broadcast_adaptive(protocol, n, adversaries[b], seed=seeds[b])``
    — same trial seeds, same draws, same books — so batched campaigns match
    scalar ones byte for byte.  Every adversary must pass
    :func:`repro.arena.window.windowable_adversary` (callers route the other
    lanes to the slot path instead).
    """
    if len(adversaries) != len(seeds):
        raise ValueError("need one adversary entry per seed")
    columns = [lift_protocol(protocol, n, seed) for seed in seeds]
    results = run_windowed(columns, list(adversaries), max_slots=max_slots)
    for result in results:
        result.extras["backend"] = "arena-window"
    return results
