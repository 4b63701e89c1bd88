"""Name registries for protocols and jammers.

Campaign specs (and the CLI) refer to protocols and adversaries by short
string names so a trial is described entirely by picklable, JSON-friendly
data and can be rebuilt inside a worker process.  This module is the single
source of truth for those names: :mod:`repro.cli` delegates here, so the CLI
and :mod:`repro.exp` always accept the same vocabulary and unknown names
fail with the same "here is what exists" message everywhere.

Each registry maps a canonical name to a builder plus aliases.  Builders take
only JSON-representable arguments (ints, floats, dicts) — never live objects.

Two jammer entries deserve a note:

* ``phase_targeted`` — Eve's best oblivious play against ``MultiCastAdv``
  (she knows the public timetable and burns her budget exactly in the
  phases whose channel-count guess matches n); its intervals are computed
  here from the registry's own ``ADV_KNOBS`` profile, so the name is fully
  JSON-friendly.  Builders receive the trial's ``n`` for this.
* the *reactive* family — ``sniper`` and ``trailing`` plus the parametric
  ``reactive:<latency>`` names (e.g. ``reactive:0``, ``reactive:3``).
  Reactive jammers run on the arena runtime (:mod:`repro.arena`);
  :func:`repro.core.result.run_broadcast` dispatches there automatically,
  so the same campaign grid can mix oblivious and adaptive cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.adversary import (
    BlanketJammer,
    FractionalJammer,
    FrontLoadedJammer,
    PeriodicBurstJammer,
    PhaseTargetedJammer,
    RandomJammer,
    ReactiveLatencyJammer,
    SniperJammer,
    SweepJammer,
    TrailingJammer,
)
from repro.baselines import DecayBroadcast, NaiveEpidemic, SingleChannelCompetitive
from repro.core import (
    MultiCast,
    MultiCastAdv,
    MultiCastAdvC,
    MultiCastC,
    MultiCastCore,
    multicast_adv_spans,
    phase_intervals,
)

__all__ = [
    "UnknownNameError",
    "protocol_names",
    "jammer_names",
    "oblivious_jammer_names",
    "reactive_jammer_names",
    "is_reactive_jammer",
    "canonical_protocol",
    "canonical_jammer",
    "build_protocol",
    "build_jammer",
]

#: MultiCastAdv laptop-scale profile shared by the CLI and campaigns
#: (see DESIGN.md section 2.2).
ADV_KNOBS = dict(alpha=0.24, b=0.05, halt_noise_divisor=50.0, helper_wait=4.0)


class UnknownNameError(ValueError):
    """An unregistered protocol/jammer name, with the valid choices attached."""

    def __init__(self, kind: str, name: str, choices: List[str]):
        self.kind = kind
        self.name = name
        self.choices = choices
        super().__init__(
            f"unknown {kind} {name!r} (valid choices: {', '.join(choices)})"
        )


@dataclass(frozen=True)
class _Entry:
    build: Callable
    aliases: tuple = ()
    #: True for sense-then-jam (reactive) jammers, which need the arena
    #: runtime; the derived name lists below read this flag, so a new entry
    #: cannot be miscategorized by forgetting a parallel list.
    reactive: bool = False


def _mk_adv(**overrides):
    knobs = dict(ADV_KNOBS, max_epochs=32)
    knobs.update(overrides)
    return knobs


_PROTOCOLS: Dict[str, _Entry] = {
    "core": _Entry(
        lambda n, T, C, knobs: MultiCastCore(n=n, T=max(T, n), **knobs),
        aliases=("multicastcore",),
    ),
    "multicast": _Entry(
        lambda n, T, C, knobs: MultiCast(n, **knobs),
        aliases=("mc",),
    ),
    "multicast_c": _Entry(
        lambda n, T, C, knobs: MultiCastC(n, C if C is not None else max(1, n // 8), **knobs),
        aliases=("mcc",),
    ),
    "adv": _Entry(
        lambda n, T, C, knobs: MultiCastAdv(**_mk_adv(**knobs)),
        aliases=("multicastadv",),
    ),
    "adv_c": _Entry(
        lambda n, T, C, knobs: MultiCastAdvC(
            C if C is not None else 8, **_mk_adv(**knobs)
        ),
        aliases=("multicastadvc",),
    ),
    "decay": _Entry(lambda n, T, C, knobs: DecayBroadcast(n, **knobs)),
    "naive": _Entry(lambda n, T, C, knobs: NaiveEpidemic(n, **knobs)),
    "single_channel": _Entry(
        lambda n, T, C, knobs: SingleChannelCompetitive(n, **knobs),
        aliases=("sc",),
    ),
}

#: Channels a reactive jammer hits per slot by default: enough to cover the
#: few simultaneous transmissions of a gallery-scale slot (override with
#: ``{"k": ...}`` in ``jammer_knobs``).
REACTIVE_K = 4


def _build_phase_targeted(budget, seed, knobs, n):
    """Targeted intervals from the registry's own ``MultiCastAdv`` profile:
    every (i, j)-phase with j = lg n − 1 (the "good" guess), over the same
    epoch horizon the ``adv`` entry runs."""
    knobs = dict(knobs)
    n_eff = 64 if n is None else int(n)
    phase = knobs.pop("phase", max(0, int(math.log2(max(2, n_eff))) - 1))
    epochs = int(knobs.pop("epochs", 32))
    proto = MultiCastAdv(**_mk_adv())
    intervals = phase_intervals(multicast_adv_spans(proto, epochs), phase=phase)
    return PhaseTargetedJammer(
        budget, intervals, **{"channel_fraction": 1.0, "seed": seed, **knobs}
    )


_JAMMERS: Dict[str, _Entry] = {
    "none": _Entry(lambda budget, seed, knobs, n: None),
    "blanket": _Entry(
        lambda budget, seed, knobs, n: BlanketJammer(
            budget, **{"channels": 0.9, "placement": "random", "seed": seed, **knobs}
        )
    ),
    "blackout": _Entry(
        lambda budget, seed, knobs, n: BlanketJammer(
            budget, **{"channels": 1.0, "seed": seed, **knobs}
        )
    ),
    "fractional": _Entry(
        lambda budget, seed, knobs, n: FractionalJammer(budget, 0.9, 0.9, seed=seed, **knobs)
    ),
    "frontloaded": _Entry(lambda budget, seed, knobs, n: FrontLoadedJammer(budget, **knobs)),
    "bursts": _Entry(
        lambda budget, seed, knobs, n: PeriodicBurstJammer(
            budget, **{"period": 90, "burst": 60, "channels": 1.0, "seed": seed, **knobs}
        )
    ),
    "sweep": _Entry(
        lambda budget, seed, knobs, n: SweepJammer(budget, **{"width": 8, "seed": seed, **knobs})
    ),
    "random": _Entry(
        lambda budget, seed, knobs, n: RandomJammer(budget, 0.5, seed=seed, **knobs)
    ),
    "phase_targeted": _Entry(_build_phase_targeted, aliases=("phase",)),
    # -- reactive (adaptive) jammers: run on the arena runtime ----------------
    "sniper": _Entry(
        lambda budget, seed, knobs, n: SniperJammer(
            budget, **{"k": REACTIVE_K, "seed": seed, **knobs}
        ),
        reactive=True,
    ),
    "trailing": _Entry(
        lambda budget, seed, knobs, n: TrailingJammer(
            budget, **{"k": REACTIVE_K, "seed": seed, **knobs}
        ),
        reactive=True,
    ),
}

#: Prefix of the parametric reactive family: ``reactive:<latency>`` builds a
#: :class:`repro.adversary.reactive.ReactiveLatencyJammer` with that sensing
#: latency (``reactive:0`` = within-slot, ``reactive:1`` = trailing).
REACTIVE_PREFIX = "reactive:"


def protocol_names() -> List[str]:
    """Canonical protocol names, in registry order."""
    return list(_PROTOCOLS)


def jammer_names() -> List[str]:
    """Canonical jammer names, in registry order (the parametric
    ``reactive:<latency>`` family is additionally accepted by
    :func:`canonical_jammer`)."""
    return list(_JAMMERS)


def oblivious_jammer_names() -> List[str]:
    """Registry jammers expressible on the oblivious block engine."""
    return [name for name, entry in _JAMMERS.items() if not entry.reactive]


def reactive_jammer_names() -> List[str]:
    """Registry jammers that need the arena runtime (excludes the parametric
    ``reactive:<latency>`` family, which is reactive by construction)."""
    return [name for name, entry in _JAMMERS.items() if entry.reactive]


def is_reactive_jammer(name: str) -> bool:
    """True iff the (canonicalized) name builds a reactive jammer."""
    canon = canonical_jammer(name)
    if canon.startswith(REACTIVE_PREFIX):
        return True
    return _JAMMERS[canon].reactive


def _resolve(kind: str, table: Dict[str, _Entry], name: str) -> str:
    key = name.lower()
    if key in table:
        return key
    for canon, entry in table.items():
        if key in entry.aliases:
            return canon
    choices = list(table)
    if kind == "jammer":
        choices.append("reactive:<latency>")
    raise UnknownNameError(kind, name, choices)


def canonical_protocol(name: str) -> str:
    """Resolve a protocol name or alias to its canonical registry name."""
    return _resolve("protocol", _PROTOCOLS, name)


def canonical_jammer(name: str) -> str:
    """Resolve a jammer name or alias to its canonical registry name.

    Besides the fixed table, accepts the parametric family
    ``reactive:<latency>`` for any non-negative integer latency.
    """
    key = name.lower()
    if key.startswith(REACTIVE_PREFIX):
        suffix = key[len(REACTIVE_PREFIX):]
        try:
            latency = int(suffix)
        except ValueError:
            latency = -1
        if latency < 0:
            raise UnknownNameError(
                "jammer", name, [*_JAMMERS, "reactive:<latency>"]
            )
        return f"{REACTIVE_PREFIX}{latency}"
    return _resolve("jammer", _JAMMERS, name)


def build_protocol(
    name: str,
    n: int,
    *,
    T: int = 0,
    C: Optional[int] = None,
    knobs: Optional[dict] = None,
):
    """Build a fresh protocol object by registry name.

    ``T`` is the adversary budget (only ``core`` needs it), ``C`` the channel
    cap for the limited variants, ``knobs`` extra constructor overrides.
    """
    entry = _PROTOCOLS[canonical_protocol(name)]
    return entry.build(int(n), int(T), C, dict(knobs or {}))


def build_jammer(
    name: str,
    budget: int,
    seed: int,
    *,
    knobs: Optional[dict] = None,
    n: Optional[int] = None,
):
    """Build a fresh jammer by registry name (``none`` or budget 0 -> None).

    ``n`` is the trial's network size; only timetable-aware strategies
    (``phase_targeted``) consult it, falling back to the gallery default 64
    when absent.
    """
    canon = canonical_jammer(name)
    if canon == "none" or budget == 0:
        return None
    if canon.startswith(REACTIVE_PREFIX):
        latency = int(canon[len(REACTIVE_PREFIX):])
        knobs = dict(knobs or {})
        # the latency is the name's identity — stores/tables key cells by it,
        # so a contradicting knob would record trials under the wrong cell
        if knobs.pop("latency", latency) != latency:
            raise ValueError(
                f"jammer {canon!r} carries its latency in the name; "
                "a conflicting 'latency' knob is not allowed"
            )
        return ReactiveLatencyJammer(
            int(budget),
            **{"latency": latency, "k": REACTIVE_K, "seed": int(seed), **knobs},
        )
    return _JAMMERS[canon].build(
        int(budget), int(seed), dict(knobs or {}), None if n is None else int(n)
    )
