"""Differential parity: the arena must be bit-identical to its oracles.

Two oracle families (see repro/arena/columns.py):

* reference protocols (Figs. 1/2/4) against :class:`ScalarNetwork` driving
  the scalar reference nodes — same per-node streams, so *everything*
  observable must match: feedback-derived statuses and event slots, energy
  books, halt slots, Eve's spend, period counts.  Oblivious and reactive
  jammers alike.
* baselines against the block engine (:func:`run_broadcast`) — same
  ``generator("nodes")`` stream; exact equality on jam-free runs and under
  deterministic oblivious jammers.

The minutes-long full MultiCastAdv run sits behind the ``slow`` marker; a
truncated run (a few phases) keeps Fig. 4 in the fast suite.
"""

import numpy as np
import pytest

from repro import (
    BlanketJammer,
    FrontLoadedJammer,
    MultiCast,
    MultiCastAdv,
    MultiCastC,
    MultiCastCore,
    run_broadcast,
)
from repro.adversary.reactive import (
    ReactiveLatencyJammer,
    SniperJammer,
    TrailingJammer,
)
from repro.arena import run_broadcast_adaptive
from repro.baselines import DecayBroadcast, NaiveEpidemic, SingleChannelCompetitive
from repro.core.reference import (
    run_scalar_multicast,
    run_scalar_multicast_adv,
    run_scalar_multicast_core,
)

N = 16
ADV_FAST = dict(alpha=0.24, b=0.01, halt_noise_divisor=50.0, helper_wait=4.0)

#: Jammer factories for the reference-protocol matrix: an unjammed control,
#: a deterministic oblivious jammer, and the reactive ladder.
JAMMERS = {
    "none": lambda: None,
    "blackout": lambda: BlanketJammer(3_000, channels=1.0),
    "sniper": lambda: SniperJammer(3_000, k=4, seed=9),
    "trailing": lambda: TrailingJammer(3_000, k=4, seed=9),
    "reactive:0": lambda: ReactiveLatencyJammer(3_000, latency=0, k=2, seed=9),
    "reactive:3": lambda: ReactiveLatencyJammer(3_000, latency=3, k=2, seed=9),
}


def assert_parity(scalar, arena, context, *, compare_extras=False):
    __tracebackhide__ = True
    for attr in (
        "n",
        "slots",
        "completed",
        "adversary_spend",
        "halted_uninformed",
        "periods",
    ):
        assert getattr(scalar, attr) == getattr(arena, attr), (context, attr)
    for attr in ("informed_slot", "halt_slot", "node_energy"):
        np.testing.assert_array_equal(
            getattr(scalar, attr),
            getattr(arena, attr),
            err_msg=f"{context}: {attr}",
        )
    if compare_extras:
        assert scalar.protocol == arena.protocol, context
        # the arena stamps which execution path ran — a runtime annotation
        # the oracle result cannot carry, excluded from the exact comparison
        extras = dict(arena.extras)
        assert extras.pop("backend") == "arena-window", context
        assert scalar.extras == extras, context


@pytest.mark.parametrize("jammer", sorted(JAMMERS))
@pytest.mark.parametrize("seed", [3, 5])
class TestReferenceParity:
    def test_multicast_core(self, jammer, seed):
        scalar = run_scalar_multicast_core(
            N, T=0, a=64.0, adversary=JAMMERS[jammer](), seed=seed
        )
        arena = run_broadcast_adaptive(
            MultiCastCore(n=N, T=0, a=64.0), N, JAMMERS[jammer](), seed=seed
        )
        assert_parity(scalar, arena, ("core", jammer, seed))

    def test_multicast(self, jammer, seed):
        scalar = run_scalar_multicast(
            N, adversary=JAMMERS[jammer](), a=0.005, seed=seed
        )
        arena = run_broadcast_adaptive(
            MultiCast(N, a=0.005), N, JAMMERS[jammer](), seed=seed
        )
        assert_parity(scalar, arena, ("multicast", jammer, seed))


class TestMultiCastAdvParity:
    def test_truncated_run_fast(self):
        """A few phases of Fig. 4, cut off by max_slots: exercises both steps,
        the counters and the phase machinery without the minutes-long halt."""
        proto = MultiCastAdv(**ADV_FAST)
        for adversary_factory in (
            lambda: None,
            lambda: TrailingJammer(1_000, k=2, seed=4),
            lambda: SniperJammer(1_000, k=2, seed=4),
        ):
            scalar = run_scalar_multicast_adv(
                proto, 8, adversary_factory(), seed=2, max_slots=3_000
            )
            arena = run_broadcast_adaptive(
                proto, 8, adversary_factory(), seed=2, max_slots=3_000
            )
            assert_parity(scalar, arena, ("adv", "truncated"))
            assert not arena.completed

    # The full end-to-end parity run (through the halts) is fused into the
    # existing slow oracle test so its minutes-long scalar workload is paid
    # once: tests/core/test_reference.py::
    # TestScalarMultiCastAdv::test_small_run_success_and_arena_parity.


#: Baseline factories and deterministic jammers for the engine-parity matrix.
BASELINES = {
    "decay": lambda: DecayBroadcast(N),
    "naive": lambda: NaiveEpidemic(N),
    "multicast_c": lambda: MultiCastC(N, 2, a=0.005),
    "single_channel": lambda: SingleChannelCompetitive(N, a=0.005),
}
DETERMINISTIC_JAMMERS = {
    "none": lambda: None,
    "blackout": lambda: BlanketJammer(500, channels=1.0),
    "frontloaded": lambda: FrontLoadedJammer(300),
}


@pytest.mark.parametrize("jammer", sorted(DETERMINISTIC_JAMMERS))
@pytest.mark.parametrize("baseline", sorted(BASELINES))
def test_baseline_matches_block_engine(baseline, jammer):
    """Engine-stream adapters reproduce run_broadcast bit for bit, extras
    and protocol label included."""
    block = run_broadcast(BASELINES[baseline](), N, DETERMINISTIC_JAMMERS[jammer](), seed=11)
    arena = run_broadcast_adaptive(
        BASELINES[baseline](), N, DETERMINISTIC_JAMMERS[jammer](), seed=11
    )
    assert_parity(block, arena, (baseline, jammer), compare_extras=True)


def test_baselines_accept_reactive_jammers():
    """The point of the lift: baselines now run under jammers the block
    engine cannot express at all."""
    for baseline, factory in sorted(BASELINES.items()):
        r = run_broadcast_adaptive(
            factory(), N, SniperJammer(2_000, k=2, seed=7), seed=11
        )
        assert r.slots > 0
        assert r.adversary_spend > 0, baseline
