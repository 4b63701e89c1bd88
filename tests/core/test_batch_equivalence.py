"""Batched execution must be bit-identical, per lane, to the scalar path.

This is the determinism contract of the lane axis (DESIGN.md section 6):
for every protocol with a ``run_stream`` and every jammer in the registry,
running B seeded trials through :func:`repro.core.batch.run_broadcast_batch`
yields exactly the results of B scalar :func:`repro.core.result.run_broadcast`
calls — same slots, statuses, event slots, energy books, periods, extras.
Not statistically close: equal.
"""

import numpy as np
import pytest

from repro.core import (
    MultiCast,
    MultiCastAdv,
    MultiCastAdvC,
    MultiCastCore,
    run_broadcast,
    run_broadcast_batch,
)
from repro.exp.registry import build_jammer, build_protocol, oblivious_jammer_names

N = 16
BUDGET = 4_000
SEEDS = [3, 7, 11, 19]

#: protocols with a batched runner, as (registry name, factory) pairs
BATCHED_PROTOCOLS = {
    "core": lambda: build_protocol("core", N, T=BUDGET),
    "multicast": lambda: build_protocol("multicast", N),
    "multicast_c": lambda: build_protocol("multicast_c", N, C=2),
    "single_channel": lambda: build_protocol("single_channel", N),
    "decay": lambda: build_protocol("decay", N),
    "naive": lambda: build_protocol("naive", N),
}

#: tier-1 laptop profile for the MultiCastAdv equivalence matrix: structural
#: constants untouched, scale knobs shrunk so the *scalar* side of every
#: case stays around a second (DESIGN.md section 2.2 / 9)
ADV_N = 8
ADV_BUDGET = 2_000
ADV_FAST = dict(alpha=0.24, b=0.01, halt_noise_divisor=20.0, helper_wait=2.0, max_epochs=20)


def assert_results_equal(batched, reference, context):
    __tracebackhide__ = True
    for attr in (
        "protocol",
        "n",
        "slots",
        "completed",
        "adversary_spend",
        "halted_uninformed",
        "periods",
    ):
        assert getattr(batched, attr) == getattr(reference, attr), (context, attr)
    for attr in ("informed_slot", "halt_slot", "node_energy"):
        np.testing.assert_array_equal(
            getattr(batched, attr),
            getattr(reference, attr),
            err_msg=f"{context}: {attr}",
        )
    # extras may hold per-node arrays (MultiCastAdv's status lattice), which
    # plain dict equality cannot compare
    assert batched.extras.keys() == reference.extras.keys(), context
    for key, expected in reference.extras.items():
        if isinstance(expected, np.ndarray):
            np.testing.assert_array_equal(
                batched.extras[key], expected, err_msg=f"{context}: extras[{key}]"
            )
        else:
            assert batched.extras[key] == expected, (context, f"extras[{key}]")


def run_both_ways(
    factory, jammer_name, *, budget=BUDGET, seeds=SEEDS, n=N, max_slots=50_000_000
):
    adversaries = [
        build_jammer(jammer_name, budget, 100 + i, n=n) for i in range(len(seeds))
    ]
    batched = run_broadcast_batch(factory(), n, adversaries, seeds, max_slots=max_slots)
    for i, seed in enumerate(seeds):
        reference = run_broadcast(
            factory(),
            n,
            build_jammer(jammer_name, budget, 100 + i, n=n),
            seed=seed,
            max_slots=max_slots,
        )
        assert_results_equal(batched[i], reference, (jammer_name, i))


@pytest.mark.parametrize("jammer_name", sorted(oblivious_jammer_names()))
@pytest.mark.parametrize("protocol_name", sorted(BATCHED_PROTOCOLS))
def test_batched_equals_scalar(protocol_name, jammer_name):
    """The acceptance matrix: every batched protocol x every *oblivious*
    registry jammer.  Reactive jammers never reach the lane engine — the
    dispatcher falls back to per-lane arena runs, covered by
    tests/arena/test_adaptive_flow.py — so batching them here would only
    re-time the arena against itself."""
    budget = 0 if jammer_name == "none" else BUDGET
    run_both_ways(BATCHED_PROTOCOLS[protocol_name], jammer_name, budget=budget)


class TestTruncationParity:
    """Per-lane slot-limit overruns must match the scalar SlotLimitExceeded
    path, including the quirk that informed_slot reflects the final partial
    block while informed-set-derived counters do not."""

    def test_multicast_truncated_mid_iteration(self):
        run_both_ways(
            lambda: build_protocol("multicast", N),
            "blackout",
            budget=100_000,
            max_slots=3_000,
        )

    def test_core_counts_partial_iteration(self):
        run_both_ways(
            lambda: build_protocol("core", N, T=50_000),
            "blackout",
            budget=100_000,
            max_slots=2_000,
        )

    def test_decay_truncated(self):
        run_both_ways(
            lambda: build_protocol("decay", N),
            "blackout",
            budget=100_000,
            max_slots=50,
        )

    def test_naive_truncated(self):
        run_both_ways(
            lambda: build_protocol("naive", N),
            "blackout",
            budget=2_000_000,
            max_slots=900,
        )

    def test_adv_truncated_mid_phase(self):
        """MultiCastAdv lanes overrun at different clocks; each must stop
        exactly where the scalar SlotLimitExceeded lands (statuses from the
        last committed phase, informed_slot from the final partial block)."""
        run_both_ways(
            lambda: MultiCastAdv(**ADV_FAST),
            "blackout",
            budget=100_000,
            n=ADV_N,
            max_slots=3_000,
        )
        run_both_ways(
            lambda: MultiCastAdv(**ADV_FAST),
            "blackout",
            budget=100_000,
            n=ADV_N,
            max_slots=40_000,
        )

    @pytest.mark.parametrize("max_slots", [7, 16, 24, 150, 700])
    def test_adv_truncated_in_step_two(self, max_slots):
        """Regression: a lane whose overrun lands in *step II* of a phase
        must keep its pre-phase statuses — the scalar SlotLimitExceeded
        aborts _run_phase before the step-I un->in promotions in its local
        status copy are returned, so the batch driver must defer its own
        status write-back to phase end.  These max_slots values land the
        overrun in step II of the earliest phases (the two cases above land
        it in step I or at phase boundaries and missed the window)."""
        run_both_ways(
            lambda: MultiCastAdv(**ADV_FAST),
            "none",
            budget=0,
            n=ADV_N,
            max_slots=max_slots,
        )

    def test_adv_max_epochs_cutoff(self):
        run_both_ways(
            lambda: MultiCastAdv(alpha=0.24, b=0.01, max_epochs=6),
            "none",
            budget=0,
            n=ADV_N,
        )

    def test_max_iterations_cutoff(self):
        adversaries = [build_jammer("blackout", 500_000, i) for i in range(3)]
        batched = run_broadcast_batch(
            MultiCast(N, max_iterations=2), N, adversaries, [5, 6, 7]
        )
        for i, seed in enumerate([5, 6, 7]):
            reference = run_broadcast(
                MultiCast(N, max_iterations=2),
                N,
                build_jammer("blackout", 500_000, i),
                seed=seed,
            )
            assert_results_equal(batched[i], reference, ("max_iterations", i))
            assert not batched[i].completed


class TestAdvEquivalence:
    """The Fig. 4/6 kernel (core/adv_batch.py) against the scalar engine:
    same acceptance matrix as the shared-coin protocols, at the tier-1
    laptop profile.  This parity case used to be feasible only at the `slow`
    marker's scale; the batched kernel makes the sub-second version real.
    The full-scale differential (registry gallery profile, minutes of
    scalar time) stays behind `slow` below."""

    @pytest.mark.parametrize("jammer_name", sorted(oblivious_jammer_names()))
    def test_adv_batched_equals_scalar(self, jammer_name):
        budget = 0 if jammer_name == "none" else ADV_BUDGET
        run_both_ways(
            lambda: MultiCastAdv(**ADV_FAST),
            jammer_name,
            budget=budget,
            n=ADV_N,
            seeds=SEEDS[:2],
        )

    @pytest.mark.parametrize("C", [2, 4])
    def test_adv_c_batched_equals_scalar(self, C):
        """The channel-capped variant, including the boundary phase j = lg C
        where the helper rule drops the N'_m ceiling."""
        run_both_ways(
            lambda: MultiCastAdvC(C, **ADV_FAST),
            "blanket",
            budget=ADV_BUDGET,
            n=ADV_N,
            seeds=SEEDS[:2],
        )

    def test_adv_c_unjammed(self):
        run_both_ways(
            lambda: MultiCastAdvC(2, **ADV_FAST),
            "none",
            budget=0,
            n=ADV_N,
            seeds=SEEDS[:2],
        )


@pytest.mark.slow
class TestAdvEquivalenceFullScale:
    """The committed-campaign profile (registry ADV_KNOBS, n=16, jammed):
    minutes of scalar wall-clock, so `slow`-marked like the reference-node
    differentials — the tier-1 matrix above covers the same code paths at
    the laptop profile."""

    def test_gallery_profile_jammed(self):
        from repro.exp.registry import ADV_KNOBS

        run_both_ways(
            lambda: MultiCastAdv(**ADV_KNOBS, max_epochs=32),
            "phase_targeted",
            budget=250_000,
            n=16,
            seeds=SEEDS[:2],
            max_slots=400_000_000,
        )


class TestDispatcher:
    def test_scalar_fallback_without_run_stream(self, capsys):
        """Protocols lacking run_stream run scalar per lane, same interface —
        but stamped ``backend="scalar-fallback"`` and warned about on
        stderr, so campaign logs show which cells didn't batch."""

        class ScalarOnly:
            def __init__(self):
                self._inner = MultiCastCore(N, BUDGET)
                self.n = N

            def run(self, net, *, trace=None):
                return self._inner.run(net, trace=trace)

        seeds = [1, 2]
        batched = run_broadcast_batch(ScalarOnly(), N, None, seeds)
        assert "scalar fallback" in capsys.readouterr().err
        for i, seed in enumerate(seeds):
            reference = run_broadcast(MultiCastCore(N, BUDGET), N, None, seed=seed)
            assert batched[i].extras.pop("backend") == "scalar-fallback"
            assert_results_equal(batched[i], reference, ("fallback", i))

    def test_adv_no_longer_falls_back(self, capsys):
        """MultiCastAdv batches natively now: no stamp, no warning."""
        (result,) = run_broadcast_batch(
            MultiCastAdv(**ADV_FAST), ADV_N, None, [42]
        )
        assert "backend" not in result.extras
        assert capsys.readouterr().err == ""

    def test_mixed_reactive_batch_stamps_the_scalar_lanes(self, capsys):
        """A mixed batch is partitioned by adversary family, not demoted:
        the reactive lane window-steps on the arena (and carries its stamp),
        the oblivious lane streams on the lane engine — unstamped, unwarned
        and still equal to its per-trial run_broadcast."""
        from repro.adversary.reactive import TrailingJammer

        reactive = TrailingJammer(500, k=2, seed=1)
        oblivious = build_jammer("blanket", BUDGET, 2)
        results = run_broadcast_batch(
            MultiCast(N), N, [reactive, oblivious], [1, 2]
        )
        assert results[0].extras["backend"] == "arena-window"
        assert "backend" not in results[1].extras
        assert capsys.readouterr().err == ""
        reference = run_broadcast(
            MultiCast(N), N, build_jammer("blanket", BUDGET, 2), seed=2
        )
        assert_results_equal(results[1], reference, ("mixed", 1))

    def test_lane_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            run_broadcast_batch(MultiCast(N), N, [None], [1, 2])

    def test_needs_at_least_one_lane(self):
        with pytest.raises(ValueError):
            run_broadcast_batch(MultiCast(N), N, [], [])

    def test_shared_adversary_instance_rejected(self):
        """One adversary object cannot serve two lanes — it carries state."""
        adv = build_jammer("blanket", BUDGET, 1)
        with pytest.raises(ValueError):
            run_broadcast_batch(MultiCast(N), N, [adv, adv], [1, 2])

    def test_single_lane_batch_matches_run_broadcast(self):
        (batched,) = run_broadcast_batch(MultiCast(N), N, None, [42])
        reference = run_broadcast(MultiCast(N), N, None, seed=42)
        assert_results_equal(batched, reference, ("single-lane", 0))


class TestTraceDispatch:
    """``trace=`` is scalar-only (the recorder captures ONE execution).

    A one-lane batch falls back to the scalar engine — stamped and noted,
    never silent — and a multi-lane batch raises instead of attaching the
    recorder to an arbitrary lane or dropping it, which is what the batched
    and windowed dispatch paths used to do.
    """

    def test_single_lane_trace_falls_back_scalar(self, capsys):
        from repro.core.batch import collect_fallback_notes
        from repro.sim.trace import TraceRecorder

        trace = TraceRecorder()
        with collect_fallback_notes() as notes:
            (traced,) = run_broadcast_batch(
                MultiCast(N), N, None, [42], trace=trace
            )
        assert traced.extras.pop("backend") == "scalar-fallback"
        reference = run_broadcast(MultiCast(N), N, None, seed=42)
        assert_results_equal(traced, reference, ("trace-fallback", 0))
        # the trace actually recorded the execution...
        assert trace.growth
        assert trace.growth[-1].informed == N
        # ...and the fallback was noted, once, with the trace-specific cause
        assert [
            (reason, lanes)
            for (_, reason), (lanes, _) in notes.counts.items()
        ] == [("trace= forces the scalar path", 1)]

    def test_multi_lane_trace_raises(self):
        from repro.sim.trace import TraceRecorder

        with pytest.raises(ValueError, match="trace recording is scalar-only"):
            run_broadcast_batch(
                MultiCast(N), N, None, [1, 2], trace=TraceRecorder()
            )

    def test_multi_lane_reactive_trace_raises_before_windowed_dispatch(self):
        """The windowed-arena dispatch path must not swallow trace= either."""
        from repro.adversary.reactive import ReactiveLatencyJammer
        from repro.sim.trace import TraceRecorder

        adversaries = [
            ReactiveLatencyJammer(500, latency=2, k=2, seed=s) for s in (1, 2)
        ]
        with pytest.raises(ValueError, match="trace recording is scalar-only"):
            run_broadcast_batch(
                MultiCast(N), N, adversaries, [1, 2], trace=TraceRecorder()
            )
