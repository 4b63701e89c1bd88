"""EXP-ARENA-WINDOW — the block-stepped arena vs the slot-stepped oracle.

The windowed driver (:mod:`repro.arena.window`) exists to make reactive
grids as cheap as oblivious ones: a latency-L jammer decides slot t from
the busy mask of slot t - L, and busy masks never depend on jamming, so the
arena advances whole speculative windows through one batched kernel pass
instead of paying per-slot Python.  This bench regenerates the acceptance
figure — a sensing-latency ladder (L in {0, 1, 2, 4, 8}) run slot-stepped
*and* windowed at gallery scale, asserting bit-identity before any timing.

Two protocol rungs, because the attainable speedup is protocol-shaped:

* ``multicast_c`` (Thm 7.1's C-channel protocol, C = 4): nodes draw one
  virtual slot per *round*, so per-slot RNG cost is tiny and window stepping
  removes nearly all per-slot overhead — the committed full-scale figure is
  the >= 10x headline at every rung.
* ``multicast`` (Fig. 2): nodes draw channel + coin *every slot*; those
  draws are the PeriodDraws contract (bit-identity to the scalar oracle) and
  are paid identically by both drivers, so the windowed floor is the raw
  generator fill rate — a ~7-9x speedup, recorded honestly alongside.

L = 0 rungs (within-slot sensing, the sniper's power) are timed like the
rest: the window has no history ring to consult, every row simply targets
its own busy mask.  The baseline is the slot-stepped oracle
(:func:`repro.arena.network.run_slot_stepped`), which only tests and
benchmarks still call.

``REPRO_BENCH_JSON=<dir> pytest benchmarks/bench_arena_windowed.py -s``
regenerates ``BENCH_arena_windowed.json``; ``REPRO_BENCH_SMOKE=1`` shrinks
the workload to CI size.  In-test floors are loose (a loaded CI runner must
not flake); the >= 10x acceptance lives in the committed full-scale JSON.
"""

import time

import pytest

from benchmarks.conftest import run_once, smoke_mode
from repro import MultiCast, MultiCastC
from repro.adversary.reactive import ReactiveLatencyJammer
from repro.arena import lift_protocol, run_broadcast_adaptive, run_slot_stepped

LADDER = (0, 1, 2, 4, 8)


def _ladder(make_protocol, n, budget, seed):
    """Run the latency ladder through the slot oracle and the windowed
    driver; return per-rung figures."""
    rungs = {}
    for latency in LADDER:
        jammer = ReactiveLatencyJammer(budget, latency=latency, k=4, seed=9)
        t0 = time.perf_counter()
        slot = run_slot_stepped(lift_protocol(make_protocol(), n, seed), jammer)
        slot_s = time.perf_counter() - t0
        jammer = ReactiveLatencyJammer(budget, latency=latency, k=4, seed=9)
        t0 = time.perf_counter()
        windowed = run_broadcast_adaptive(make_protocol(), n, jammer, seed=seed)
        window_s = time.perf_counter() - t0
        # bit-identity first: the timing means nothing otherwise
        assert windowed.extras["backend"] == "arena-window"
        assert windowed.slots == slot.slots
        assert windowed.adversary_spend == slot.adversary_spend
        assert (windowed.node_energy == slot.node_energy).all()
        assert (windowed.informed_slot == slot.informed_slot).all()
        assert (windowed.halt_slot == slot.halt_slot).all()
        rungs[f"latency_{latency}"] = {
            "slot_s": slot_s,
            "window_s": window_s,
            "slots": int(slot.slots),
        }
    return rungs


def _record_ladder(bench_json, rungs, floor):
    """Route every rung through the unified speedup schema."""
    return {
        name: bench_json.record_speedup(
            name,
            baseline_s=row["slot_s"],
            fast_s=row["window_s"],
            floor=floor,
            slots=row["slots"],
            slots_per_s_slot=round(row["slots"] / row["slot_s"]),
            slots_per_s_window=round(row["slots"] / row["window_s"]),
        )
        for name, row in rungs.items()
    }


@pytest.mark.benchmark(group="EXP-ARENA-WINDOW")
def test_window_ladder_multicast_c(benchmark, bench_json):
    """The acceptance figure: Thm 7.1's C-channel protocol at gallery scale,
    slot vs windowed across the sensing-latency ladder."""
    n = 16 if smoke_mode() else 64
    a = 0.005 if smoke_mode() else 0.05
    budget = 5_000 if smoke_mode() else 100_000
    seed = 2

    rungs = run_once(
        benchmark, lambda: _ladder(lambda: MultiCastC(n, C=4, a=a), n, budget, seed)
    )
    bench_json.record(
        config={"protocol": "multicast_c", "n": n, "C": 4, "a": a,
                "budget": budget, "seed": seed},
    )
    recorded = _record_ladder(bench_json, rungs, floor=3.0)
    print(
        f"\n  [EXP-ARENA-WINDOW] multicast_c (n={n}, C=4) ladder: "
        + ", ".join(
            f"L={k.split('_')[1]}: {row['speedup']}x" for k, row in recorded.items()
        )
    )
    # the >= 10x acceptance is pinned by the committed full-scale JSON; this
    # floor only guards against gross regressions on a loaded CI runner
    for name, row in recorded.items():
        assert row["speedup"] > row["floor"], (name, row)


@pytest.mark.benchmark(group="EXP-ARENA-WINDOW")
def test_window_ladder_multicast(benchmark, bench_json):
    """The per-slot-draw protocol: windowing pays the PeriodDraws generator
    floor, so the recorded speedup sits lower — the honest companion row."""
    n = 16 if smoke_mode() else 64
    a = 0.005 if smoke_mode() else 0.05
    budget = 5_000 if smoke_mode() else 100_000
    seed = 2

    rungs = run_once(
        benchmark, lambda: _ladder(lambda: MultiCast(n, a=a), n, budget, seed)
    )
    bench_json.record(
        config={"protocol": "multicast", "n": n, "a": a, "budget": budget,
                "seed": seed},
    )
    recorded = _record_ladder(bench_json, rungs, floor=2.0)
    print(
        f"\n  [EXP-ARENA-WINDOW] multicast (n={n}) ladder: "
        + ", ".join(
            f"L={k.split('_')[1]}: {row['speedup']}x" for k, row in recorded.items()
        )
    )
    for name, row in recorded.items():
        assert row["speedup"] > row["floor"], (name, row)
