"""EXP-ENG — simulator throughput (engineering baseline, not a paper claim).

Timed kernels, with pytest-benchmark doing real statistical rounds here
(they are microseconds-to-milliseconds, unlike the experiment benches):

* dense block resolution (the Figs. 1/2/5 hot path);
* sparse block resolution at 2^26 channels (the Fig. 4 hot path);
* a full MultiCast broadcast end to end (slots/second figure of merit);
* the lane-batched trial engine vs. the per-trial scalar loop — the figure the
  committed ``BENCH_engine.json`` baseline tracks (DESIGN.md section 6).

``REPRO_BENCH_JSON=<dir> pytest benchmarks/bench_engine.py`` regenerates the
baseline; ``REPRO_BENCH_SMOKE=1`` shrinks everything to CI size.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import run_once, smoke_mode
from repro import MultiCast, run_broadcast
from repro.analysis.stats import run_trials
from repro.core.runner import shared_coin_actions, spread_block
from repro.exp.registry import build_jammer
from repro.sim.channel import resolve_block
from repro.sim.jam import JamBlock
from repro.sim.rng import RandomFabric, derive_seed


def make_case(K, n, C, p, seed=0):
    rng = RandomFabric(seed).generator("bench")
    channels = rng.integers(0, C, size=(K, n), dtype=np.int64)
    coins = rng.random((K, n))
    informed = rng.random(n) < 0.5
    informed[0] = True
    actions = shared_coin_actions(p)(coins, informed, np.ones(n, dtype=bool))
    return channels, actions


@pytest.mark.benchmark(group="EXP-ENG dense")
@pytest.mark.parametrize("n", [64, 256])
def test_dense_resolution_throughput(benchmark, n):
    K, C = 4096, n // 2
    channels, actions = make_case(K, n, C, p=1 / 64)
    jam = JamBlock.from_dense(
        RandomFabric(1).generator("jam").random((K, C)) < 0.3
    )
    result = benchmark(lambda: resolve_block(channels, actions, jam))
    assert result.shape == (K, n)


@pytest.mark.benchmark(group="EXP-ENG sparse")
def test_sparse_resolution_huge_channel_space(benchmark):
    K, n, C = (512 if smoke_mode() else 4096), 64, 1 << 26
    channels, actions = make_case(K, n, C, p=1 / 8)
    jam = JamBlock.from_rows(
        K, C, np.arange(0, K, 7, dtype=np.int64),
        [np.arange(50, dtype=np.int64)] * len(range(0, K, 7)),
    )
    result = benchmark(lambda: resolve_block(channels, actions, jam))
    assert result.shape == (K, n)


@pytest.mark.benchmark(group="EXP-ENG spread")
def test_spread_block_event_loop(benchmark):
    """The event-driven spreading path with a growing informed set."""
    K, n, C = 2048, 128, 64
    rng = RandomFabric(2).generator("spread")

    def run():
        channels = rng.integers(0, C, size=(K, n), dtype=np.int64)
        coins = rng.random((K, n))
        informed = np.zeros(n, dtype=bool)
        informed[0] = True
        return spread_block(
            channels, coins, JamBlock.empty(K, C), informed,
            np.ones(n, dtype=bool), shared_coin_actions(1 / 64),
        )

    out = benchmark(run)
    assert out.informed.shape == (n,)


@pytest.mark.benchmark(group="EXP-ENG end-to-end")
def test_full_broadcast_slots_per_second(benchmark):
    def run():
        return run_broadcast(MultiCast(64, a=0.05), 64, seed=3)

    rounds = 1 if smoke_mode() else 3
    result = benchmark.pedantic(run, rounds=rounds, iterations=1, warmup_rounds=0 if smoke_mode() else 1)
    assert result.success
    # figure of merit for the README: ~44k slots per run
    print(f"\n  [EXP-ENG] end-to-end run = {result.slots:,} slots")


@pytest.mark.benchmark(group="EXP-ENG batched")
def test_run_trials_batched_vs_scalar(benchmark, bench_json):
    """The engine acceptance figure: ``run_trials`` on the lane-batched
    engine vs. a per-trial ``run_broadcast`` loop over the same seeds at the
    gallery scale (``multicast``, n=64, k=32 trials), unjammed and under the
    gallery's blanket jammer.

    The committed ``benchmarks/BENCH_engine.json`` baseline demonstrates the
    >= 3x speedup on the 1-core reference box; the in-test assertion is a
    loose sanity floor so a loaded CI runner cannot flake the suite.
    """
    n = 64
    trials = 8 if smoke_mode() else 32
    budget = 100_000

    def jammer_factory(name):
        if name == "none":
            return None
        return lambda seed: build_jammer(name, budget, seed)

    def experiment():
        figures = {}
        for jammer in ("none", "blanket"):
            timings = {}
            factory = jammer_factory(jammer)
            t0 = time.perf_counter()
            # the scalar baseline: per-trial run_broadcast over the same
            # derived seeds run_trials uses
            scalar = [
                run_broadcast(
                    MultiCast(n),
                    n,
                    None if factory is None
                    else factory(derive_seed(1, "bench-engine", "eve", t)),
                    seed=derive_seed(1, "bench-engine", "net", t),
                )
                for t in range(trials)
            ]
            timings["scalar"] = time.perf_counter() - t0
            t0 = time.perf_counter()
            batched = run_trials(
                lambda: MultiCast(n),
                n,
                factory,
                trials=trials,
                base_seed=1,
                label="bench-engine",
            )
            timings["batched"] = time.perf_counter() - t0
            # the engines must agree bit for bit before timing means anything
            for a, b in zip(scalar, batched.results):
                assert a.slots == b.slots
                assert (a.node_energy == b.node_energy).all()
                assert (a.informed_slot == b.informed_slot).all()
            total_slots = int(batched.slots.sum())
            figures[jammer] = {
                "scalar_s": round(timings["scalar"], 3),
                "batched_s": round(timings["batched"], 3),
                "speedup": round(timings["scalar"] / timings["batched"], 2),
                "trials_per_s_scalar": round(trials / timings["scalar"], 2),
                "trials_per_s_batched": round(trials / timings["batched"], 2),
                "slots_per_s_batched": round(total_slots / timings["batched"]),
            }
        return figures

    figures = run_once(benchmark, experiment)
    bench_json.record(
        config={"protocol": "multicast", "n": n, "trials": trials, "budget": budget},
    )
    recorded = {
        jammer: bench_json.record_speedup(
            jammer,
            baseline_s=f["scalar_s"],
            fast_s=f["batched_s"],
            floor=1.2,
            trials_per_s_scalar=f["trials_per_s_scalar"],
            trials_per_s_batched=f["trials_per_s_batched"],
            slots_per_s_batched=f["slots_per_s_batched"],
        )
        for jammer, f in figures.items()
    }
    print("\n  [EXP-ENG] batched vs scalar run_trials "
          f"(n={n}, k={trials}): " + ", ".join(
              f"{j}: {f['speedup']}x" for j, f in recorded.items()))
    for jammer, f in recorded.items():
        assert f["speedup"] > f["floor"], (jammer, f)
