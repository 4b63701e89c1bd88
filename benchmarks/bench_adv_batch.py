"""EXP-ADV-BATCH — the lane-batched MultiCastAdv/MultiCastAdvC kernel.

Engineering baseline, not a paper claim (the DESIGN.md section 9 analogue of
``bench_engine.py``'s section-6 figure): ``run_trials`` over the batched
Fig. 4/6 kernel (``repro.core.adv_batch``) vs. the scalar per-lane loop, at
the laptop profile the committed campaigns use.  The kernel's acceptance bar
is **>= 5x** on the uncapped ``adv`` case — the family that was genuinely
minutes-per-trial on the scalar path (huge channel spaces force its sparse
resolver) — recorded in the committed ``benchmarks/BENCH_adv_batch.json``;
the in-test assertion is a loose floor so a loaded CI runner cannot flake
the suite.  The channel-capped ``adv_c`` case lands lower (~2.5x): at
C <= 8 the scalar dense-grid resolver was never the bottleneck, and both
engines converge on the per-lane RNG draw floor (DESIGN.md section 6.3's
"draws are the floor" applies verbatim).  End-to-end trial sets include
the halt-race straggler (the slowest lane finishes its last epochs with
the batch mostly drained), so these figures are what campaigns actually
see, not a best-case kernel number.

The engines must agree bit for bit before timing means anything — the same
contract ``tests/core/test_batch_equivalence.py`` enforces — so each case
re-asserts per-trial equality here too.

Regenerate the baseline with::

    REPRO_BENCH_JSON=benchmarks PYTHONPATH=src pytest benchmarks/bench_adv_batch.py -q -s

``REPRO_BENCH_SMOKE=1`` shrinks the workload to CI size.
"""

import time

import pytest

from benchmarks.conftest import run_once, smoke_mode
from repro import MultiCastAdv, run_broadcast
from repro.analysis import render_table
from repro.analysis.stats import run_trials
from repro.core.limited import MultiCastAdvC
from repro.exp.registry import build_jammer
from repro.sim.rng import derive_seed

N = 8
BUDGET = 100_000
BASE_SEED = 1  # a pinned all-complete trial set (benches pin seeds anyway)
#: laptop-scale knobs (DESIGN.md section 2.2); structural constants are the
#: paper's.  max_epochs caps a (rare) stranded run like the campaign profile.
KNOBS = dict(alpha=0.24, b=0.01, halt_noise_divisor=50.0, helper_wait=4.0, max_epochs=30)
#: trials per kernel pass — the adv kernel amortizes per-block overhead
#: across lanes, and at n = 16 the per-lane working set is small, so wider
#: lanes win (unlike the n = 64 shared-coin kernel's cache-bound width 2)
LANE_WIDTH = 8


def _assert_bit_identical(scalar_results, batched_batch):
    for a, b in zip(scalar_results, batched_batch.results):
        assert a.slots == b.slots
        assert (a.node_energy == b.node_energy).all()
        assert (a.informed_slot == b.informed_slot).all()
        assert (a.halt_slot == b.halt_slot).all()


@pytest.mark.benchmark(group="EXP-ADV-BATCH")
def test_adv_batched_vs_scalar(benchmark, bench_json):
    """The acceptance figure: jammed MultiCastAdv and MultiCastAdvC trials
    through the lane-batched kernel vs. the scalar loop."""
    trials = 4 if smoke_mode() else 8

    def jammer_factory(seed):
        return build_jammer("blanket", BUDGET, seed, n=N)

    cases = {
        "adv": lambda: MultiCastAdv(**KNOBS),
        "adv_c(C=4)": lambda: MultiCastAdvC(4, **KNOBS),
    }

    def experiment():
        figures = {}
        rows = []
        for name, factory in cases.items():
            timings = {}
            t0 = time.perf_counter()
            # the scalar baseline: per-trial run_broadcast over the same
            # derived seeds run_trials uses
            scalar = [
                run_broadcast(
                    factory(),
                    N,
                    jammer_factory(derive_seed(BASE_SEED, "bench-adv-batch", "eve", t)),
                    seed=derive_seed(BASE_SEED, "bench-adv-batch", "net", t),
                    max_slots=400_000_000,
                )
                for t in range(trials)
            ]
            timings["scalar"] = time.perf_counter() - t0
            t0 = time.perf_counter()
            batched = run_trials(
                factory,
                N,
                jammer_factory,
                trials=trials,
                base_seed=BASE_SEED,
                label="bench-adv-batch",
                lane_width=LANE_WIDTH,
                max_slots=400_000_000,
            )
            timings["batched"] = time.perf_counter() - t0
            _assert_bit_identical(scalar, batched)
            total_slots = int(batched.slots.sum())
            figures[name] = {
                "scalar_s": round(timings["scalar"], 3),
                "batched_s": round(timings["batched"], 3),
                "speedup": round(timings["scalar"] / timings["batched"], 2),
                "trials_per_s_scalar": round(trials / timings["scalar"], 2),
                "trials_per_s_batched": round(trials / timings["batched"], 2),
                "slots_per_s_batched": round(total_slots / timings["batched"]),
                "success_rate": batched.success_rate,
            }
            rows.append(
                [
                    name,
                    f"{timings['scalar']:.2f}",
                    f"{timings['batched']:.2f}",
                    f"{figures[name]['speedup']:.2f}x",
                    f"{batched.success_rate:.0%}",
                ]
            )
        print()
        print(
            render_table(
                ["protocol", "scalar (s)", "batched (s)", "speedup", "ok"],
                rows,
                title=(
                    f"EXP-ADV-BATCH  batched vs scalar MultiCastAdv kernel "
                    f"(n={N}, k={trials}, blanket T={BUDGET:,}, lanes={LANE_WIDTH})"
                ),
            )
        )
        return figures

    figures = run_once(benchmark, experiment)
    bench_json.record(
        config={
            "n": N,
            "trials": trials,
            "base_seed": BASE_SEED,
            "budget": BUDGET,
            "jammer": "blanket",
            "lane_width": LANE_WIDTH,
            "knobs": KNOBS,
        },
    )
    floors = {"adv": 2.5, "adv_c(C=4)": 1.3}  # loose CI floors; the
    # committed baseline records adv >= 5x (the acceptance bar) and the
    # draws-floor-bound adv_c ~2.5x
    for name, f in figures.items():
        entry = bench_json.record_speedup(
            name,
            baseline_s=f["scalar_s"],
            fast_s=f["batched_s"],
            floor=floors[name],
            trials_per_s_scalar=f["trials_per_s_scalar"],
            trials_per_s_batched=f["trials_per_s_batched"],
            slots_per_s_batched=f["slots_per_s_batched"],
            success_rate=f["success_rate"],
        )
        assert entry["speedup"] > entry["floor"], (name, entry)
        assert entry["success_rate"] == 1.0, (name, entry)
