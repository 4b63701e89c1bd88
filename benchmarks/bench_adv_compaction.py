"""EXP-ADV-COMPACTION — continuous lane batching vs drained fixed blocks.

Engineering baseline for DESIGN.md section 13: the adv stream driver
(``run_adv_stream``) with compaction + refill at its production width
(``MultiCastAdv.stream_lane_width``, 32) against width-8 drained streams
(``run_broadcast_batch`` in 8-trial chunks: the same driver with no
pending queue, so nothing refills — the lockstep schedule) on a
staggered-exit workload — per eight trials, seven truncate at a small slot
cap and one runs to completion.

The two schedules do the *same* per-lane work (the per-lane RNG draws are
a pure function of each trial's seed — that is the schedule-invariance
contract), so what the bench measures is batching economics: a drained
block retires lanes mid-block but cannot admit new ones, so its kernel
passes run ever narrower and the per-pass overhead stops amortizing; the
refilled stream admits pending trials into freed slots and merges many
lanes per pass.  Compaction is also what makes *wide* widths viable: a
width-32 block without refill would run its long trials on a near-empty
batch.  The workload runs the protocol in its small-phase regime
(b = 1e-4), where per-pass overhead dominates per-row kernel work and the
pass count is the bill: the stream covers the same trials in ~5x fewer
kernel passes.

Each driver is timed ``ROUNDS`` times, alternating which runs first, and
the record keeps each side's best time and its spread (slowest / best):
one run per side read anywhere from 1.89x to 2.47x on one 2-vCPU host.

The committed ``benchmarks/BENCH_adv_compaction.json`` records the
acceptance figures: **>= 1.5x** end-to-end on this workload, the straggler
telemetry (``adv_batch.solo_slots`` — slots simulated with the batch
drained to one lane) collapsing under compaction, and the stream's
lane-occupancy fraction.  The in-test floors are looser (a loaded CI
runner must not flake): speedup > 1.2, solo slots at most half the fixed
path's, occupancy fraction >= 0.4.

Both paths must agree bit for bit before timing means anything — the
contract ``tests/core/test_lane_schedule_invariance.py`` proves in general
is re-asserted here on the exact workload being timed.

Regenerate the baseline with::

    REPRO_BENCH_JSON=benchmarks PYTHONPATH=src pytest benchmarks/bench_adv_compaction.py -q -s

``REPRO_BENCH_SMOKE=1`` shrinks the workload to CI size.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import run_once, smoke_mode
from repro import MultiCastAdv
from repro.analysis import render_table
from repro.core import run_broadcast_batch
from repro.core.batch import run_broadcast_stream
from repro.exp.registry import build_jammer
from repro.obs import collect_telemetry

N = 8
BUDGET = 100_000
BASE_SEED = 1
#: small-phase regime: R(i, j) stays near 1 for many epochs, so kernel
#: passes are overhead-bound and batching width is what pays
KNOBS = dict(alpha=0.24, b=0.0001, halt_noise_divisor=50.0, helper_wait=4.0, max_epochs=30)
#: the drained baseline's block width, fixed so committed records stay comparable
FIXED_WIDTH = 8
STREAM_WIDTH = MultiCastAdv(**KNOBS).stream_lane_width
#: staggered-exit stripe: 7 budget-truncated trials + 1 full run per eight
SHORT_CAP = 1_000
LONG_CAP = 400_000_000
#: timed runs per driver, alternating which driver goes first
ROUNDS = 3


def _workload(trials):
    seeds = [BASE_SEED + t for t in range(trials)]
    caps = [LONG_CAP if t % 8 == 7 else SHORT_CAP for t in range(trials)]
    return seeds, caps


def _jammers(trials):
    return [build_jammer("blanket", BUDGET, 1000 + t, n=N) for t in range(trials)]


def _assert_bit_identical(stream_rows, fixed_rows):
    assert len(stream_rows) == len(fixed_rows)
    for a, b in zip(stream_rows, fixed_rows):
        assert a.slots == b.slots
        assert a.completed == b.completed
        assert (a.node_energy == b.node_energy).all()
        assert (a.informed_slot == b.informed_slot).all()
        assert (a.halt_slot == b.halt_slot).all()


@pytest.mark.benchmark(group="EXP-ADV-COMPACTION")
def test_compaction_beats_fixed_blocks_on_staggered_exits(benchmark, bench_json):
    trials = 40 if smoke_mode() else 64
    seeds, caps = _workload(trials)

    def run_fixed():
        rows = []
        for k in range(0, trials, FIXED_WIDTH):
            rows.extend(
                run_broadcast_batch(
                    MultiCastAdv(**KNOBS),
                    N,
                    _jammers(trials)[k : k + FIXED_WIDTH],
                    seeds[k : k + FIXED_WIDTH],
                    max_slots=np.asarray(caps[k : k + FIXED_WIDTH]),
                )
            )
        return rows

    def run_stream():
        return run_broadcast_stream(
            MultiCastAdv(**KNOBS),
            N,
            _jammers(trials),
            seeds,
            max_slots=np.asarray(caps),
            lane_width=STREAM_WIDTH,
        )

    def timed(fn):
        with collect_telemetry() as tel:
            t0 = time.perf_counter()
            rows = fn()
            wall = time.perf_counter() - t0
            counters = tel.take_aggregates()["counters"]
        return rows, wall, counters

    def experiment():
        fixed_walls, stream_walls = [], []
        for r in range(ROUNDS):
            order = (run_fixed, run_stream) if r % 2 == 0 else (run_stream, run_fixed)
            for fn in order:
                rows, wall, counters = timed(fn)
                if fn is run_fixed:
                    fixed_rows, fixed_c = rows, counters
                    fixed_walls.append(wall)
                else:
                    stream_rows, stream_c = rows, counters
                    stream_walls.append(wall)
        fixed_s, stream_s = min(fixed_walls), min(stream_walls)
        _assert_bit_identical(stream_rows, fixed_rows)
        assert stream_c["adv_batch.lanes"] == trials
        lane = stream_c["adv_batch.lane_passes"]
        idle = stream_c.get("adv_batch.idle_lane_passes", 0)
        figures = {
            "fixed_s": round(fixed_s, 3),
            "stream_s": round(stream_s, 3),
            "speedup": round(fixed_s / stream_s, 2),
            "fixed_spread": round(max(fixed_walls) / fixed_s, 2),
            "stream_spread": round(max(stream_walls) / stream_s, 2),
            "fixed_passes": int(fixed_c["adv_batch.kernel_passes"]),
            "stream_passes": int(stream_c["adv_batch.kernel_passes"]),
            "fixed_solo_slots": int(fixed_c.get("adv_batch.solo_slots", 0)),
            "stream_solo_slots": int(stream_c.get("adv_batch.solo_slots", 0)),
            "stream_refills": int(stream_c.get("adv_batch.refills", 0)),
            "stream_occupancy_fraction": round(lane / (lane + idle), 3),
        }
        print()
        print(
            render_table(
                ["driver", "best wall (s) (slowest/best)", "kernel passes", "solo slots", "occupancy"],
                [
                    [
                        f"fixed blocks (w={FIXED_WIDTH})",
                        f"{fixed_s:.2f} (x{figures['fixed_spread']:.2f})",
                        f"{figures['fixed_passes']:,}",
                        f"{figures['fixed_solo_slots']:,}",
                        "-",
                    ],
                    [
                        f"lane stream (w={STREAM_WIDTH})",
                        f"{stream_s:.2f} (x{figures['stream_spread']:.2f})",
                        f"{figures['stream_passes']:,}",
                        f"{figures['stream_solo_slots']:,}",
                        f"{figures['stream_occupancy_fraction']:.0%}",
                    ],
                ],
                title=(
                    f"EXP-ADV-COMPACTION  stream vs fixed MultiCastAdv "
                    f"(n={N}, k={trials}, 7-short/1-long stripes, best of "
                    f"{ROUNDS} each, speedup {figures['speedup']:.2f}x)"
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
            "fixed_lane_width": FIXED_WIDTH,
            "stream_lane_width": STREAM_WIDTH,
            "short_cap": SHORT_CAP,
            "long_cap": LONG_CAP,
            "knobs": KNOBS,
            "rounds": ROUNDS,
        },
    )
    entry = bench_json.record_speedup(
        "adv staggered exits",
        baseline_s=figures["fixed_s"],
        fast_s=figures["stream_s"],
        floor=1.2,  # loose CI floor; the committed baseline records >= 1.5x
        fixed_spread=figures["fixed_spread"],
        stream_spread=figures["stream_spread"],
        fixed_passes=figures["fixed_passes"],
        stream_passes=figures["stream_passes"],
        fixed_solo_slots=figures["fixed_solo_slots"],
        stream_solo_slots=figures["stream_solo_slots"],
        stream_refills=figures["stream_refills"],
        stream_occupancy_fraction=figures["stream_occupancy_fraction"],
    )
    assert entry["speedup"] > entry["floor"], entry
    # the whole point of compaction: the straggler tail stops running solo
    assert (
        figures["stream_solo_slots"] <= figures["fixed_solo_slots"] / 2
    ), figures
    # refilled slots keep the kernel wide while trials remain
    assert figures["stream_occupancy_fraction"] >= 0.4, figures
    assert figures["stream_refills"] == trials - min(STREAM_WIDTH, trials)
    # merging is the mechanism: the stream must cover the same lane work
    # in far fewer kernel passes
    assert figures["stream_passes"] * 2 <= figures["fixed_passes"], figures
