#!/usr/bin/env bash
# Regenerate the committed campaign record behind EXPERIMENTS.md.
#
# Every campaign is resumable: interrupting this script and re-running it
# skips trials already in the .jsonl stores. Delete a store to re-measure
# from scratch. Seeds live in the .spec.json files, so the statistics
# reproduce exactly (wall_time fields aside) on any machine.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

run() {
  echo "== $1"
  python -m repro sweep --spec "experiments/$1.spec.json" \
    --store "experiments/$2.jsonl" --workers "${WORKERS:-2}" --quiet
}

run gallery gallery
run scaling_n scaling_n
run budget_T50000 budget
run budget_T200000 budget
run budget_T800000 budget
run budget_T3200000 budget
run channels_C1 channels
run channels_C2 channels
run channels_C4 channels
run channels_C8 channels
run channels_C16 channels
# oblivious vs adaptive (EXPERIMENTS.md section 8); reactive cells run on
# the arena runtime — single-process is fine, they are seconds per trial
WORKERS=1 run arena arena
# the windowed reactive ladder (EXPERIMENTS.md section 8b): latency >= 1
# cells run lane-batched on the block-stepped arena driver and reproduce
# the slot-stepped section-8 rows byte for byte
WORKERS=1 run arena_windowed arena_windowed
# Thm 4.4 grid (EXPERIMENTS.md section 9)
run core_scaling_T25000 core_scaling
run core_scaling_T100000 core_scaling
run core_scaling_T400000 core_scaling
run core_scaling_T1600000 core_scaling
# unjammed MultiCastAdv additive term (EXPERIMENTS.md section 10); a few
# ten-million-slot trials — the longest cells of the whole record
run adv_unjammed adv_unjammed
# jammed MultiCastAdvC across channel caps (EXPERIMENTS.md section 11,
# Thm 7.2) — the first committed jammed unknown-n campaign, feasible only
# on the batched Fig. 4/6 kernel (DESIGN.md section 9).  Each campaign's
# cost sits in its n = 32 cell of 5 trials (3 for adv_unjammed); sharded
# blocks hold at most a cell's share of the workers (DESIGN.md section
# 10.1), so that cell splits across the workers instead of running as one
# block on one of them
run limited_adv_C2 limited_adv
run limited_adv_C4 limited_adv
run limited_adv_C8 limited_adv
# adaptive stopping demo (EXPERIMENTS.md section 12): trial counts are an
# output here — cells run seed waves until the max_cost CI target is hit,
# and the stopping decisions land in the store next to the trial rows
run adaptive adaptive

# the record is only done when the published docs match it: regenerate the
# EXPERIMENTS.md tables, CLAIMS.md and figures in memory and diff them
# against the committed files (exit 1 = the docs drifted from the data)
echo "== repro report --check"
python -m repro report --check
