"""Committed record rows re-run through the production campaign path.

A handful of committed trials — one per engine family the record uses —
re-run through :func:`repro.exp.run_campaign` (the lane-streamed production
path) and must reproduce their committed rows field for field, except
``wall_time`` and ``cs`` (physical time and the row checksum over it).
Every fast draw and kernel shortcut promises bit-identical results; this is
the end-to-end check of that promise against data produced before any of
them, so a numpy release that changes a ``Generator`` stream fails here too.

The rows cover the shared-coin block kernel (three gallery cells, one of
them the sweep jammer), the MultiCastAdv kernel (a 1.87M-slot
``limited_adv_C4`` trial, and a 9.09M-slot unjammed ``adv`` trial on the
uncapped lattice: phase 0 with its one channel, and phases with ``2**j``
channels) and the windowed arena (``reactive:2``).
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.exp import CampaignSpec, run_campaign

REPO = Path(__file__).resolve().parent.parent.parent
EXPERIMENTS = REPO / "experiments"

#: Fields that legitimately differ between two runs of the same trial.
VOLATILE = ("wall_time", "cs")

#: (spec, store, protocol, jammer, n): trial 0 of each cell.
ROWS = [
    ("gallery.spec.json", "gallery.jsonl", "single_channel", "sweep", 64),
    ("gallery.spec.json", "gallery.jsonl", "multicast", "random", 64),
    ("gallery.spec.json", "gallery.jsonl", "multicast_c", "bursts", 64),
    ("limited_adv_C4.spec.json", "limited_adv.jsonl", "adv_c", "blackout", 8),
    ("adv_unjammed.spec.json", "adv_unjammed.jsonl", "adv", "none", 8),
    ("arena_windowed.spec.json", "arena_windowed.jsonl", "multicast", "reactive:2", 64),
]


def committed_row(store: str, key: str) -> dict:
    with open(EXPERIMENTS / store) as fh:
        for line in fh:
            row = json.loads(line)
            if row.get("key") == key:
                return row
    raise AssertionError(f"{key} is not in experiments/{store}")


@pytest.mark.parametrize(
    "spec_file, store, protocol, jammer, n",
    ROWS,
    ids=[f"{p}/{j}/n{n}" for _, _, p, j, n in ROWS],
)
def test_committed_row_reproduces(spec_file, store, protocol, jammer, n):
    spec = CampaignSpec.load(str(EXPERIMENTS / spec_file))
    cell = replace(spec, protocols=[protocol], jammers=[jammer], ns=[n], trials=1)
    (record,) = run_campaign(cell, workers=1)
    row = json.loads(record.to_json_line())
    want = committed_row(store, row["key"])
    # the legacy gallery rows predate the ``channels`` field: compare the
    # fields both rows carry
    shared = (set(row) & set(want)) - set(VOLATILE)
    assert shared >= {"key", "slots", "success", "periods", "max_cost", "mean_cost"}
    diff = {k: (row[k], want[k]) for k in sorted(shared) if row[k] != want[k]}
    assert not diff, f"{row['key']} differs from the committed row: {diff}"
