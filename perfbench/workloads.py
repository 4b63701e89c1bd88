"""The benchmark's four campaign workloads, and the oracle that checks their rows.

Every workload is a slice of a campaign the repository already runs, driven
through the public :func:`repro.exp.run_campaign` API.  The definitions are
plain data so that ``setup_probe.py`` can start its clock before ``repro`` is
imported; :func:`campaign` turns one into a ``CampaignSpec``.

Why these four (each stresses a different set of layers):

* ``gallery`` -- the shared-coin block discipline over all 6 protocols x 6
  oblivious jammers: RNG draws, the ``core.batch`` kernel and jam
  construction (``sweep`` cells are the costliest).
* ``adv_limited`` -- three trials of one ``limited_adv_C4`` cell, the
  MultiCastAdv family that is most of the record's compute: draws, the
  ``core.adv_batch`` epoch/phase kernel and its phase checks; the three lanes
  exit at different epochs.
* ``arena_reactive`` -- the only workload that runs ``repro.arena``:
  ``sniper`` takes the slot-stepped fallback and ``reactive:2`` the windowed
  driver; block-discipline draws do nothing here.
* ``short_sharded`` -- thousands of millisecond trials on a 2-worker pool, so
  per-trial and per-pass fixed costs dominate and the ``exp`` layer
  (supervisor, shard append and merge, IPC, row serialization) shows.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import replace
from typing import Dict, List, Optional

#: name -> definition.  ``spec`` is a committed campaign spec (relative to the
#: checkout root) with ``overrides`` applied; ``grid`` is a spec built here.
#: ``split`` names the spec field whose values each get a campaign of their
#: own in the timed rotation, and ``per_trial`` cuts those further into one
#: campaign per trial (see :func:`chunks`).  ``skip`` lists trial indices that
#: the record slice does not run: their committed rows are put in the store
#: first, so ``run_campaign`` resumes past them.
#: ``reference`` names the committed store whose rows the record-seed slice
#: must reproduce; ``short_sharded`` has none and is checked against the row
#: digest in ``digests.json`` instead.
WORKLOADS: Dict[str, dict] = {
    "gallery": {
        "spec": "experiments/gallery.spec.json",
        "overrides": {"trials": 1},
        "split": "protocols",
        "workers": 1,
        "reference": "experiments/gallery.jsonl",
    },
    "adv_limited": {
        "spec": "experiments/limited_adv_C4.spec.json",
        # the n=8 cell's trials 0, 2 and 3 (1.9M, 3.0M and 4.8M slots), so
        # the lanes exit at different epochs and one campaign takes about a
        # second; trial 1 (19.2M slots) would be most of it
        "overrides": {"ns": [8], "trials": 4},
        "skip": [1],
        # an adv_c trial's length doubles with each extra epoch, so on some
        # held-out seeds one trial would run to the spec's 800M-slot cap
        # (about 100 s); 20M is four times the longest record trial here
        "held_out": {"max_slots": 20_000_000},
        "workers": 1,
        "reference": "experiments/limited_adv.jsonl",
    },
    "arena_reactive": {
        "spec": "experiments/arena_windowed.spec.json",
        "overrides": {"jammers": ["sniper", "reactive:2"], "trials": 3},
        "split": "jammers",
        "per_trial": True,
        "workers": 1,
        "reference": "experiments/arena_windowed.jsonl",
    },
    "short_sharded": {
        "grid": {
            "protocols": ["multicast", "decay", "naive"],
            "jammers": ["none", "random", "blanket"],
            "ns": [8, 16],
            "budget": 2000,
            "trials": 100,
            "base_seed": 1,
            "name": "short_sharded",
        },
        "split": "protocols",
        "workers": 2,
        "reference": None,
    },
}

#: Record-seed row digests for workloads without a committed store.
DIGESTS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

#: Row fields that legitimately differ between runs of the same trial.
VOLATILE_FIELDS = ("wall_time", "cs")


def campaign(name: str, root: str, seed: int = 0):
    """The workload's ``CampaignSpec`` with ``base_seed`` offset by ``seed``
    (0 reproduces the committed record's seeds; any other seed also applies
    the ``held_out`` overrides)."""
    from repro.exp import CampaignSpec

    wl = WORKLOADS[name]
    if "spec" in wl:
        spec = CampaignSpec.load(os.path.join(root, wl["spec"]))
        for field, value in wl["overrides"].items():
            setattr(spec, field, value)
    else:
        spec = CampaignSpec(**wl["grid"])
    if seed:
        for field, value in wl.get("held_out", {}).items():
            setattr(spec, field, value)
    spec.base_seed += int(seed)
    return spec


def skipped_keys(name: str, spec) -> List[str]:
    """Keys of ``spec``'s trials that the workload takes from the committed
    store instead of running."""
    skip = set(WORKLOADS[name].get("skip", ()))
    return [s.key() for s in spec.trial_specs() if s.trial in skip]


def chunks(name: str, root: str) -> Dict[str, tuple]:
    """The record slice cut into short campaigns: label -> (spec, keys to
    prefill).  Their run trials together are the slice's, each once.

    A chunk holds one ``split`` value; with ``per_trial``, one trial of it,
    reached by prefilling the trials before it (each such chunk is one cell).
    """
    spec = campaign(name, root)
    wl = WORKLOADS[name]
    field = wl.get("split")
    parts = {name: spec} if field is None else {
        str(v): replace(spec, **{field: [v]}) for v in getattr(spec, field)
    }
    out = {}
    for label, part in parts.items():
        skip = skipped_keys(name, part)
        if not wl.get("per_trial"):
            out[label] = (part, skip)
            continue
        for t in range(part.trials):
            one = replace(part, trials=t + 1)
            keys = [s.key() for s in one.trial_specs()]
            if keys[-1] not in skip:
                out[f"{label}/t{t}"] = (one, keys[:-1])
    return out


def row_dict(record) -> dict:
    """A trial record as its stored JSON row (the serializer's own output,
    so floats round-trip exactly as they do in the committed stores)."""
    return json.loads(record.to_json_line())


def _stable(row: dict) -> dict:
    return {k: v for k, v in row.items() if k not in VOLATILE_FIELDS}


def digest(rows: List[dict]) -> str:
    """Order-independent digest of a slice's rows, volatile fields dropped."""
    h = hashlib.sha256()
    for row in sorted(rows, key=lambda r: r["key"]):
        h.update(json.dumps(_stable(row), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def load_reference(path: str, keys) -> Dict[str, dict]:
    """Committed rows for ``keys`` (a store may hold other campaigns)."""
    wanted = set(keys)
    out: Dict[str, dict] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                row = json.loads(line)
                if row.get("key") in wanted:
                    out[row["key"]] = row
    return out


def mismatched_rows(rows: List[dict], reference: Dict[str, dict]) -> List[str]:
    """Keys whose row differs from its reference on any field both carry
    (the legacy gallery rows have no ``channels``), or has no reference."""
    bad = []
    for row in rows:
        ref = reference.get(row["key"])
        if ref is None:
            bad.append(row["key"])
            continue
        shared = (set(row) & set(ref)) - set(VOLATILE_FIELDS)
        if any(row[k] != ref[k] for k in shared):
            bad.append(row["key"])
    return bad


def implausible_rows(rows: List[dict]) -> List[str]:
    """Keys of rows that break invariants every trial must satisfy -- the
    check available on a held-out seed, where no committed row exists."""
    bad = []
    for r in rows:
        ok = (
            r["slots"] >= 1
            and 0 <= r["mean_cost"] <= r["max_cost"] <= r["slots"]
            and 0 <= r["adversary_spend"] <= r["budget"]
            and r["halted_uninformed"] >= 0
        )
        if r["success"]:
            ok = ok and (
                r["halted_uninformed"] == 0
                and r["dissemination_slot"] is not None
                and r["dissemination_slot"] <= r["slots"]
            )
        if not ok:
            bad.append(r["key"])
    return bad


class Oracle:
    """Checks a record-seed slice's rows against reference rows by key, or
    (without them) against a kept digest of the whole slice."""

    def __init__(
        self, reference: Optional[Dict[str, dict]] = None, row_digest: Optional[str] = None
    ):
        self.reference = reference
        self.row_digest = row_digest

    @classmethod
    def for_workload(cls, name: str, root: str, keys: List[str]) -> "Oracle":
        ref = WORKLOADS[name]["reference"]
        if ref is not None:
            return cls(reference=load_reference(os.path.join(root, ref), keys))
        with open(DIGESTS_FILE) as fh:
            return cls(row_digest=json.load(fh)[name])

    def mismatches(self, rows: List[dict]) -> List[str]:
        if self.reference is not None:
            return mismatched_rows(rows, self.reference)
        return [] if digest(rows) == self.row_digest else [r["key"] for r in rows]


def failed_keys(
    rows: List[dict], expected_keys: List[str], oracle: Optional[Oracle] = None
) -> List[str]:
    """Keys of failed trials: missing, implausible, or (given an oracle)
    different from the reference."""
    got = {r["key"] for r in rows}
    bad = [k for k in expected_keys if k not in got] + implausible_rows(rows)
    if oracle is not None:
        bad += oracle.mismatches(rows)
    return sorted(set(bad))
