"""Self-tests of the benchmark's own machinery, on campaigns of a few
milliseconds.  Run from the repository root with either of

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

(the file name keeps it out of the repository's default test collection).
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, os.path.join(run.ROOT, "src"))

TINY = {
    "protocols": ["multicast", "decay"],
    "jammers": ["blanket"],
    "ns": [8],
    "budget": 1000,
    "trials": 2,
    "base_seed": 5,
    "name": "selftest",
}


def _bench(work, reference=None, workers=1):
    """A Bench over the tiny grid, registered as a workload for its lifetime."""
    if reference is None:
        reference = os.path.join(work, "empty.jsonl")
        open(reference, "w").close()
    workloads.WORKLOADS["selftest"] = {"grid": TINY, "workers": workers, "reference": reference}
    try:
        return run.Bench("selftest", work)
    finally:
        del workloads.WORKLOADS["selftest"]


def test_altered_reference_row_is_flagged():
    with run._work_dir() as work:
        path = os.path.join(work, "reference.jsonl")
        open(path, "w").close()
        bench = _bench(work, path)
        first = bench.campaign(bench.record)
        rows = first["rows"]
        assert len(rows) == 4 and first["error"] is None
        altered = rows[1]["key"]
        with open(path, "w") as fh:
            for row in rows:
                if row["key"] == altered:
                    row = dict(row, max_cost=row["max_cost"] + 1)
                fh.write(json.dumps(row) + "\n")
        bench = _bench(work, path)
        again = bench.campaign(bench.record)
        failed = bench.check(again, bench.record_keys, record=True)
        assert failed == [altered]
        # the same rows against an intact reference pass
        bench.oracle = workloads.Oracle(reference={r["key"]: r for r in rows})
        assert bench.check(again, bench.record_keys, record=True) == []


def _assert_self_times_cover_wall(workers):
    with run._work_dir() as work:
        bench = _bench(work, workers=workers)
        tracer = spans.Tracer()
        out = bench.campaign(bench.record, tracer)
        assert out["error"] is None and len(out["rows"]) == 4
        agg = out["spans"]
        roots = sum(agg["total_s"].values())
        attributed = sum(v for k, v in agg["self_s"].items() if k not in (spans.ROOT, spans.WORKER_ROOT))
        residual = sum(agg["self_s"].get(r, 0.0) for r in (spans.ROOT, spans.WORKER_ROOT))
        assert abs(attributed + residual - roots) <= 1e-9 * max(1.0, roots)
        assert agg["total_s"][spans.ROOT] <= out["wall"]
        if workers > 1:  # worker spans made it home
            assert agg["total_s"][spans.WORKER_ROOT] > 0
            assert agg["self_s"]["exp.shard_append"] > 0
        values = spans.layer_values(agg, out["telemetry"], workers)
        assert abs(values["trace.unattributed_frac"] - residual / roots) < 1e-12


def test_self_times_plus_residual_sum_to_wall_serial():
    _assert_self_times_cover_wall(workers=1)


def test_self_times_plus_residual_sum_to_wall_sharded():
    _assert_self_times_cover_wall(workers=2)


def test_untraced_run_executes_no_wrapper():
    targets = spans.layer_targets()

    def current():
        return [
            owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            for owner, name, _, _ in targets
        ]

    originals = current()
    assert not any(hasattr(getattr(f, "__func__", f), spans.MARK) for f in originals)
    tracer = spans.Tracer()
    tracer.install()
    assert all(hasattr(getattr(f, "__func__", f), spans.MARK) for f in current())
    tracer.uninstall()
    assert all(a is b for a, b in zip(current(), originals))
    with run._work_dir() as work:
        bench = _bench(work)
        out = bench.campaign(bench.record)  # untraced
    assert out["error"] is None and len(out["rows"]) == 4
    assert tracer.self_s == {} and tracer.counts == {}


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    for key, reported in (("end_to_end", run.E2E_METRICS), ("per_layer", spans.LAYER_METRICS)):
        assert [(m["name"], m["unit"]) for m in declared[key]] == reported
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)


if __name__ == "__main__":
    tests = [(k, v) for k, v in sorted(globals().items()) if k.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} passed")
