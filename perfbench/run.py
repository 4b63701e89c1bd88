"""Campaign benchmark: end-to-end throughput, and per-layer self time.

Run from the repository root::

    python3 perfbench/run.py --workload gallery --seed 0 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seconds 24     # every workload

Each invocation measures one workload (``workloads.py``) in a fresh process:

1. ``setup_s``: nine fresh interpreters each import ``repro``, expand the
   workload's spec and open its store (with the opening ``merge_shards``);
   the fastest is reported, scaled to the reference machine (below).
2. For ``--seconds`` seconds the *record slice* (seed 0) runs again and
   again, and every campaign's rows are checked against the committed store
   (``short_sharded``: each full rotation against the digest in
   ``digests.json``).  The timed slice does not move with ``--seed`` because
   its cost does: the ``adv_limited`` cell's wall time is set by its slowest
   lane's epoch count, and across seeds that alone spreads trials/s by about
   18% (IQR/median), more than any bound worth gating on.
   With ``--trace 0`` the slice is cut into short campaigns
   (``workloads.chunks``) that run in rotation, and the throughput is the
   slice's trials (slots) over the sum of each chunk's fastest wall time.
   With ``--trace 1`` whole-slice campaigns alternate untraced and traced,
   and the per-layer metrics are medians over the traced ones
   (``spans.py``); ``trace.overhead_frac`` compares the two kinds.
3. ``peak_rss_mib`` is read.
4. The *held-out slice* runs once: the workload with every ``base_seed``
   offset by ``--seed``.  Its rows must satisfy the row invariants, and its
   row digest is printed so that two commits can be compared on a seed
   neither was tuned on.  ``--seed 0`` is the record's own seed, whose rows
   must equal the committed store's.

Serial workloads (and the set-up probes) run pinned to whichever CPU a short
probe loop finds quicker just before each campaign (``pin_quickest_cpu``).

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` (trials that raised, went missing, broke a row
invariant or differ from the reference) and ``metrics``.  A numpy fill-rate
calibration is sampled before each set-up sample and each rotation; the
timed metrics are scaled by the fastest sample of their phase to a machine
that fills ``REFERENCE_FILL_RATE`` million doubles/s (``host_scale``).  The
samples and the unscaled ``raw_trials_per_s`` are on the ``meta:`` line.
``--out FILE`` also writes the whole run as JSON for ``diff.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (stdlib only; repro is imported after setup probes)

#: (metric, unit) reported with ``--trace 0``; BENCHMARK.json lists the same.
E2E_METRICS = [
    ("trials_per_s", "trial/s"),
    ("slots_per_s", "slot/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
]
SETUP_SAMPLES = 9
#: numpy fill rate (million doubles/s) that the timed metrics are scaled to;
#: about what a 2-vCPU cloud VM reaches when its host is quiet.
REFERENCE_FILL_RATE = 300.0
WORK_DIR = os.path.join(ROOT, ".perfbench_tmp")
ALL_CPUS = frozenset(os.sched_getaffinity(0))


def _checkout_complete() -> str:
    """Empty string when the checkout has everything the benchmark needs,
    else what is missing."""
    needed = [os.path.join("src", "repro", "__init__.py"), workloads.DIGESTS_FILE]
    for wl in workloads.WORKLOADS.values():
        needed += [p for p in (wl.get("spec"), wl.get("reference")) if p]
    missing = [p for p in needed if not os.path.exists(os.path.join(ROOT, p))]
    return ", ".join(missing)


@contextmanager
def _work_dir():
    os.makedirs(WORK_DIR, exist_ok=True)
    path = tempfile.mkdtemp(prefix=f"{os.getpid()}-", dir=WORK_DIR)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)  # only when no other run is using it
        except OSError:
            pass


def _loop_time() -> float:
    """Seconds a fixed ~1 ms interpreter loop takes on the current CPU."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    return time.perf_counter() - t0


def probe() -> float:
    """The fastest of three runs of the probe loop on the current CPU."""
    return min(_loop_time() for _ in range(3))


def pin_quickest_cpu() -> None:
    """Pin this process (and what it starts) to the CPU on which the probe
    loop runs fastest right now.

    On a shared host each vCPU has slow spells of its own, from under a
    second to tens of seconds, in which everything on it runs up to 1.5x
    slower, and the two CPUs' spells barely correlate.  The probe predicts
    the next half-second fairly well (a 0.6 s campaign's time correlated 0.6
    with it), so starting each short timed campaign on the quicker CPU lets
    a run meet the uncontended speed more often.
    """
    speed = {}
    for cpu in sorted(ALL_CPUS):
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = probe()
    os.sched_setaffinity(0, {min(speed, key=speed.__getitem__)})


def unpin() -> None:
    os.sched_setaffinity(0, ALL_CPUS)


def setup_time(name: str, work: str) -> tuple:
    """One ``setup_probe.py`` sample in a fresh interpreter on the quicker
    CPU, and the calibration taken there just before it."""
    pin_quickest_cpu()
    try:
        calib = calibrate()
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), name, work],
            check=True,
            capture_output=True,
            text=True,
            timeout=120,
        )
    finally:
        unpin()
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"], calib


def calibrate(seconds: float = 0.1) -> float:
    """numpy ``random`` fill rate in millions of doubles per second."""
    import numpy as np

    rng = np.random.default_rng(12345)
    buf = np.empty(1 << 20)
    filled = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        rng.random(out=buf)
        filled += buf.size
    return filled / (time.perf_counter() - t0) / 1e6


def _calibrate_on(cpu: int, barrier, conn) -> None:
    os.sched_setaffinity(0, {cpu})
    barrier.wait()
    conn.send(calibrate())


def calibrate_where(workers: int) -> float:
    """The calibration where a campaign with ``workers`` runs: on the quicker
    CPU for a serial one; else on every CPU at once, as a pool loads them
    (two vCPUs may share a core), averaged."""
    if workers == 1:
        pin_quickest_cpu()
        try:
            return calibrate()
        finally:
            unpin()
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    first, *others = sorted(ALL_CPUS)
    barrier = ctx.Barrier(1 + len(others))
    children = []
    try:
        for cpu in others:
            recv, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_calibrate_on, args=(cpu, barrier, send))
            child.start()
            send.close()  # so recv() fails, not hangs, if the child dies
            children.append((child, recv))
        os.sched_setaffinity(0, {first})
        barrier.wait(timeout=60)
        rates = [calibrate()] + [recv.recv() for _, recv in children]
    finally:
        unpin()
        for child, _ in children:
            child.join(timeout=60)
            if child.is_alive():
                child.kill()
                child.join()
    return statistics.fmean(rates)


def host_scale(calib) -> float:
    """Factor that takes a time measured while the calibration read ``calib``
    to the reference machine: the fastest sample over the reference rate.

    The host's slow spells last tens of seconds, so even a run's fastest
    campaign swings by up to 1.5x between runs, and the fill rate swings with
    it.  The fastest campaign and the fastest calibration sample are both the
    host at its quickest during the run; their product keeps the program's
    speed and drops most of the host's (README.md has the measurements).
    """
    return max(calib) / REFERENCE_FILL_RATE


class Bench:
    """One workload's campaigns, run into fresh stores under ``work``."""

    def __init__(self, name: str, work: str):
        self.work = work
        self.workers = workloads.WORKLOADS[name]["workers"]
        self.record = workloads.campaign(name, ROOT)
        self.skipped = workloads.skipped_keys(name, self.record)
        keys = [s.key() for s in self.record.trial_specs()]
        self.record_keys = [k for k in keys if k not in self.skipped]
        self.oracle = workloads.Oracle.for_workload(name, ROOT, keys)

    def campaign(self, spec, tracer=None, prefill=()) -> dict:
        """Run ``spec`` once into a store that already holds the reference
        rows of ``prefill``; returns the rows it ran, wall time and (traced)
        aggregates."""
        from repro.exp import ResultStore, merge_shards, run_campaign
        from repro.obs import collect_telemetry

        store_dir = tempfile.mkdtemp(dir=self.work)
        path = os.path.join(store_dir, "store.jsonl")
        prefill = set(prefill)
        if prefill:
            with open(path, "w") as fh:
                fh.writelines(json.dumps(self.oracle.reference[k]) + "\n" for k in sorted(prefill))
        store = ResultStore(path)
        merge_shards(store)
        out = {"rows": [], "wall": None, "error": None}
        try:
            if tracer is None:
                t0 = time.perf_counter()
                records = run_campaign(spec, store, workers=self.workers)
                out["wall"] = time.perf_counter() - t0
            else:
                tracer.reset()
                tracer.install()
                try:
                    with collect_telemetry() as tel:
                        t0 = time.perf_counter()
                        records = tracer.root(run_campaign, spec, store, workers=self.workers)
                        out["wall"] = time.perf_counter() - t0
                finally:
                    tracer.uninstall()
                out["spans"] = tracer.take()
                out["telemetry"] = {"counters": dict(tel.counters)}
            out["rows"] = [workloads.row_dict(r) for r in records if r.key not in prefill]
        except Exception as exc:  # a broken program still gets a result line
            out["error"] = f"{type(exc).__name__}: {exc}"
            print(f"campaign failed: {out['error']}", file=sys.stderr)
        finally:
            store.close()
            shutil.rmtree(store_dir, ignore_errors=True)
        return out

    def check(self, result: dict, keys, record: bool) -> list:
        """Failed trial keys of one campaign: against the reference on the
        record seed, against the row invariants on any other."""
        if result["error"] is not None:
            return list(keys)
        return workloads.failed_keys(result["rows"], keys, self.oracle if record else None)


def _median(values):
    return statistics.median(values) if values else 0.0


def timed_rotations(name: str, bench: Bench, seconds: float) -> dict:
    """``--trace 0``: the record slice's chunks, run in rotation for
    ``seconds``; every chunk's fastest and median wall time.

    Each chunk is short, so every one of them gets several chances, spread
    over the run, to meet the host in a quiet moment; the fastest of those
    tracks the program rather than the host's other tenants.  A rotation
    runs every chunk once; the run stops at a rotation boundary, so every
    chunk runs equally often, and each rotation's rows together are the
    whole slice (which a digest oracle needs).
    """
    chunks = workloads.chunks(name, ROOT)
    specs = [spec for spec, _ in chunks.values()]
    prefills = [prefill for _, prefill in chunks.values()]
    keys = [[s.key() for s in spec.trial_specs() if s.key() not in prefill]
            for spec, prefill in zip(specs, prefills)]
    walls = [[] for _ in specs]
    trials = [0] * len(specs)
    slots = [0] * len(specs)
    by_reference = bench.oracle.reference is not None  # else a digest of the whole slice
    attempted = failed = 0
    calib = []  # one sample per rotation: the machine's speed as it ran
    record_digest = None
    start = time.perf_counter()
    while True:
        calib.append(calibrate_where(bench.workers))
        t = time.perf_counter()
        rows, bad = [], set()
        for i, spec in enumerate(specs):
            if bench.workers == 1:  # a pool needs both CPUs
                pin_quickest_cpu()
            try:
                result = bench.campaign(spec, prefill=prefills[i])
            finally:
                unpin()
            bad.update(bench.check(result, keys[i], record=by_reference))
            if result["wall"] is not None:
                walls[i].append(result["wall"])
            trials[i] = len(result["rows"])
            slots[i] = sum(r["slots"] for r in result["rows"])
            rows += result.pop("rows")
        if not by_reference:
            bad.update(bench.oracle.mismatches(rows))
        attempted += len(bench.record_keys)
        failed += len(bad)
        if record_digest is None:
            record_digest = workloads.digest(rows)
        took = time.perf_counter() - t
        # start another rotation only if it ends nearer the deadline than stopping now
        if time.perf_counter() - start + took / 2 > seconds:
            break
    ok = failed == 0 and all(walls)
    raw = sum(min(w) for w in walls) if ok else 0.0
    best = raw * host_scale(calib)
    typical = sum(_median(w) for w in walls) if ok else 0.0
    return {
        "trials_per_s": sum(trials) / best if best else 0.0,
        "slots_per_s": sum(slots) / best if best else 0.0,
        "raw_trials_per_s": sum(trials) / raw if raw else 0.0,
        "median_trials_per_s": sum(trials) / typical if typical else 0.0,
        "attempted": attempted,
        "failed": failed,
        "rotations": len(calib),
        "calib": calib,
        "walls": dict(zip(chunks, walls)),
        "record_digest": record_digest,
    }


def traced_campaigns(bench: Bench, seconds: float) -> dict:
    """``--trace 1``: whole record-slice campaigns alternating untraced and
    traced for ``seconds``; per-layer medians over the traced ones."""
    from spans import LAYER_METRICS, Tracer, layer_values

    tracer = Tracer()
    timed = []
    attempted = failed = 0
    record_digest = None
    calib = []
    start = time.perf_counter()
    while True:
        calib.append(calibrate())
        t = time.perf_counter()
        traced = len(timed) % 2 == 1
        result = bench.campaign(bench.record, tracer if traced else None, bench.skipped)
        bad = bench.check(result, bench.record_keys, record=True)
        attempted += len(bench.record_keys)
        failed += len(bad)
        if record_digest is None:
            record_digest = workloads.digest(result["rows"])
        # keep the campaign's summary, not its rows: held rows would
        # grow this process and its forked workers with every campaign
        result.pop("rows")
        result.update(traced=traced, ok=not bad)
        timed.append(result)
        took = time.perf_counter() - t
        # start another campaign only if it ends nearer the deadline than stopping now
        if len(timed) >= 2 and time.perf_counter() - start + took / 2 > seconds:
            break
    plain = [r for r in timed if r["ok"] and not r["traced"]]
    traced = [r for r in timed if r["ok"] and r["traced"]]
    per = [layer_values(r["spans"], r["telemetry"], bench.workers) for r in traced]
    metrics = {m: _median([p[m] for p in per]) for m, _ in LAYER_METRICS if m != "trace.overhead_frac"}
    metrics["trace.overhead_frac"] = (
        _median([r["wall"] for r in traced]) / _median([r["wall"] for r in plain]) - 1.0
        if traced and plain
        else 0.0
    )
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "calib": calib,
        "walls": {"traced": [r["wall"] for r in timed if r["traced"]],
                  "untraced": [r["wall"] for r in timed if not r["traced"]]},
        "record_digest": record_digest,
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    with _work_dir() as work:
        setup, setup_calib = zip(*(setup_time(name, work) for _ in range(SETUP_SAMPLES)))
        bench = Bench(name, work)
        run = traced_campaigns(bench, seconds) if trace else timed_rotations(name, bench, seconds)
        # peak RSS before the held-out slice, whose trials grow and shrink with --seed
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if bench.workers > 1:
            rss = max(rss, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

        held_spec = workloads.campaign(name, ROOT, seed)
        held_skip = bench.skipped if seed == 0 else []
        held_keys = [s.key() for s in held_spec.trial_specs() if s.key() not in held_skip]
        held = bench.campaign(held_spec, prefill=held_skip)
        held_bad = bench.check(held, held_keys, record=(seed == 0))
        held_digest = workloads.digest(held.pop("rows"))

    attempted = len(held_keys) + run["attempted"]
    failed = len(held_bad) + run["failed"]
    if trace:
        from spans import LAYER_METRICS

        metrics, units = run["metrics"], dict(LAYER_METRICS)
    else:
        # The fastest set-up, on the reference machine (see host_scale).
        metrics = {
            "trials_per_s": run["trials_per_s"],
            "slots_per_s": run["slots_per_s"],
            "setup_s": min(setup) * host_scale(setup_calib),
            "peak_rss_mib": rss / 1024.0,
        }
        units = dict(E2E_METRICS)
    meta = {
        "calib_mvalues_per_s": _median(run["calib"]),
        "calib_samples": run["calib"],
        "timed_walls_s": run["walls"],
        "trials_per_campaign": len(bench.record_keys),
        "setup_samples_s": setup,
        "setup_calib_samples": setup_calib,
        "heldout_digest": held_digest,
        "record_digest": run["record_digest"],
        "failed_frac": failed / attempted,
    }
    if not trace:
        meta.update(median_trials_per_s=run["median_trials_per_s"], rotations=run["rotations"],
                    raw_trials_per_s=run["raw_trials_per_s"])
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
        "meta": meta,
    }


def report(doc: dict) -> None:
    """Human-readable lines, then ``meta:``, then the result JSON line."""
    meta = doc["meta"]
    print(
        f"perfbench {doc['workload']} seed={doc['seed']} trace={doc['trace']}: "
        f"record slice of {meta['trials_per_campaign']} trials"
    )
    for name, m in doc["metrics"].items():
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':32s} {meta['failed_frac']:>14.6g} frac ({doc['failed']}/{doc['attempted']})")
    print(f"  held-out seed {doc['seed']} row digest {meta['heldout_digest']}")
    print("meta: " + json.dumps(meta, sort_keys=True))
    print(json.dumps({k: doc[k] for k in ("correct", "attempted", "failed", "metrics")}))


def run_all(args) -> int:
    """Every workload, each in its own fresh process; one table."""
    docs = []
    with _work_dir() as work:
        for name in workloads.WORKLOADS:
            path = os.path.join(work, f"{name}.json")
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", path]
            subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
            with open(path) as fh:
                docs.append(json.load(fh))
    for doc in docs:
        print(f"{doc['workload']:16s} correct={doc['correct']} failed={doc['failed']}/{doc['attempted']}")
        for name, m in doc["metrics"].items():
            print(f"  {name:32s} {m['value']:>14.6g} {m['unit']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(docs, fh, indent=1)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="offset added to every base_seed of the held-out slice (0 = record)")
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the whole run as JSON here")
    args = parser.parse_args(argv)

    missing = _checkout_complete()
    if missing:
        print(f"perfbench: not a repro checkout (missing {missing})", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.workload == "all":
        return run_all(args)
    doc = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
    report(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
