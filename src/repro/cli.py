"""Command-line interface: run broadcasts and small studies from the shell.

Examples
--------
Run one execution and print the result::

    python -m repro run --protocol multicast --n 64 \
        --jammer blanket --budget 2000000 --seed 7

Protocol x jammer gallery table::

    python -m repro gallery --n 64 --budget 1000000

Channel-scarcity sweep (Corollary 7.1's shape)::

    python -m repro channels --n 64 --budget 250000

Oblivious vs. adaptive jammers on the arena runtime (section-8 probe)::

    python -m repro arena --protocol multicast --n 64 --budget 100000

Parallel Monte Carlo campaign (resumable; see EXPERIMENTS.md)::

    python -m repro sweep --trials 20 --workers 0 --store results.jsonl

Regenerate (or verify) the committed record — EXPERIMENTS.md tables,
CLAIMS.md, figures — from the stores::

    python -m repro report           # rewrite whatever drifted
    python -m repro report --check   # CI invariant: exit 1 on drift

The CLI wraps the same public API the examples use; it exists so ad-hoc
reproduction runs don't require writing a script.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from typing import Optional, Set

from repro import MultiCastC, run_broadcast
from repro.analysis import render_table
from repro.arena import run_broadcast_adaptive, supports_protocol
from repro.exp import (
    CampaignInterrupted,
    CampaignSpec,
    RecoveryLog,
    ResultStore,
    StoppingRule,
    StoreWriteError,
    UnknownNameError,
    aggregate,
    merge_shards,
    remaining_quarantined,
    run_campaign,
)
from repro.exp import registry

__all__ = ["main", "build_parser", "make_protocol", "make_jammer"]

#: MultiCastAdv laptop-scale profile used by the CLI (see DESIGN.md 2.2).
ADV_KNOBS = registry.ADV_KNOBS


def make_protocol(name: str, n: int, *, T: int = 0, C: Optional[int] = None):
    """Build a protocol object by CLI name (unknown names exit with choices)."""
    try:
        return registry.build_protocol(name, n, T=T, C=C)
    except UnknownNameError as exc:
        raise SystemExit(str(exc)) from None


def make_jammer(name: str, budget: int, seed: int, n: Optional[int] = None):
    """Build a jammer by CLI name (``none`` -> no adversary; unknown -> exit)."""
    try:
        return registry.build_jammer(name, budget, seed, n=n)
    except UnknownNameError as exc:
        raise SystemExit(str(exc)) from None


def _result_rows(result):
    return [
        ["success", result.success],
        ["slots", result.slots],
        ["disseminated by", result.dissemination_slot],
        ["max node cost", result.max_cost],
        ["mean node cost", round(result.mean_cost, 1)],
        ["Eve's spend", result.adversary_spend],
        ["periods", result.periods],
    ]


def cmd_run(args) -> int:
    proto = make_protocol(args.protocol, args.n, T=args.budget, C=args.channels)
    adv = make_jammer(args.jammer, args.budget, seed=args.seed + 1, n=args.n)
    result = run_broadcast(proto, args.n, adversary=adv, seed=args.seed, max_slots=args.max_slots)
    print(render_table(["metric", "value"], _result_rows(result), title=str(result.protocol)))
    return 0 if result.success else 1


def cmd_gallery(args) -> int:
    jammers = [
        "none", "blanket", "blackout", "fractional", "frontloaded", "bursts",
        "sweep", "random", "phase_targeted",
    ]
    rows = []
    ok = True
    for name in jammers:
        proto = make_protocol(args.protocol, args.n, T=args.budget)
        adv = make_jammer(name, args.budget, seed=args.seed + 1, n=args.n)
        r = run_broadcast(proto, args.n, adversary=adv, seed=args.seed, max_slots=args.max_slots)
        ok &= r.success
        rows.append([name, "yes" if r.success else "NO", r.slots, r.adversary_spend, r.max_cost])
    print(
        render_table(
            ["jammer", "ok", "slots", "Eve spend", "max cost"],
            rows,
            title=f"{args.protocol} (n={args.n}) vs the gallery, budget {args.budget:,}",
        )
    )
    return 0 if ok else 1


#: Default `repro arena` matchups: an unjammed control, an oblivious jammer
#: with the same budget, and the reactive ladder from harmless (one-slot
#: latency) to model-breaking (within-slot sniper).  MultiCastAdv works here
#: too but is minutes-per-trial — keep it out of default grids.
ARENA_JAMMERS = "none,random,trailing,reactive:2,sniper"


def cmd_arena(args) -> int:
    jammers = [j for j in args.jammers.split(",") if j]
    rows = []
    for name in jammers:
        proto = make_protocol(args.protocol, args.n, T=args.budget, C=args.channels)
        # pre-validate liftability so a genuine adapter bug still tracebacks
        # instead of masquerading as a usage error
        if not supports_protocol(proto):
            raise SystemExit(
                f"protocol {args.protocol!r} has no arena column adapter"
            )
        adv = make_jammer(name, args.budget, seed=args.seed + 1, n=args.n)
        try:
            r = run_broadcast_adaptive(
                proto,
                args.n,
                adversary=adv,
                seed=args.seed,
                max_slots=args.max_slots,
                backend=args.backend,
            )
        except ValueError as exc:
            # backend=window with a jammer that must slot-step (e.g. sniper)
            raise SystemExit(f"jammer {name!r}: {exc}")
        rows.append(
            [
                name,
                "yes" if r.success else "NO",
                r.slots,
                r.adversary_spend,
                r.max_cost,
                r.halted_uninformed,
                r.extras.get("backend", "?").replace("arena-", ""),
            ]
        )
    print(
        render_table(
            ["jammer", "ok", "slots", "Eve spend", "max cost", "bad halts", "backend"],
            rows,
            title=(
                f"{args.protocol} (n={args.n}) on the adaptive arena, "
                f"budget {args.budget:,} (section-8 probe)"
            ),
        )
    )
    # adaptive probes *expect* failures (that is the finding); always exit 0
    return 0


def cmd_channels(args) -> int:
    rows = []
    ok = True
    C = 1
    while C <= args.n // 2:
        proto = MultiCastC(args.n, C)
        adv = make_jammer("blackout", args.budget, seed=args.seed + 1)
        r = run_broadcast(proto, args.n, adversary=adv, seed=args.seed, max_slots=args.max_slots)
        ok &= r.success
        rows.append([C, "yes" if r.success else "NO", r.slots, r.max_cost])
        C *= 2
    print(
        render_table(
            ["C", "ok", "slots", "max cost"],
            rows,
            title=f"MultiCast(C) sweep, n={args.n}, budget {args.budget:,} (Cor. 7.1: time ~ 1/C)",
        )
    )
    return 0 if ok else 1


def _sweep_campaign(args) -> CampaignSpec:
    """Build the campaign grid from CLI flags (or load ``--spec`` JSON).

    Explicit flags override the loaded spec; ``replace()`` re-runs
    validation, so e.g. ``--trials 0`` cannot slip past ``__post_init__``.
    """
    defaults = dict(
        protocols=["core", "multicast", "multicast_c"],
        jammers=["blanket", "bursts", "sweep"],
        ns=[64],
        budget=100_000,
        trials=10,
    )
    try:
        overrides = {
            "protocols": None if args.protocols is None else [p for p in args.protocols.split(",") if p],
            "jammers": None if args.jammers is None else [j for j in args.jammers.split(",") if j],
            "ns": None if args.n is None else [int(x) for x in args.n.split(",") if x],
            "budget": args.budget,
            "trials": args.trials,
            "base_seed": args.seed,
            "channels": args.channels,
            "max_slots": args.max_slots,
        }
        overrides = {k: v for k, v in overrides.items() if v is not None}
        if args.ci_target is not None:
            overrides["ci_target"] = args.ci_target
            overrides["ci_metric"] = args.ci_metric
            if args.max_trials is not None:
                overrides["max_trials"] = args.max_trials
        if args.spec:
            return dataclasses.replace(CampaignSpec.load(args.spec), **overrides)
        return CampaignSpec(**{**defaults, **overrides})
    except UnknownNameError as exc:
        raise SystemExit(str(exc)) from None
    except OSError as exc:
        raise SystemExit(f"cannot read campaign spec: {exc}") from None
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"bad campaign spec: {exc}") from None


def _sweep_rows(cells):
    rows = []
    for c in cells:
        slots, cost, spend = c.summary("slots"), c.summary("max_cost"), c.summary("adversary_spend")
        ratio = c.competitiveness
        rows.append(
            [
                c.protocol,
                c.jammer,
                c.n,
                c.trials,
                f"{c.success_rate:.0%}",
                f"{slots.mean:.3g} ±{slots.ci95:.2g}",
                f"{cost.mean:.3g} ±{cost.ci95:.2g}",
                f"{spend.mean:.3g}",
                "inf" if ratio == float("inf") else f"{ratio:.4f}",
            ]
        )
    return rows


@contextlib.contextmanager
def _fault_plan_env(path: Optional[str]):
    """Validate a ``--fault-plan`` file and export it to the campaign (and
    its workers) through :data:`~repro.faults.FAULT_PLAN_ENV`, restoring the
    previous environment on exit.  A malformed plan is a usage error, caught
    before any trial runs."""
    if path is None:
        yield
        return
    from repro.faults import FAULT_PLAN_ENV, FaultPlan

    try:
        plan = FaultPlan.load(path)
    except OSError as exc:
        raise SystemExit(f"cannot read fault plan: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise SystemExit(f"bad fault plan {path!r}: {exc}") from None
    print(
        f"fault injection: plan {plan.name!r} armed "
        f"({len(plan.faults)} fault(s), seed {plan.seed})",
        file=sys.stderr,
    )
    previous = os.environ.get(FAULT_PLAN_ENV)
    os.environ[FAULT_PLAN_ENV] = os.path.abspath(path)
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(FAULT_PLAN_ENV, None)
        else:
            os.environ[FAULT_PLAN_ENV] = previous


def _campaign_keys(campaign: CampaignSpec) -> Set[str]:
    """Every trial key the campaign could own.  Adaptive campaigns expand to
    the per-cell cap: a quarantined trial must count against the sweep even
    when the stopping rule would have ended the cell earlier."""
    if campaign.adaptive:
        cap = campaign.resolved_max_trials()
        return {
            dataclasses.replace(template, trial=t).key()
            for template in campaign.cell_templates()
            for t in range(cap)
        }
    return {s.key() for s in campaign.trial_specs()}


def _fmt_duration(seconds: float) -> str:
    """Compact duration for progress lines: 47s, 3m09s, 1h02m."""
    seconds = max(0, int(round(seconds)))
    hours, rem = divmod(seconds, 3600)
    minutes, secs = divmod(rem, 60)
    if hours:
        return f"{hours}h{minutes:02d}m"
    if minutes:
        return f"{minutes}m{secs:02d}s"
    return f"{secs}s"


def cmd_sweep(args) -> int:
    campaign = _sweep_campaign(args)
    store = ResultStore(args.store)
    # fold in any shards a crashed sharded run left behind, so the resume
    # count below (and the skip-set inside run_campaign) sees them
    merged = merge_shards(store)
    if merged:
        print(
            f"recovered: {merged} record(s) merged from leftover shard files",
            file=sys.stderr,
        )
    # count only THIS campaign's stored trials: shared stores hold others'
    skipped = len({s.key() for s in campaign.trial_specs()} & store.completed_keys())
    if skipped:
        print(f"resuming: {skipped} stored trial(s) found in {args.store}", file=sys.stderr)

    if args.telemetry and not args.store:
        raise SystemExit("--telemetry needs --store (it shards alongside it)")

    # progress carries elapsed/ETA/throughput so a long campaign (minutes-
    # per-cell adv grids on one core) is never opaque between JSONL flushes;
    # the trial key names the cell, so each line locates the campaign's
    # position
    started = time.monotonic()

    def progress(done, total, record):
        if not args.quiet:
            elapsed = time.monotonic() - started
            eta = elapsed / done * (total - done) if done else 0.0
            rate = done / elapsed if elapsed > 0 else 0.0
            util = ""
            if args.telemetry and elapsed > 0:
                # merged worker aggregates land on the parent recorder as
                # blocks complete: kernel-busy seconds over wall x workers
                # is the live utilization figure
                from repro.obs.recorder import active as _obs_active

                tel = _obs_active()
                pool_width = args.workers or os.cpu_count() or 1
                if tel is not None and tel.timers:
                    busy = sum(cell[0] for cell in tel.timers.values())
                    util = f" | util {min(busy / (elapsed * pool_width), 1.0) * 100:.0f}%"
            print(
                f"[{done}/{total}] {record.key} | "
                f"{_fmt_duration(elapsed)} elapsed | eta {_fmt_duration(eta)} | "
                f"{rate:.1f} trials/s{util}",
                file=sys.stderr,
            )

    recovery = RecoveryLog()
    try:
        with _fault_plan_env(args.fault_plan), store:
            records = run_campaign(
                campaign,
                store,
                workers=args.workers,
                progress=progress,
                backend=args.backend,
                telemetry=args.telemetry,
                recovery=recovery,
            )
    except CampaignInterrupted as exc:
        print(
            f"interrupted after {exc.done}/{exc.total} pending trials; "
            "re-run the same command to resume",
            file=sys.stderr,
        )
        return 130
    except StoreWriteError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except BrokenProcessPool:
        # the supervisor respawns pools and degrades to serial before giving
        # up, so reaching here means the pool died outside its watch (e.g.
        # during startup); stored rows are still safe
        print(
            "a worker process died; completed trials are safe in the shard "
            "files — re-run the same command to resume",
            file=sys.stderr,
        )
        return 1
    cells = aggregate(records)
    print(
        render_table(
            ["protocol", "jammer", "n", "trials", "ok", "slots", "max cost", "Eve spend", "cost/T"],
            _sweep_rows(cells),
            title=(
                f"campaign {campaign.name!r}: {len(records)} trials, "
                f"budget {campaign.budget:,}, base seed {campaign.base_seed}"
            ),
        )
    )
    if campaign.adaptive:
        _print_stopping_table(campaign, store)
    if args.telemetry:
        _print_telemetry_summary(args.store)
    for line in recovery.summary_lines():
        print(f"recovery: {line}", file=sys.stderr)
    leftover = remaining_quarantined(store, _campaign_keys(campaign))
    if leftover:
        print(
            f"quarantine: {len(leftover)} trial(s) still unresolved "
            f"(see {args.store}.quarantine.jsonl); aggregates above exclude "
            "them — re-run the same command to retry",
            file=sys.stderr,
        )
        return 2
    return 0


def _print_telemetry_summary(store_path: str) -> None:
    """One post-run stderr line from the merged telemetry stream: worker
    throughput and utilization, plus the obs-report pointer."""
    from repro.obs import iter_telemetry, telemetry_path

    path = telemetry_path(store_path)
    try:
        events = list(iter_telemetry(path))
    except OSError:
        return
    heartbeats = [e for e in events if e["event"] == "heartbeat"]
    campaigns = [e for e in events if e["event"] == "campaign"]
    # trials/elapsed come from the campaign row itself, not summed heartbeats:
    # a resumed store carries the interrupted run's heartbeats too, and a
    # no-op resume (trials == 0) has no throughput worth printing
    if heartbeats and campaigns and int(campaigns[-1].get("trials", 0)) > 0:
        busy: dict = {}
        for hb in heartbeats:
            busy[hb["source"]] = max(
                busy.get(hb["source"], 0.0), float(hb.get("elapsed", 0.0))
            )
        c = campaigns[-1]
        trials = int(c.get("trials", 0))
        elapsed = float(c.get("elapsed", 0.0))
        workers = int(c.get("workers", 0)) or len(busy)
        rate = trials / elapsed if elapsed > 0 else 0.0
        # worker elapsed can overlap the parent's own shard merge slightly,
        # so clamp — >100% utilization would only confuse
        util = (
            ", worker utilization "
            f"{min(sum(busy.values()) / (elapsed * workers), 1.0) * 100:.0f}%"
            if elapsed > 0 and workers
            else ""
        )
        print(
            f"telemetry: {rate:.1f} trials/s across {workers} worker(s){util}",
            file=sys.stderr,
        )
    print(f"telemetry: report with `python -m repro obs {store_path}`", file=sys.stderr)


def cmd_obs(args) -> int:
    """Render a telemetry run report, or gate benchmarks (--check-bench)."""
    if args.check_bench:
        from repro.obs.bench import check_bench

        ok, lines = check_bench(args.check_bench, args.baseline)
        for line in lines:
            print(line)
        return 0 if ok else 1
    if args.baseline:
        raise SystemExit("--baseline only applies with --check-bench")
    if not args.store:
        raise SystemExit("need a store path (or --check-bench DIR)")
    from repro.obs import iter_telemetry, render_report, telemetry_path, write_figures

    path = telemetry_path(args.store)
    try:
        events = list(iter_telemetry(path))
    except OSError as exc:
        raise SystemExit(
            f"no telemetry stream at {path} (run the campaign with "
            f"--telemetry): {exc}"
        ) from None
    print(render_report(events), end="")
    if args.figures:
        written = write_figures(events, args.figures)
        for fig in written:
            print(f"wrote {fig}")
        if not written:
            print("no timeline-bearing events; figures skipped")
    return 0


def _print_stopping_table(campaign: CampaignSpec, store: ResultStore) -> None:
    """The per-cell stopping decisions of an adaptive campaign, as a table."""
    suffix = StoppingRule.of_campaign(campaign).suffix()
    stops = [r for r in store.stopping_records() if r.key.endswith(suffix)]
    cells = {t.key().rsplit("/", 1)[0] for t in campaign.cell_templates()}
    stops = [r for r in stops if r.key.rsplit("/stop", 1)[0] in cells]
    if not stops:
        return
    rows = [
        [
            r.protocol,
            r.jammer,
            r.n,
            r.trials,
            f"{r.achieved:.3g}",
            r.reason,
        ]
        for r in stops
    ]
    print(
        render_table(
            ["protocol", "jammer", "n", "trials", "achieved", "stopped on"],
            rows,
            title=(
                f"adaptive stopping: target {campaign.ci_target:g} on "
                f"{campaign.ci_metric}, waves of {campaign.trials}, "
                f"cap {campaign.resolved_max_trials()}"
            ),
        )
    )


def cmd_report(args) -> int:
    # imported lazily: the report layer pulls in every analysis/ledger module,
    # which run/gallery/sweep invocations never need
    from repro.report import MarkerError, ReportError, report

    try:
        return report(root=args.root, check=args.check)
    except (ReportError, MarkerError) as exc:
        raise SystemExit(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Resource-competitive multi-channel broadcast (Chen & Zheng, SPAA 2019)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, default=64, help="number of nodes (node 0 = source)")
        p.add_argument("--budget", type=int, default=0, help="Eve's energy budget T")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-slots", type=int, default=200_000_000)

    p_run = sub.add_parser("run", help="one execution")
    common(p_run)
    p_run.add_argument("--protocol", default="multicast")
    p_run.add_argument("--jammer", default="blanket")
    p_run.add_argument("--channels", type=int, default=None, help="C for the (C) variants")
    p_run.set_defaults(fn=cmd_run)

    p_gal = sub.add_parser("gallery", help="one protocol vs every jammer")
    common(p_gal)
    p_gal.add_argument("--protocol", default="multicast")
    p_gal.set_defaults(fn=cmd_gallery)

    p_ch = sub.add_parser("channels", help="MultiCast(C) scarcity sweep")
    common(p_ch)
    p_ch.set_defaults(fn=cmd_channels)

    p_ar = sub.add_parser(
        "arena", help="oblivious vs adaptive jammers on the arena runtime"
    )
    common(p_ar)
    p_ar.add_argument("--protocol", default="multicast")
    p_ar.add_argument("--channels", type=int, default=None, help="C for the (C) variants")
    p_ar.add_argument(
        "--jammers",
        default=ARENA_JAMMERS,
        help=f"comma-separated jammer names (default {ARENA_JAMMERS})",
    )
    p_ar.add_argument(
        "--backend",
        choices=("auto", "slot", "window"),
        default="auto",
        help="arena execution path: auto window-steps every jammer with a "
        "sensing latency, within-slot sniper included (bit-identical, ~10x "
        "faster), slot forces the per-slot oracle, window refuses jammers "
        "that need slot stepping",
    )
    p_ar.set_defaults(fn=cmd_arena)

    p_sw = sub.add_parser("sweep", help="parallel Monte Carlo campaign (resumable)")
    # grid flags default to None so they can tell "explicit" from "absent":
    # explicit flags override a --spec file; absent ones fall back to the
    # spec's values (or the documented defaults when there is no --spec)
    p_sw.add_argument(
        "--protocols",
        default=None,
        help="comma-separated protocol names (default core,multicast,multicast_c)",
    )
    p_sw.add_argument(
        "--jammers",
        default=None,
        help="comma-separated jammer names (default blanket,bursts,sweep)",
    )
    p_sw.add_argument("--n", default=None, help="comma-separated network sizes (default 64)")
    p_sw.add_argument(
        "--budget", type=int, default=None, help="Eve's energy budget T (default 100000)"
    )
    p_sw.add_argument("--trials", type=int, default=None, help="trials per cell (default 10)")
    p_sw.add_argument("--seed", type=int, default=None, help="campaign base seed (default 0)")
    p_sw.add_argument("--channels", type=int, default=None, help="C for the (C) variants")
    p_sw.add_argument("--max-slots", type=int, default=None)
    p_sw.add_argument(
        "--workers",
        type=int,
        default=0,
        help="0 = one per CPU; 1 = serial fallback; >1 = sharded lane-batched pool",
    )
    p_sw.add_argument(
        "--backend",
        default="auto",
        choices=("auto", "batched", "scalar"),
        help="trial execution: lane-batched engine (auto/batched) or scalar loop",
    )
    p_sw.add_argument(
        "--ci-target",
        type=float,
        default=None,
        help="adaptive stopping: run seed waves per cell until the relative "
        "95%% CI half-width of --ci-metric reaches this (e.g. 0.05)",
    )
    p_sw.add_argument(
        "--ci-metric",
        default="slots",
        help="metric the --ci-target applies to (default slots)",
    )
    p_sw.add_argument(
        "--max-trials",
        type=int,
        default=None,
        help="per-cell seed cap under --ci-target (default 10x --trials)",
    )
    p_sw.add_argument(
        "--store", default=None, help="JSONL result store (enables resumption)"
    )
    p_sw.add_argument("--spec", default=None, help="load a CampaignSpec JSON file")
    p_sw.add_argument("--quiet", action="store_true", help="suppress per-trial progress")
    p_sw.add_argument(
        "--telemetry",
        action="store_true",
        help="record run telemetry to <store>.telemetry.jsonl (needs --store; "
        "trial rows are untouched — view with `repro obs <store>`)",
    )
    p_sw.add_argument(
        "--fault-plan",
        default=None,
        metavar="JSON",
        help="inject deterministic faults from this plan file (testing the "
        "supervision layer; see repro.faults)",
    )
    p_sw.set_defaults(fn=cmd_sweep)

    p_obs = sub.add_parser(
        "obs", help="telemetry run report / benchmark regression gate"
    )
    p_obs.add_argument(
        "store",
        nargs="?",
        default=None,
        help="trial store whose .telemetry.jsonl sidecar to report on",
    )
    p_obs.add_argument(
        "--figures",
        default=None,
        metavar="DIR",
        help="also write deterministic SVG timelines into DIR",
    )
    p_obs.add_argument(
        "--check-bench",
        default=None,
        metavar="DIR",
        help="validate the BENCH_*.json files in DIR against their recorded "
        "speedup floors (exit 1 on regression)",
    )
    p_obs.add_argument(
        "--baseline",
        default=None,
        metavar="DIR",
        help="with --check-bench: additionally gate DIR's fresh speedups "
        "against this directory's recorded floors (the CI regression gate)",
    )
    p_obs.set_defaults(fn=cmd_obs)

    p_rep = sub.add_parser(
        "report",
        help="regenerate EXPERIMENTS.md tables, CLAIMS.md and figures from the stores",
    )
    p_rep.add_argument(
        "--check",
        action="store_true",
        help="verify instead of write: exit 1 if any generated file drifted",
    )
    p_rep.add_argument(
        "--root", default=".", help="repository root holding EXPERIMENTS.md (default .)"
    )
    p_rep.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
