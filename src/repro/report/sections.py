"""Renderers for the marker-guarded regions of EXPERIMENTS.md + the figures.

Each function takes the :class:`~repro.report.util.RecordBundle` and returns
the inner markdown of one region — tables, fit lines, figure links — exactly
as the committed stores dictate.  The surrounding prose (paper claims,
verdict narratives) stays hand-written in EXPERIMENTS.md; only what is a
pure function of the data lives here.

:data:`SECTIONS` is the region registry (names must match the markers in
EXPERIMENTS.md one-to-one; :func:`repro.report.markers.splice_all` enforces
the bijection), :data:`FIGURES` maps committed figure paths to builders.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List

import numpy as np

from repro.analysis import fit_loglog_slope, render_markdown_table, render_table
from repro.analysis.theory import (
    adv_cost,
    adv_time,
    limited_adv_time,
    limited_time,
    multicast_core_time,
    multicast_cost,
    multicast_time,
    normalize_to,
)
from repro.exp.store import CellStats, cells_where
from repro.report.figures import Series, svg_loglog
from repro.report.util import (
    ADV_ALPHA as _ADV_ALPHA,
    FIXED_T as _T,
    RecordBundle,
    ReportError,
    fmt_pm,
)

__all__ = ["SECTIONS", "FIGURES", "render_sections", "render_figures"]


def _fence(table: str) -> str:
    return f"```\n{table}\n```"


def _figure(name: str, alt: str) -> str:
    return f"![{alt}](experiments/figures/{name}.svg)"


def _ratio(cell: CellStats) -> str:
    r = cell.competitiveness
    return "inf" if r == float("inf") else f"{r:.4f}"


# -- section 2: the jammer gallery -------------------------------------------------


def sec_gallery(bundle: RecordBundle) -> str:
    rows = [
        [
            c.protocol,
            c.jammer,
            f"{c.success_rate:.0%}",
            fmt_pm(c.summary("slots")),
            fmt_pm(c.summary("max_cost")),
            f"{c.summary('adversary_spend').mean:.3g}",
            _ratio(c),
        ]
        for c in bundle.cells("gallery")
    ]
    return _fence(
        render_table(
            ["protocol", "jammer", "ok", "slots", "max cost", "Eve spend", "cost/T"],
            rows,
        )
    )


# -- section 3: channel scarcity ---------------------------------------------------


def _channels_cells(bundle: RecordBundle) -> List[CellStats]:
    return sorted(bundle.cells("channels"), key=lambda c: c.channels)


def sec_channels(bundle: RecordBundle) -> str:
    cells = _channels_cells(bundle)
    rows = [
        [
            c.channels,
            f"{c.success_rate:.0%}",
            fmt_pm(c.summary("slots")),
            fmt_pm(c.summary("max_cost")),
        ]
        for c in cells
    ]
    fit = fit_loglog_slope(
        [c.channels for c in cells], [c.summary("slots").mean for c in cells]
    )
    return "\n\n".join(
        [
            _fence(render_table(["C", "ok", "slots", "max cost"], rows)),
            f"Fit: `slots ~ C^{fit.exponent:.2f}` (r² = {fit.r2:.3f}); "
            "Cor. 7.1 predicts exponent −1.",
            _figure("channels", "completion time vs channel count, log-log"),
        ]
    )


# -- section 4: network-size scaling ----------------------------------------------


def _scaling_cells(bundle: RecordBundle) -> List[CellStats]:
    return sorted(bundle.cells("scaling_n"), key=lambda c: c.n)


def sec_scaling_n(bundle: RecordBundle) -> str:
    cells = _scaling_cells(bundle)
    ns = np.array([c.n for c in cells], dtype=float)
    measured = np.array([c.summary("slots").mean for c in cells])
    predicted = normalize_to(multicast_time(_T, ns.astype(int)), measured)
    rows = [
        [
            c.n,
            f"{c.success_rate:.0%}",
            fmt_pm(c.summary("dissemination_slot")),
            fmt_pm(c.summary("slots")),
            f"{p:.3g}",
            fmt_pm(c.summary("max_cost")),
        ]
        for c, p in zip(cells, predicted)
    ]
    return "\n\n".join(
        [
            _fence(
                render_table(
                    ["n", "ok", "all informed by", "completed at", "Thm 5.4a shape", "max cost"],
                    rows,
                )
            ),
            _figure("scaling_n", "dissemination and completion time vs n, log-log"),
        ]
    )


# -- section 5: budget scaling -----------------------------------------------------


def _budget_series(bundle: RecordBundle, protocol: str) -> List[CellStats]:
    series = cells_where(bundle.cells("budget"), protocol=protocol)
    return sorted(series, key=lambda c: c.budget)


def sec_budget(bundle: RecordBundle) -> str:
    rows, lines = [], []
    for protocol in ("core", "multicast"):
        series = _budget_series(bundle, protocol)
        for c in series:
            rows.append(
                [
                    protocol,
                    f"{c.budget:,}",
                    f"{c.success_rate:.0%}",
                    fmt_pm(c.summary("slots")),
                    fmt_pm(c.summary("max_cost")),
                ]
            )
        fit = fit_loglog_slope(
            [c.budget for c in series], [c.summary("max_cost").mean for c in series]
        )
        lines.append(
            f"`max_cost ~ T^{fit.exponent:.2f}` for {protocol} (r² = {fit.r2:.3f})"
        )
    return "\n\n".join(
        [
            _fence(render_table(["protocol", "T", "ok", "slots", "max cost"], rows)),
            "Fits: " + "; ".join(lines) + ".",
            _figure("budget", "busiest-node cost vs adversary budget, log-log"),
        ]
    )


# -- section 7: engine throughput (from the committed benchmark baseline) ----------


def sec_engine(bundle: RecordBundle) -> str:
    bench = bundle.bench("engine")
    try:
        results = bench["results"]["test_run_trials_batched_vs_scalar"]["speedups"]
        rows = [
            [
                jammer,
                f"{results[jammer]['baseline_s']:.2f}",
                f"{results[jammer]['fast_s']:.2f}",
                f"{results[jammer]['trials_per_s_scalar']:.2f}",
                f"{results[jammer]['trials_per_s_batched']:.2f}",
                f"{results[jammer]['speedup']:.2f}x",
            ]
            for jammer in ("none", "blanket")
        ]
    except KeyError as exc:
        raise ReportError(f"BENCH_engine.json is missing the expected key {exc}") from None
    return render_markdown_table(
        ["jammer", "scalar (s)", "batched (s)", "trials/s scalar", "trials/s batched", "speedup"],
        rows,
    )


# -- section 8: oblivious vs adaptive ---------------------------------------------

#: Ladder order + the sensing-latency column of the arena matchup table.
_ARENA_LADDER = (
    ("none", "—"),
    ("random", "(oblivious)"),
    ("trailing", "1"),
    ("reactive:2", "2"),
    ("sniper", "0 (in-slot)"),
)


def sec_arena(bundle: RecordBundle) -> str:
    cells = {c.jammer: c for c in bundle.cells("arena")}
    rows = []
    for jammer, latency in _ARENA_LADDER:
        if jammer not in cells:
            raise ReportError(f"arena store has no {jammer!r} cell")
        c = cells[jammer]
        rows.append(
            [
                f"`{jammer}`",
                latency,
                f"{c.success_rate:.0%}",
                fmt_pm(c.summary("slots")),
                f"{c.summary('adversary_spend').mean:.3g}",
                _ratio(c),
            ]
        )
    table = render_markdown_table(
        ["jammer", "sensing latency", "ok", "slots", "Eve spend", "cost/T"], rows
    )
    bench = bundle.bench("arena")
    try:
        runtime = bench["results"]["test_arena_vs_scalar_runtime"]["speedups"]
        speedups = ", ".join(
            f"{label} {runtime[key]['speedup']:.1f}x"
            for label, key in (("unjammed", "none"), ("sniper", "sniper"), ("trailing", "trailing"))
        )
    except KeyError as exc:
        raise ReportError(f"BENCH_arena.json is missing the expected key {exc}") from None
    return "\n\n".join(
        [
            table,
            "Arena runtime vs. the scalar reference loop, bit-identical results "
            f"(committed `benchmarks/BENCH_arena.json`): {speedups}.",
        ]
    )


#: Ladder order for the windowed-arena campaign: within-slot sensing first,
#: then the stale-view rungs — every cell window-steps.
_ARENA_WINDOWED_LADDER = (
    ("sniper", "0 (in-slot)", "windowed"),
    ("trailing", "1", "windowed"),
    ("reactive:1", "1", "windowed"),
    ("reactive:2", "2", "windowed"),
    ("reactive:4", "4", "windowed"),
)


def sec_arena_windowed(bundle: RecordBundle) -> str:
    cells = {c.jammer: c for c in bundle.cells("arena_windowed")}
    rows = []
    for jammer, latency, backend in _ARENA_WINDOWED_LADDER:
        if jammer not in cells:
            raise ReportError(f"arena_windowed store has no {jammer!r} cell")
        c = cells[jammer]
        rows.append(
            [
                f"`{jammer}`",
                latency,
                backend,
                f"{c.success_rate:.0%}",
                fmt_pm(c.summary("slots")),
                f"{c.summary('adversary_spend').mean:.3g}",
                _ratio(c),
            ]
        )
    table = render_markdown_table(
        ["jammer", "sensing latency", "backend", "ok", "slots", "Eve spend", "cost/T"],
        rows,
    )
    bench = bundle.bench("arena_windowed")
    try:
        ladders = []
        for label, key in (
            ("`multicast_c` (C=4)", "test_window_ladder_multicast_c"),
            ("`multicast`", "test_window_ladder_multicast"),
        ):
            rungs = bench["results"][key]["speedups"]
            speedups = ", ".join(
                f"L={latency} {rungs[f'latency_{latency}']['speedup']:.1f}x"
                for latency in (0, 1, 2, 4, 8)
            )
            ladders.append(f"{label}: {speedups}")
    except KeyError as exc:
        raise ReportError(
            f"BENCH_arena_windowed.json is missing the expected key {exc}"
        ) from None
    return "\n\n".join(
        [
            table,
            "Windowed vs. slot-stepped arena, bit-identical results (committed "
            "`benchmarks/BENCH_arena_windowed.json`): " + "; ".join(ladders) + ".",
        ]
    )


# -- section 9: MultiCastCore across T and n (Theorem 4.4) ------------------------


def _core_series(bundle: RecordBundle, n: int) -> List[CellStats]:
    series = cells_where(bundle.cells("core_scaling"), n=n)
    return sorted(series, key=lambda c: c.budget)


def sec_core_scaling(bundle: RecordBundle) -> str:
    cells = sorted(bundle.cells("core_scaling"), key=lambda c: (c.n, c.budget))
    rows = [
        [
            c.n,
            f"{c.budget:,}",
            f"{c.success_rate:.0%}",
            fmt_pm(c.summary("slots")),
            fmt_pm(c.summary("max_cost")),
        ]
        for c in cells
    ]
    lines = []
    for n in sorted({c.n for c in cells}):
        series = _core_series(bundle, n)
        budgets = [c.budget for c in series]
        tfit = fit_loglog_slope(budgets, [c.summary("slots").mean for c in series])
        cfit = fit_loglog_slope(budgets, [c.summary("max_cost").mean for c in series])
        lines.append(
            f"`slots ~ T^{tfit.exponent:.2f}`, `max_cost ~ T^{cfit.exponent:.2f}` "
            f"at n = {n}"
        )
    return "\n\n".join(
        [
            _fence(render_table(["n", "T", "ok", "slots", "max cost"], rows)),
            "Fits: " + "; ".join(lines) + " — Thm 4.4's envelope allows up to `T^1`.",
            _figure("core_scaling", "MultiCastCore time and cost vs adversary budget, log-log"),
        ]
    )


# -- section 10: the unknown-n additive term (Theorems 6.10b/c) -------------------


def _adv_cells(bundle: RecordBundle) -> List[CellStats]:
    return sorted(bundle.cells("adv_unjammed"), key=lambda c: c.n)


def sec_adv_unjammed(bundle: RecordBundle) -> str:
    cells = _adv_cells(bundle)
    ns = np.array([c.n for c in cells], dtype=float)
    slots = np.array([c.summary("slots").mean for c in cells])
    costs = np.array([c.summary("max_cost").mean for c in cells])
    pred_t = normalize_to(adv_time(0, ns, _ADV_ALPHA), slots)
    pred_c = normalize_to(adv_cost(0, ns, _ADV_ALPHA), costs)
    rows = [
        [
            c.n,
            f"{c.success_rate:.0%}",
            fmt_pm(c.summary("slots")),
            f"{pt:.3g}",
            fmt_pm(c.summary("max_cost")),
            f"{pc:.3g}",
        ]
        for c, pt, pc in zip(cells, pred_t, pred_c)
    ]
    return "\n\n".join(
        [
            _fence(
                render_table(
                    ["n", "ok", "slots", "6.10b shape", "max cost", "6.10c shape"],
                    rows,
                )
            ),
            _figure("adv_unjammed", "MultiCastAdv unjammed time and cost vs n, log-log"),
        ]
    )


# -- section 11: jammed MultiCastAdvC across C and n (Theorem 7.2) ----------------


def _limited_adv_series(bundle: RecordBundle, n: int) -> List[CellStats]:
    series = cells_where(bundle.cells("limited_adv"), n=n)
    return sorted(series, key=lambda c: c.channels)


def _limited_adv_ns(bundle: RecordBundle) -> List[int]:
    return sorted({c.n for c in bundle.cells("limited_adv")})


def sec_limited_adv(bundle: RecordBundle) -> str:
    cells = sorted(bundle.cells("limited_adv"), key=lambda c: (c.n, c.channels))
    rows = [
        [
            c.n,
            c.channels,
            f"{c.success_rate:.0%}",
            fmt_pm(c.summary("slots")),
            fmt_pm(c.summary("max_cost")),
            f"{c.summary('adversary_spend').mean:.3g}",
        ]
        for c in cells
    ]
    lines = []
    for n in _limited_adv_ns(bundle):
        series = _limited_adv_series(bundle, n)
        fit = fit_loglog_slope(
            [c.channels for c in series], [c.summary("slots").mean for c in series]
        )
        lines.append(f"`slots ~ C^{fit.exponent:.2f}` at n = {n} (r² = {fit.r2:.3f})")
    bench = bundle.bench("adv_batch")
    try:
        figures = bench["results"]["test_adv_batched_vs_scalar"]["speedups"]
        speedups = ", ".join(
            f"{name} {figures[name]['speedup']:.1f}x" for name in ("adv", "adv_c(C=4)")
        )
    except KeyError as exc:
        raise ReportError(
            f"BENCH_adv_batch.json is missing the expected key {exc}"
        ) from None
    return "\n\n".join(
        [
            _fence(
                render_table(["n", "C", "ok", "slots", "max cost", "Eve spend"], rows)
            ),
            "Fits: "
            + "; ".join(lines)
            + f" — Thm 7.2's additive term predicts `C^{-(2 - 2 * _ADV_ALPHA):.2f}`.",
            "Batched kernel vs. the scalar loop, bit-identical results "
            f"(committed `benchmarks/BENCH_adv_batch.json`): {speedups} — "
            "the speedup that makes this campaign committable at all.",
            _figure("limited_adv", "jammed MultiCastAdvC completion time vs channel cap, log-log"),
        ]
    )


# -- section 12: adaptive stopping (precision-targeted seed waves) ----------------

#: The stopping rule as embedded in a StoppingRecord key by
#: :meth:`repro.exp.adaptive.StoppingRule.suffix`.
_STOP_RULE = re.compile(r"stop\[(\w+)<=([^/\]]+)/w(\d+)/m(\d+)\]$")


def sec_adaptive(bundle: RecordBundle) -> str:
    stops = sorted(
        bundle.stopping("adaptive"), key=lambda s: (s.protocol, s.jammer, s.n)
    )
    if not stops:
        raise ReportError("adaptive store has no stopping records")
    match = _STOP_RULE.search(stops[0].key)
    if match is None:
        raise ReportError(f"unparsable stopping key {stops[0].key!r}")
    metric, target, wave, cap = (
        match.group(1),
        float(match.group(2)),
        int(match.group(3)),
        int(match.group(4)),
    )
    cells = {(c.protocol, c.jammer, c.n): c for c in bundle.cells("adaptive")}
    rows = []
    for s in stops:
        cell = cells.get((s.protocol, s.jammer, s.n))
        if cell is None or cell.trials != s.trials:
            raise ReportError(
                f"adaptive trial rows disagree with the stopping decision {s.key!r}"
            )
        rows.append(
            [
                s.protocol,
                s.jammer,
                s.trials,
                fmt_pm(cell.summary(metric)),
                f"{s.achieved:.3g}",
                s.reason,
            ]
        )
    spent = sum(s.trials for s in stops)
    fixed = cap * len(stops)
    return "\n\n".join(
        [
            _fence(
                render_table(
                    ["protocol", "jammer", "trials", metric, "achieved", "stopped on"],
                    rows,
                )
            ),
            f"{spent} trials where the fixed-cap grid runs {fixed} "
            f"({1 - spent / fixed:.0%} saved): per cell, waves of {wave} seeds "
            f"until the relative 95% CI half-width of `{metric}` reaches "
            f"{target:g} or the cap of {cap} does.",
        ]
    )


#: Region name -> renderer; must match the markers in EXPERIMENTS.md exactly.
SECTIONS: Dict[str, Callable[[RecordBundle], str]] = {
    "gallery": sec_gallery,
    "channels": sec_channels,
    "scaling_n": sec_scaling_n,
    "budget": sec_budget,
    "engine": sec_engine,
    "arena": sec_arena,
    "arena_windowed": sec_arena_windowed,
    "core_scaling": sec_core_scaling,
    "adv_unjammed": sec_adv_unjammed,
    "limited_adv": sec_limited_adv,
    "adaptive": sec_adaptive,
}


def render_sections(bundle: RecordBundle) -> Dict[str, str]:
    """All region contents, keyed by region name."""
    return {name: fn(bundle) for name, fn in SECTIONS.items()}


# -- figures ----------------------------------------------------------------------


def fig_channels(bundle: RecordBundle) -> str:
    cells = _channels_cells(bundle)
    C = [c.channels for c in cells]
    slots = [c.summary("slots").mean for c in cells]
    shape = normalize_to(limited_time(_T, 64, np.array(C, dtype=float)), np.array(slots))
    return svg_loglog(
        [
            Series("measured completion", C, slots),
            Series("Cor 7.1 shape (normalized)", C, list(shape), dashed=True, markers=False),
        ],
        title="MultiCast(C) vs blackout: completion time vs channels (n=64, T=1e5)",
        xlabel="channels C",
        ylabel="slots to completion",
    )


def fig_scaling_n(bundle: RecordBundle) -> str:
    cells = _scaling_cells(bundle)
    ns = [c.n for c in cells]
    completed = [c.summary("slots").mean for c in cells]
    informed = [c.summary("dissemination_slot").mean for c in cells]
    shape = normalize_to(
        multicast_time(_T, np.array(ns)), np.array(completed)
    )
    return svg_loglog(
        [
            Series("completed at", ns, completed),
            Series("all informed by", ns, informed),
            Series("Thm 5.4a shape (normalized)", ns, list(shape), dashed=True, markers=False),
        ],
        title="MultiCast vs blanket: time vs network size (T=1e5, a=0.1)",
        xlabel="nodes n",
        ylabel="slots",
    )


def fig_budget(bundle: RecordBundle) -> str:
    series = []
    for protocol, predictor, label in (
        ("multicast", multicast_cost, "Thm 5.4b shape (normalized)"),
        ("core", multicast_core_time, "Thm 4.4 shape (normalized)"),
    ):
        cells = _budget_series(bundle, protocol)
        T = [c.budget for c in cells]
        cost = [c.summary("max_cost").mean for c in cells]
        shape = normalize_to(predictor(np.array(T, dtype=float), 64), np.array(cost))
        series.append(Series(f"{protocol} max cost", T, cost))
        series.append(Series(label, T, list(shape), dashed=True, markers=False))
    return svg_loglog(
        series,
        title="Busiest-node cost vs Eve's budget (n=64, blanket)",
        xlabel="adversary budget T",
        ylabel="max node cost",
    )


def fig_core_scaling(bundle: RecordBundle) -> str:
    series = []
    for n in (16, 64):
        cells = _core_series(bundle, n)
        T = [c.budget for c in cells]
        series.append(Series(f"slots, n={n}", T, [c.summary("slots").mean for c in cells]))
    cells = _core_series(bundle, 64)
    T = [c.budget for c in cells]
    cost = [c.summary("max_cost").mean for c in cells]
    shape = normalize_to(multicast_core_time(np.array(T, dtype=float), 64), np.array(cost))
    series.append(Series("max cost, n=64", T, cost))
    series.append(Series("Thm 4.4 shape (normalized)", T, list(shape), dashed=True, markers=False))
    return svg_loglog(
        series,
        title="MultiCastCore vs blanket: time and cost vs Eve's budget",
        xlabel="adversary budget T",
        ylabel="slots / max node cost",
    )


def fig_adv_unjammed(bundle: RecordBundle) -> str:
    cells = _adv_cells(bundle)
    ns = np.array([c.n for c in cells], dtype=float)
    slots = [c.summary("slots").mean for c in cells]
    costs = [c.summary("max_cost").mean for c in cells]
    return svg_loglog(
        [
            Series("slots (unjammed)", list(ns), slots),
            Series(
                "6.10b additive shape (normalized)",
                list(ns),
                list(normalize_to(adv_time(0, ns, _ADV_ALPHA), np.array(slots))),
                dashed=True,
                markers=False,
            ),
            Series("max cost (unjammed)", list(ns), costs),
            Series(
                "6.10c additive shape (normalized)",
                list(ns),
                list(normalize_to(adv_cost(0, ns, _ADV_ALPHA), np.array(costs))),
                dashed=True,
                markers=False,
            ),
        ],
        title="MultiCastAdv, no jamming: the additive n-term (alpha=0.24)",
        xlabel="nodes n",
        ylabel="slots / max node cost",
    )


def fig_limited_adv(bundle: RecordBundle) -> str:
    series = []
    for n in _limited_adv_ns(bundle):
        cells = _limited_adv_series(bundle, n)
        C = np.array([c.channels for c in cells], dtype=float)
        slots = [c.summary("slots").mean for c in cells]
        series.append(Series(f"slots, n={n}", list(C), slots))
        # T = 0 isolates the additive n^{2+2α}/C^{2−2α} term: at the
        # committed budget the measured time is additive-term dominated
        # (see the ledger row), so that is the comparable shape
        shape = normalize_to(
            limited_adv_time(0, n, C, _ADV_ALPHA), np.array(slots)
        )
        series.append(
            Series(
                f"Thm 7.2 additive shape, n={n} (normalized)",
                list(C),
                list(shape),
                dashed=True,
                markers=False,
            )
        )
    return svg_loglog(
        series,
        title="MultiCastAdvC vs blackout: completion time vs channel cap (alpha=0.24)",
        xlabel="channel cap C",
        ylabel="slots to completion",
    )


#: Committed figure path (relative to the repo root) -> builder.
FIGURES: Dict[str, Callable[[RecordBundle], str]] = {
    "experiments/figures/channels.svg": fig_channels,
    "experiments/figures/scaling_n.svg": fig_scaling_n,
    "experiments/figures/budget.svg": fig_budget,
    "experiments/figures/core_scaling.svg": fig_core_scaling,
    "experiments/figures/adv_unjammed.svg": fig_adv_unjammed,
    "experiments/figures/limited_adv.svg": fig_limited_adv,
}


def render_figures(bundle: RecordBundle) -> Dict[str, str]:
    """All committed figures, keyed by repo-relative path."""
    return {path: fn(bundle) for path, fn in FIGURES.items()}
