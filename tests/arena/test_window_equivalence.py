"""Differential equivalence: the windowed arena vs the slot-stepped oracle.

The block-stepped driver (:mod:`repro.arena.window`) promises *bit-identity*
with the per-slot arena for every reactive jammer with a sensing latency
(``window_latency >= 0``, within-slot sensing included) — same slots, same
informing/halt books, same energy, same adversary spend, draw for draw.
This suite pins that promise:

* the full adapter x jammer matrix (every column adapter, every reactive
  registry jammer, plus the unjammed control);
* truncation (``max_slots``) and overrun parity;
* a hypothesis property over random window caps and latencies from 0 —
  window placement must never be observable;
* the lane-batched entry point against per-lane slot runs;
* backend dispatch: ``auto`` routing, ``backend="window"`` validation, the
  ``extras["backend"]`` stamp, and the once-per-campaign
  :class:`~repro.core.batch.FallbackNotes` entry when a jammer without the
  window interface forces slot stepping.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.reactive import (
    ReactiveLatencyJammer,
    SniperJammer,
    TrailingJammer,
)
from repro.arena import (
    run_broadcast_adaptive,
    run_broadcast_windowed_batch,
    windowable_adversary,
)
from repro.core.batch import collect_fallback_notes
from repro.exp.registry import build_jammer, build_protocol

N = 16
BUDGET = 4_000

#: Reactive jammer factories, latency 0 included, plus the unjammed control.
#: The sniper's budget of 19 runs out mid-window under every adapter (under
#: ``adv`` the last affordable slot is clipped part-way), so the matrix also
#: pins budget exhaustion inside a speculative window.
JAMMERS = {
    "none": lambda: None,
    "sniper": lambda: SniperJammer(19, k=4, seed=9),
    "reactive:0": lambda: ReactiveLatencyJammer(BUDGET, latency=0, k=2, seed=9),
    "trailing": lambda: TrailingJammer(BUDGET, k=4, seed=9),
    "reactive:1": lambda: ReactiveLatencyJammer(BUDGET, latency=1, k=2, seed=9),
    "reactive:2": lambda: ReactiveLatencyJammer(BUDGET, latency=2, k=2, seed=9),
    "reactive:4": lambda: ReactiveLatencyJammer(BUDGET, latency=4, k=2, seed=9),
}

#: One spec per column adapter (name, registry args, run kwargs).  The
#: MultiCastAdv run is truncated like tests/arena/test_parity.py's fast row —
#: the full Fig. 4 run takes minutes and adds no new window machinery.
PROTOCOLS = {
    "core": ("core", {}, {}),
    "multicast": ("multicast", {}, {}),
    "multicast_c2": ("multicast_c", {"T": 20_000, "C": 2}, {}),
    "multicast_c4": ("multicast_c", {"T": 20_000, "C": 4}, {}),
    "single_channel": ("single_channel", {"T": 20_000}, {}),
    "decay": ("decay", {}, {}),
    "naive": ("naive", {}, {}),
    "adv": ("adv", {"T": 20_000}, {"max_slots": 3_000}),
}


def make_protocol(key: str):
    name, kwargs, _ = PROTOCOLS[key]
    return build_protocol(name, N, **kwargs)


def run_pair(key: str, jammer_key: str, *, seed: int = 2, window_cap=None):
    """Run (windowed, slot-stepped) with identical inputs."""
    _, _, kwargs = PROTOCOLS[key]
    windowed = run_broadcast_adaptive(
        make_protocol(key),
        N,
        JAMMERS[jammer_key](),
        seed=seed,
        backend="window",
        window_cap=window_cap,
        **kwargs,
    )
    slot = run_broadcast_adaptive(
        make_protocol(key), N, JAMMERS[jammer_key](), seed=seed,
        backend="slot", **kwargs,
    )
    return windowed, slot


def assert_identical(windowed, slot, context=""):
    """Everything observable must match except the backend stamp itself."""
    __tracebackhide__ = True
    assert windowed.extras.get("backend") == "arena-window", context
    assert slot.extras.get("backend") == "arena-slot", context
    for attr in ("slots", "completed", "adversary_spend", "halted_uninformed",
                 "periods", "protocol", "n"):
        assert getattr(windowed, attr) == getattr(slot, attr), (
            f"{context}: {attr} {getattr(windowed, attr)!r} != "
            f"{getattr(slot, attr)!r}"
        )
    for attr in ("informed_slot", "halt_slot", "node_energy"):
        assert (getattr(windowed, attr) == getattr(slot, attr)).all(), (
            f"{context}: {attr} diverges"
        )
    extras_w = {k: v for k, v in windowed.extras.items() if k != "backend"}
    extras_s = {k: v for k, v in slot.extras.items() if k != "backend"}
    assert extras_w.keys() == extras_s.keys(), context
    for k, v in extras_w.items():
        if isinstance(v, np.ndarray):
            assert (v == extras_s[k]).all(), f"{context}: extras[{k}] diverges"
        else:
            assert v == extras_s[k], f"{context}: extras[{k}] diverges"


@pytest.mark.parametrize("jammer_key", sorted(JAMMERS))
@pytest.mark.parametrize("key", sorted(PROTOCOLS))
def test_bit_identity_matrix(key, jammer_key):
    """Every adapter x every reactive jammer: windowed == slot."""
    windowed, slot = run_pair(key, jammer_key)
    assert_identical(windowed, slot, f"{key}/{jammer_key}")


def test_truncation_parity():
    """A max_slots overrun truncates both paths at the same slot with the
    same books (windowed lanes must not commit past the cap)."""
    for max_slots in (137, 500, 1_000):
        windowed = run_broadcast_adaptive(
            make_protocol("multicast"), N, JAMMERS["reactive:2"](),
            seed=5, backend="window", max_slots=max_slots,
        )
        slot = run_broadcast_adaptive(
            make_protocol("multicast"), N, JAMMERS["reactive:2"](),
            seed=5, backend="slot", max_slots=max_slots,
        )
        assert not windowed.completed
        assert windowed.slots <= max_slots
        assert_identical(windowed, slot, f"max_slots={max_slots}")


@settings(max_examples=20, deadline=None)
@given(
    cap=st.integers(min_value=1, max_value=300),
    latency=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=50),
)
def test_window_boundaries_unobservable(cap, latency, seed):
    """Property: window placement never leaks into the results — any cap,
    any latency, any seed reproduces the slot-stepped run exactly."""
    adversary = ReactiveLatencyJammer(2_000, latency=latency, k=2, seed=9)
    windowed = run_broadcast_adaptive(
        build_protocol("multicast", N), N, adversary,
        seed=seed, backend="window", window_cap=cap,
    )
    adversary = ReactiveLatencyJammer(2_000, latency=latency, k=2, seed=9)
    slot = run_broadcast_adaptive(
        build_protocol("multicast", N), N, adversary, seed=seed, backend="slot",
    )
    assert_identical(windowed, slot, f"cap={cap} L={latency} seed={seed}")


def test_lane_batch_matches_single_runs():
    """The lane-batched entry point is bit-identical per lane to independent
    slot-stepped runs (mixed jammers, mixed seeds, staggered finishes)."""
    lanes = [
        ("trailing", 11), ("reactive:1", 12), ("reactive:2", 13),
        ("reactive:4", 14), ("reactive:2", 15), ("reactive:0", 16),
    ]
    batch = run_broadcast_windowed_batch(
        build_protocol("multicast", N),
        N,
        [JAMMERS[j]() for j, _ in lanes],
        [s for _, s in lanes],
    )
    for (jammer_key, seed), windowed in zip(lanes, batch):
        slot = run_broadcast_adaptive(
            build_protocol("multicast", N), N, JAMMERS[jammer_key](),
            seed=seed, backend="slot",
        )
        assert_identical(windowed, slot, f"lane {jammer_key}/{seed}")


class WindowlessSniper(SniperJammer):
    """The sniper's strategy without the window interface — stands in for a
    user-defined :class:`~repro.adversary.reactive.ReactiveJammer` whose
    sensing the windowed driver cannot reconstruct."""

    @property
    def window_latency(self):
        return None


class TestDispatch:
    def test_windowable_predicate(self):
        assert windowable_adversary(None)
        assert windowable_adversary(TrailingJammer(100, k=1, seed=0))
        assert windowable_adversary(ReactiveLatencyJammer(100, latency=1, k=1, seed=0))
        assert windowable_adversary(SniperJammer(100, k=1, seed=0))
        assert windowable_adversary(
            ReactiveLatencyJammer(100, latency=0, k=1, seed=0)
        )
        assert not windowable_adversary(WindowlessSniper(100, k=1, seed=0))
        assert not windowable_adversary(build_jammer("random", 100, 0))

    def test_auto_prefers_window(self):
        result = run_broadcast_adaptive(
            build_protocol("multicast", N), N,
            ReactiveLatencyJammer(BUDGET, latency=2, k=2, seed=9), seed=2,
        )
        assert result.extras["backend"] == "arena-window"

    def test_auto_windows_latency_zero(self):
        result = run_broadcast_adaptive(
            build_protocol("multicast", N), N,
            SniperJammer(BUDGET, k=4, seed=9), seed=2,
        )
        assert result.extras["backend"] == "arena-window"

    def test_forced_window_accepts_latency_zero(self):
        result = run_broadcast_adaptive(
            build_protocol("multicast", N), N,
            SniperJammer(BUDGET, k=4, seed=9), seed=2, backend="window",
        )
        assert result.extras["backend"] == "arena-window"

    def test_forced_window_rejects_oblivious(self):
        with pytest.raises(ValueError, match="window"):
            run_broadcast_adaptive(
                build_protocol("multicast", N), N,
                build_jammer("random", BUDGET, 9), seed=2, backend="window",
            )

    def test_forced_window_rejects_windowless_jammer(self):
        with pytest.raises(ValueError, match="window"):
            run_broadcast_adaptive(
                build_protocol("multicast", N), N,
                WindowlessSniper(BUDGET, k=4, seed=9), seed=2, backend="window",
            )

    def test_fallback_note_records_forced_slot_stepping(self):
        with collect_fallback_notes() as notes:
            result = run_broadcast_adaptive(
                build_protocol("multicast", N), N,
                WindowlessSniper(BUDGET, k=4, seed=9), seed=2,
            )
        assert result.extras["backend"] == "arena-slot"
        assert notes.counts == {
            ("arena[WindowlessSniper]", "has no window-sensing interface"): [1, 1]
        }
        (line,) = notes.summary_lines()
        assert "slot-stepped arena" in line
        assert "scalar" not in line

    def test_no_note_outside_collector_or_for_windowed(self):
        for adversary in (
            ReactiveLatencyJammer(BUDGET, latency=2, k=2, seed=9),
            SniperJammer(BUDGET, k=4, seed=9),
        ):
            with collect_fallback_notes() as notes:
                run_broadcast_adaptive(
                    build_protocol("multicast", N), N, adversary, seed=2,
                )
            assert not notes, "windowed runs must not log fallback notes"
