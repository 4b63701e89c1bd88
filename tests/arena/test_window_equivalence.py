"""Differential equivalence: the windowed arena vs the slot-stepped oracle.

The block-stepped driver (:mod:`repro.arena.window`) is the arena's one
production engine and promises *bit-identity* with the slot-stepped oracle
(:func:`repro.arena.network.run_slot_stepped`) for every adversary the arena
accepts — same slots, same informing/halt books, same energy, same
adversary spend, draw for draw.  This suite pins that promise:

* the full adapter x reactive-jammer matrix (every column adapter, every
  reactive registry jammer, plus the unjammed control);
* oblivious jammers, which speculate with checkpoint/rollback but are asked
  one slot at a time: a tier-1 slice (every adapter x {random, blackout},
  budgets running out mid-window) and the full adapter x oblivious-registry
  matrix behind ``slow``;
* a reactive jammer without the window interface, which runs at width 1
  (as does an oblivious adversary without checkpoints);
* truncation (``max_slots``) and overrun parity;
* a hypothesis property over random window caps, latencies from 0 and
  jammer families — window placement must never be observable;
* lane batches, reactive-only and mixed, against per-lane oracle runs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.base import Adversary
from repro.adversary.reactive import (
    ReactiveLatencyJammer,
    SniperJammer,
    TrailingJammer,
)
from repro.adversary.strategies import BlanketJammer, RandomJammer, ScheduleJammer
from repro.arena import (
    lift_protocol,
    run_broadcast_adaptive,
    run_broadcast_windowed_batch,
    run_slot_stepped,
    run_windowed,
)
from repro.core.batch import collect_fallback_notes
from repro.exp.registry import build_jammer, build_protocol, oblivious_jammer_names

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


def slot_oracle(key: str, adversary, *, seed: int = 2, **kwargs):
    """The slot-stepped oracle run of one ``PROTOCOLS`` entry."""
    kwargs = {**PROTOCOLS[key][2], **kwargs}
    return run_slot_stepped(lift_protocol(make_protocol(key), N, seed), adversary, **kwargs)


def run_pair(key: str, jammer_key: str, *, seed: int = 2):
    """Run (windowed, slot-stepped) with identical inputs."""
    _, _, kwargs = PROTOCOLS[key]
    windowed = run_broadcast_adaptive(
        make_protocol(key), N, JAMMERS[jammer_key](), seed=seed, **kwargs
    )
    return windowed, slot_oracle(key, JAMMERS[jammer_key](), seed=seed)


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


#: Oblivious jammers for the tier-1 slice.  Both budgets run out while the
#: run is still going: the random jammer's part-way through the run, the
#: blackout's inside the first speculative window, clipping its last slot.
OBLIVIOUS = {
    "random": lambda: RandomJammer(4_001, 0.05, seed=9),
    "blackout": lambda: BlanketJammer(301, channels=1.0, seed=9),
}

#: Caps for the long oblivious runs (slot-oracle seconds each, untruncated);
#: the truncated prefix is part of the contract too.
OBLIVIOUS_CAPS = {
    key: 8_000
    for key in ("core", "multicast", "multicast_c2", "multicast_c4", "single_channel")
}


@pytest.mark.parametrize("jammer_key", sorted(OBLIVIOUS))
@pytest.mark.parametrize("key", sorted(PROTOCOLS))
def test_oblivious_slice(key, jammer_key):
    """Every adapter x {random, blackout}: oblivious lanes speculate, roll
    back and replay, and still equal the slot oracle."""
    kwargs = {**PROTOCOLS[key][2]}
    if key in OBLIVIOUS_CAPS:
        kwargs["max_slots"] = OBLIVIOUS_CAPS[key]
    (windowed,) = run_windowed(
        [lift_protocol(make_protocol(key), N, 2)], [OBLIVIOUS[jammer_key]()], **kwargs
    )
    slot = slot_oracle(key, OBLIVIOUS[jammer_key](), **kwargs)
    assert_identical(windowed, slot, f"{key}/{jammer_key}")


@pytest.mark.slow
@pytest.mark.parametrize("jammer_name", oblivious_jammer_names())
@pytest.mark.parametrize("key", sorted(PROTOCOLS))
def test_oblivious_registry_matrix(key, jammer_name):
    """Every adapter x every oblivious registry jammer (long runs capped
    like the slice: each jammer's pattern and budget play out early)."""
    kwargs = {**PROTOCOLS[key][2]}
    if key in OBLIVIOUS_CAPS:
        kwargs["max_slots"] = OBLIVIOUS_CAPS[key]
    windowed = run_broadcast_adaptive(
        make_protocol(key), N, build_jammer(jammer_name, BUDGET, 9, n=N), seed=2,
        **kwargs,
    )
    slot = slot_oracle(key, build_jammer(jammer_name, BUDGET, 9, n=N), **kwargs)
    assert_identical(windowed, slot, f"{key}/{jammer_name}")


def test_oblivious_rows_are_asked_one_slot_at_a_time():
    """An oblivious jammer only ever sees one-slot queries, even inside a
    speculative window, and every slot is asked; queries past the committed
    slot count are the rows rolled back and replayed after events."""
    queries = []

    def schedule(start, K, C):
        queries.append((start, K, C))
        mask = np.zeros((K, C), dtype=bool)
        mask[:, 0] = np.arange(start, start + K) % 3 == 0
        return mask

    windowed = run_broadcast_adaptive(
        make_protocol("multicast"), N, ScheduleJammer(None, schedule), seed=2,
        max_slots=6_000,
    )
    assert queries and all(K == 1 for _, K, _ in queries)
    assert {start for start, _, _ in queries} == set(range(windowed.slots))
    assert len(queries) > windowed.slots
    slot = slot_oracle("multicast", ScheduleJammer(None, schedule), max_slots=6_000)
    assert_identical(windowed, slot, "schedule spy")


class WindowlessSniper(SniperJammer):
    """The sniper's strategy without the window interface — stands in for a
    user-defined :class:`~repro.adversary.reactive.ReactiveJammer` whose
    sensing the windowed driver cannot reconstruct."""

    @property
    def window_latency(self):
        return None


def test_windowless_reactive_runs_at_width_one():
    """No window interface, no speculation: the lane is served one slot per
    pass, equals the slot oracle, and files no fallback note."""
    columns = lift_protocol(make_protocol("multicast"), N, 2)
    limits = []
    begin = columns.begin_window

    def spy(slot, limit):
        limits.append(limit)
        return begin(slot, limit)

    columns.begin_window = spy
    with collect_fallback_notes() as notes:
        (windowed,) = run_windowed(
            [columns], [WindowlessSniper(BUDGET, k=4, seed=9)], max_slots=3_000
        )
    assert set(limits) == {1}
    assert not notes
    slot = slot_oracle(
        "multicast", WindowlessSniper(BUDGET, k=4, seed=9), max_slots=3_000
    )
    assert_identical(windowed, slot, "windowless sniper")


def test_oblivious_checkpoint_restore_round_trip():
    """Restoring a checkpoint redraws the same block and rewinds spend and
    cursor — the rollback the windowed driver's speculation relies on."""
    jammer = RandomJammer(30, 0.3, seed=4)
    jammer.jam_block(0, 5, 8)
    ckpt = jammer.checkpoint()
    spent = jammer.spent
    first = [jammer.jam_block(5 + t, 1, 8).to_dense() for t in range(20)]
    assert jammer.spent == 30  # the budget ran out inside the block
    jammer.restore(ckpt)
    assert jammer.spent == spent
    with pytest.raises(RuntimeError, match="non-contiguous"):
        jammer.jam_block(25, 1, 8)  # the cursor is back at slot 5
    again = [jammer.jam_block(5 + t, 1, 8).to_dense() for t in range(20)]
    for a, b in zip(first, again):
        np.testing.assert_array_equal(a, b)
    assert jammer.spent == 30


def test_truncation_parity():
    """A max_slots overrun truncates both paths at the same slot with the
    same books (windowed lanes must not commit past the cap)."""
    for max_slots in (137, 500, 1_000):
        windowed = run_broadcast_adaptive(
            make_protocol("multicast"), N, JAMMERS["reactive:2"](),
            seed=5, max_slots=max_slots,
        )
        slot = slot_oracle(
            "multicast", JAMMERS["reactive:2"](), seed=5, max_slots=max_slots
        )
        assert not windowed.completed
        assert windowed.slots <= max_slots
        assert_identical(windowed, slot, f"max_slots={max_slots}")


@settings(max_examples=20, deadline=None)
@given(
    cap=st.integers(min_value=1, max_value=300),
    latency=st.integers(min_value=0, max_value=6),
    oblivious=st.booleans(),
    seed=st.integers(min_value=0, max_value=50),
)
def test_window_boundaries_unobservable(cap, latency, oblivious, seed):
    """Property: window placement never leaks into the results — any cap,
    any latency (or an oblivious jammer), any seed reproduces the
    slot-stepped run exactly."""

    def adversary():
        if oblivious:
            return RandomJammer(2_000, 0.05, seed=9)
        return ReactiveLatencyJammer(2_000, latency=latency, k=2, seed=9)

    (windowed,) = run_windowed(
        [lift_protocol(build_protocol("multicast", N), N, seed)], [adversary()],
        window_cap=cap,
    )
    slot = slot_oracle("multicast", adversary(), seed=seed)
    assert_identical(
        windowed, slot, f"cap={cap} L={latency} oblivious={oblivious} seed={seed}"
    )


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
        slot = slot_oracle("multicast", JAMMERS[jammer_key](), seed=seed)
        assert_identical(windowed, slot, f"lane {jammer_key}/{seed}")


class CheckpointlessBlackout(Adversary):
    """An oblivious adversary without checkpoint/restore: its lane cannot
    roll back, so it must run at window width 1."""

    def __init__(self):
        self._inner = BlanketJammer(301, channels=1.0, seed=9)

    def jam_block(self, start_slot, num_slots, num_channels):
        return self._inner.jam_block(start_slot, num_slots, num_channels)

    def reset(self):
        self._inner.reset()

    @property
    def spent(self):
        return self._inner.spent


def test_mixed_lane_batch_matches_single_runs():
    """One lane batch mixing oblivious, reactive, windowless, checkpointless
    and unjammed lanes (widths 1 to the cap side by side, per-lane caps)
    equals the per-lane oracle runs."""
    lanes = [
        (OBLIVIOUS["random"], 11, 4_000),
        (JAMMERS["trailing"], 12, 4_000),
        (lambda: WindowlessSniper(BUDGET, k=4, seed=9), 13, 2_500),
        (JAMMERS["none"], 14, 4_000),
        (OBLIVIOUS["blackout"], 15, 3_000),
        (JAMMERS["reactive:0"], 16, 4_000),
        (CheckpointlessBlackout, 17, 1_500),
    ]
    batch = run_broadcast_windowed_batch(
        build_protocol("multicast", N),
        N,
        [make() for make, _, _ in lanes],
        [seed for _, seed, _ in lanes],
        max_slots=[cap for _, _, cap in lanes],
    )
    for (make, seed, cap), windowed in zip(lanes, batch):
        slot = slot_oracle("multicast", make(), seed=seed, max_slots=cap)
        assert_identical(windowed, slot, f"lane seed={seed}")


class TestDispatch:
    def test_auto_prefers_window(self):
        """Every adversary family window-steps through the one-call entry."""
        for adversary in (
            ReactiveLatencyJammer(BUDGET, latency=2, k=2, seed=9),
            RandomJammer(BUDGET, 0.05, seed=9),
            WindowlessSniper(BUDGET, k=4, seed=9),
        ):
            result = run_broadcast_adaptive(
                build_protocol("multicast", N), N, adversary, seed=2,
                max_slots=2_000,
            )
            assert result.extras["backend"] == "arena-window", adversary

    def test_auto_windows_latency_zero(self):
        result = run_broadcast_adaptive(
            build_protocol("multicast", N), N,
            SniperJammer(BUDGET, k=4, seed=9), seed=2,
        )
        assert result.extras["backend"] == "arena-window"

    def test_forced_window_accepts_latency_zero(self):
        """Calling the windowed driver directly accepts a within-slot
        sniper lane."""
        (result,) = run_windowed(
            [lift_protocol(build_protocol("multicast", N), N, 2)],
            [SniperJammer(BUDGET, k=4, seed=9)],
        )
        assert result.extras["backend"] == "arena-window"

    def test_no_note_outside_collector_or_for_windowed(self):
        """No arena run files a fallback note: nothing falls back."""
        for adversary in (
            ReactiveLatencyJammer(BUDGET, latency=2, k=2, seed=9),
            SniperJammer(BUDGET, k=4, seed=9),
            WindowlessSniper(BUDGET, k=4, seed=9),
            RandomJammer(BUDGET, 0.05, seed=9),
        ):
            with collect_fallback_notes() as notes:
                run_broadcast_adaptive(
                    build_protocol("multicast", N), N, adversary, seed=2,
                    max_slots=2_000,
                )
            assert not notes, "arena runs must not log fallback notes"
