"""Schedule invariance: a trial's result never depends on lane scheduling.

The continuous-batching contract (DESIGN.md section 13): each trial's full
result row is a pure function of its (seed, adversary, max_slots) — running
it through one lane slot or eight, through drained streams (as wide as
their trial lists, so nothing refills) or compacted/refilled stream slots,
serially or sharded, must produce the byte-identical
:class:`~repro.core.result.BroadcastResult`.  Not statistically close:
equal.

Structure
---------
* The fast subset (tier-1) pins every streaming protocol against drained
  two-trial batches across widths {1, 2, 8} under *staggered* per-trial
  slot caps — the workload compaction exists for, with refills guaranteed
  on every multi-slot width — plus direct scalar cross-checks, the
  ``run_trials`` stream-vs-scalar identity, the stream-entry fallback for
  protocols without a ``run_stream`` (at width 2 and at the width rule's
  32, against scalar runs), and a serial-vs-sharded campaign identity.
* The full protocol × oblivious-jammer matrix runs behind the ``slow``
  marker (drained batches are themselves pinned bit-identical to scalar
  per lane by ``test_batch_equivalence.py``, so they are a sound reference
  here).
"""

import numpy as np
import pytest

from repro.core import run_broadcast, run_broadcast_batch
from repro.core.batch import run_broadcast_stream, stream_width
from repro.exp.registry import build_jammer, build_protocol, oblivious_jammer_names

N = 8
BUDGET = 2_000
BIG = 50_000_000
#: staggered per-trial caps: tiny truncations interleaved with full runs,
#: so every width > 1 sees early retirements and mid-stream refills
CAPS = [3_000, BIG, 7, BIG, 16, 150, BIG, 24]
SEEDS = [3, 7, 11, 19, 23, 31, 41, 57]
WIDTHS = (1, 2, 8)

ADV_FAST = dict(
    alpha=0.24, b=0.01, halt_noise_divisor=20.0, helper_wait=2.0, max_epochs=20
)

#: protocols with a run_stream, as (registry name -> factory)
STREAMING_PROTOCOLS = {
    "core": lambda: build_protocol("core", N, T=BUDGET),
    "multicast": lambda: build_protocol("multicast", N),
    "multicast_c": lambda: build_protocol("multicast_c", N, C=2),
    "adv": lambda: build_protocol("adv", N, knobs=ADV_FAST),
    "adv_c": lambda: build_protocol("adv_c", N, C=2, knobs=ADV_FAST),
}

#: the baselines: decay/naive have no run_stream, so the stream entry
#: point runs them in width-sized groups through their run_batch; the
#: single-channel stand-in streams (it is a MultiCastC)
STREAMLESS_PROTOCOLS = {
    "decay": lambda: build_protocol("decay", N),
    "naive": lambda: build_protocol("naive", N),
    "single_channel": lambda: build_protocol("single_channel", N),
}


def assert_rows_equal(got, reference, context):
    __tracebackhide__ = True
    for attr in (
        "protocol",
        "n",
        "slots",
        "completed",
        "adversary_spend",
        "halted_uninformed",
        "periods",
    ):
        assert getattr(got, attr) == getattr(reference, attr), (context, attr)
    for attr in ("informed_slot", "halt_slot", "node_energy"):
        np.testing.assert_array_equal(
            getattr(got, attr), getattr(reference, attr), err_msg=f"{context}: {attr}"
        )
    assert got.extras.keys() == reference.extras.keys(), context
    for key, expected in reference.extras.items():
        if isinstance(expected, np.ndarray):
            np.testing.assert_array_equal(
                got.extras[key], expected, err_msg=f"{context}: extras[{key}]"
            )
        else:
            assert got.extras[key] == expected, (context, f"extras[{key}]")


def jammers_for(jammer_name, count):
    return [build_jammer(jammer_name, BUDGET, 100 + i, n=N) for i in range(count)]


def fixed_reference(factory, jammer_name, *, chunk=2):
    """Rows of drained ``run_broadcast_batch`` chunks (pinned == scalar by
    the equivalence suite), chunked so the reference itself exercises
    multi-block caps."""
    advs = jammers_for(jammer_name, len(SEEDS))
    rows = []
    for k in range(0, len(SEEDS), chunk):
        rows.extend(
            run_broadcast_batch(
                factory(),
                N,
                advs[k : k + chunk],
                SEEDS[k : k + chunk],
                max_slots=np.asarray(CAPS[k : k + chunk]),
            )
        )
    return rows


@pytest.mark.parametrize("protocol_name", sorted(STREAMING_PROTOCOLS))
def test_stream_invariant_across_widths_and_refills(protocol_name):
    """Every width — including width 1 (pure serial through one slot) and
    width 8 (everything in flight at once) — reproduces the drained-batch
    rows exactly, refills and all."""
    factory = STREAMING_PROTOCOLS[protocol_name]
    reference = fixed_reference(factory, "blanket")
    for width in WIDTHS:
        got = run_broadcast_stream(
            factory(),
            N,
            jammers_for("blanket", len(SEEDS)),
            SEEDS,
            max_slots=np.asarray(CAPS),
            lane_width=width,
        )
        assert len(got) == len(reference)
        for t, (g, r) in enumerate(zip(got, reference)):
            assert_rows_equal(g, r, (protocol_name, f"width={width}", f"trial={t}"))


@pytest.mark.parametrize("protocol_name", sorted(STREAMING_PROTOCOLS))
def test_stream_matches_scalar_directly(protocol_name):
    """Spot cross-check against the scalar engine itself (not via drained
    batches): one full run and one cap-truncated run per protocol."""
    factory = STREAMING_PROTOCOLS[protocol_name]
    seeds, caps = SEEDS[:2], [BIG, 16]
    got = run_broadcast_stream(
        factory(),
        N,
        jammers_for("blanket", 2),
        seeds,
        max_slots=np.asarray(caps),
        lane_width=2,
    )
    for t, (seed, cap) in enumerate(zip(seeds, caps)):
        reference = run_broadcast(
            factory(),
            N,
            build_jammer("blanket", BUDGET, 100 + t, n=N),
            seed=seed,
            max_slots=cap,
        )
        assert_rows_equal(got[t], reference, (protocol_name, "scalar", f"trial={t}"))


@pytest.mark.parametrize("protocol_name", sorted(STREAMLESS_PROTOCOLS))
def test_streamless_protocols_fall_back_unchanged(protocol_name):
    """A protocol without run_stream routed through the stream entry point
    produces the drained-batch rows (including the scalar-fallback stamping
    for protocols with neither run_stream nor run_batch)."""
    factory = STREAMLESS_PROTOCOLS[protocol_name]
    seeds = SEEDS[:4]
    advs = jammers_for("blanket", 4)
    got = run_broadcast_stream(
        factory(), N, advs, seeds, max_slots=BIG, lane_width=2
    )
    reference = []
    for k in range(0, 4, 2):
        reference.extend(
            run_broadcast_batch(
                factory(),
                N,
                jammers_for("blanket", 4)[k : k + 2],
                seeds[k : k + 2],
                max_slots=BIG,
            )
        )
    for t, (g, r) in enumerate(zip(got, reference)):
        assert_rows_equal(g, r, (protocol_name, "fallback", f"trial={t}"))


@pytest.mark.parametrize("protocol_name", ["decay", "naive"])
def test_streamless_protocols_at_their_rule_width(protocol_name):
    """Decay and Naive stream at the width rule's 32 lanes (their passes are
    a few rows of n = 8 nodes): more trials than one group, under staggered
    per-trial caps, still reproduce the per-trial scalar runs."""
    factory = STREAMLESS_PROTOCOLS[protocol_name]
    assert stream_width(factory()) == 32
    trials = 40
    seeds = [1000 + t for t in range(trials)]
    caps = [CAPS[t % len(CAPS)] for t in range(trials)]
    got = run_broadcast_stream(
        factory(), N, jammers_for("blanket", trials), seeds, max_slots=caps
    )
    advs = jammers_for("blanket", trials)
    for t in range(trials):
        reference = run_broadcast(
            factory(), N, advs[t], seed=seeds[t], max_slots=caps[t]
        )
        assert_rows_equal(got[t], reference, (protocol_name, "rule width", f"trial={t}"))


def test_run_trials_backends_agree():
    """The stats layer: run_trials (one lane stream) yields exactly the
    per-trial run_broadcast oracle over the same derived seeds."""
    from repro.analysis.stats import run_trials
    from repro.sim.rng import derive_seed

    def jammer(seed):
        return build_jammer("blanket", BUDGET, seed, n=N)

    stream = run_trials(
        STREAMING_PROTOCOLS["multicast"], N, jammer,
        trials=5, base_seed=42, label="invariance",
    )
    scalar = [
        run_broadcast(
            STREAMING_PROTOCOLS["multicast"](),
            N,
            jammer(derive_seed(42, "invariance", "eve", t)),
            seed=derive_seed(42, "invariance", "net", t),
        )
        for t in range(5)
    ]
    assert len(stream.results) == len(scalar) == 5
    for t, (s, sc) in enumerate(zip(stream.results, scalar)):
        assert_rows_equal(s, sc, ("run_trials", "stream-vs-scalar", f"trial={t}"))


def test_campaign_serial_vs_sharded_stream(tmp_path, monkeypatch):
    """One campaign, workers=1 vs workers=3: row-identical stores (up to
    wall_time, zeroed via REPRO_ZERO_WALL) even though the sharded run
    splits the trial list into per-worker lane streams."""
    from repro.exp import CampaignSpec, ResultStore, run_campaign
    from repro.exp.pool import ZERO_WALL_ENV

    monkeypatch.setenv(ZERO_WALL_ENV, "1")
    campaign = CampaignSpec(
        protocols=["multicast", "adv"],
        jammers=["blanket"],
        ns=[N],
        budget=BUDGET,
        trials=9,
        base_seed=5,
        protocol_knobs={"adv": dict(ADV_FAST)},
    )
    serial = tmp_path / "serial.jsonl"
    sharded = tmp_path / "sharded.jsonl"
    run_campaign(campaign, ResultStore(str(serial)), workers=1)
    run_campaign(campaign, ResultStore(str(sharded)), workers=3)
    assert serial.read_text() == sharded.read_text()


@pytest.mark.slow
@pytest.mark.parametrize("jammer_name", sorted(oblivious_jammer_names()))
@pytest.mark.parametrize("protocol_name", sorted(STREAMING_PROTOCOLS))
def test_full_matrix_stream_matches_fixed(protocol_name, jammer_name):
    """The full protocol × oblivious-jammer matrix, widths 1/2/8 with
    staggered caps, against drained batches (themselves pinned == scalar)."""
    factory = STREAMING_PROTOCOLS[protocol_name]
    reference = fixed_reference(factory, jammer_name, chunk=3)
    for width in WIDTHS:
        got = run_broadcast_stream(
            factory(),
            N,
            jammers_for(jammer_name, len(SEEDS)),
            SEEDS,
            max_slots=np.asarray(CAPS),
            lane_width=width,
        )
        for t, (g, r) in enumerate(zip(got, reference)):
            assert_rows_equal(
                g, r, (protocol_name, jammer_name, f"width={width}", f"trial={t}")
            )
