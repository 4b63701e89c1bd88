"""The three block kernels against per-lane dense oracles.

``_shared_coin_ragged``, ``_adv_step_one_ragged`` and
``_adv_step_two_ragged`` count cell occupancy from one grouping of the
extracted hits per pass (``repro.core.batch._cell_groups``).  Their
docstrings claim equality with the dense formulation: build each lane's
action matrix with the ``runner.py`` builders, then resolve it with
``spread_block`` (shared coin, step I) or ``resolve_block`` plus
``count_feedback`` (step II).  The oracle here is exactly that, built lane by
lane from the same draws, and every kernel output must equal it: the
listen/send/noise counts, ``informed``, ``informed_slot`` and the four
step-II counters.

The randomized blocks are checked to reach listened cells with 0, 1, 2 and
3+ senders, jammed listened cells and halted nodes with hits.  The last
tests pin the dense coin counts of quiet lanes against the sparse hits, and
run whole ``adv_c`` streams, so that passes mixing quiet step-I lanes (no
active uninformed node: no channel words, no cell work) or count-only
step-II lanes (no counter an end-of-phase check reads) with loud ones are
pinned to the scalar engine.
"""

import numpy as np
import pytest

from repro.core import run_broadcast
from repro.core import adv_batch
from repro.core.adv_batch import (
    _adv_step_one_ragged,
    _adv_step_two_ragged,
    _ragged_jam_keys,
)
from repro.core.batch import _hits, _shared_coin_ragged, run_broadcast_stream
from repro.core.runner import (
    adv_step_one_actions,
    adv_step_two_actions,
    count_feedback,
    shared_coin_actions,
    spread_block,
)
from repro.exp.registry import build_jammer, build_protocol
from repro.obs import collect_telemetry
from repro.sim.channel import (
    ACT_LISTEN,
    ACT_SEND_BEACON,
    ACT_SEND_MSG,
    FB_NOISE,
    resolve_block,
)
from repro.sim.engine import BatchNetwork
from repro.sim.jam import JamBlock

N_NODES = 7


def random_lane(rng, n, C, p, **override):
    """One lane's inputs: draws, statuses, a dense jam mask, its slot 0."""
    K = int(override.get("K", rng.integers(1, 40)))
    lane = {
        "K": K,
        "C": C,
        "p": p,
        "coins": rng.random((K, n)),
        "channels": rng.integers(0, C, size=(K, n), dtype=np.int32),
        "informed": rng.random(n) < rng.choice([0.15, 0.5, 1.0]),
        "active": rng.random(n) < rng.choice([0.6, 1.0]),
        "jam": rng.random((K, C)) < rng.choice([0.0, 0.15, 0.5]),
        "slot0": int(rng.integers(0, 10_000)),
    }
    lane["informed"][0] = True
    lane.update(override)
    if override.get("no_hits"):
        # every coin above any threshold this suite uses (2p <= 0.6)
        lane["coins"] = 0.6 + 0.4 * rng.random((K, n))
    return lane


def lane_set(rng, n, Cs, p_choices, *, specials=True):
    """A ragged lane list: random lanes plus, optionally, a no-hit lane and
    an all-informed lane at random positions."""
    lanes = [random_lane(rng, n, int(C), float(rng.choice(p_choices))) for C in Cs]
    if specials:
        C_pick = lambda: int(rng.choice(Cs))  # noqa: E731
        lanes.insert(
            int(rng.integers(0, len(lanes) + 1)),
            random_lane(rng, n, C_pick(), 0.05, no_hits=True),
        )
        lanes.insert(
            int(rng.integers(0, len(lanes) + 1)),
            random_lane(rng, n, C_pick(), float(rng.choice(p_choices)),
                        informed=np.ones(n, dtype=bool)),
        )
    return lanes


def initial_slots(lane, n):
    """``informed_slot`` at block entry: -1 for the uninformed."""
    slots = np.where(lane["informed"], np.arange(n, dtype=np.int64), -1)
    return slots.astype(np.int64)


def stacked(lanes):
    """Lane-major ``(channels, coins, offsets, p, informed, active, slot0)``."""
    offsets = np.concatenate(([0], np.cumsum([l["K"] for l in lanes]))).astype(np.int64)
    return (
        np.concatenate([l["channels"] for l in lanes]),
        np.concatenate([l["coins"] for l in lanes]),
        offsets,
        np.array([l["p"] for l in lanes], dtype=np.float64),
        np.stack([l["informed"] for l in lanes]),
        np.stack([l["active"] for l in lanes]),
        np.array([l["slot0"] for l in lanes], dtype=np.int64),
    )


def action_counts(actions):
    listen = (actions == ACT_LISTEN).sum(axis=0)
    send = ((actions == ACT_SEND_MSG) | (actions == ACT_SEND_BEACON)).sum(axis=0)
    return listen, send


class Coverage:
    """Which occupancy cases the oracle's listened cells reached."""

    def __init__(self):
        self.senders = set()
        self.jammed_listens = 0
        self.halted_hits = 0

    def add(self, lane, actions, threshold):
        K, C = lane["jam"].shape
        sending = (actions == ACT_SEND_MSG) | (actions == ACT_SEND_BEACON)
        rows = np.repeat(np.arange(K), actions.shape[1]).reshape(actions.shape)
        keys = rows * C + lane["channels"]
        occupancy = np.bincount(keys[sending], minlength=K * C)
        listening = actions == ACT_LISTEN
        self.senders.update(np.minimum(occupancy[keys[listening]], 3).tolist())
        self.jammed_listens += int(lane["jam"].ravel()[keys[listening]].sum())
        self.halted_hits += int(((lane["coins"] < threshold) & ~lane["active"]).sum())

    def check(self):
        assert self.senders >= {0, 1, 2, 3}, self.senders
        assert self.jammed_listens > 0
        assert self.halted_hits > 0


def assert_equal(got, want, what):
    np.testing.assert_array_equal(got, want, err_msg=what)


@pytest.mark.parametrize("slot_scale", [1, 3])
def test_shared_coin_kernel_matches_spread_block(slot_scale):
    rng = np.random.default_rng(1900 + slot_scale)
    coverage = Coverage()
    for case in range(60):
        C = int(rng.choice([1, 2, 4, 16]))
        lanes = lane_set(rng, N_NODES, [C] * int(rng.integers(1, 5)), [0.1, 0.25, 0.3])
        channels, coins, offsets, p, informed, active, slot0 = stacked(lanes)
        jam = JamBlock.stack([JamBlock.from_dense(l["jam"]) for l in lanes])
        got_slot = np.stack([initial_slots(l, N_NODES) for l in lanes])
        listen, send, noise, got_informed = _shared_coin_ragged(
            channels, coins, jam, offsets, p, informed, active,
            slot0=slot0, slot_scale=slot_scale, informed_slot=got_slot,
        )
        for k, lane in enumerate(lanes):
            want_slot = initial_slots(lane, N_NODES)
            out = spread_block(
                lane["channels"], lane["coins"], lane["jam"], lane["informed"],
                lane["active"], shared_coin_actions(lane["p"]),
                slot0=lane["slot0"], slot_scale=slot_scale, informed_slot=want_slot,
            )
            want_listen, want_send = action_counts(out.actions)
            what = f"case {case} lane {k}"
            assert_equal(listen[k], want_listen, f"{what}: listen")
            assert_equal(send[k], want_send, f"{what}: send")
            assert_equal(noise[k], (out.feedback == FB_NOISE).sum(axis=0), f"{what}: noise")
            assert_equal(got_informed[k], out.informed, f"{what}: informed")
            assert_equal(got_slot[k], want_slot, f"{what}: informed_slot")
            coverage.add(lane, out.actions, 2 * lane["p"])
    coverage.check()


def test_shared_coin_kernel_matches_spread_block_at_gallery_scale():
    """One pass shaped like the gallery's: two 4096-row lanes at n = 64 and
    C = 32 with different p, a few informed nodes and 10% dense jamming.
    Each lane's cascade informs nodes at many rows of one block, so the
    multi-event acceptance rules (cell-safe hearings, first volatile
    listens, the lane-first rule) run at scale, where the small blocks
    above rarely take them."""
    n, C, K = 64, 32, 4096
    rng = np.random.default_rng(1903)
    lanes = []
    for p in (1 / 64, 1 / 40):
        informed = np.zeros(n, dtype=bool)
        informed[rng.choice(n, size=4, replace=False)] = True
        informed[0] = True
        lanes.append(random_lane(
            rng, n, C, p, K=K, informed=informed,
            active=np.ones(n, dtype=bool), jam=rng.random((K, C)) < 0.1,
        ))
    channels, coins, offsets, p, informed, active, slot0 = stacked(lanes)
    jam = JamBlock.stack([JamBlock.from_dense(l["jam"]) for l in lanes])
    got_slot = np.stack([initial_slots(l, n) for l in lanes])
    listen, send, noise, got_informed = _shared_coin_ragged(
        channels, coins, jam, offsets, p, informed, active,
        slot0=slot0, informed_slot=got_slot,
    )
    event_rows = []
    for k, lane in enumerate(lanes):
        want_slot = initial_slots(lane, n)
        out = spread_block(
            lane["channels"], lane["coins"], lane["jam"], lane["informed"],
            lane["active"], shared_coin_actions(lane["p"]),
            slot0=lane["slot0"], informed_slot=want_slot,
        )
        want_listen, want_send = action_counts(out.actions)
        assert_equal(listen[k], want_listen, f"lane {k}: listen")
        assert_equal(send[k], want_send, f"lane {k}: send")
        assert_equal(noise[k], (out.feedback == FB_NOISE).sum(axis=0), f"lane {k}: noise")
        assert_equal(got_informed[k], out.informed, f"lane {k}: informed")
        assert_equal(got_slot[k], want_slot, f"lane {k}: informed_slot")
        event_rows.append(np.unique(want_slot[~lane["informed"] & (want_slot >= 0)]).size)
    assert max(event_rows) >= 2, event_rows


def adv_lanes(rng, p_choices):
    """Ragged MultiCastAdv lanes with mixed channel counts; about one block
    in four also carries a ``C = 2**12`` lane with few hits."""
    Cs = [int(C) for C in rng.choice([1, 2, 4, 8], size=int(rng.integers(1, 5)))]
    lanes = lane_set(rng, N_NODES, Cs, p_choices)
    if rng.random() < 0.25:
        lanes.append(random_lane(rng, N_NODES, 2**12, 0.02))
    return lanes


def adv_inputs(lanes):
    channels, coins, offsets, p, informed, active, slot0 = stacked(lanes)
    Cmax = max(l["C"] for l in lanes)
    jam_keys = _ragged_jam_keys(
        [JamBlock.from_dense(l["jam"]) for l in lanes], offsets, Cmax
    )
    return channels, coins, jam_keys, offsets, p, Cmax, informed, active, slot0


def test_adv_step_one_kernel_matches_spread_block():
    rng = np.random.default_rng(1901)
    coverage = Coverage()
    saw_big_C = False
    for case in range(60):
        lanes = adv_lanes(rng, [0.1, 0.3, 0.6])
        channels, coins, jam_keys, offsets, p, Cmax, informed, active, slot0 = (
            adv_inputs(lanes)
        )
        saw_big_C |= Cmax == 2**12
        got_slot = np.stack([initial_slots(l, N_NODES) for l in lanes])
        listen, send, got_informed = _adv_step_one_ragged(
            channels, coins, jam_keys, offsets, p, Cmax, informed, active,
            slot0=slot0, informed_slot=got_slot,
        )
        for k, lane in enumerate(lanes):
            want_slot = initial_slots(lane, N_NODES)
            out = spread_block(
                lane["channels"], lane["coins"], lane["jam"], lane["informed"],
                lane["active"], adv_step_one_actions(lane["p"]),
                slot0=lane["slot0"], informed_slot=want_slot,
            )
            want_listen, want_send = action_counts(out.actions)
            what = f"case {case} lane {k}"
            assert_equal(listen[k], want_listen, f"{what}: listen")
            assert_equal(send[k], want_send, f"{what}: send")
            assert_equal(got_informed[k], out.informed, f"{what}: informed")
            assert_equal(got_slot[k], want_slot, f"{what}: informed_slot")
            coverage.add(lane, out.actions, lane["p"])
    coverage.check()
    assert saw_big_C


def test_adv_step_two_kernel_matches_resolve_block():
    rng = np.random.default_rng(1902)
    coverage = Coverage()
    for case in range(60):
        lanes = adv_lanes(rng, [0.1, 0.25, 0.3])
        channels, coins, jam_keys, offsets, p, Cmax, informed, active, _ = (
            adv_inputs(lanes)
        )
        listen, send, counters = _adv_step_two_ragged(
            channels, coins, jam_keys, offsets, p, Cmax, informed, active
        )
        for k, lane in enumerate(lanes):
            build = adv_step_two_actions(lane["p"])
            actions = build(lane["coins"], lane["informed"], lane["active"])
            feedback = resolve_block(lane["channels"], actions, lane["jam"])
            want_listen, want_send = action_counts(actions)
            what = f"case {case} lane {k}"
            assert_equal(listen[k], want_listen, f"{what}: listen")
            assert_equal(send[k], want_send, f"{what}: send")
            for name, want in count_feedback(feedback).items():
                assert_equal(counters[name][k], want, f"{what}: {name}")
            coverage.add(lane, actions, 2 * lane["p"])
    coverage.check()


def test_step_two_beacon_and_message_share_a_cell():
    """One listener, one informed and one uninformed sender on its cell:
    noise, not a message or a beacon (total occupancy is what counts)."""
    coins = np.array([[0.05, 0.15, 0.15]])  # listen, send, send (p = 0.1)
    channels = np.zeros((1, 3), dtype=np.int32)
    informed = np.array([[False, True, False]])
    active = np.ones((1, 3), dtype=bool)
    _, send, counters = _adv_step_two_ragged(
        channels, coins, np.zeros(0, np.int64), np.array([0, 1]),
        np.array([0.1]), 1, informed, active,
    )
    assert send.tolist() == [[0, 1, 1]]
    assert counters["noise"].tolist() == [[1, 0, 0]]
    assert counters["msg_or_beacon"].sum() == 0


# -- quiet and count-only lanes ------------------------------------------------

@pytest.mark.parametrize("n", [4, 8, 16, 64])
def test_dense_counts_match_sparse_hits(n):
    """``_dense_counts`` against ``_hits`` + ``bincount`` on one ragged block
    holding a lane for every (row count, threshold) pair, with all-halted,
    all-active and mixed lanes in rotation — plus, at n = 4, a lane longer
    than 255 x 64 rows at threshold 1, where a byte-wide group sum would
    overflow without its group-width guard."""
    rng = np.random.default_rng(2400 + n)
    shapes = [
        (K, thr) for K in (1, 63, 64, 65, 8192) for thr in (0.0, 1 / 64, 0.5, 1.0)
    ]
    if n == 4:
        shapes.append((40_000, 1.0))
    order = rng.permutation(len(shapes))
    Ks = np.array([shapes[k][0] for k in order])
    threshold = np.array([shapes[k][1] for k in order])
    offsets = np.concatenate(([0], np.cumsum(Ks)))
    coins = rng.random((int(offsets[-1]), n))
    kinds = [np.zeros(n, dtype=bool), np.ones(n, dtype=bool), None]
    active = np.stack([
        rng.random(n) < 0.5 if kinds[l % 3] is None else kinds[l % 3]
        for l in range(Ks.size)
    ])
    active[(threshold == 1.0) & (Ks >= 8192)] = True
    _, _, lane, node = _hits(coins, active, threshold, offsets)
    want = np.bincount(lane * n + node, minlength=Ks.size * n).reshape(-1, n)
    got = adv_batch._dense_counts(coins, offsets, threshold, active)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)
    assert want.max() == Ks.max()  # the longest lanes' full columns counted


N = 8
ADV_FAST = dict(
    alpha=0.24, b=0.01, halt_noise_divisor=20.0, helper_wait=2.0, max_epochs=20
)
#: staggered caps and seeds: lanes retire at different epochs and refills
#: restart at epoch 1 next to lanes deep in their run
SEEDS = [3, 7, 11, 19, 23, 31, 41]
CAPS = [50_000_000, 4_000, 50_000_000, 900, 50_000_000, 12_000, 50_000_000]


def adv_c_trials(jammer):
    protocol = build_protocol("adv_c", N, C=4, knobs=ADV_FAST)
    jammers = [build_jammer(jammer, 2_000, 100 + t, n=N) for t in range(len(SEEDS))]
    return protocol, jammers


def instrumented_stream(monkeypatch, tags):
    """Run the width-3 jammed ``adv_c`` stream with each kernel named in
    ``tags`` (name -> tag) recording its tag into the current pass.

    Returns ``(results, passes, rows, counters)``: per pass (one per
    ``draw_jamming_ragged`` call) the set of tags that ran, the block rows
    drawn (or skipped) per ``BatchNetwork`` draw method, and the telemetry
    counters."""
    passes = []
    rows = {}

    def counting(method):
        def wrapped(self, lane_ids, block_rows, *args):
            if method.__name__ == "draw_jamming_ragged":
                passes.append(set())
            rows[method.__name__] = rows.get(method.__name__, 0) + int(np.sum(block_rows))
            return method(self, lane_ids, block_rows, *args)
        return wrapped

    def tagged(name, fn):
        def wrapped(*args, **kwargs):
            passes[-1].add(name)
            return fn(*args, **kwargs)
        return wrapped

    for method in (
        BatchNetwork.draw_channels_ragged,
        BatchNetwork.skip_channels_ragged,
        BatchNetwork.draw_coins_ragged,
        BatchNetwork.draw_jamming_ragged,
    ):
        monkeypatch.setattr(BatchNetwork, method.__name__, counting(method))
    for name, tag in tags.items():
        monkeypatch.setattr(adv_batch, name, tagged(tag, getattr(adv_batch, name)))

    protocol, jammers = adv_c_trials("blanket")
    with collect_telemetry() as tel:
        got = run_broadcast_stream(
            protocol, N, jammers, SEEDS, max_slots=np.asarray(CAPS), lane_width=3
        )
        counters = tel.take_aggregates()["counters"]
    return got, passes, rows, counters


def assert_streams_exactly(got, rows):
    """Every block's channels drawn or skipped once, every block's coins and
    jamming drawn once, and every trial equal to scalar ``run_broadcast``."""
    assert rows["skip_channels_ragged"] > 0
    assert (
        rows["draw_channels_ragged"] + rows["skip_channels_ragged"]
        == rows["draw_coins_ragged"]
        == rows["draw_jamming_ragged"]
    )
    protocol, jammers = adv_c_trials("blanket")
    for t, (seed, cap) in enumerate(zip(SEEDS, CAPS)):
        want = run_broadcast(protocol, N, jammers[t], seed=seed, max_slots=cap)
        assert_same_result(got[t], want, f"trial {t}")


def test_mixed_quiet_and_loud_passes_match_scalar(monkeypatch):
    """A width-3 jammed ``adv_c`` stream whose passes mix quiet and loud
    step-I lanes reproduces every trial's scalar ``run_broadcast`` result.
    Quiet lane-blocks skip their channel words and nothing else: every
    block's channels are drawn or skipped, and every block draws coins."""
    got, passes, rows, counters = instrumented_stream(
        monkeypatch, {"_adv_step_one_ragged": "loud", "_dense_counts": "quiet"}
    )
    assert counters["adv_batch.quiet_lane_blocks"] > 0
    assert {"loud", "quiet"} in passes, "no pass mixed quiet and loud lanes"
    assert_streams_exactly(got, rows)


def test_mixed_count_only_and_loud_step_two_passes_match_scalar(monkeypatch):
    """The same stream's step-II passes mix count-only lanes (no active node
    uninformed, informed or halt-eligible: dense coin counts, no channel
    words, no cell work) with loud ones, and every trial still equals its
    scalar ``run_broadcast`` result."""
    got, passes, rows, counters = instrumented_stream(
        monkeypatch, {"_adv_step_two_ragged": "loud", "_dense_counts": "count-only"}
    )
    assert counters["adv_batch.quiet_step2_lane_blocks"] > 0
    assert {"loud", "count-only"} in passes, "no step-II pass mixed count-only and loud lanes"
    assert_streams_exactly(got, rows)


def assert_same_result(got, want, context):
    for attr in (
        "protocol", "n", "slots", "completed", "adversary_spend",
        "halted_uninformed", "periods",
    ):
        assert getattr(got, attr) == getattr(want, attr), (context, attr)
    for attr in ("informed_slot", "halt_slot", "node_energy"):
        np.testing.assert_array_equal(
            getattr(got, attr), getattr(want, attr), err_msg=f"{context}: {attr}"
        )
    assert got.extras.keys() == want.extras.keys(), context
    for key, expected in want.extras.items():
        if isinstance(expected, np.ndarray):
            np.testing.assert_array_equal(
                got.extras[key], expected, err_msg=f"{context}: extras[{key}]"
            )
        else:
            assert got.extras[key] == expected, (context, key)
