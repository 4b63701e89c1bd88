"""Unit tests for the shared block runner (action rules + event loop)."""

import numpy as np
import pytest

from repro.core.runner import (
    adv_step_one_actions,
    adv_step_two_actions,
    count_feedback,
    shared_coin_actions,
    spread_block,
)
from repro.sim.channel import (
    ACT_IDLE,
    ACT_LISTEN,
    ACT_SEND_BEACON,
    ACT_SEND_MSG,
    FB_BEACON,
    FB_MSG,
    FB_NOISE,
    FB_NONE,
    FB_SILENCE,
)
from repro.sim.jam import JamBlock
from repro.sim.trace import TraceRecorder


def coins_grid(*rows):
    return np.array(rows, dtype=np.float64)


class TestSharedCoinActions:
    """Figs. 1/2/5 rule: coin<p -> listen; p<=coin<2p -> broadcast iff informed."""

    def test_mapping(self):
        build = shared_coin_actions(0.25)
        coins = coins_grid([0.1, 0.1, 0.3, 0.3, 0.6])
        informed = np.array([True, False, True, False, True])
        active = np.ones(5, dtype=bool)
        acts = build(coins, informed, active)
        np.testing.assert_array_equal(
            acts[0], [ACT_LISTEN, ACT_LISTEN, ACT_SEND_MSG, ACT_IDLE, ACT_IDLE]
        )

    def test_inactive_always_idle(self):
        build = shared_coin_actions(0.25)
        coins = coins_grid([0.1, 0.3])
        acts = build(coins, np.array([True, True]), np.array([False, False]))
        assert (acts == ACT_IDLE).all()

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            shared_coin_actions(0.6)
        with pytest.raises(ValueError):
            shared_coin_actions(0.0)

    def test_empirical_probabilities(self, rng):
        p = 1 / 8
        build = shared_coin_actions(p)
        coins = rng.random((20_000, 1))
        informed = np.array([True])
        acts = build(coins, informed, np.array([True]))
        listen_rate = (acts == ACT_LISTEN).mean()
        send_rate = (acts == ACT_SEND_MSG).mean()
        assert abs(listen_rate - p) < 0.01
        assert abs(send_rate - p) < 0.01


class TestAdvStepOneActions:
    """Fig. 4 step I: coin<p -> listen if un, broadcast m otherwise."""

    def test_mapping(self):
        build = adv_step_one_actions(0.5)
        coins = coins_grid([0.2, 0.2, 0.9, 0.9])
        informed = np.array([False, True, False, True])
        acts = build(coins, informed, np.ones(4, dtype=bool))
        np.testing.assert_array_equal(
            acts[0], [ACT_LISTEN, ACT_SEND_MSG, ACT_IDLE, ACT_IDLE]
        )

    def test_informed_nodes_never_listen_in_step_one(self, rng):
        build = adv_step_one_actions(0.4)
        coins = rng.random((500, 3))
        informed = np.array([True, True, True])
        acts = build(coins, informed, np.ones(3, dtype=bool))
        assert not (acts == ACT_LISTEN).any()


class TestAdvStepTwoActions:
    """Fig. 4 step II: listen w.p. p, broadcast w.p. p; payload by status."""

    def test_mapping(self):
        build = adv_step_two_actions(0.25)
        coins = coins_grid([0.1, 0.1, 0.3, 0.3])
        informed = np.array([False, True, False, True])
        acts = build(coins, informed, np.ones(4, dtype=bool))
        np.testing.assert_array_equal(
            acts[0], [ACT_LISTEN, ACT_LISTEN, ACT_SEND_BEACON, ACT_SEND_MSG]
        )

    def test_uninformed_send_beacons_only(self, rng):
        build = adv_step_two_actions(0.3)
        coins = rng.random((500, 2))
        informed = np.array([False, False])
        acts = build(coins, informed, np.ones(2, dtype=bool))
        assert not (acts == ACT_SEND_MSG).any()
        assert (acts == ACT_SEND_BEACON).any()


class TestSpreadBlock:
    """Event-loop semantics: a node informed at slot t broadcasts from t+1."""

    def _one_channel_setup(self, K, n):
        channels = np.zeros((K, n), dtype=np.int64)
        jam = JamBlock.empty(K, 1)
        return channels, jam

    def test_infection_chain(self):
        """Node 0 informs node 1 at slot 0; node 1 then informs node 2 at
        slot 1 (which requires the tail re-resolution to kick in)."""
        K, n = 2, 3
        channels, jam = self._one_channel_setup(K, n)
        p = 0.25
        # slot 0: node0 sends (coin in [p, 2p)), node1 listens (coin < p), node2 idle
        # slot 1: node0 idle, node1 sends, node2 listens
        coins = coins_grid(
            [0.30, 0.10, 0.90],
            [0.90, 0.30, 0.10],
        )
        informed = np.array([True, False, False])
        active = np.ones(n, dtype=bool)
        informed_slot = np.full(n, -1, dtype=np.int64)
        out = spread_block(
            channels, coins, jam, informed, active,
            shared_coin_actions(p), slot0=100, informed_slot=informed_slot,
        )
        assert out.informed.all()
        assert informed_slot[1] == 100 and informed_slot[2] == 101
        # node 1's slot-1 action must be re-mapped to a broadcast
        assert out.actions[1, 1] == ACT_SEND_MSG
        assert out.feedback[1, 2] == FB_MSG

    def test_without_event_node_stays_uninformed(self):
        K, n = 2, 2
        channels, jam = self._one_channel_setup(K, n)
        coins = coins_grid([0.9, 0.9], [0.9, 0.9])  # everyone idle
        out = spread_block(
            channels, coins, jam,
            np.array([True, False]), np.ones(n, dtype=bool),
            shared_coin_actions(0.25),
        )
        np.testing.assert_array_equal(out.informed, [True, False])

    def test_jam_blocks_learning(self):
        K, n = 1, 2
        channels = np.zeros((K, n), dtype=np.int64)
        jam = JamBlock.from_dense(np.array([[True]]))
        coins = coins_grid([0.30, 0.10])  # node0 sends, node1 listens
        out = spread_block(
            channels, coins, jam,
            np.array([True, False]), np.ones(n, dtype=bool),
            shared_coin_actions(0.25),
        )
        np.testing.assert_array_equal(out.informed, [True, False])
        assert out.feedback[0, 1] == FB_NOISE

    def test_learn_false_freezes_status(self):
        """Fig. 4 step II: hearing m mid-step must not flip the status."""
        K, n = 2, 2
        channels, jam = self._one_channel_setup(K, n)
        coins = coins_grid([0.30, 0.10], [0.30, 0.10])
        out = spread_block(
            channels, coins, jam,
            np.array([True, False]), np.ones(n, dtype=bool),
            adv_step_two_actions(0.25), learn=False,
        )
        np.testing.assert_array_equal(out.informed, [True, False])
        # but the listener did hear m both slots (counted for N_m)
        assert (out.feedback[:, 1] == FB_MSG).all()

    def test_simultaneous_inform_on_different_channels(self):
        """Two uninformed nodes hearing m in the same slot both flip."""
        K, n = 1, 4
        channels = np.array([[0, 1, 0, 1]], dtype=np.int64)
        jam = JamBlock.empty(K, 2)
        coins = coins_grid([0.30, 0.30, 0.10, 0.10])  # 0,1 send; 2,3 listen
        out = spread_block(
            channels, coins, jam,
            np.array([True, True, False, False]), np.ones(n, dtype=bool),
            shared_coin_actions(0.25),
        )
        assert out.informed.all()

    def test_trace_growth_events(self):
        K, n = 2, 3
        channels, jam = self._one_channel_setup(K, n)
        coins = coins_grid([0.30, 0.10, 0.90], [0.90, 0.30, 0.10])
        tr = TraceRecorder()
        spread_block(
            channels, coins, jam,
            np.array([True, False, False]), np.ones(n, dtype=bool),
            shared_coin_actions(0.25), slot0=0, trace=tr,
        )
        slots, counts = tr.informed_curve()
        np.testing.assert_array_equal(slots, [0, 1])
        np.testing.assert_array_equal(counts, [2, 3])

    def test_slot_scale_applied_to_bookkeeping(self):
        K, n = 2, 2
        channels, jam = self._one_channel_setup(K, n)
        coins = coins_grid([0.9, 0.9], [0.30, 0.10])
        informed_slot = np.full(n, -1, dtype=np.int64)
        spread_block(
            channels, coins, jam,
            np.array([True, False]), np.ones(n, dtype=bool),
            shared_coin_actions(0.25),
            slot0=1000, slot_scale=8, informed_slot=informed_slot,
        )
        assert informed_slot[1] == 1000 + 1 * 8

    def test_input_statuses_not_mutated(self):
        K, n = 1, 2
        channels, jam = self._one_channel_setup(K, n)
        coins = coins_grid([0.30, 0.10])
        informed = np.array([True, False])
        spread_block(
            channels, coins, jam, informed, np.ones(n, dtype=bool),
            shared_coin_actions(0.25),
        )
        np.testing.assert_array_equal(informed, [True, False])


class TestCountFeedback:
    def test_counters(self):
        fb = np.array(
            [
                [FB_MSG, FB_NOISE, FB_NONE],
                [FB_BEACON, FB_SILENCE, FB_NONE],
                [FB_MSG, FB_NOISE, FB_SILENCE],
            ],
            dtype=np.int8,
        )
        c = count_feedback(fb)
        np.testing.assert_array_equal(c["msg"], [2, 0, 0])
        np.testing.assert_array_equal(c["msg_or_beacon"], [3, 0, 0])
        np.testing.assert_array_equal(c["noise"], [0, 2, 0])
        np.testing.assert_array_equal(c["silence"], [0, 1, 1])


class TestSpreadBlockFastPaths:
    """The no-learner fast path must shortcut the event machinery without
    changing a single output value."""

    def _random_case(self, rng, K=32, n=8, C=4):
        channels = rng.integers(0, C, size=(K, n)).astype(np.int64)
        coins = rng.random((K, n))
        jam = JamBlock.from_dense(rng.random((K, C)) < 0.2)
        return channels, coins, jam

    def test_all_informed_equals_frozen_statuses(self, rng):
        channels, coins, jam = self._random_case(rng)
        n = coins.shape[1]
        informed = np.ones(n, dtype=bool)
        active = np.ones(n, dtype=bool)
        build = shared_coin_actions(0.25)
        fast = spread_block(channels, coins, jam, informed, active, build)
        frozen = spread_block(
            channels, coins, jam, informed, active, build, learn=False
        )
        np.testing.assert_array_equal(fast.actions, frozen.actions)
        np.testing.assert_array_equal(fast.feedback, frozen.feedback)
        np.testing.assert_array_equal(fast.informed, frozen.informed)

    def test_no_active_uninformed_short_circuits(self, rng):
        """Uninformed-but-halted nodes cannot learn; still one resolve."""
        channels, coins, jam = self._random_case(rng)
        n = coins.shape[1]
        informed = np.zeros(n, dtype=bool)
        informed[0] = True
        active = informed.copy()  # every uninformed node already halted
        out = spread_block(
            channels, coins, jam, informed, active, shared_coin_actions(0.25)
        )
        np.testing.assert_array_equal(out.informed, informed)
