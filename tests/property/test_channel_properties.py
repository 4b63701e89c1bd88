"""Property-based tests for the channel-resolution kernel.

Strategy: generate arbitrary (channels, actions, jam) blocks and check the
section-3 semantics against an independent, obviously-correct slot-by-slot
reimplementation, plus structural invariants.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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
    resolve_block,
)
from repro.sim.jam import JamBlock


@st.composite
def blocks(draw):
    K = draw(st.integers(1, 6))
    n = draw(st.integers(1, 8))
    C = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    channels = rng.integers(0, C, size=(K, n))
    actions = rng.choice(
        np.array([ACT_IDLE, ACT_LISTEN, ACT_SEND_MSG, ACT_SEND_BEACON], dtype=np.int8),
        size=(K, n),
        p=[0.3, 0.3, 0.3, 0.1],
    )
    jam = rng.random((K, C)) < draw(st.floats(0.0, 1.0))
    return channels, actions, jam


def oracle(channels, actions, jam):
    """Slot-by-slot, channel-by-channel reference resolution."""
    K, n = actions.shape
    C = jam.shape[1]
    fb = np.full((K, n), FB_NONE, dtype=np.int8)
    for t in range(K):
        for c in range(C):
            on = [u for u in range(n) if channels[t, u] == c and actions[t, u] != ACT_IDLE]
            senders = [u for u in on if actions[t, u] in (ACT_SEND_MSG, ACT_SEND_BEACON)]
            listeners = [u for u in on if actions[t, u] == ACT_LISTEN]
            if jam[t, c] or len(senders) >= 2:
                out = FB_NOISE
            elif len(senders) == 1:
                out = FB_MSG if actions[t, senders[0]] == ACT_SEND_MSG else FB_BEACON
            else:
                out = FB_SILENCE
            for u in listeners:
                fb[t, u] = out
    return fb


@given(blocks())
@settings(max_examples=120, deadline=None)
def test_resolution_matches_oracle(block):
    channels, actions, jam = block
    np.testing.assert_array_equal(resolve_block(channels, actions, jam), oracle(channels, actions, jam))


@given(blocks())
@settings(max_examples=60, deadline=None)
def test_dense_and_sparse_paths_agree(block):
    from repro.sim.channel import _resolve_dense, _resolve_sparse

    channels, actions, jam = block
    np.testing.assert_array_equal(
        _resolve_dense(channels, actions, jam),
        _resolve_sparse(channels, actions, JamBlock.from_dense(jam)),
    )


@given(blocks())
@settings(max_examples=60, deadline=None)
def test_only_listeners_get_feedback(block):
    channels, actions, jam = block
    fb = resolve_block(channels, actions, jam)
    listening = actions == ACT_LISTEN
    assert (fb[~listening] == FB_NONE).all()
    assert (fb[listening] != FB_NONE).all()


@given(blocks())
@settings(max_examples=60, deadline=None)
def test_colisteners_agree(block):
    """All listeners on the same (slot, channel) observe the same outcome."""
    channels, actions, jam = block
    fb = resolve_block(channels, actions, jam)
    K, n = actions.shape
    for t in range(K):
        seen = {}
        for u in range(n):
            if actions[t, u] == ACT_LISTEN:
                key = channels[t, u]
                if key in seen:
                    assert fb[t, u] == seen[key]
                seen[key] = fb[t, u]


@given(blocks())
@settings(max_examples=60, deadline=None)
def test_jamming_only_adds_noise(block):
    """Monotonicity: adding jamming can only turn feedback into noise,
    never noise into something else."""
    channels, actions, jam = block
    fb_jam = resolve_block(channels, actions, jam)
    fb_clean = resolve_block(channels, actions, np.zeros_like(jam))
    listening = actions == ACT_LISTEN
    changed = listening & (fb_jam != fb_clean)
    assert (fb_jam[changed] == FB_NOISE).all()
