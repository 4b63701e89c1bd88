"""End-of-phase threshold boundaries, at exact equality, on every runtime.

The Fig. 4 checks compare integer counters against fractional thresholds
(N_m >= 1.5Rp², N_s >= 0.9Rp, N'_m <= 2.2Rp², N_n <= Rp/D) — an off-by-one
here (``>`` for ``>=``, ``<`` for ``<=``) would silently change halt
behaviour while every statistical test keeps passing.  These tests pin the
*inclusive* semantics at thresholds chosen to be exactly representable
integers, on all three implementations:

* :func:`repro.core.multicast_adv.apply_phase_checks` invoked the scalar
  runner's way (``(n,)`` arrays, int clock);
* the same function invoked the lane-batched runner's way (``(L, n)``
  arrays, per-lane clock column) — one implementation, two shapes, so the
  paths cannot diverge;
* the pseudocode-literal :class:`repro.core.reference.ScalarMultiCastAdvNode`
  oracle, which carries its own transcription of the checks.

A stub protocol pins ``R = 40, p = 0.5`` so every threshold is an exact
binary float: 1.5Rp² = 15, 0.9Rp = 18, 2.2Rp² = 22, and Rp/D = 5 with
D = 4.

The last test pins :func:`repro.core.multicast_adv.counters_read`, the mask
by which the lane-batched runner leaves a step-II lane's counters at zero
(no check reads any of them): counters outside the mask never change an
output, and the checks agree with the reference node at the wait boundary.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.multicast_adv import (
    STATUS_HALT,
    STATUS_HELPER,
    STATUS_IN,
    STATUS_UN,
    MultiCastAdv,
    apply_phase_checks,
    counters_read,
)
from repro.core.reference import ScalarMultiCastAdvNode
from repro.sim.rng import RandomFabric

R, P = 40, 0.5
RP, RP2 = R * P, R * P * P  # 20.0, 10.0
HELPER_MSG = 15  # 1.5 * Rp²
HELPER_SILENCE = 18  # 0.9 * Rp
BEACON_CEIL = 22  # 2.2 * Rp²
HALT_NOISE = 5  # Rp / 4
EPOCH, PHASE = 5, 2


class StubProto(MultiCastAdv):
    """Real constants and check plumbing, pinned phase parameters."""

    def __init__(self, **kw):
        kw.setdefault("alpha", 0.2)
        kw.setdefault("halt_noise_divisor", 4.0)
        kw.setdefault("helper_wait", 2.0)
        super().__init__(**kw)

    def phase_length(self, i, j):
        return R

    def participation_prob(self, i, j):
        return P


def run_checks(
    proto,
    status,
    n_m,
    n_mb,
    n_noise,
    n_silence,
    *,
    helper_epoch=-1,
    helper_phase=-1,
    lanes=None,
    i=EPOCH,
    j=PHASE,
):
    """Drive apply_phase_checks the scalar way (lanes=None) or the batched
    way (lanes=L replicates the single-node scenario across L lanes), on a
    one-node network; returns (status, helper_epoch, helper_phase) of the
    node (lane 0 when batched; all lanes are asserted identical)."""
    shape = (1,) if lanes is None else (lanes, 1)
    arrays = dict(
        status=np.full(shape, status, dtype=np.int8),
        n_m=np.full(shape, n_m, dtype=np.int64),
        n_mb=np.full(shape, n_mb, dtype=np.int64),
        n_noise=np.full(shape, n_noise, dtype=np.int64),
        n_silence=np.full(shape, n_silence, dtype=np.int64),
        informed_slot=np.full(shape, -1, dtype=np.int64),
        halt_slot=np.full(shape, -1, dtype=np.int64),
        helper_epoch=np.full(shape, helper_epoch, dtype=np.int64),
        helper_phase=np.full(shape, helper_phase, dtype=np.int64),
    )
    clock = 1234 if lanes is None else np.full((lanes, 1), 1234, dtype=np.int64)
    apply_phase_checks(
        proto, i, j, active=np.ones(shape, dtype=bool), clock=clock, **arrays
    )
    for arr in arrays.values():
        assert (arr == arr.reshape(-1)[0]).all(), "lanes diverged"
    flat = {k: int(v.reshape(-1)[0]) for k, v in arrays.items()}
    return flat["status"], flat["helper_epoch"], flat["helper_phase"]


def run_node_checks(
    proto,
    status,
    n_m,
    n_mb,
    n_noise,
    n_silence,
    *,
    helper_epoch=-1,
    helper_phase=-1,
    i=EPOCH,
    j=PHASE,
):
    """The same scenario through the Fig. 4 reference node's own transcription
    of the checks (end of step two); returns the node's resulting status."""
    node = ScalarMultiCastAdvNode(
        proto, is_source=False, rng=RandomFabric(0).generator("node")
    )
    node.status = status
    node.i = i
    node.phase_seq = list(proto.phases_of_epoch(i))
    node.phase_idx = node.phase_seq.index(j)
    node.step = 2
    node.slot_in_step = R - 1  # _advance lands on the end-of-step-two checks
    node.n_m, node.n_mb, node.n_n, node.n_s = n_m, n_mb, n_noise, n_silence
    if helper_epoch >= 0:
        node.i_hat, node.j_hat = helper_epoch, helper_phase
    node._advance(slot=9999)
    return node.status


def everywhere(proto, *args, **kwargs):
    """Run one scenario through all three paths; statuses must agree."""
    scalar = run_checks(proto, *args, **kwargs)
    batched = run_checks(proto, *args, lanes=3, **kwargs)
    assert scalar == batched
    node_status = run_node_checks(proto, *args, **kwargs)
    assert node_status == scalar[0]
    return scalar


class TestHelperBoundary:
    def test_exact_equality_promotes(self):
        """N_m == 1.5Rp², N_s == 0.9Rp, N'_m == 2.2Rp² — all inclusive."""
        status, hep, hph = everywhere(
            StubProto(), STATUS_IN, HELPER_MSG, BEACON_CEIL, 0, HELPER_SILENCE
        )
        assert status == STATUS_HELPER
        assert (hep, hph) == (EPOCH, PHASE)

    def test_one_below_msg_threshold_fails(self):
        status, _, _ = everywhere(
            StubProto(), STATUS_IN, HELPER_MSG - 1, 0, 0, HELPER_SILENCE
        )
        assert status == STATUS_IN

    def test_one_below_silence_threshold_fails(self):
        status, _, _ = everywhere(
            StubProto(), STATUS_IN, HELPER_MSG, 0, 0, HELPER_SILENCE - 1
        )
        assert status == STATUS_IN

    def test_one_above_beacon_ceiling_fails(self):
        status, _, _ = everywhere(
            StubProto(), STATUS_IN, HELPER_MSG, BEACON_CEIL + 1, 0, HELPER_SILENCE
        )
        assert status == STATUS_IN

    def test_beacon_ceiling_dropped_at_cutoff_phase(self):
        """Fig. 6: at the boundary phase j = lg C the N'_m ceiling is gone."""
        proto = StubProto(channel_cap=2 **PHASE)  # max_phase == PHASE
        status, _, _ = everywhere(
            proto, STATUS_IN, HELPER_MSG, BEACON_CEIL + 999, 0, HELPER_SILENCE
        )
        assert status == STATUS_HELPER

    def test_informing_threshold_is_one_message(self):
        """Line 21: un with N_m == 1 informs; N_m == 0 does not."""
        status, _, _ = everywhere(StubProto(), STATUS_UN, 1, 0, 0, 0)
        assert status == STATUS_IN
        status, _, _ = everywhere(StubProto(), STATUS_UN, 0, 0, 0, 0)
        assert status == STATUS_UN


class TestHaltBoundary:
    def halt_case(self, **over):
        kw = dict(
            status=STATUS_HELPER,
            n_m=0,
            n_mb=0,
            n_noise=HALT_NOISE,
            n_silence=0,
            helper_epoch=EPOCH - 2,  # exactly helper_wait=2 epochs ago
            helper_phase=PHASE,
        )
        kw.update(over)
        args = (kw.pop("status"), kw.pop("n_m"), kw.pop("n_mb"),
                kw.pop("n_noise"), kw.pop("n_silence"))
        return everywhere(StubProto(), *args, **kw)

    def test_exact_noise_equality_halts(self):
        """N_n == Rp/D and i - î == helper_wait — both inclusive."""
        status, _, _ = self.halt_case()
        assert status == STATUS_HALT

    def test_one_above_noise_threshold_stays(self):
        status, _, _ = self.halt_case(n_noise=HALT_NOISE + 1)
        assert status == STATUS_HELPER

    def test_wait_one_epoch_short_stays(self):
        status, _, _ = self.halt_case(helper_epoch=EPOCH - 1)
        assert status == STATUS_HELPER

    def test_wrong_phase_stays(self):
        status, _, _ = self.halt_case(helper_phase=PHASE - 1)
        assert status == STATUS_HELPER

    def test_helper_promoted_this_phase_cannot_halt(self):
        """A node promoted to helper this very phase fails the wait (even
        with perfect noise), matching the sequential pseudocode."""
        status, hep, hph = everywhere(
            StubProto(),
            STATUS_IN,
            HELPER_MSG,
            BEACON_CEIL,
            0,  # noise 0 <= Rp/D: would halt if the wait were ignored
            HELPER_SILENCE,
        )
        assert status == STATUS_HELPER
        assert (hep, hph) == (EPOCH, PHASE)


@settings(max_examples=200, deadline=None)
@given(
    status=st.sampled_from([int(STATUS_UN), int(STATUS_IN), int(STATUS_HELPER)]),
    n_m=st.integers(0, 2 * HELPER_MSG),
    n_mb=st.integers(0, 2 * BEACON_CEIL),
    n_noise=st.integers(0, 2 * HALT_NOISE),
    n_silence=st.integers(0, 2 * HELPER_SILENCE),
    wait_ago=st.integers(0, 4),
    helper_phase=st.sampled_from([PHASE - 1, PHASE]),
    capped=st.booleans(),
)
def test_all_paths_agree_near_the_boundaries(
    status, n_m, n_mb, n_noise, n_silence, wait_ago, helper_phase, capped
):
    """Property: for any counters straddling the thresholds, the shared
    vectorized checks (both shapes) and the reference node transcription
    reach the same status and helper record."""
    proto = StubProto(channel_cap=2 **PHASE) if capped else StubProto()
    kwargs = {}
    if status == int(STATUS_HELPER):
        kwargs = dict(helper_epoch=EPOCH - wait_ago, helper_phase=helper_phase)
    scalar = run_checks(proto, np.int8(status), n_m, n_mb, n_noise, n_silence, **kwargs)
    batched = run_checks(
        proto, np.int8(status), n_m, n_mb, n_noise, n_silence, lanes=4, **kwargs
    )
    node = run_node_checks(
        proto, np.int8(status), n_m, n_mb, n_noise, n_silence, **kwargs
    )
    assert scalar == batched
    assert node == scalar[0]


# -- the count-only mask ----------------------------------------------------------

COUNTER_CEILS = {  # each counter drawn in [0, 2 x its threshold]
    "n_m": 2 * HELPER_MSG,
    "n_mb": 2 * BEACON_CEIL,
    "n_noise": 2 * HALT_NOISE,
    "n_silence": 2 * HELPER_SILENCE,
}


def random_phase_end(rng, proto):
    """An ``(L, n)`` end-of-phase scenario of random statuses: per lane an
    (i, j) position, per helper (or halted node) an î that lies
    ``floor(helper_wait) - 1 .. ceil(helper_wait) + 1`` epochs back (so
    ``i - î == helper_wait`` exactly whenever the wait is whole) and a ĵ
    that matches j or not, and counters on both sides of every
    threshold."""
    L, n = int(rng.integers(1, 5)), int(rng.integers(1, 9))
    wait = proto.helper_wait
    j = rng.integers(0, PHASE + 1, size=(L, 1))
    i = j + int(np.ceil(wait)) + 2 + rng.integers(0, 3, size=(L, 1))
    status = rng.choice(
        np.array([STATUS_UN, STATUS_IN, STATUS_HELPER, STATUS_HALT]), size=(L, n)
    )
    ago = np.clip(np.floor(wait) + rng.integers(-1, 3, size=(L, n)), 0, None)
    was_helper = status >= STATUS_HELPER
    state = dict(
        status=status,
        informed_slot=rng.integers(-1, 100, size=(L, n)),
        halt_slot=np.where(status == STATUS_HALT, rng.integers(0, 100, size=(L, n)), -1),
        helper_epoch=np.where(was_helper, i - ago.astype(np.int64), -1),
        helper_phase=np.where(was_helper, j - rng.integers(0, 2, size=(L, n)), -1),
    )
    counters = {k: rng.integers(0, hi + 1, size=(L, n)) for k, hi in COUNTER_CEILS.items()}
    clock = rng.integers(1000, 2000, size=(L, 1))
    return i, j, state, counters, clock


def checked(proto, i, j, state, counters, clock):
    """Every output of ``apply_phase_checks`` on copies of ``state``."""
    out = {k: np.array(v) for k, v in state.items()}
    conds = apply_phase_checks(
        proto, i, j, active=state["status"] != STATUS_HALT, clock=clock,
        **counters, **out,
    )
    return out, conds


@pytest.mark.parametrize("capped", [False, True])
@pytest.mark.parametrize("helper_wait", [2.0, 2 / 0.24, 0.0])
def test_counters_outside_the_read_mask_are_never_read(helper_wait, capped):
    """Seeded property: replacing every counter of the nodes outside
    ``counters_read`` — by zeros and by fresh random values — leaves every
    output of ``apply_phase_checks`` unchanged, and each node's resulting
    status is the reference node's.  The latter pins the inclusive wait
    ``i - î >= helper_wait`` that the mask shares with the checks."""
    kw = dict(helper_wait=helper_wait)
    proto = StubProto(channel_cap=2 ** PHASE, **kw) if capped else StubProto(**kw)
    rng = np.random.default_rng(2400 + int(8 * helper_wait) + capped)
    exact_wait_halts = masked_out = 0
    for case in range(60):
        i, j, state, counters, clock = random_phase_end(rng, proto)
        reads = counters_read(
            proto, i, j,
            active=state["status"] != STATUS_HALT,
            status=state["status"],
            helper_epoch=state["helper_epoch"],
            helper_phase=state["helper_phase"],
        )
        masked_out += int((~reads).sum())
        want, want_conds = checked(proto, i, j, state, counters, clock)
        for fill in ("zeros", "random"):
            other = {
                k: np.where(
                    reads, v, 0 if fill == "zeros" else rng.integers(0, COUNTER_CEILS[k] + 1, v.shape)
                )
                for k, v in counters.items()
            }
            got, got_conds = checked(proto, i, j, state, other, clock)
            for k in want:
                np.testing.assert_array_equal(got[k], want[k], err_msg=f"case {case} {fill}: {k}")
            for g, w in zip(got_conds, want_conds):
                np.testing.assert_array_equal(g, w, err_msg=f"case {case} {fill}: conds")
        for l, k in np.ndindex(reads.shape):
            hep = int(state["helper_epoch"][l, k])
            node = run_node_checks(
                proto,
                int(state["status"][l, k]),
                *(int(counters[c][l, k]) for c in COUNTER_CEILS),
                helper_epoch=hep,
                helper_phase=int(state["helper_phase"][l, k]),
                i=int(i[l, 0]),
                j=int(j[l, 0]),
            )
            assert node == want["status"][l, k], (case, l, k)
            exact_wait_halts += bool(
                state["status"][l, k] == STATUS_HELPER
                and i[l, 0] - hep == helper_wait
                and node == STATUS_HALT
            )
    assert masked_out > 0
    if helper_wait == int(helper_wait):
        assert exact_wait_halts > 0
