"""Fault invariance: a supervised campaign's store is *byte-identical*
(under ``REPRO_ZERO_WALL``) to the fault-free serial run, whatever the
fault plan throws at it — worker SIGKILLs, raising trials, torn shard
tails, silently corrupted rows, straggler delays.

This is the PR's acceptance gate: the supervisor's recovery actions
(respawn, retry, straggler re-dispatch, merge-time row rejection) must be
invisible in the data.  The one sanctioned divergence is quarantine — a
trial that fails every attempt is *missing*, recorded in the ledger, and
the campaign still completes.
"""

import json
import os

import pytest

from repro.exp import CampaignSpec, ResultStore, read_quarantine, run_campaign
from repro.exp.supervisor import SupervisorPolicy, RecoveryLog
from repro.faults import FaultPlan, FaultSpec, plan_env

CAMPAIGN = CampaignSpec(
    protocols=["multicast"],
    jammers=["blanket"],
    ns=[16],
    budget=4000,
    trials=12,  # two 6-trial lane blocks across 2 workers
    base_seed=11,
)
KEY = "multicast/blanket/n16/T4000/s11/t{}".format

#: Fast-failure knobs so injected retries cost milliseconds, not seconds.
FAST = dict(backoff_base=0.01, backoff_cap=0.05)


@pytest.fixture(autouse=True, scope="module")
def _zero_wall():
    previous = os.environ.get("REPRO_ZERO_WALL")
    os.environ["REPRO_ZERO_WALL"] = "1"
    yield
    if previous is None:
        os.environ.pop("REPRO_ZERO_WALL", None)
    else:
        os.environ["REPRO_ZERO_WALL"] = previous


_BASELINE = {}


def _baseline(tmp_path_factory) -> bytes:
    """The fault-free serial store's bytes (computed once per module)."""
    if "bytes" not in _BASELINE:
        path = str(tmp_path_factory.mktemp("baseline") / "serial.jsonl")
        with ResultStore(path) as store:
            run_campaign(CAMPAIGN, store, workers=1)
        _BASELINE["bytes"] = open(path, "rb").read()
    return _BASELINE["bytes"]


def _run_with_plan(tmp_path, plan, *, policy=None, recovery=None):
    path = str(tmp_path / f"{plan.name}.jsonl")
    with plan_env(plan, str(tmp_path)):
        with ResultStore(path) as store:
            run_campaign(
                CAMPAIGN,
                store,
                workers=2,
                policy=policy or SupervisorPolicy(**FAST),
                recovery=recovery,
            )
    return path


class TestFaultInvariance:
    def test_worker_sigkill_is_invisible(self, tmp_path, tmp_path_factory, capfd):
        plan = FaultPlan(
            faults=[FaultSpec(kind="kill_worker", match="/t8")], seed=1, name="kill"
        )
        recovery = RecoveryLog()
        path = _run_with_plan(tmp_path, plan, recovery=recovery)
        assert open(path, "rb").read() == _baseline(tmp_path_factory)
        assert recovery.respawns >= 1 and not recovery.quarantined
        assert "respawning" in capfd.readouterr().err
        assert not os.path.exists(path + ".quarantine.jsonl")

    def test_transient_raising_trial_is_retried_away(self, tmp_path, tmp_path_factory):
        plan = FaultPlan(
            faults=[FaultSpec(kind="raise_trial", match="/t5", times=2)],
            seed=2,
            name="raise",
        )
        recovery = RecoveryLog()
        path = _run_with_plan(tmp_path, plan, recovery=recovery)
        assert open(path, "rb").read() == _baseline(tmp_path_factory)
        assert recovery.retries == 2 and not recovery.quarantined

    def test_torn_tail_and_corrupt_row_are_rejected(
        self, tmp_path, tmp_path_factory, capfd
    ):
        plan = FaultPlan(
            faults=[
                FaultSpec(kind="torn_tail", match="/t9"),
                FaultSpec(kind="corrupt_row", match="/t2"),
            ],
            seed=3,
            name="torn",
        )
        path = _run_with_plan(tmp_path, plan)
        assert open(path, "rb").read() == _baseline(tmp_path_factory)
        err = capfd.readouterr().err
        assert "undecodable JSON (torn write)" in err
        assert "checksum mismatch (corrupt row)" in err

    def test_straggler_block_is_redispatched(self, tmp_path, tmp_path_factory):
        plan = FaultPlan(
            faults=[FaultSpec(kind="delay_block", match="/t0", seconds=2.5)],
            seed=4,
            name="slow",
        )
        recovery = RecoveryLog()
        path = _run_with_plan(
            tmp_path,
            plan,
            policy=SupervisorPolicy(block_timeout=0.5, **FAST),
            recovery=recovery,
        )
        assert open(path, "rb").read() == _baseline(tmp_path_factory)
        assert recovery.redispatches >= 1

    def test_generated_plan_holds_too(self, tmp_path, tmp_path_factory):
        keys = [s.key() for s in CAMPAIGN.trial_specs()]
        plan = FaultPlan.generate(1234, keys)
        path = _run_with_plan(tmp_path, plan)
        assert open(path, "rb").read() == _baseline(tmp_path_factory)


class TestQuarantine:
    def test_poison_trial_is_quarantined_and_the_rest_complete(
        self, tmp_path, tmp_path_factory
    ):
        plan = FaultPlan(
            faults=[FaultSpec(kind="raise_trial", match="/t7", times=99)],
            seed=5,
            name="poison",
        )
        recovery = RecoveryLog()
        path = _run_with_plan(tmp_path, plan, recovery=recovery)
        # the store equals the baseline minus exactly the poisoned row
        rows = [json.loads(l) for l in open(path) if l.strip()]
        base = [
            json.loads(l) for l in _baseline(tmp_path_factory).splitlines() if l.strip()
        ]
        assert rows == [r for r in base if r["key"] != KEY(7)]
        # ...and the ledger names the culprit with its attempt count
        assert [q.key for q in recovery.quarantined] == [KEY(7)]
        ledger = read_quarantine(path)
        assert [q.key for q in ledger] == [KEY(7)]
        assert ledger[0].attempts >= 3
        assert "raise_trial" in ledger[0].error
