"""Supervisor units: policy backoff, bisect/quarantine, the ledger.

The end-to-end recovery paths live in ``tests/faults/``; these tests pin
the pieces in isolation — the backoff curve, the parent-side bisect that
narrows a failing block to its culprit trial, and the quarantine ledger's
read/write discipline.
"""

import types

import pytest

from repro.core.batch import FallbackNotes
from repro.exp import ResultStore
from repro.exp.spec import TrialSpec
from repro.exp.store import append_jsonl_line
from repro.exp.supervisor import (
    QuarantineRecord,
    RecoveryLog,
    Supervisor,
    SupervisorPolicy,
    quarantine_path,
    read_quarantine,
    remaining_quarantined,
)


def _spec(t):
    return TrialSpec(
        protocol="multicast", jammer="blanket", n=16, budget=4000,
        base_seed=11, trial=t,
    )


class TestSupervisorPolicy:
    def test_backoff_doubles_and_caps(self):
        policy = SupervisorPolicy(backoff_base=0.1, backoff_cap=0.5)
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.4)
        assert policy.backoff(4) == pytest.approx(0.5)  # capped
        assert policy.backoff(10) == pytest.approx(0.5)


class _StubPool:
    """Stands in for repro.exp.pool inside Supervisor._bisect: trials whose
    key hits ``poison`` raise, everything else returns a token record."""

    def __init__(self, poison):
        self.poison = poison
        self.ran = []

    def run_trial(self, spec):
        key = spec.key()
        if self.poison in key:
            raise ValueError(f"boom on {key}")
        self.ran.append(key)
        return types.SimpleNamespace(key=key)

    def run_trial_batch(self, specs):
        return [self.run_trial(s) for s in specs]


def _supervisor(store, recovery):
    delivered = []
    sup = Supervisor(
        store=store,
        workers=2,
        record_one=delivered.append,
        notes=FallbackNotes(),
        policy=SupervisorPolicy(backoff_base=0.001, backoff_cap=0.002),
        recovery=recovery,
    )
    return sup, delivered


class TestBisect:
    def test_narrows_to_the_culprit_and_delivers_the_rest(self):
        specs = [_spec(t) for t in range(8)]
        recovery = RecoveryLog()
        sup, delivered = _supervisor(ResultStore(None), recovery)
        sup._pool = _StubPool(poison="/t5")
        sup._bisect(specs, attempt=3, cause=None)
        assert [q.key for q in recovery.quarantined] == [_spec(5).key()]
        assert sorted(r.key for r in delivered) == sorted(
            _spec(t).key() for t in range(8) if t != 5
        )

    def test_transient_singleton_failure_is_retried_not_quarantined(self):
        specs = [_spec(0)]
        recovery = RecoveryLog()
        sup, delivered = _supervisor(ResultStore(None), recovery)

        class _Flaky(_StubPool):
            def __init__(self):
                super().__init__(poison="/t0")
                self.failures = 0

            def run_trial(self, spec):
                if self.failures < 1:
                    self.failures += 1
                    raise ValueError("transient")
                return types.SimpleNamespace(key=spec.key())

        sup._pool = _Flaky()
        sup._bisect(specs, attempt=0, cause=None)
        assert not recovery.quarantined
        assert recovery.retries == 1
        assert [r.key for r in delivered] == [_spec(0).key()]

    def test_quarantine_writes_the_ledger(self, tmp_path):
        store = ResultStore(str(tmp_path / "s.jsonl"))
        recovery = RecoveryLog()
        sup, _ = _supervisor(store, recovery)
        sup._pool = _StubPool(poison="/t5")
        sup._bisect([_spec(5)], attempt=3, cause=None)
        ledger = read_quarantine(store.path)
        assert len(ledger) == 1
        assert ledger[0].key == _spec(5).key()
        assert "boom" in ledger[0].error
        assert ledger[0].attempts == 4


class TestQuarantineLedger:
    def test_path_shape(self):
        assert quarantine_path("a/b.jsonl") == "a/b.jsonl.quarantine.jsonl"

    def test_read_tolerates_torn_and_foreign_lines(self, tmp_path):
        store_path = str(tmp_path / "s.jsonl")
        path = quarantine_path(store_path)
        append_jsonl_line(path, QuarantineRecord("k1", "err", 3).to_json_line())
        with open(path, "a") as fh:
            fh.write('{"key": "torn\n')  # undecodable: dropped by the reader
            fh.write('{"key": "foreign", "kind": "other"}\n')  # not a ledger row
        append_jsonl_line(path, QuarantineRecord("k2", "err", 4).to_json_line())
        assert [q.key for q in read_quarantine(store_path)] == ["k1", "k2"]

    def test_read_missing_ledger_is_empty(self, tmp_path):
        assert read_quarantine(str(tmp_path / "absent.jsonl")) == []

    def test_remaining_excludes_completed_and_foreign_keys(self, tmp_path):
        from repro.exp.store import TrialRecord

        store = ResultStore(str(tmp_path / "s.jsonl"))
        path = quarantine_path(store.path)
        for key in ("mine/resolved", "mine/open", "theirs/open"):
            append_jsonl_line(path, QuarantineRecord(key, "err", 4).to_json_line())
        # "mine/resolved" later completed on a re-run
        store.append(
            TrialRecord(
                key="mine/resolved", protocol="multicast", jammer="blanket",
                n=16, budget=4000, trial=0, success=True, slots=1, max_cost=1,
                mean_cost=1.0, adversary_spend=1, dissemination_slot=1,
                halted_uninformed=0, periods=1,
            )
        )
        left = remaining_quarantined(store, {"mine/resolved", "mine/open"})
        assert left == ["mine/open"]

    def test_remaining_on_memory_store_is_empty(self):
        assert remaining_quarantined(ResultStore(None), {"k"}) == []
