"""Hardened store writes and reads: ENOSPC surfacing, checksummed rows.

The write side must turn a bare ``OSError`` into a :class:`StoreWriteError`
whose message tells the operator what to do; the read side must reject
(loudly) any row whose payload no longer matches its ``cs`` checksum, so
silent bit-rot re-runs the trial instead of polluting the aggregates.
"""

import dataclasses
import errno
import json
from pathlib import Path

import pytest

from repro.exp.shard import shard_append
from repro.exp.store import (
    ResultStore,
    StoppingRecord,
    StoreWriteError,
    TrialRecord,
    checksummed_line,
    iter_jsonl_records,
    row_intact,
)


def _record(t=0, **overrides):
    base = dict(
        key=f"multicast/blanket/n16/T4000/s11/t{t}",
        protocol="multicast",
        jammer="blanket",
        n=16,
        budget=4000,
        trial=t,
        success=True,
        slots=100 + t,
        max_cost=10,
        mean_cost=5.0,
        adversary_spend=4000,
        dissemination_slot=90,
        halted_uninformed=0,
        periods=3,
        wall_time=1.25,
    )
    base.update(overrides)
    return TrialRecord(**base)


EXPERIMENTS = Path(__file__).resolve().parent.parent.parent / "experiments"


class _FailingHandle:
    """A file handle whose writes fail like a full disk."""

    name = "/fake/store.jsonl"

    def __init__(self, err=errno.ENOSPC, fail_on="write"):
        self.err = err
        self.fail_on = fail_on
        self.written = []

    def write(self, text):
        if self.fail_on == "write":
            raise OSError(self.err, "No space left on device")
        self.written.append(text)
        return len(text)

    def flush(self):
        if self.fail_on == "flush":
            raise OSError(self.err, "No space left on device")


class TestWriteErrors:
    def test_store_append_surfaces_enospc_actionably(self, tmp_path):
        store = ResultStore(str(tmp_path / "s.jsonl"))
        store._fh = _FailingHandle()
        with pytest.raises(StoreWriteError) as info:
            store.append(_record())
        assert "disk full (ENOSPC)" in str(info.value)
        assert "re-run the same command to resume" in str(info.value)
        assert info.value.errno == errno.ENOSPC

    def test_shard_append_wraps_write_failure(self):
        fh = _FailingHandle()
        with pytest.raises(StoreWriteError, match="disk full"):
            shard_append(fh, ['{"key": "a"}'])

    def test_shard_append_wraps_flush_failure(self):
        # a short write can surface only at flush time (buffered IO)
        fh = _FailingHandle(fail_on="flush")
        with pytest.raises(StoreWriteError, match="disk full"):
            shard_append(fh, ['{"key": "a"}'])

    def test_other_oserrors_keep_their_identity(self):
        fh = _FailingHandle(err=errno.EIO)
        with pytest.raises(StoreWriteError, match="cannot append to"):
            shard_append(fh, ['{"key": "a"}'])

    def test_store_write_error_is_an_oserror(self):
        assert issubclass(StoreWriteError, OSError)


class TestChecksums:
    def test_roundtrip_row_is_intact(self):
        line = _record().to_json_line()
        data = json.loads(line)
        assert "cs" in data
        assert row_intact(data)

    def test_wall_time_does_not_enter_the_checksum(self):
        a = json.loads(_record(wall_time=1.0).to_json_line())
        b = json.loads(_record(wall_time=9.0).to_json_line())
        assert a["cs"] == b["cs"]
        assert row_intact(a) and row_intact(b)

    def test_lines_equal_the_asdict_serialization_on_the_record(self):
        """``to_json_line`` builds its payload from the field names, not
        ``dataclasses.asdict``: every row of every committed store (trial
        and stopping rows, legacy schemas included) serializes to the same
        bytes both ways."""
        kinds = set()
        for path in sorted(EXPERIMENTS.glob("*.jsonl")):
            for rec in iter_jsonl_records(str(path)):
                kinds.add(type(rec))
                assert rec.to_json_line() == checksummed_line(
                    dataclasses.asdict(rec)
                ), (path.name, rec.key)
        assert kinds == {TrialRecord, StoppingRecord}

    def test_legacy_rows_without_cs_pass(self):
        assert row_intact({"key": "old-row", "slots": 5})

    def test_flipped_field_fails(self):
        data = json.loads(checksummed_line({"key": "k", "slots": 5}))
        data["slots"] = 6
        assert not row_intact(data)

    def test_resume_rejects_hand_corrupted_row(self, tmp_path, capsys):
        path = str(tmp_path / "s.jsonl")
        with ResultStore(path) as store:
            store.append(_record(0))
            store.append(_record(1))
        # corrupt row 0 on disk the way bit-rot would: payload changes,
        # checksum does not
        lines = open(path).read().splitlines()
        rotted = json.loads(lines[0])
        rotted["slots"] = 999999
        lines[0] = json.dumps(rotted, sort_keys=True)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

        reopened = ResultStore(path)
        assert reopened.completed_keys() == {_record(1).key}
        err = capsys.readouterr().err
        assert "checksum mismatch (corrupt row)" in err
        assert f"{path}:1" in err

    def test_iter_records_skips_torn_tail_loudly(self, tmp_path, capsys):
        path = str(tmp_path / "s.jsonl")
        with open(path, "w") as fh:
            fh.write(_record(0).to_json_line() + "\n")
            fh.write('{"key": "half-a-row", "slo')  # no newline: torn write
        records = list(iter_jsonl_records(path))
        assert [r.key for r in records] == [_record(0).key]
        assert "undecodable JSON (torn write)" in capsys.readouterr().err
