"""End-to-end crash/resume: interrupt or kill a live `repro sweep`.

Three failure modes, one recovery story:

* SIGINT (operator ^C) — the parent converts it to a clean exit 130 with the
  store resumable;
* SIGTERM (a scheduler's soft kill) — same path as SIGINT: the parent
  installs a handler that raises KeyboardInterrupt, so the store is left
  exactly as resumable as after a ^C;
* SIGKILL of a *worker* mid-shard — the pool breaks, the supervisor
  respawns it and resubmits the unfinished blocks, and the run *completes*
  in one invocation with every (cell, seed) exactly once (DESIGN.md
  section 14).
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

# enough trials for several lane blocks per worker (blocks carry
# STREAM_BLOCK_FACTOR * stream_width = 4 * 2 = 8 multicast trials each), so
# the first flushed block still leaves the campaign mid-flight to interrupt
TRIALS = 48
CMD_TAIL = [
    "-m", "repro", "sweep",
    "--protocols", "multicast", "--jammers", "blanket",
    "--n", "64", "--budget", "150000", "--trials", str(TRIALS),
    "--workers", "2", "--quiet",
]


def _env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _lines(path):
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        return [line for line in fh.read().splitlines() if line.strip()]


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signal semantics")
def test_sigint_leaves_resumable_store(tmp_path):
    store = str(tmp_path / "campaign.jsonl")
    cmd = [sys.executable, *CMD_TAIL, "--store", store]
    proc = subprocess.Popen(
        cmd, env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    try:
        # wait for the first completed trial to hit the store, then interrupt
        deadline = time.time() + 120
        while time.time() < deadline and not _lines(store):
            if proc.poll() is not None:
                pytest.fail(f"sweep exited early with {proc.returncode}")
            time.sleep(0.05)
        assert _lines(store), "no trial completed within the deadline"
        proc.send_signal(signal.SIGINT)
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert proc.returncode == 130
    interrupted = _lines(store)
    assert 0 < len(interrupted) < TRIALS, "interrupt should leave a partial store"

    # resuming must run only the remainder and end with the full trial set
    done = subprocess.run(
        cmd, env=_env(), capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0
    assert "resuming" in done.stderr
    final = _lines(store)
    assert len(final) == TRIALS
    assert final[: len(interrupted)] == interrupted, "resume must append, not rewrite"


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signal semantics")
def test_sigterm_matches_sigint_semantics(tmp_path):
    store = str(tmp_path / "campaign.jsonl")
    cmd = [sys.executable, *CMD_TAIL, "--store", store]
    proc = subprocess.Popen(
        cmd, env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True
    )
    try:
        deadline = time.time() + 120
        while time.time() < deadline and not _lines(store):
            if proc.poll() is not None:
                pytest.fail(f"sweep exited early with {proc.returncode}")
            time.sleep(0.05)
        assert _lines(store), "no trial completed within the deadline"
        proc.terminate()  # SIGTERM, not SIGINT
        _, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert proc.returncode == 130, stderr
    assert "re-run the same command to resume" in stderr
    interrupted = _lines(store)
    assert 0 < len(interrupted) < TRIALS, "SIGTERM should leave a partial store"

    # resuming after SIGTERM works exactly like resuming after SIGINT
    done = subprocess.run(cmd, env=_env(), capture_output=True, text=True, timeout=300)
    assert done.returncode == 0
    assert "resuming" in done.stderr
    assert len(_lines(store)) == TRIALS


def _worker_pids(parent_pid):
    """Direct children of ``parent_pid`` that are pool workers (via /proc;
    the multiprocessing resource tracker is a child too and must not count —
    killing it would not break the pool)."""
    workers = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                fields = fh.read().split(b") ", 1)[1].split()
            if int(fields[1]) != parent_pid:
                continue
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmdline = fh.read()
        except (OSError, IndexError, ValueError):
            continue
        if b"resource_tracker" in cmdline or b"semaphore_tracker" in cmdline:
            continue
        workers.append(int(entry))
    return sorted(workers)


def _shard_lines(store):
    lines = []
    for name in os.listdir(os.path.dirname(store)):
        if ".shard-" in name:
            lines.extend(_lines(os.path.join(os.path.dirname(store), name)))
    return lines


@pytest.mark.skipif(
    not os.path.isdir("/proc"), reason="worker discovery needs procfs"
)
def test_sigkilled_worker_is_survived_by_the_supervisor(tmp_path):
    store = str(tmp_path / "campaign.jsonl")
    cmd = [sys.executable, *CMD_TAIL, "--store", store]
    proc = subprocess.Popen(
        cmd, env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True
    )
    try:
        # wait until at least one lane block is flushed somewhere (shard or
        # merged into the main store) and the workers are up, then kill one
        deadline = time.time() + 120
        while time.time() < deadline:
            if proc.poll() is not None:
                pytest.fail(f"sweep exited early with {proc.returncode}")
            if (_lines(store) or _shard_lines(store)) and len(_worker_pids(proc.pid)) >= 2:
                break
            time.sleep(0.05)
        victims = _worker_pids(proc.pid)
        assert len(victims) >= 2, "pool workers never appeared"
        os.kill(victims[0], signal.SIGKILL)
        _, stderr = proc.communicate(timeout=300)
    finally:
        if proc.poll() is None:
            proc.kill()
    # the supervisor respawns the pool and finishes THIS run: no manual
    # resume, exit 0, every (cell, seed) exactly once
    assert proc.returncode == 0, stderr
    assert "respawning" in stderr
    assert "recovery:" in stderr
    keys = [json.loads(line)["key"] for line in _lines(store)]
    assert len(keys) == TRIALS
    assert len(set(keys)) == TRIALS, "a (cell, seed) ran twice"
    expected = {f"multicast/blanket/n64/T150000/s0/t{t}" for t in range(TRIALS)}
    assert set(keys) == expected
    assert _shard_lines(store) == [], "the closing merge must consume the shards"
