"""One ``setup_s`` sample: import ``repro``, expand a workload's record-slice
spec and open a fresh store (with the opening ``merge_shards``), timed from
inside a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <scratch dir>

Prints ``{"setup_s": ...}``.  ``run.py`` runs it several times
and reports the fastest, scaled to the reference machine.
"""

import json
import os
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (stdlib only, so it is not part of the timing)


def main(name: str, scratch: str) -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with tempfile.TemporaryDirectory(dir=scratch) as store_dir:
        t0 = time.perf_counter()
        from repro.exp import ResultStore, merge_shards

        workloads.campaign(name, ROOT).trial_specs()
        store = ResultStore(os.path.join(store_dir, "store.jsonl"))
        merge_shards(store)
        setup_s = time.perf_counter() - t0
        store.close()
    print(json.dumps({"setup_s": setup_s}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
