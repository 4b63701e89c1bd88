"""Side-by-side stage table of two benchmark runs, with deltas.

    python3 perfbench/run.py --workload gallery --trace 1 --out before.json
    ... change the code ...
    python3 perfbench/run.py --workload gallery --trace 1 --out after.json
    python3 perfbench/diff.py before.json after.json

Takes files written by ``run.py --out`` (one workload, or ``--workload all``)
and prints, for every workload and trace mode present in both, each metric's
two values, their difference and the relative change.
"""

import json
import sys


def load(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    docs = doc if isinstance(doc, list) else [doc]
    return {(d["workload"], d["trace"]): d for d in docs}


def table(before: dict, after: dict) -> list:
    lines = []
    for key in sorted(set(before) & set(after)):
        b, a = before[key]["metrics"], after[key]["metrics"]
        lines.append(f"== {key[0]} (trace {key[1]})")
        lines.append(f"{'metric':32s} {'before':>12s} {'after':>12s} {'delta':>12s} {'change':>8s}  unit")
        for name in b:
            if name not in a:
                continue
            vb, va = b[name]["value"], a[name]["value"]
            change = f"{(va - vb) / vb:+.1%}" if vb else "-"
            lines.append(
                f"{name:32s} {vb:>12.6g} {va:>12.6g} {va - vb:>+12.4g} {change:>8s}  {b[name]['unit']}"
            )
        for label, doc in (("before", before[key]), ("after", after[key])):
            lines.append(
                f"  {label}: failed {doc['failed']}/{doc['attempted']}, calibration "
                f"{doc['meta']['calib_mvalues_per_s']:.1f} Mvalues/s"
            )
    return lines


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    lines = table(load(argv[0]), load(argv[1]))
    if not lines:
        print("no workload/trace pair in common", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
