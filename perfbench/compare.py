"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE.json... -- NEW.json...

Each file is one run's result as the benchmark writes it under
.perfbench_out/.  Runs are grouped by workload; for every end-to-end
metric the script prints the median of each set, the change, and
whether the change is worse than the metric's bound in BENCHMARK.json.
Results from different machine classes are never compared: the script
refuses them instead of falling back to another class.  Exit status:
0 when no metric regressed past its bound, 1 when one did, 2 on a
refusal or bad input.
"""

import json
import os
import statistics
import sys


def load(paths):
    runs = []
    for p in paths:
        with open(p) as f:
            r = json.load(f)
        runs.append((p, r["stamp"], r["result"]))
    return runs


def main(argv):
    if "--" not in argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    cut = argv.index("--")
    base, new = load(argv[:cut]), load(argv[cut + 1:])
    if not base or not new:
        print("compare: both sets need at least one result", file=sys.stderr)
        return 2
    classes = {s["machine_class"] for _, s, _ in base + new}
    if len(classes) != 1:
        print("compare: refusing to compare machine classes %s" % ", ".join(sorted(classes)),
              file=sys.stderr)
        return 2
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    worst = 0
    for w in sorted({s["workload"] for _, s, _ in base + new}):
        for name, m in spec.items():
            b = [r["metrics"][name]["value"] for _, s, r in base
                 if s["workload"] == w and name in r["metrics"]]
            n = [r["metrics"][name]["value"] for _, s, r in new
                 if s["workload"] == w and name in r["metrics"]]
            if not b or not n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            change = (mn - mb) / mb if mb else 0.0
            worse = change if m["better"] == "lower" else -change
            flag = "REGRESSED" if worse > m["bound"] else "ok"
            if worse > m["bound"]:
                worst = 1
            print("%-20s %-18s base %-12.6g new %-12.6g %+7.2f%%  bound %4.0f%%  %s"
                  % (w, name, mb, mn, 100 * change, 100 * m["bound"], flag))
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
