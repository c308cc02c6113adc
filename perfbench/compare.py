#!/usr/bin/env python3
"""Compare two sets of benchmark records written by run.py --out.

    python3 perfbench/compare.py --base A1.json A2.json ... --new B1.json ...

For each (workload, trace mode) and metric it prints the median of each
side, the change as a share of the base median, and the base's spread
(quartile distance over median, Python's statistics.quantiles), and
flags an end-to-end metric that got worse by more than its bound in
BENCHMARK.json. It warns when the two sides ran on differing host or
build fingerprints, and reports, seed by seed, whether the digest of
every simulated statistic stayed identical: a change meant only to
speed up the simulator must keep it.

Exit status: 0, or 1 when a metric got worse beyond its bound or a
digest changed.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FINGERPRINT_KEYS = ("cpu", "nproc", "compiler", "build_type")


def load(paths):
    records = []
    for path in paths:
        with open(path) as f:
            records.append(json.load(f))
    return records


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(med)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args()
    base, new = load(args.base), load(args.new)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    better = dict((m["name"], m["better"])
                  for m in spec["end_to_end"] + spec["per_layer"])

    bad = False
    for key in FINGERPRINT_KEYS:
        seen_base = {str(r["fingerprint"].get(key)) for r in base}
        seen_new = {str(r["fingerprint"].get(key)) for r in new}
        if seen_base != seen_new:
            print("WARNING: fingerprints differ in %s: base %s, new %s; "
                  "host times are not comparable" % (
                      key, sorted(seen_base), sorted(seen_new)))

    digests = {}
    for side, records in (("base", base), ("new", new)):
        for r in records:
            digests.setdefault((r["workload"], r["seed"], r["tiny"]),
                               {}).setdefault(side, set()).add(r["digest"])
    for (workload, seed, _), sides in sorted(digests.items()):
        if "base" in sides and "new" in sides:
            same = sides["base"] == sides["new"] and len(sides["base"]) == 1
            bad |= not same
            print("digest %s seed %d: %s" % (
                workload, seed, "identical" if same else "CHANGED"))

    groups = sorted({(r["workload"], r["trace"]) for r in base + new})
    for workload, trace in groups:
        b = [r for r in base if (r["workload"], r["trace"]) ==
             (workload, trace)]
        n = [r for r in new if (r["workload"], r["trace"]) ==
             (workload, trace)]
        if not b or not n:
            continue
        print("\n%s (trace %d): %d base, %d new runs" % (
            workload, trace, len(b), len(n)))
        for name in b[0]["result"]["metrics"]:
            bv = [r["result"]["metrics"][name]["value"] for r in b]
            nv = [r["result"]["metrics"][name]["value"] for r in n]
            bm, nm = statistics.median(bv), statistics.median(nv)
            change = (nm - bm) / abs(bm) if bm else float("nan")
            worse = -change if better.get(name) == "higher" else change
            flag = ""
            if name in e2e and worse > e2e[name]["bound"]:
                flag = "  WORSE beyond bound %.2f" % e2e[name]["bound"]
                bad = True
            print("  %-32s base %12.6g  new %12.6g  %+7.2f%%  "
                  "base spread %.3f%s" % (name, bm, nm, 100 * change,
                                          spread(bv), flag))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
