#!/usr/bin/env python3
"""Compares benchmark results of a parent commit and a change.

  python3 bench_ispn/compare.py --parent P1.json [P2.json ...] \\
                                --change C1.json [C2.json ...]

The files are results written by `run.py --set --label L`.  Each side's
samples are concatenated in file order, and sample i of the parent pairs
with sample i of the change, so record the two sides alternately (parent,
change, parent, change, ...; see README.md).  For every workload and
end-to-end metric of BENCHMARK.json, one row gives each side's median and
quartiles and a verdict:

  better      at least 10 pairs, the change wins at least 9 of every 10
              (ties count for neither side), and the medians differ by
              more than the parent's interquartile range
  worse       the change's median is worse than the parent's by more than
              the metric's bound, and either the parent's spread (IQR over
              median) is within the bound or every change sample is worse
              than every parent sample
  unresolved  the parent's spread is wider than the bound, and not every
              change sample is better than every parent sample
  same        none of the above

It also flags a sim_digest that differs between the sides (a change that
only claims speed must leave it unchanged) and lists samples whose
host.ref_ms is more than 10% from the median of their file.  Exit status
1 on any "worse" row or digest change, else 0.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9
REF_TOLERANCE = 0.10


def load(paths):
    """Per workload: concatenated sample metrics (None for a failed
    sample) and the set of digests seen."""
    side = {}
    for path in paths:
        result = json.loads(Path(path).read_text())
        for w, data in result["workloads"].items():
            entry = side.setdefault(w, {"samples": [], "digests": set()})
            entry["samples"] += [s["metrics"] for s in data["samples"]]
            entry["digests"].add(data["digest"])
    return side


def noisy_samples(paths):
    """(file, workload, index, ref_ms, file median) for every sample whose
    reference-loop time is more than REF_TOLERANCE from its file's median."""
    flagged = []
    for path in paths:
        result = json.loads(Path(path).read_text())
        refs = [s["ref_ms"] for d in result["workloads"].values()
                for s in d["samples"] if s["ref_ms"] is not None]
        if not refs:
            continue
        mid = statistics.median(refs)
        for w, d in result["workloads"].items():
            for i, s in enumerate(d["samples"]):
                if s["ref_ms"] is not None and abs(s["ref_ms"] / mid - 1) > REF_TOLERANCE:
                    flagged.append((path, w, i, s["ref_ms"], mid))
    return flagged


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def cell(values):
    """Median, quartiles and count of a side's successful samples."""
    values = [v for v in values if v is not None]
    if not values:
        return "-"
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def verdict(parent, change, better, bound):
    """The verdict for one workload and metric (see the module doc) and
    the change's relative difference of medians."""
    sign = 1 if better == "lower" else -1  # > 0 means worse
    p = [v for v in parent if v is not None]
    c = [v for v in change if v is not None]
    if not p or not c:
        return "unresolved", None
    pq1, pmed, pq3 = quartiles(p)
    cmed = statistics.median(c)
    worse_by = sign * (cmed - pmed) / pmed
    spread = (pq3 - pq1) / pmed
    pairs = [(a, b) for a, b in zip(parent, change)
             if a is not None and b is not None]
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    delta = (cmed - pmed) / pmed
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and abs(cmed - pmed) > pq3 - pq1 and worse_by < 0):
        return "better", delta
    all_worse = min(sign * v for v in c) > max(sign * v for v in p)
    all_better = max(sign * v for v in c) < min(sign * v for v in p)
    if worse_by > bound and (spread <= bound or all_worse):
        return "worse", delta
    if spread > bound and not all_better:
        return "unresolved", delta
    return "same", delta


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = ap.parse_args()
    metrics = json.loads(Path(args.benchmark).read_text())["end_to_end"]
    parent, change = load(args.parent), load(args.change)

    status = 0
    print(f"{'workload':<15}{'metric':<15}{'unit':<9} {'parent median [q1, q3]':>41}"
          f" {'change median [q1, q3]':>41}{'change':>9}  verdict")
    for w in sorted(set(parent) | set(change)):
        if w not in parent or w not in change:
            print(f"{w:<15}only in {'parent' if w in parent else 'change'}")
            continue
        for m in metrics:
            name = m["name"]
            p = [s[name] if s else None for s in parent[w]["samples"]]
            c = [s[name] if s else None for s in change[w]["samples"]]
            v, delta = verdict(p, c, m["better"], m["bound"])
            status |= v == "worse"
            change_pct = "-" if delta is None else f"{delta:+.1%}"
            print(f"{w:<15}{name:<15}{m['unit']:<9} {cell(p):>41} {cell(c):>41}"
                  f"{change_pct:>9}  {v}")
        if parent[w]["digests"] != change[w]["digests"]:
            status = 1
            print(f"{w:<15}sim_digest CHANGED: parent {sorted(parent[w]['digests'])}"
                  f" change {sorted(change[w]['digests'])}")
    for path, w, i, ref, mid in noisy_samples(args.parent + args.change):
        print(f"noisy: {path} {w} sample {i}: host.ref_ms {ref:.1f} vs file "
              f"median {mid:.1f}")
    return status


if __name__ == "__main__":
    sys.exit(main())
