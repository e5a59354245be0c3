#!/usr/bin/env python3
"""Compare two sets of perfbench runs, or check one set's spread.

    python3 perfbench/compare.py BASE.jsonl [NEW.jsonl]

Each file holds the records perfbench/run.py appends (--results). For
every workload the comparator prints one row: per end-to-end metric
the median and quartiles of each set (statistics.quantiles, n=4) and
the spread, the quartile distance as a share of the median. With two
sets each metric also gets a verdict against the bound BENCHMARK.json
fixes for it:

  agree       both spreads are within the bound and NEW is not worse
              than BASE by more than the bound
  worse       both spreads are within the bound and NEW is worse by
              more than the bound
  unresolved  a spread is wider than the bound, so the runs cannot
              tell a change of that size from noise

Traced records (--trace 1) are checked for the simulated per-layer
counts, which must repeat exactly for a given workload and seed. The
exit status is 1 when a verdict reads worse, a single set's spread
exceeds a bound, a simulated count differs, or a record reports
incorrect output.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base, new, bound, better):
    if spread(base) > bound or spread(new) > bound:
        return "unresolved"
    b, n = quartiles(base)[1], quartiles(new)[1]
    change = (n - b) / abs(b) if b else 0.0
    worse = change > bound if better == "lower" else change < -bound
    return "worse" if worse else "agree"


def by_workload(records, trace):
    out = {}
    for r in records:
        if r["trace"] == trace:
            out.setdefault(r["workload"], []).append(r)
    return out


def values(records, metric):
    return [r["metrics"][metric]["value"] for r in records
            if metric in r["metrics"]]


def cell(vals):
    q1, med, q3 = quartiles(vals)
    return "%.4g [%.4g, %.4g] %4.1f%%" % (med, q1, q3, 100 * spread(vals))


def check_simulated(records, catalogue):
    """Names of simulated counts that differ between runs of one seed."""
    simulated = [n for n, m in catalogue["per_layer"].items()
                 if m.get("simulated")]
    seen, bad = {}, set()
    for r in records:
        if r["trace"] != 1:
            continue
        for name in simulated:
            if name not in r["metrics"]:
                continue
            key = (r["workload"], r["seed"], name)
            v = r["metrics"][name]["value"]
            if seen.setdefault(key, v) != v:
                bad.add("%s seed %d %s" % key)
    return sorted(bad)


def compare(base, new, bench, catalogue, out=sys.stdout):
    """Print the report; return the number of failing findings."""
    metrics = bench["end_to_end"]
    failures = 0
    for name, recs in (("BASE", base), ("NEW", new or [])):
        bad = [r for r in recs if not r["correct"]]
        if bad:
            failures += len(bad)
            out.write("%s: %d records report incorrect output\n"
                      % (name, len(bad)))
    base_w = by_workload(base, 0)
    new_w = by_workload(new, 0) if new is not None else {}
    for wl in [w["name"] for w in bench["workloads"]]:
        if wl not in base_w and wl not in new_w:
            continue
        b_recs, n_recs = base_w.get(wl, []), new_w.get(wl, [])
        # One summary row per workload, then the numbers behind it.
        row, details = [], []
        for m in metrics:
            bv, nv = values(b_recs, m["name"]), values(n_recs, m["name"])
            text = "  %-18s" % m["name"]
            if bv:
                text += " base " + cell(bv)
            if new is None:
                if not bv:
                    continue
                over = spread(bv) > m["bound"]
                failures += over
                row.append("%s=%s" % (m["name"], "SPREAD" if over
                                      else "steady"))
            elif nv:
                text += " | new " + cell(nv)
                if bv:
                    v = verdict(bv, nv, m["bound"], m["better"])
                    failures += v == "worse"
                    row.append("%s=%s" % (m["name"], v))
            details.append(text)
        out.write("%-14s runs %d%s  %s\n" % (
            wl, len(b_recs),
            "/%d" % len(n_recs) if new is not None else "", " ".join(row)))
        out.write("\n".join(details) + "\n")
    bad = check_simulated(base + (new or []), catalogue)
    if bad:
        failures += len(bad)
        out.write("simulated counts that did not repeat: %s\n"
                  % ", ".join(bad))
    elif any(r["trace"] == 1 for r in base + (new or [])):
        out.write("simulated per-layer counts repeat exactly\n")
    return failures


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("base")
    p.add_argument("new", nargs="?")
    p.add_argument("--benchmark",
                   default=os.path.join(os.path.dirname(HERE),
                                        "BENCHMARK.json"))
    args = p.parse_args(argv)
    with open(args.benchmark) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "metrics.json")) as f:
        catalogue = json.load(f)
    base = load_records(args.base)
    new = load_records(args.new) if args.new else None
    return 1 if compare(base, new, bench, catalogue) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
