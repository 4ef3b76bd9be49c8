#!/usr/bin/env python3
"""Compares result files of the repository benchmark (run.py --out ...).

  compare.py PARENT... --vs CHANGE...   verdict per workload and metric
  compare.py --agree A... --vs B...     two sets of runs of one commit
  compare.py --agree BASELINE.json      the two sets stored in a baseline
  compare.py --selftest                 checks the verdict rules

A result file holds {"runs": [...]}; a baseline holds {"sets": {"A": [...],
"B": [...]}}. Untraced runs give the end-to-end metrics, whose bounds and
directions come from BENCHMARK.json, and the window timings of the
per-layer set (latency_p50_ms, throughput_rps, ...), which have a direction
but no bound. Every run must have measured the run_seconds of
BENCHMARK.json; runs of another length are refused, since both sides of a
comparison must use the benchmark's run length. Runs marked invalid (an
open-loop sender lag p99 above 1 ms, so the offered load was not met, or
too few answers for a window median or a p99) are left out of the window
timings; set-up and memory do not depend on the timed window and come from
every run. A workload where either side has fewer valid runs than invalid
ones fails.

Verdicts on a metric with a bound, decided in this order:
  worse       the change's median is worse than the parent's by more than
              the bound;
  unresolved  the parent's own quartile spread is wider than the bound and
              not every change run beats every parent run;
  better      the change wins at least 9 of 10 pairs (pair i = the i-th run
              of each side; ties count for neither) and the medians differ
              by more than the parent's quartile spread;
  unchanged   otherwise.
On a metric without a bound: better as above, worse when the parent wins
at least 9 of 10 pairs and the medians differ by more than the parent's
quartile spread, unresolved otherwise. The exit code is 1 when any pair is
worse or has no valid runs.

--agree checks that two sets of runs of the same code agree: for every
workload and end-to-end metric the medians differ by at most the bound, and
traced runs of one seed report identical replay counts (per-layer metrics
with unit "count"). It also shows the unbounded window timings and marks
each quartile spread wider than the bound (WIDE), since such a pair's
verdicts read unresolved. The exit code is 1 when a median pair or a count
differs.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(paths):
    runs = []
    for path in paths:
        with open(path) as f:
            data = json.load(f)
        runs.extend(data.get("runs", []))
    return runs


def load_baseline(path):
    with open(path) as f:
        sets = json.load(f)["sets"]
    return sets["A"], sets["B"]


def check_length(runs, seconds):
    """Names the runs that did not measure `seconds`."""
    return [f"{r['workload']} seed {r['seed']} measured {r['seconds']} s"
            for r in runs if float(r["seconds"]) != float(seconds)]


def values(runs, end_to_end):
    """{(workload, metric): [value, ...]} over the untraced runs, and
    {workload: (valid runs, invalid runs)}. Invalidity concerns the timed
    window, so the end-to-end metrics (set-up, memory) come from every run
    and the window timings from the valid runs only."""
    out, tally = {}, {}
    for r in runs:
        if r.get("trace"):
            continue
        valid = r.get("valid", True)
        good, bad = tally.get(r["workload"], (0, 0))
        tally[r["workload"]] = (good + valid, bad + (not valid))
        for name, m in r["metrics"].items():
            if valid or name in end_to_end:
                out.setdefault((r["workload"], name), []).append(m["value"])
    return out, tally


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def spread(xs):
    q1, q3 = quartiles(xs)
    med = statistics.median(xs)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(parent, change, bound, lower_better):
    """(win fraction, verdict) of `change` against `parent`; bound None for
    a metric without one."""
    better = (lambda a, b: b < a) if lower_better else (lambda a, b: b > a)
    pairs = list(zip(parent, change))
    wins = sum(better(a, b) for a, b in pairs)
    losses = sum(better(b, a) for a, b in pairs)
    win_fraction = wins / len(pairs) if pairs else 0.0
    med_a, med_b = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    apart = abs(med_b - med_a) > q3 - q1
    clear_gain = win_fraction >= 0.9 and better(med_a, med_b) and apart
    if bound is None:
        if clear_gain:
            return win_fraction, "better"
        if pairs and losses / len(pairs) >= 0.9 and better(med_b, med_a) \
                and apart:
            return win_fraction, "worse"
        return win_fraction, "unresolved"
    worse_by = (med_b - med_a) / abs(med_a) if med_a else 0.0
    if not lower_better:
        worse_by = -worse_by
    if worse_by > bound:
        return win_fraction, "worse"
    all_better = all(better(a, b) for a in parent for b in change)
    if spread(parent) > bound and not all_better:
        return win_fraction, "unresolved"
    if clear_gain:
        return win_fraction, "better"
    return win_fraction, "unchanged"


def fmt(x):
    return f"{x:.6g}"


def compare(spec, parent_runs, change_runs, agree):
    refused = (check_length(parent_runs, spec["run_seconds"])
               + check_length(change_runs, spec["run_seconds"]))
    if refused:
        for line in refused:
            print(f"REFUSED: {line}, not run_seconds = "
                  f"{spec['run_seconds']}")
        return len(refused)
    # The end-to-end metrics, then the per-layer ones untraced runs measure.
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    a, tally_a = values(parent_runs, metrics)
    b, tally_b = values(change_runs, metrics)
    for m in spec["per_layer"]:
        if any(key[1] == m["name"] for key in a):
            metrics[m["name"]] = m
    failures = 0
    counts = {}
    header = ("workload", "metric", "A median", "A q1..q3", "B median",
              "B q1..q3", "wins", "verdict")
    print("%-15s %-18s %12s %25s %12s %25s %5s  %s" % header)
    for w in [w["name"] for w in spec["workloads"]]:
        for side, tally in (("A", tally_a), ("B", tally_b)):
            good, bad = tally.get(w, (0, 0))
            if bad:
                print(f"note: {bad} of {good + bad} run(s) of {w} in set "
                      f"{side} marked invalid, left out of the window "
                      "timings")
            if bad > good:
                print(f"{w}: set {side} is mostly invalid")
                failures += 1
        for name, m in metrics.items():
            bound = m.get("bound")
            xa, xb = a.get((w, name)), b.get((w, name))
            if not xa or not xb:
                print(f"{w:15s} {name:18s} missing runs")
                failures += 1
                continue
            if agree:
                med_a, med_b = statistics.median(xa), statistics.median(xb)
                dev = abs(med_b - med_a) / abs(med_a) if med_a else 0.0
                wide = max(spread(xa), spread(xb))
                wins = ""
                if bound is None:
                    result = (f"medians {dev:.3f} apart, spread {wide:.3f} "
                              "(no bound)")
                else:
                    ok = dev <= bound
                    result = (f"{'agree' if ok else 'OUTSIDE'}: medians "
                              f"{dev:.3f} apart, bound {bound}; spread "
                              f"{wide:.3f}{' WIDE' if wide > bound else ''}")
                    failures += not ok
                    counts["wide"] = counts.get("wide", 0) + (wide > bound)
            else:
                frac, result = verdict(xa, xb, bound, m["better"] == "lower")
                counts[result] = counts.get(result, 0) + 1
                wins = f"{frac:.2f}"
                failures += result == "worse"
            qa, qb = quartiles(xa), quartiles(xb)
            print("%-15s %-18s %12s %25s %12s %25s %5s  %s" % (
                w, name, fmt(statistics.median(xa)),
                f"{fmt(qa[0])}..{fmt(qa[1])}", fmt(statistics.median(xb)),
                f"{fmt(qb[0])}..{fmt(qb[1])}", wins, result))
    if agree:
        print(f"end-to-end spreads wider than the bound: "
              f"{counts.get('wide', 0)}")
        failures += check_counts(parent_runs + change_runs)
    else:
        print("verdicts: " + ", ".join(
            f"{counts.get(v, 0)} {v}"
            for v in ("better", "worse", "unresolved", "unchanged")))
    return failures


def check_counts(runs):
    """Replay counts of traced runs must repeat exactly for one seed."""
    seen, failures, checked = {}, 0, 0
    for r in runs:
        if not r.get("trace"):
            continue
        key = (r["workload"], r["seed"])
        counts = {k: m["value"] for k, m in r["metrics"].items()
                  if m["unit"] == "count"}
        if key in seen:
            checked += 1
            if seen[key] != counts:
                diff = [k for k in sorted(counts)
                        if counts[k] != seen[key].get(k)]
                print(f"COUNTS DIFFER {key[0]} seed {key[1]}: "
                      f"{', '.join(diff)}")
                failures += 1
        else:
            seen[key] = counts
    print(f"replay counts: {checked} repeated traced run(s) checked, "
          f"{failures} differ")
    return failures


def selftest():
    """The verdict rules on synthetic runs (lower is better)."""
    tight = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    wide = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    cases = [
        ("2x worse than a tight parent", tight, [x * 2 for x in tight], 0.1,
         "worse"),
        # The parent's wide spread must not hide a clear regression.
        ("2x worse than a wide parent", wide, [x * 2 for x in wide], 0.1,
         "worse"),
        ("5% better than a wide parent", wide, [x * 0.95 for x in wide], 0.1,
         "unresolved"),
        ("every run below every wide parent run", wide,
         [50.0 + i * 0.1 for i in range(10)], 0.1, "better"),
        ("20% better than a tight parent", tight, [x * 0.8 for x in tight],
         0.1, "better"),
        ("the parent again", tight, list(tight), 0.1, "unchanged"),
        ("3% worse than a tight parent", tight, [x * 1.03 for x in tight],
         0.1, "unchanged"),
        ("no bound: 3% worse than a tight parent", tight,
         [x * 1.03 for x in tight], None, "worse"),
        ("no bound: 20% better than a tight parent", tight,
         [x * 0.8 for x in tight], None, "better"),
        ("no bound: 5% better than a wide parent", wide,
         [x * 0.95 for x in wide], None, "unresolved"),
    ]
    failures = 0
    for what, parent, change, bound, want in cases:
        _, got = verdict(parent, change, bound, True)
        if got != want:
            print(f"selftest FAILED: {what}: {got}, want {want}")
            failures += 1
    _, got = verdict([1.0] * 10, [0.5] * 10, 0.1, False)
    if got != "worse":
        print(f"selftest FAILED: halved rate (higher is better): {got}")
        failures += 1
    if quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) != (1.5, 4.5):
        print("selftest FAILED: quartiles of 1..5")
        failures += 1
    print("selftest: ok" if failures == 0 else "selftest: FAILED")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    parser.add_argument("parent", nargs="*", help="result files (set A)")
    parser.add_argument("--vs", nargs="*", default=[],
                        help="result files (set B)")
    parser.add_argument("--agree", action="store_true",
                        help="the two sets are runs of one commit")
    parser.add_argument("--selftest", action="store_true",
                        help="check the verdict rules and exit")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.parent and args.vs:
        parent_runs, change_runs = load_runs(args.parent), load_runs(args.vs)
    elif args.agree and len(args.parent) == 1:
        parent_runs, change_runs = load_baseline(args.parent[0])
    else:
        parser.error("give --vs, or --agree with one baseline file")
    return 1 if compare(spec, parent_runs, change_runs, args.agree) else 0


if __name__ == "__main__":
    sys.exit(main())
