#!/usr/bin/env python3
"""Steadiness check: two sets of runs of the same build.

    python3 dpbench/steadiness.py --runs 10 [--traced 3]

For every workload and end-to-end metric it prints each set's median and
quartiles, the spread (Q3 - Q1) / median, and whether the sets agree: the
later set's median may be worse than the first set's by at most the
metric's bound from BENCHMARK.json, and every spread except setup_s must
stay within the bound. Every workload runs for BENCHMARK.json's
run_seconds; set 1 uses seeds 1 .. runs, set 2 seeds 1001 .. 1000 + runs.
Wall-clock figures (ops_per_s, latency percentiles) and peak_rss_mb come
from the run header and are summarised without a verdict. With --traced K it also runs
K untraced/traced pairs per workload and reports the per-layer medians and
the tracing overhead (untraced vs traced ops_per_s).
A JSON summary goes to .bench_build/dpbench-steadiness.json.
"""
import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (run.py, in this directory)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(metric, first, later):
    """Share by which `later` is worse than `first` (negative = better)."""
    if first == 0:
        return 0.0
    change = (later - first) / abs(first)
    return change if metric["better"] == "lower" else -change


def header_value(lines, key):
    prefix = "# %s: " % key
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", type=int, default=0)
    args = parser.parse_args()

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    # Wall-clock figures the run header reports without a bound.
    reported = ["ops_per_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb"]
    workloads = run.WORKLOADS
    sets = 2
    run.build()

    # values[workload][set][metric] -> list; failed shares per set
    values = {w: [{m: [] for m in list(metrics) + reported}
                  for _ in range(sets)] for w in workloads}
    shares = {w: [set() for _ in range(sets)] for w in workloads}
    ok = True
    for s in range(sets):
        for i in range(args.runs):
            seed = 1000 * s + i + 1
            for w in workloads:
                rc, result, lines = run.run_workload(w, seed, seconds, False,
                                                     echo=False)
                if rc != 0 or result is None or not result["correct"]:
                    print("run failed: %s seed %d (exit %d)" % (w, seed, rc))
                    ok = False
                    continue
                shares[w][s].add(result["failed"] / result["attempted"])
                for m in metrics:
                    values[w][s][m].append(result["metrics"][m]["value"])
                for m in reported:
                    values[w][s][m].append(float(header_value(lines, m)))
                print("set %d run %2d %-14s %s" % (
                    s + 1, i + 1, w, "  ".join(
                        "%s=%.4g" % (m, values[w][s][m][-1])
                        for m in list(metrics) + reported)), flush=True)

    summary = {"seconds": seconds, "runs": args.runs, "workloads": {}}
    for w in workloads:
        print("\n== %s ==" % w)
        print("%-16s %s %-8s %s" % ("metric", "  ".join(
            "set%d median [Q1, Q3] spread" % (s + 1) for s in range(sets)),
            "bound", "verdict"))
        summary["workloads"][w] = {}
        for name in list(metrics) + reported:
            m = metrics.get(name)
            rows, verdicts = [], []
            first = None
            for s in range(sets):
                vals = values[w][s][name]
                if not vals:
                    continue
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med if med else 0.0
                rows.append({"median": med, "q1": q1, "q3": q3,
                             "spread": spread})
                if name in reported:
                    continue
                if name != "setup_s" and spread > m["bound"]:
                    verdicts.append("set%d spread > bound" % (s + 1))
                if first is None:
                    first = med
                elif worse_by(m, first, med) > m["bound"]:
                    verdicts.append("set2 median worse than set1")
            summary["workloads"][w][name] = rows
            ok = ok and not verdicts
            print("%-16s %s %-8s %s" % (name, "  ".join(
                "%.4g [%.4g, %.4g] %.3f" % (r["median"], r["q1"], r["q3"],
                                            r["spread"]) for r in rows),
                "%g" % m["bound"] if name in metrics else "-",
                "header only, no bound" if name in reported
                else ", ".join(verdicts) or "agree"))
        distinct = [sorted(x) for x in shares[w]]
        same_share = all(len(x) == 1 for x in distinct) and \
            len({x[0] for x in distinct}) == 1
        ok = ok and same_share
        print("failed share per set: %s (%s)" % (
            distinct, "equal" if same_share else "DIFFERENT"))

    if args.traced:
        summary["traced"] = {}
        per_layer = [m["name"] for m in spec["per_layer"]]
        for w in workloads:
            # Traced and untraced runs alternate on the same seeds, so both
            # see the same host conditions.
            traced_ops, untraced_ops = [], []
            layers = {n: [] for n in per_layer}
            for i in range(args.traced):
                rc0, _, plain = run.run_workload(w, 5000 + i, seconds, False,
                                                 echo=False)
                rc, result, lines = run.run_workload(w, 5000 + i, seconds,
                                                     True, echo=False)
                if rc != 0 or rc0 != 0 or result is None:
                    print("traced run failed: %s" % w)
                    ok = False
                    continue
                untraced_ops.append(float(header_value(plain, "ops_per_s")))
                traced_ops.append(float(header_value(lines,
                                                     "traced_ops_per_s")))
                for n in per_layer:
                    layers[n].append(result["metrics"][n]["value"])
            untraced = statistics.median(untraced_ops) if untraced_ops else 0.0
            traced = statistics.median(traced_ops) if traced_ops else 0.0
            overhead = (untraced - traced) / untraced if untraced else 0.0
            summary["traced"][w] = {
                "untraced_ops_per_s": untraced, "traced_ops_per_s": traced,
                "overhead": overhead,
                "per_layer_median": {n: statistics.median(v)
                                     for n, v in layers.items() if v}}
            print("\n== %s traced (%d runs) ==" % (w, len(traced_ops)))
            print("ops_per_s untraced %.4g, traced %.4g: overhead %.1f%%" % (
                untraced, traced, 100 * overhead))
            for n, v in layers.items():
                if v:
                    print("  %-30s %.6g" % (n, statistics.median(v)))

    out = os.path.join(run.ROOT, ".bench_build", "dpbench-steadiness.json")
    with open(out, "w") as f:
        json.dump(summary, f, indent=1)
    print("\nsteadiness: %s (summary: %s)" % ("PASS" if ok else "FAIL", out))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
