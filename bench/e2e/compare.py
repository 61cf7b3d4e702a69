#!/usr/bin/env python3
"""Diffs two sets of psp-e2e reports against the bounds in BENCHMARK.json.

    bench/e2e/compare.py BASE HEAD      # BASE, HEAD: directories of reports
    bench/e2e/compare.py BASE           # one set: run-to-run spread only

Each directory holds report-<workload>-seed<N>-trace<T>.json files written by
psp_e2e (bench/e2e/out by default), one per run; use several runs per side,
alternating which side runs first. BASE may also be bench/e2e/baseline.json,
the per-run values committed with the benchmark. For every workload x metric the table
gives each side's median and quartiles, the change of the median in the
metric's worse direction as a share of the base median, and a verdict:

  ok          the head median is not worse by more than the bound
  regressed   worse by more than the bound, with both spreads inside it
  unresolved  a side's spread (quartile distance / median) exceeds the bound,
              unless every head run is better than every base run
  info        per-layer metrics, and workloads BENCHMARK.json does not list
              (udp-tiny), which carry no bound

Exit status 1 when any row regressed.
"""
import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                                 "BENCHMARK.json")


def load_runs(directory):
    """{(workload, metric): [values...]} over every report in `directory`,
    or from a baseline file ({"runs": {workload: {metric: [values]}}})."""
    runs = {}
    if os.path.isfile(directory):
        with open(directory) as f:
            baseline = json.load(f)
        for workload, metrics in baseline["runs"].items():
            for name, values in metrics.items():
                runs[(workload, name)] = [float(v) for v in values]
        return runs
    paths = sorted(glob.glob(os.path.join(directory, "report-*.json")))
    if not paths:
        sys.exit("compare: no report-*.json files in %s" % directory)
    for path in paths:
        with open(path) as f:
            report = json.load(f)
        for name, metric in report["metrics"].items():
            if metric["value"] is not None:
                runs.setdefault((report["workload"], name), []).append(
                    float(metric["value"]))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def worse_share(base, head, better):
    """Change of the median in the worse direction, as a share of base."""
    b, h = statistics.median(base), statistics.median(head)
    if b == 0:
        return 0.0 if h == b else float("inf")
    change = (h - b) / abs(b)
    return change if better == "lower" else -change


def all_better(base, head, better):
    if better == "lower":
        return max(head) < min(base)
    return min(head) > max(base)


def fmt(values):
    q1, med, q3 = quartiles(values)
    return "%.5g [%.5g, %.5g]" % (med, q1, q3)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("head", nargs="?")
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    args = parser.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    declared = {}
    for metric in bench["end_to_end"]:
        declared[metric["name"]] = (metric["better"], metric["bound"])
    for metric in bench["per_layer"]:
        declared[metric["name"]] = (metric["better"], None)

    base = load_runs(args.base)
    head = load_runs(args.head) if args.head else None
    rows = []
    regressed = False
    # BENCHMARK.json's workloads, then any other the reports hold (udp-tiny).
    judged = [w["name"] for w in bench["workloads"]]
    workloads = judged + sorted({w for w, _ in base} - set(judged))
    for workload in workloads:
        for name, (better, bound) in declared.items():
            if workload not in judged:
                bound = None
            key = (workload, name)
            if key not in base or (head is not None and key not in head):
                continue
            b = base[key]
            if head is None:
                s = spread(b)
                verdict = ("info" if bound is None else
                           "ok" if s <= bound else "unresolved")
                rows.append((workload, name, fmt(b), "%.3f" % s,
                             "-" if bound is None else "%.2f" % bound,
                             verdict))
                continue
            h = head[key]
            worse = worse_share(b, h, better)
            if bound is None:
                verdict = "info"
            elif (max(spread(b), spread(h)) > bound and
                  not all_better(b, h, better)):
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
                regressed = True
            else:
                verdict = "ok"
            rows.append((workload, name, fmt(b), fmt(h), "%+.1f%%" % (
                100 * worse), "-" if bound is None else "%.2f" % bound,
                verdict))

    if head is None:
        header = ("workload", "metric", "median [q1, q3]", "spread", "bound",
                  "verdict")
    else:
        header = ("workload", "metric", "base median [q1, q3]",
                  "head median [q1, q3]", "worse", "bound", "verdict")
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
