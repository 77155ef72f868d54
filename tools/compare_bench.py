#!/usr/bin/env python3
"""Compare perfbench runs of two checkouts, pair by pair, with noise-aware
verdicts.

Usage:
  compare_bench.py --parent DIR --change DIR --workload NAME
                   [--pairs N] [--seed K] [--out FILE]
  compare_bench.py --from FILE [--workload NAME]

The first form runs `python3 perfbench/run.py --trace 0` in each checkout
for N pairs of one workload, with seeds K..K+N-1, alternating which side
runs first (the parent on even pairs, the change on odd ones). Each run
lasts the "run_seconds" of the change checkout's BENCHMARK.json. FILE is
emptied when the first form starts, and each run is written to it as one
JSON line as soon as it ends:

  {"workload": ..., "side": "parent"|"change", "seed": ..., "first": bool,
   "result": <run.py's JSON result, or null when the run failed>}

The second form re-reads such a file. Either way the report covers every
record of the workload in the file.

Metric names, directions ("better") and relative bounds come from the
"end_to_end" list of BENCHMARK.json (the change checkout's, or this
repository's with --from). Per metric the report gives each side's median
and quartiles over its successful runs, the change/parent ratio of the
medians, the pairs the change won (a pair with a failed run, or a tie,
is not won; every pair run counts toward the total) and a verdict:

  improved     the change wins at least 9 of 10 pairs, the medians differ
               by more than the parent's interquartile range (IQR), and
               the change fails no larger a share of operations than the
               parent;
  regressed    the change's median is worse than the parent's by more than
               the bound;
  unresolved   the parent's IQR is wider than the bound and not every
               change run reads better than every parent run;
  within-bound none of the above.

It also prints failed/attempted operations for each side.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def run_pairs(args, seconds):
    sides = {"parent": args.parent, "change": args.change}
    with open(args.out, "w") as out:
        for i in range(args.pairs):
            seed = args.seed + i
            order = (["parent", "change"] if i % 2 == 0
                     else ["change", "parent"])
            for side in order:
                result = run_once(sides[side], args.workload, seed, seconds)
                record = {"workload": args.workload, "side": side,
                          "seed": seed, "first": side == order[0],
                          "result": result}
                out.write(json.dumps(record) + "\n")
                out.flush()
                status = "failed" if result is None else "ok"
                print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: "
                      f"{status}", file=sys.stderr)


def load_records(path, workload):
    records = []
    with open(path) as f:
        for line in f:
            if line.strip():
                record = json.loads(line)
                if workload is None or record["workload"] == workload:
                    records.append(record)
    return records


def pair_up(records):
    """Returns [(parent_result, change_result)], None for a failed run: the
    n-th parent run of a seed pairs with the n-th change run of that seed."""
    by_seed = {}
    for r in records:
        by_seed.setdefault(r["seed"], {"parent": [], "change": []})
        by_seed[r["seed"]][r["side"]].append(r["result"])
    pairs = []
    for seed in sorted(by_seed):
        runs = by_seed[seed]
        pairs.extend(zip(runs["parent"], runs["change"]))
    return pairs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def spread(values):
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


def verdict(parent, change, wins, pairs, better, bound, more_failures):
    sign = 1 if better == "lower" else -1
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    iqr = q3 - q1
    if wins >= 0.9 * pairs and abs(mc - mp) > iqr and not more_failures:
        return "improved"
    if mp != 0 and sign * (mc - mp) / abs(mp) > bound:
        return "regressed"
    change_clear = all(sign * (c - p) < 0 for c in change for p in parent)
    if iqr > bound * abs(mp) and not change_clear:
        return "unresolved"
    return "within-bound"


def report(records, metrics, workload):
    pairs = pair_up(records)
    lost = sum(1 for r in records if r["result"] is None)
    seeds = sorted({r["seed"] for r in records})
    print(f"workload {workload}: {len(pairs)} pairs, seeds "
          f"{seeds[0] if seeds else '-'}..{seeds[-1] if seeds else '-'}, "
          f"{lost} failed run(s)")
    share = {}
    for side in ("parent", "change"):
        results = [r["result"] for r in records
                   if r["side"] == side and r["result"] is not None]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        share[side] = failed / attempted if attempted else 0.0
        print(f"  {side}: failed/attempted {failed}/{attempted}")
    more_failures = share["change"] > share["parent"]
    if more_failures:
        print("  the change fails a larger share of operations: "
              "no metric reads improved")
    parent_ok = [p for p, _ in pairs if p is not None]
    change_ok = [c for _, c in pairs if c is not None]
    if not parent_ok or not change_ok:
        print("  no successful pair member on one side: nothing to compare")
        return
    print(f"  {'metric':<12} {'parent median [q1, q3]':<28} "
          f"{'change median [q1, q3]':<28} {'ratio':>6} {'won':>6}  verdict")
    for m in metrics:
        name = m["name"]
        parent = [p["metrics"][name]["value"] for p in parent_ok]
        change = [c["metrics"][name]["value"] for c in change_ok]
        sign = 1 if m["better"] == "lower" else -1
        wins = sum(1 for p, c in pairs
                   if p is not None and c is not None and
                   sign * (c["metrics"][name]["value"] -
                           p["metrics"][name]["value"]) < 0)
        v = verdict(parent, change, wins, len(pairs), m["better"],
                    m["bound"], more_failures)
        mp, mc = statistics.median(parent), statistics.median(change)
        ratio = f"{mc / mp:.3f}" if mp else "-"
        won = f"{wins}/{len(pairs)}"
        print(f"  {name:<12} {spread(parent):<28} {spread(change):<28} "
              f"{ratio:>6} {won:>6}  {v}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="parent checkout")
    ap.add_argument("--change", help="change checkout")
    ap.add_argument("--workload", help="perfbench workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1000, help="first seed")
    ap.add_argument("--out", default="compare_bench.jsonl",
                    help="JSON-lines file the runs are written to "
                         "(emptied first)")
    ap.add_argument("--from", dest="source",
                    help="report on a saved JSON-lines file; run nothing")
    args = ap.parse_args()

    if args.source is None:
        if not (args.parent and args.change and args.workload):
            ap.error("--parent, --change and --workload are required "
                     "unless --from is given")
        benchmark = load_benchmark(args.change)
        run_pairs(args, benchmark["run_seconds"])
        source = args.out
    else:
        benchmark = load_benchmark(ROOT)
        source = args.source

    records = load_records(source, args.workload)
    for workload in sorted({r["workload"] for r in records}):
        report([r for r in records if r["workload"] == workload],
               benchmark["end_to_end"], workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
