#!/usr/bin/env python3
"""Runs tools/compare_bench.py on compare_bench_fixture.jsonl, made-up runs
scored against the repository's BENCHMARK.json, and checks its verdicts.

apps, ten good pairs, has one verdict of each kind: cpu_ms is improved (the
change wins 10/10 by far more than the parent's IQR), setup_s is regressed
(40 % worse, bound 25 %), cpu_p90_ms is unresolved (parent IQR about 32 %
of its median, bound 25 %, the two sides overlap) and sim_ms, the same on
every run, is within bound. chains and cold have the change a third faster
in every pair it completes, and neither may read improved: in chains two of
the change's ten runs fail, so it wins 8 of 10 pairs; in cold it fails 3
operations where the parent fails none.

It then runs the tool's run mode twice into the same --out file, on two
stub checkouts whose perfbench/run.py prints a fixed result, and checks
that the second report covers only its own two pairs and that each run
lasted BENCHMARK.json's run_seconds.

  python3 tests/tools/compare_bench_test.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
TOOL = os.path.join(ROOT, "tools", "compare_bench.py")

# perfbench/run.py of a stub checkout: fails unless asked for the expected
# run length, else prints one result with every metric at VALUE.
STUB = """import json, sys
args = sys.argv[1:]
if args[args.index("--seconds") + 1] != {seconds!r}:
    sys.exit(1)
print(json.dumps({{"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {{n: {{"value": {value}}} for n in {names!r}}}}}))
"""

# (workload, metric) -> (pairs won, verdict)
EXPECTED = {
    ("apps", "cpu_ms"): ("10/10", "improved"),
    ("apps", "setup_s"): ("0/10", "regressed"),
    ("apps", "cpu_p90_ms"): ("5/10", "unresolved"),
    ("apps", "sim_ms"): ("0/10", "within-bound"),
    ("chains", "cpu_ms"): ("8/10", "within-bound"),
    ("cold", "cpu_ms"): ("10/10", "within-bound"),
}

EXPECTED_LINES = [
    "workload apps: 10 pairs, seeds 1000..1009, 0 failed run(s)",
    "workload chains: 10 pairs, seeds 2000..2009, 2 failed run(s)",
    "workload cold: 10 pairs, seeds 3000..3009, 0 failed run(s)",
    "  parent: failed/attempted 0/1545",
    "  change: failed/attempted 0/1545",
    "  change: failed/attempted 3/4000",
    "  the change fails a larger share of operations: "
    "no metric reads improved",
]


def check_fixture():
    out = subprocess.run(
        [sys.executable, TOOL,
         "--from", os.path.join(HERE, "compare_bench_fixture.jsonl")],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    print(out)
    rows = {}
    workload = None
    for line in out.splitlines():
        fields = line.split()
        if line.startswith("workload "):
            workload = fields[1].rstrip(":")
        elif fields and (workload, fields[0]) in EXPECTED:
            rows[(workload, fields[0])] = (fields[-2], fields[-1])
    errors = [f"{key}: expected {want}, got {rows.get(key)}"
              for key, want in EXPECTED.items() if rows.get(key) != want]
    lines = out.splitlines()
    errors += [f"missing line: {want!r}" for want in EXPECTED_LINES
               if want not in lines]
    return errors


def check_run_mode():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    names = [m["name"] for m in benchmark["end_to_end"]]
    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {}
        for side, value in (("parent", 2.0), ("change", 1.0)):
            checkouts[side] = os.path.join(tmp, side)
            os.makedirs(os.path.join(checkouts[side], "perfbench"))
            with open(os.path.join(checkouts[side], "perfbench", "run.py"),
                      "w") as f:
                f.write(STUB.format(seconds=str(benchmark["run_seconds"]),
                                    value=value, names=names))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), checkouts["change"])
        cmd = [sys.executable, TOOL, "--parent", checkouts["parent"],
               "--change", checkouts["change"], "--workload", "apps",
               "--pairs", "2", "--seed", "7", "--out",
               os.path.join(tmp, "runs.jsonl")]
        for _ in range(2):
            out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True).stdout
    print(out)
    want = "workload apps: 2 pairs, seeds 7..8, 0 failed run(s)"
    return [] if want in out.splitlines() else [
        f"second run into the same --out: missing line {want!r}"]


def main():
    errors = check_fixture() + check_run_mode()
    for e in errors:
        print("FAIL:", e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
