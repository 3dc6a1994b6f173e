"""Runs the end-to-end benchmark on several seeds and reports how far the
results spread.

    python3 perfbench/steadiness.py --seeds 101-110 --seconds 25 [--workloads a,b] [--out FILE]
    python3 perfbench/steadiness.py --compare A.json B.json

Each workload runs once per seed, one run at a time, as
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`.
For each metric it prints the median of the runs and their spread: the
distance between the first and third quartiles (statistics.quantiles, n=4)
as a share of the median.  --out writes every run's result line as JSON.
--compare reads two such files, made with the same code, and prints a
markdown table of each metric's medians and spreads in both sets, the
ratio of the medians, and the metric's bound from BENCHMARK.json, then the
same for the figures the runs print in seconds (no bound).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

SECONDS_DETAILS = ("ref_s", "setup_wall_s", "wall_s", "cmd_p50_s")


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(path_a: str, path_b: str) -> None:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    a, b = (json.loads(Path(f).read_text())["runs"] for f in (path_a, path_b))
    print("| workload | metric | median A | spread A | median B | spread B | B / A − 1 "
          "| worse by | bound |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    for workload in a:
        for name, m in metrics.items():
            va, vb = ([r["metrics"][name]["value"] for r in runs[workload]] for runs in (a, b))
            ma, mb = statistics.median(va), statistics.median(vb)
            change = mb / ma - 1
            worse = max(0.0, change if m["better"] == "lower" else -change)
            print(f"| {workload} | {name} | {ma:.4g} | {spread(va):.3f} | {mb:.4g} "
                  f"| {spread(vb):.3f} | {change:+.3f} | {worse:.3f} | {m['bound']} |")
    print()
    print("| workload | detail | median A | spread A | median B | spread B | B / A − 1 |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for workload in a:
        for name in SECONDS_DETAILS:
            va, vb = ([r["details"][name] for r in runs[workload]] for runs in (a, b))
            ma, mb = statistics.median(va), statistics.median(vb)
            print(f"| {workload} | {name} | {ma:.4g} | {spread(va):.3f} | {mb:.4g} "
                  f"| {spread(vb):.3f} | {mb / ma - 1:+.3f} |")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", help="a range such as 101-110")
    p.add_argument("--seconds", type=int)
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--out", default=None)
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()
    if args.compare:
        compare(*args.compare)
        return 0
    if args.seeds is None or args.seconds is None:
        p.error("--seeds and --seconds are required")
    runs = {}
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in seed_range(args.seeds):
            started = time.strftime("%H:%M:%S", time.gmtime())
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                                   "--seed", str(seed), "--seconds", str(args.seconds),
                                   "--trace", "0"], capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            # the figures in seconds, printed as "workload name value (detail)"
            details = {f[1]: float(f[2]) for f in map(str.split, lines)
                       if f[-1] == "(detail)" and f[1] in SECONDS_DETAILS}
            runs[workload].append({"seed": seed, "elapsed_s": round(time.perf_counter() - t0, 2),
                                   "started": started, **result, "details": details})
            print(workload, seed, json.dumps(result["metrics"]), flush=True)
        for name in runs[workload][0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            print(f"{workload:15s} {name:14s} median {statistics.median(values):.5g} "
                  f"spread {spread(values):.3f} correct {all(r['correct'] for r in runs[workload])}",
                  flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps({"command": " ".join(sys.argv), "runs": runs},
                                             indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
