"""Run the benchmark once per seed and report the spread of each metric.

    python3 bench/spread.py --workload family --seeds 1-10 [--seconds 20]

For each end-to-end metric prints the median, the first and third quartile
(``statistics.quantiles(values, n=4)``) and the distance between them as a
share of the median: the spread a metric's bound in ``BENCHMARK.json`` has
to cover.  The share of failed cases is printed too.  Every run's JSON line
is appended to ``bench/out/spread-<workload>.jsonl``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", default="20")
    args = ap.parse_args()
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    log = os.path.join(HERE, "out", f"spread-{args.workload}.jsonl")
    values = {}
    shares = set()
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", args.seconds,
             "--trace", "0"], capture_output=True, text=True,
            cwd=os.path.dirname(HERE))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return f"error: seed {seed} exited {proc.returncode}"
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"seed": seed, **res}) + "\n")
        shares.add((res["failed"], res["attempted"]))
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={m['value']:.4g}" for k, m in res["metrics"].items()),
            flush=True)
    print(f"{'metric':14} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7}")
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        print(f"{name:14} {med:10.4f} {q1:10.4f} {q3:10.4f} "
              f"{(q3 - q1) / med:7.3f}")
    print("failed/attempted: " + ", ".join(f"{f}/{a}" for f, a in sorted(shares)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
