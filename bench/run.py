"""Benchmark of cluster-forge: one workload per invocation.

    python3 bench/run.py --workload {separation,family,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout.  The workload runs in a fresh Python
process of its own (``bench/worker.py``) as a closed loop with one thread:
every case starts when the previous one has finished, and whole rounds of
the same cases repeat until ``--seconds`` have passed.  Eight more fresh
processes only import the package and build the inputs, so that set-up
time is a median of nine.  Times are reported at a nominal machine speed
measured alongside them (``bench/speed.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` one further round
runs under the tracer and the metrics are the per-layer ones, and the span
table goes to ``bench/out/``.  The exit code is 0 when every output was
correct, 1 when a check failed, 2 when the benchmark could not run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("separation", "family", "cli")
SETUP_PROBES = 8
DEADLINE_S = 170


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def worker(args, env, deadline):
    """Run bench/worker.py and return its last output line as JSON; stop it
    at the deadline (a time.monotonic() value)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(args)} did not finish in {timeout:.0f}s")
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        fail(f"{' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "cluster_forge", "__init__.py")):
        fail(f"no cluster_forge package under {src}")
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    setup = [worker(base + ["--setup-only"], env, deadline)["setup_s"]
             for _ in range(SETUP_PROBES)]
    run = base + ["--seconds", str(args.seconds)]
    if args.trace:
        run.append("--trace")
    res = worker(run, env, deadline)
    setup.append(res["setup_s"])

    for err in res["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    correct = not res["errors"]
    print(f"{args.workload} seed {args.seed}: {len(res['rounds'])} rounds of "
          f"{res['cases']} cases; round times at nominal speed "
          + ", ".join(f"{r:.3f}s" for r in res["rounds"]) + "; raw "
          + ", ".join(f"{r:.3f}s" for r in res["raw_rounds"])
          + f"; median speed factor {res['speed_factor']:.3f}"
          + f"; checks {res['check_s']:.3f}s")
    if args.trace:
        tr = res["trace"]
        metrics = tr["metrics"]
        print(f"traced round {tr['traced_wall_s']:.3f}s, untraced median "
              f"{tr['untraced_wall_s']:.3f}s, tracing overhead "
              f"{tr['overhead_s']:.3f}s; spans in {tr['file']}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "case_p50_ms": {"value": res["case_p50_ms"], "unit": "ms"},
            "case_p95_ms": {"value": res["case_p95_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(f"  attempted {res['attempted']} cases, failed {res['failed']}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
