"""One workload in one fresh process: set-up, timed rounds, checks.

    python3 bench/worker.py --workload NAME --seed N --seconds S [--trace]
    python3 bench/worker.py --workload NAME --seed N --setup-only

Prints one JSON object as its last line.  ``bench/run.py`` starts this
program; it needs ``src`` on ``PYTHONPATH``.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
FAILED = object()


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    s = sorted(values)
    return s[max(0, -(-len(s) * q // 100) - 1)]


class Runner:
    """Runs whole rounds of a workload's cases and keeps their times at
    nominal speed (see speed.py).  ``raw_rounds`` keeps each round's raw
    case time and ``factors`` every speed factor applied."""

    def __init__(self, workload):
        self.wl = workload
        self.times = [[] for _ in workload.cases]
        self.rounds = []
        self.raw_rounds = []
        self.factors = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.check_s = 0.0
        self.first = None

    def run(self, span=None):
        """Run every case once; return the case time summed at nominal speed
        and the results.  A reference sample closes a segment of cases every
        SAMPLE_EVERY_S of case time, and the segment's times are scaled by
        the samples at its two ends.  With a tracer, each case runs inside a
        span named after its kind."""
        wl = self.wl
        wl.start_round()
        gc.collect()
        results = []
        total = raw_total = seg_time = 0.0
        segment = []
        before = speed.sample()

        def close_segment():
            nonlocal before, total, seg_time
            after = speed.sample()
            f = speed.factor(before, after)
            self.factors.append(f)
            for i, dt in segment:
                self.times[i].append(dt * f)
                total += dt * f
            segment.clear()
            seg_time = 0.0
            before = after

        for i, case in enumerate(wl.cases):
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = (span(f"case.{case.kind}", case.run) if span
                       else case.run())
            except Exception:
                self.failed += 1
                self.errors.append(f"case {i} ({case.kind}) failed:\n"
                                   + traceback.format_exc(limit=3))
                results.append(FAILED)
                continue
            finally:
                dt = time.perf_counter() - t0
                raw_total += dt
            segment.append((i, dt))
            seg_time += dt
            results.append(out)
            if seg_time >= speed.SAMPLE_EVERY_S:
                close_segment()
        close_segment()
        self.raw_rounds.append(raw_total)
        return total, results

    def check(self, results):
        """Check a round's results, outside every timed span: the first
        round against the oracles, later rounds against the first."""
        if self.first is not None:
            for i, (case, out, ref) in enumerate(
                    zip(self.wl.cases, results, self.first)):
                if out is not FAILED and out != ref:
                    self.errors.append(f"case {i} ({case.kind}): output "
                                       "differs from the first round's")
        else:
            self.first = results
            for i, (case, out) in enumerate(zip(self.wl.cases, results)):
                if out is FAILED:
                    continue
                try:
                    if case.check is None:
                        if out is not True:
                            raise ValueError(f"returned {out!r}, not True")
                    else:
                        case.check(out)
                except Exception as exc:
                    self.errors.append(f"case {i} ({case.kind}) check: {exc}")
        try:
            self.wl.end_round()
        except Exception as exc:
            self.errors.append(f"round check: {exc}")

    def round(self):
        total, results = self.run()
        t0 = time.perf_counter()
        self.check(results)
        self.check_s += time.perf_counter() - t0
        self.rounds.append(total)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")

    before = speed.sample()
    t0 = time.perf_counter()
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    setup_s = (time.perf_counter() - t0) * speed.factor(before, speed.sample())
    if args.setup_only:
        wl.close()
        print(json.dumps({"setup_s": setup_s}))
        return

    runner = Runner(wl)
    start = time.perf_counter()
    try:
        while not runner.rounds or time.perf_counter() - start < args.seconds:
            runner.round()
        result = {
            "setup_s": setup_s,
            "rounds": runner.rounds,
            "cases": len(wl.cases),
            "check_s": runner.check_s,
            "raw_rounds": runner.raw_rounds,
            "speed_factor": statistics.median(runner.factors),
        }
        if args.trace:
            result["trace"] = traced_round(runner, args)
        medians = [statistics.median(t) for t in runner.times if t]
        result.update({
            "wall_s": sum(medians),
            "case_p50_ms": 1000 * statistics.median(medians),
            "case_p95_ms": 1000 * percentile(medians, 95),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "errors": runner.errors[:20],
        })
    finally:
        wl.close()
    print(json.dumps(result))


def traced_round(runner, args):
    """One more round with the tracer installed; writes the span table and
    returns the per-layer metrics with the tracing overhead."""
    from tracing import Tracer
    untraced = sum(statistics.median(t) for t in runner.times if t)
    tracer = Tracer()
    tracer.install()
    try:
        traced_wall, results = runner.run(span=tracer.span)
    finally:
        tracer.uninstall()
    runner.check(results)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "untraced_wall_s": untraced,
        "traced_wall_s": traced_wall,
        "overhead_s": traced_wall - untraced,
        "metrics": tracer.metrics(),
        "spans": tracer.table(),
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return {k: report[k] for k in ("metrics", "untraced_wall_s",
                                   "traced_wall_s", "overhead_s")} | {
        "file": os.path.relpath(path)}


if __name__ == "__main__":
    sys.exit(main())
