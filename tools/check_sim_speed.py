#!/usr/bin/env python3
"""Gate simulator-speed regressions against the committed baseline.

Usage: check_sim_speed.py BASELINE.json CURRENT.json [--tolerance 0.15]

Both files are google-benchmark JSON reports from `micro_sim_speed --json`.
Absolute nanoseconds are machine-dependent (the baseline was recorded on a
different host than CI), so the gate compares *engine-tier speedups* —
ratios of two benchmarks from the same run, which cancel the host's clock
and load. A speedup that drops more than the tolerance (default 15%)
below its committed value fails the job.
"""

import argparse
import sys

from jsonio import load_json

# (label, optimized benchmark, reference benchmark, iterations-per-iteration
# scale of the optimized one relative to the reference one)
PAIRS = [
    ("cluster-run conflict-free trace/ref",
     "BM_ClusterRunConflictFree/trace", "BM_ClusterRunConflictFree/reference", 1),
    ("cluster-run conflict-free fast/ref",
     "BM_ClusterRunConflictFree/fast", "BM_ClusterRunConflictFree/reference", 1),
    ("cluster-step 8-core trace/ref",
     "BM_ClusterStep/int8_trace", "BM_ClusterStep/int8_slow", 1),
    ("cluster-step 8-core fast/ref",
     "BM_ClusterStep/int8_fast", "BM_ClusterStep/int8_slow", 1),
    # Unstaggered SPMD: every trace-tier step() is a lockstep cycle.
    ("cluster-step 8-core lockstep trace/ref",
     "BM_ClusterStep/int8_lockstep_trace", "BM_ClusterStep/int8_lockstep_slow", 1),
    # run() executes 1024 instructions per benchmark iteration, step() one.
    ("functional-ISS block dispatch/step",
     "BM_FunctionalCoreRunBlocks", "BM_FunctionalCoreStep", 1024),
    # Batched engine (DESIGN.md §11): identical campaigns, byte-identical
    # outcome tables, so the pair ratio is pure engine speedup. Streaming
    # campaigns are the fleet-throughput case the tier targets (>=2x);
    # one-shot injections diverge for good, the pair there only guards
    # that the batched bookkeeping never costs throughput (~1.1x).
    ("campaign throughput streaming batched/trace",
     "BM_CampaignThroughput/streaming_batched", "BM_CampaignThroughput/streaming_trace", 1),
    ("campaign throughput one-shot batched/trace",
     "BM_CampaignThroughput/oneshot_batched", "BM_CampaignThroughput/oneshot_trace", 1),
]


def load_times(path):
    report = load_json(path)
    times = {}
    for b in report.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue
        times[b["name"]] = float(b["cpu_time"])
    return times


def speedup(times, opt, ref, scale):
    if opt not in times or ref not in times:
        return None
    return times[ref] / (times[opt] / scale)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="allowed fractional speedup regression (default 0.15)")
    args = ap.parse_args()

    base = load_times(args.baseline)
    cur = load_times(args.current)

    failed = False
    print(f"{'pair':45s} {'baseline':>9s} {'current':>9s} {'floor':>7s}")
    for label, opt, ref, scale in PAIRS:
        b = speedup(base, opt, ref, scale)
        c = speedup(cur, opt, ref, scale)
        if b is None:
            print(f"{label:45s}  -- not in baseline, skipped")
            continue
        if c is None:
            print(f"{label:45s}  MISSING from current report")
            failed = True
            continue
        floor = b * (1.0 - args.tolerance)
        verdict = "ok" if c >= floor else "REGRESSION"
        print(f"{label:45s} {b:8.2f}x {c:8.2f}x {floor:6.2f}x  {verdict}")
        if c < floor:
            failed = True

    if failed:
        print(f"\nFAIL: a tier speedup regressed more than "
              f"{args.tolerance:.0%} below the committed baseline.")
        return 1
    print("\nOK: all tier speedups within tolerance of the baseline.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
