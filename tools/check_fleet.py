#!/usr/bin/env python3
"""Gate the fleet bench against the committed baseline.

Usage: check_fleet.py BASELINE.json CURRENT.json [--min-speedup X]

Both files are artifacts from `ext_fleet --json`. The artifact has two
parts with different contracts:

  * "fleet" and "aggregate" are DETERMINISTIC — a pure function of the
    timeline and options, byte-identical across engine tiers, thread
    counts and shard splits. The gate compares them for EXACT equality
    (floats compared as their printed strings): any drift is a
    behavioral change in the simulator, not noise.
  * "throughput" is HOST-DEPENDENT (wall clocks). It is never compared
    against the baseline; the gate only requires the CURRENT run's
    speedup over the naive per-device loop to clear --min-speedup
    (default 10), the fleet layer's reason to exist.

One semantic invariant is also enforced on the current artifact: the
ladder slice must ship zero silently-corrupted blocks (verified blocks
either roll back or trap — SDC is the baseline arm's failure mode).
"""

import argparse
import sys

from jsonio import load_json


def load(path):
    # parse_float=str: deterministic floats compare as the exact bytes the
    # C++ writer printed.
    doc = load_json(path, parse_float=str)
    for key in ("fleet", "aggregate", "throughput"):
        if key not in doc:
            sys.exit(f"{path}: not a fleet bench artifact (no '{key}' section)")
    return doc


def diff_paths(a, b, prefix=""):
    """Leaf-level differences between two loaded subtrees."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for k in set(a) | set(b):
            out += diff_paths(a.get(k), b.get(k), f"{prefix}.{k}" if prefix else k)
        return out
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{prefix}: length {len(a)} != {len(b)}"]
        out = []
        for i, (x, y) in enumerate(zip(a, b)):
            out += diff_paths(x, y, f"{prefix}[{i}]")
        return out
    if a != b:
        return [f"{prefix}: {a!r} != {b!r}"]
    return []


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--min-speedup", type=float, default=10.0)
    args = ap.parse_args()

    base = load(args.baseline)
    cur = load(args.current)

    failed = False
    for section in ("fleet", "aggregate"):
        diffs = diff_paths(base[section], cur[section], section)
        if diffs:
            failed = True
            print(f"deterministic section '{section}' drifted from the baseline:")
            for d in sorted(diffs)[:20]:
                print(f"  {d}")
            if len(diffs) > 20:
                print(f"  ... and {len(diffs) - 20} more")
        else:
            print(f"{section}: identical to the committed baseline")

    try:
        speedup = float(cur["throughput"]["speedup"])
        naive = float(cur["throughput"]["naive_per_device_s"])
        wall = float(cur["throughput"]["fleet_wall_s"])
    except (KeyError, TypeError, ValueError):
        sys.exit(f"{args.current}: throughput section lacks speedup/naive/wall numbers")
    print(
        f"throughput: {speedup:.1f}x over the naive loop "
        f"({naive * 1e3:.0f} ms/device naive, {wall:.2f} s fleet wall)"
    )
    if speedup < args.min_speedup:
        print(f"FAIL: speedup {speedup:.2f}x below the {args.min_speedup:g}x gate")
        failed = True

    try:
        ladder_sdc = cur["aggregate"]["by_policy"]["ladder"]["sdc_blocks"]
    except (KeyError, TypeError):
        sys.exit(f"{args.current}: aggregate lacks by_policy.ladder.sdc_blocks")
    if ladder_sdc != 0:
        print(f"FAIL: ladder slice shipped {ladder_sdc} SDC blocks (must be 0)")
        failed = True

    if failed:
        print("\nFAIL: fleet bench regressed vs the committed baseline.")
        return 1
    print("\nOK: fleet artifact matches the baseline and clears the speedup gate.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
