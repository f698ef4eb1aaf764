#!/usr/bin/env python3
"""Gate fault-coverage regressions against the committed baseline.

Usage: check_coverage.py BASELINE.json CURRENT.json

Both files are campaign artifacts from `ext_fault_campaign --json` (or
`ext_fault_adaptive --json`). Campaigns are matched by their full identity —
workload, architecture, ECC, register protection, checkpoint mode, burst
shape, seed and injection count — and, unlike the timing gate, the
comparison is exact: the campaigns are seeded and deterministic, so any
drift is a behavioral change in the simulator or the protection layer,
not noise. The gate fails when a matched campaign's coverage drops or its
SDC count rises, and when a baseline campaign disappears from the current
report. Protected-tier campaigns that report zero SDC in the baseline
must stay at zero.
"""

import argparse
import sys

from jsonio import load_json

ID_KEYS = (
    "workload",
    "policy",
    "arch",
    "ecc",
    "protection",
    "checkpoint",
    "burst_len",
    "reg_burst",
    "seed",
    "injections",
)


def load(path):
    doc = load_json(path)
    if not isinstance(doc.get("campaigns"), list):
        sys.exit(f"{path}: not a campaign artifact (no 'campaigns' list)")
    index = {}
    for i, c in enumerate(doc["campaigns"]):
        if (
            not isinstance(c, dict)
            or not isinstance(c.get("outcomes"), dict)
            or not isinstance(c.get("coverage"), (int, float))
        ):
            sys.exit(f"{path}: campaign #{i} lacks 'outcomes'/'coverage'")
        key = tuple(c.get(k) for k in ID_KEYS)
        if key in index:
            sys.exit(f"{path}: duplicate campaign identity {key}")
        index[key] = c
    return index


def describe(key):
    return ", ".join(f"{k}={v}" for k, v in zip(ID_KEYS, key) if v is not None)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    args = ap.parse_args()

    base = load(args.baseline)
    cur = load(args.current)

    failed = False
    print(f"{'campaign':70s} {'base cov':>9s} {'cur cov':>9s} {'base SDC':>9s} {'cur SDC':>8s}")
    for key, b in base.items():
        label = describe(key)[:70]
        c = cur.get(key)
        if c is None:
            print(f"{label:70s}  MISSING from current report")
            failed = True
            continue
        b_sdc = b["outcomes"].get("SDC", 0)
        c_sdc = c["outcomes"].get("SDC", 0)
        ok = c["coverage"] >= b["coverage"] and c_sdc <= b_sdc
        print(
            f"{label:70s} {b['coverage']:9.4f} {c['coverage']:9.4f} "
            f"{b_sdc:9d} {c_sdc:8d}  {'ok' if ok else 'REGRESSION'}"
        )
        if not ok:
            failed = True

    if failed:
        print("\nFAIL: fault coverage dropped (or SDC rose) vs the committed baseline.")
        return 1
    print(f"\nOK: all {len(base)} campaigns at or above the committed coverage baseline.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
