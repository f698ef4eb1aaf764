#!/usr/bin/env python3
"""Gate device-lifetime regressions against the committed baseline.

Usage: check_lifetime.py BASELINE.json CURRENT.json

Both files are lifetime artifacts from `ulpmc-life --json`; the
committed baseline is `ulpmc-life --timeline bench/timelines/bench-day
--seed 42`. Runs are matched by identity — timeline, policy,
seed and architecture — and the comparison is exact: lifetimes are seeded
and deterministic (byte-identical across engine tiers and thread counts),
so any drift is a behavioral change, not noise. The gate fails when a
matched run's delivered-sample fraction drops or its SDC count rises,
when a baseline run disappears, and when the ladder-beats-baseline
invariants stop holding in the CURRENT artifact: for every timeline/seed
pair present with both policies, the ladder must deliver at least the
baseline's sample fraction, ship zero SDC blocks, and brown out no
earlier than the baseline.
"""

import argparse
import sys

from jsonio import load_json

ID_KEYS = ("timeline", "policy", "seed", "arch")

REQUIRED = ("delivered_fraction", "sdc_blocks", "first_brownout_s")


def load(path):
    doc = load_json(path)
    if not isinstance(doc.get("runs"), list):
        sys.exit(f"{path}: not a lifetime artifact (no 'runs' list)")
    timeline = doc.get("timeline")
    index = {}
    for i, r in enumerate(doc["runs"]):
        if not isinstance(r, dict) or any(
            not isinstance(r.get(k), (int, float)) for k in REQUIRED
        ):
            sys.exit(f"{path}: run #{i} lacks {'/'.join(REQUIRED)}")
        key = (timeline,) + tuple(r.get(k) for k in ID_KEYS[1:])
        if key in index:
            sys.exit(f"{path}: duplicate run identity {key}")
        index[key] = r
    return index


def describe(key):
    return ", ".join(f"{k}={v}" for k, v in zip(ID_KEYS, key) if v is not None)


def lifetime_ge(a, b):
    """first_brownout_s comparison where -1 means 'never browned out'."""
    if a < 0:
        return True
    return b >= 0 and a >= b


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    args = ap.parse_args()

    base = load(args.baseline)
    cur = load(args.current)

    failed = False
    print(f"{'run':58s} {'base dlv':>9s} {'cur dlv':>9s} {'base SDC':>9s} {'cur SDC':>8s}")
    for key, b in base.items():
        label = describe(key)[:58]
        c = cur.get(key)
        if c is None:
            print(f"{label:58s}  MISSING from current report")
            failed = True
            continue
        ok = (
            c["delivered_fraction"] >= b["delivered_fraction"]
            and c["sdc_blocks"] <= b["sdc_blocks"]
            and lifetime_ge(c["first_brownout_s"], b["first_brownout_s"])
        )
        print(
            f"{label:58s} {b['delivered_fraction']:9.4f} {c['delivered_fraction']:9.4f} "
            f"{b['sdc_blocks']:9d} {c['sdc_blocks']:8d}  {'ok' if ok else 'REGRESSION'}"
        )
        if not ok:
            failed = True

    # Ladder-beats-baseline invariants on the current artifact: the whole
    # point of the degradation ladder, checked wherever both policies ran.
    pairs = 0
    for key, ladder in cur.items():
        if key[1] != "ladder":
            continue
        other = cur.get((key[0], "baseline") + key[2:])
        if other is None:
            continue
        pairs += 1
        label = describe((key[0], "ladder-vs-baseline") + key[2:])[:70]
        problems = []
        if ladder["sdc_blocks"] != 0:
            problems.append(f"ladder shipped {ladder['sdc_blocks']} SDC blocks")
        if ladder["delivered_fraction"] < other["delivered_fraction"]:
            problems.append(
                f"ladder delivered {ladder['delivered_fraction']:.4f} < "
                f"baseline {other['delivered_fraction']:.4f}"
            )
        if not lifetime_ge(ladder["first_brownout_s"], other["first_brownout_s"]):
            problems.append(
                f"ladder browned out at {ladder['first_brownout_s']} s, before "
                f"baseline ({other['first_brownout_s']} s)"
            )
        if problems:
            print(f"{label}: " + "; ".join(problems))
            failed = True

    if failed:
        print("\nFAIL: lifetime metrics regressed vs the committed baseline.")
        return 1
    print(
        f"\nOK: all {len(base)} runs at or above the committed baseline"
        f" ({pairs} ladder-vs-baseline pairs verified)."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
