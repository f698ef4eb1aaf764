#!/usr/bin/env python3
"""Checks of the benchmark itself (see perfbench/README.md). Run from the
root of a checkout; every check drives perfbench/run.py.

    python3 perfbench/check.py spread  [--workloads W,...] [--seeds 1-10] [--seconds S]
        Runs each workload once per seed and prints, per end-to-end metric,
        the median and the quartile spread (Q3-Q1)/median next to the
        metric's bound in BENCHMARK.json. Fails if a spread other than
        setup_s exceeds a third of its bound.
    python3 perfbench/check.py gate    [--workloads W,...] [--seed N]
        Proves each workload's correctness gate can fail: every pinned
        value of the seed is perturbed in turn inside the driver
        (--selfcheck), and one pinned value is perturbed in a copy of the
        pin file, which must turn the run's result into failures.
    python3 perfbench/check.py counters [--workloads W,...] [--seed N]
        Runs the traced run twice; every exact per-layer counter must
        repeat bit-for-bit.
    python3 perfbench/check.py pin --seed N [--workloads W,...]
        Rewrites perfbench/expected/seed-N.txt from a fresh run (the
        fault-campaign pins come from the trace-engine oracle).
"""
import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench-check")

# Per-layer "count" metrics that legitimately vary between runs.
INFORMATIONAL = {"fleet.steals", "fleet.device_samples"}


def run(workload, seed, seconds, trace, extra=()):
    cmd = RUN + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)] + list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("%s seed %d: run failed (exit %d)" % (workload, seed, proc.returncode))
    return json.loads(lines[-1]), proc.stdout


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cmd_spread(args):
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    ok = True
    for w in args.workloads:
        values = {}
        for seed in parse_seeds(args.seeds):
            res, _ = run(w, seed, args.seconds, 0)
            if not res["correct"]:
                print("%s seed %d: incorrect (%d/%d failed)" % (w, seed, res["failed"],
                                                               res["attempted"]))
                ok = False
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            limit = bounds[name] / 3
            flag = "" if spread <= limit or name == "setup_s" else "  <-- above bound/3"
            ok = ok and (name == "setup_s" or spread <= limit)
            print("%-15s %-19s median %-12.6g spread %.4f  bound %.2f%s" %
                  (w, name, med, spread, bounds[name], flag))
            print("    values: " + " ".join("%.6g" % v for v in vs))
    return 0 if ok else 1


def cmd_gate(args):
    pins_path = os.path.join(HERE, "expected", "seed-%d.txt" % args.seed)
    if not os.path.exists(pins_path):
        sys.exit("no pins for seed %d" % args.seed)
    lines = open(pins_path).read().splitlines()
    os.makedirs(SCRATCH, exist_ok=True)
    ok = True
    for w in args.workloads:
        res, out = run(w, args.seed, 1, 0, ["--selfcheck"])
        live = "selfcheck: 0 undetected" in out
        print("%-15s unperturbed: correct=%s failed=%d/%d; in-driver perturbations %s" %
              (w, res["correct"], res["failed"], res["attempted"],
               "all detected" if live else "NOT all detected"))
        ok = ok and res["correct"] and live
        mine = [i for i, l in enumerate(lines) if l.startswith(w + "/")]
        i = random.Random(args.seed).choice(mine)
        key, value = lines[i].split()
        bad = list(lines)
        bad[i] = "%s %s~" % (key, value)
        bad_path = os.path.join(SCRATCH, "perturbed.txt")
        with open(bad_path, "w") as f:
            f.write("\n".join(bad) + "\n")
        res, _ = run(w, args.seed, 1, 0, ["--expected", bad_path])
        caught = not res["correct"] and res["failed"] > 0
        print("%-15s perturbed %s: correct=%s failed=%d -> %s" %
              (w, key, res["correct"], res["failed"], "caught" if caught else "MISSED"))
        ok = ok and caught
    shutil.rmtree(SCRATCH, ignore_errors=True)
    return 0 if ok else 1


def cmd_counters(args):
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    ok = True
    for w in args.workloads:
        a, _ = run(w, args.seed, 2, 1)
        b, _ = run(w, args.seed, 2, 1)
        exact = [n for n, u in units.items() if u == "count" and n not in INFORMATIONAL]
        diff = [n for n in exact if a["metrics"][n]["value"] != b["metrics"][n]["value"]]
        print("%-15s %d exact counters, %d differ %s" % (w, len(exact), len(diff), diff or ""))
        ok = ok and not diff and a["correct"] and b["correct"]
    return 0 if ok else 1


def cmd_pin(args):
    path = os.path.join(HERE, "expected", "seed-%d.txt" % args.seed)
    for w in args.workloads:
        res, _ = run(w, args.seed, 1, 0, ["--pin-out", path])
        print("%-15s pinned %d operations (correct=%s)" % (w, res["attempted"], res["correct"]))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("check", choices=("spread", "gate", "counters", "pin"))
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = ap.parse_args()
    args.workloads = args.workloads.split(",")
    return {"spread": cmd_spread, "gate": cmd_gate, "counters": cmd_counters,
            "pin": cmd_pin}[args.check](args)


if __name__ == "__main__":
    sys.exit(main())
