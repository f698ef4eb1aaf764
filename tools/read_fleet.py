#!/usr/bin/env python3
"""Inspect and validate a ulpmc-fleet binary result store (.ulpf).

The store (DESIGN.md §13) is the one artifact that keeps per-device
results: a 40-byte header binding the records to their fleet (seed,
global size, cohorts, shard split) followed by one packed 56-byte
DeviceRecord per shard device in ascending gdi order. This tool is the
offline consumer: it re-validates the same structural invariants the
C++ reader enforces, recomputes the integer slice totals from the raw
records, and (with --check) cross-checks those totals against a fleet
JSON artifact produced by the same run — proving the streaming
aggregate and the record stream agree.

Exits non-zero with a one-line diagnosis on any malformed input: bad
magic, version or record-size skew, a truncated tail, shard arithmetic
that contradicts the record count, out-of-order or out-of-shard gdi,
or a JSON artifact whose totals disagree with the records.
"""

import argparse
import struct
import sys

from jsonio import load_json

HEADER = struct.Struct("<4s3I2Q2I")  # magic, version, record_size, cohorts,
#                                      seed, devices, shard_k, shard_n
RECORD = struct.Struct("<5Q3I4B")  # gdi, energy_nj, samples_total,
#                                    samples_delivered, sdc_blocks,
#                                    total_blocks, max_backoff_us, cohort,
#                                    arch, policy, browned_out, pad
MAGIC = b"ULPF"
VERSION = 1

POLICIES = ("ladder", "baseline")
ARCHES = ("mc-ref", "ulpmc-int", "ulpmc-bank")
TOTAL_KEYS = (
    "devices",
    "energy_nj",
    "samples_total",
    "samples_delivered",
    "sdc_blocks",
    "brownouts",
    "total_blocks",
)


def die(msg):
    sys.exit(f"read_fleet: {msg}")


def shard_device_count(devices, k, n):
    """Devices with gdi % n == k; mirrors fleet::shard_device_count."""
    return (devices - k - 1) // n + 1 if devices > k else 0


class Record:
    __slots__ = (
        "gdi", "energy_nj", "samples_total", "samples_delivered",
        "sdc_blocks", "total_blocks", "max_backoff_us", "cohort",
        "arch", "policy", "browned_out",
    )

    def __init__(self, fields):
        (self.gdi, self.energy_nj, self.samples_total, self.samples_delivered,
         self.sdc_blocks, self.total_blocks, self.max_backoff_us, self.cohort,
         self.arch, self.policy, self.browned_out, pad) = fields
        if pad != 0:
            die(f"record gdi {self.gdi} has a nonzero pad byte")


def load_store(path):
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        die(f"cannot read {path}: {e.strerror or e}")
    if len(blob) < HEADER.size:
        die(f"{path}: too short for a store header ({len(blob)} bytes)")
    magic, version, record_size, cohorts, seed, devices, shard_k, shard_n = (
        HEADER.unpack_from(blob)
    )
    if magic != MAGIC:
        die(f"{path}: bad magic {magic!r}; not a ULPF store")
    if version != VERSION:
        die(f"{path}: store version {version}, this tool reads version {VERSION}")
    if record_size != RECORD.size:
        die(f"{path}: record size {record_size}, expected {RECORD.size}")
    if shard_n < 1 or shard_k >= shard_n:
        die(f"{path}: impossible shard key {shard_k}/{shard_n}")
    if cohorts < 1:
        die(f"{path}: cohort count must be at least 1")
    body = len(blob) - HEADER.size
    if body % RECORD.size != 0:
        die(f"{path}: truncated record stream ({body} bytes is not a "
            f"multiple of {RECORD.size})")
    count = body // RECORD.size
    want = shard_device_count(devices, shard_k, shard_n)
    if count != want:
        die(f"{path}: holds {count} records but shard {shard_k}/{shard_n} of "
            f"{devices} devices must hold {want}")
    header = {
        "cohorts": cohorts, "seed": seed, "devices": devices,
        "shard_k": shard_k, "shard_n": shard_n,
    }
    records = []
    prev = None
    for i in range(count):
        r = Record(RECORD.unpack_from(blob, HEADER.size + i * RECORD.size))
        if prev is not None and r.gdi <= prev:
            die(f"{path}: record {i} gdi {r.gdi} not above predecessor {prev}")
        if r.gdi >= devices or r.gdi % shard_n != shard_k:
            die(f"{path}: record {i} gdi {r.gdi} outside shard "
                f"{shard_k}/{shard_n} of {devices}")
        if r.cohort != r.gdi % cohorts:
            die(f"{path}: record gdi {r.gdi} cohort {r.cohort} contradicts "
                f"gdi % {cohorts}")
        if r.arch >= len(ARCHES) or r.policy >= len(POLICIES):
            die(f"{path}: record gdi {r.gdi} has unknown arch/policy "
                f"({r.arch}/{r.policy})")
        if r.browned_out > 1:
            die(f"{path}: record gdi {r.gdi} brownout flag {r.browned_out}")
        if r.samples_delivered > r.samples_total:
            die(f"{path}: record gdi {r.gdi} delivered more samples than sensed")
        records.append(r)
        prev = r.gdi
    return header, records


def slice_totals(records):
    out = {key: 0 for key in TOTAL_KEYS}
    for r in records:
        out["devices"] += 1
        out["energy_nj"] += r.energy_nj
        out["samples_total"] += r.samples_total
        out["samples_delivered"] += r.samples_delivered
        out["sdc_blocks"] += r.sdc_blocks
        out["brownouts"] += r.browned_out
        out["total_blocks"] += r.total_blocks
    return out


def print_summary(path, header, records):
    shard = f"{header['shard_k']}/{header['shard_n']}"
    print(f"{path}: seed {header['seed']}, {header['devices']} devices, "
          f"{header['cohorts']} cohorts, shard {shard}, "
          f"{len(records)} records")
    groups = [("all", slice_totals(records))]
    for p, name in enumerate(POLICIES):
        groups.append((name, slice_totals([r for r in records if r.policy == p])))
    for a, name in enumerate(ARCHES):
        groups.append((name, slice_totals([r for r in records if r.arch == a])))
    print(f"{'slice':<12}{'devices':>8}{'energy[mJ]':>12}{'delivered':>11}"
          f"{'sdc':>6}{'brownouts':>11}")
    for name, t in groups:
        frac = (t["samples_delivered"] / t["samples_total"]
                if t["samples_total"] else 0.0)
        print(f"{name:<12}{t['devices']:>8}{t['energy_nj'] / 1e6:>12.3f}"
              f"{frac:>10.2%}{t['sdc_blocks']:>6}{t['brownouts']:>11}")


def print_records(records, limit):
    n = len(records) if limit < 0 else min(limit, len(records))
    print(f"{'gdi':>6} {'policy':<9}{'arch':<11}{'energy_nj':>12}"
          f"{'samples':>10}{'delivered':>10}{'sdc':>5}{'blocks':>7} brownout")
    for r in records[:n]:
        print(f"{r.gdi:>6} {POLICIES[r.policy]:<9}{ARCHES[r.arch]:<11}"
              f"{r.energy_nj:>12}{r.samples_total:>10}{r.samples_delivered:>10}"
              f"{r.sdc_blocks:>5}{r.total_blocks:>7} {r.browned_out}")
    if n < len(records):
        print(f"... {len(records) - n} more (use --records -1 for all)")


def load_artifact(path):
    doc = load_json(path)
    for key in ("fleet", "aggregate"):
        if key not in doc:
            die(f"{path} has no \"{key}\" section; not a fleet artifact")
    return doc


def check_slice(path, name, got, want):
    if not isinstance(want, dict):
        die(f"{path} aggregate slice \"{name}\" is missing or malformed")
    for key in TOTAL_KEYS:
        if want.get(key) != got[key]:
            die(f"{path} disagrees with the records on {name}.{key}: "
                f"artifact says {want.get(key)!r}, records sum to {got[key]}")


def cross_check(store_path, json_path, header, records):
    doc = load_artifact(json_path)
    fleet = doc["fleet"]
    for key in ("seed", "devices", "cohorts"):
        if fleet.get(key) != header[key]:
            die(f"{json_path} fleet.{key} is {fleet.get(key)!r}, store header "
                f"says {header[key]}")
    shard = f"{header['shard_k']}/{header['shard_n']}"
    json_shard = str(fleet.get("shard", "0/1"))  # unsharded artifacts omit the key
    if json_shard != shard:
        die(f"{json_path} covers shard {json_shard}, store is shard {shard}")
    if fleet.get("records") != len(records):
        die(f"{json_path} claims {fleet.get('records')!r} records, store "
            f"holds {len(records)}")
    agg = doc["aggregate"]
    check_slice(json_path, "total", slice_totals(records),
                {k: agg.get(k) for k in TOTAL_KEYS})
    for p, name in enumerate(POLICIES):
        check_slice(json_path, f"by_policy.{name}",
                    slice_totals([r for r in records if r.policy == p]),
                    agg.get("by_policy", {}).get(name))
    for a, name in enumerate(ARCHES):
        check_slice(json_path, f"by_arch.{name}",
                    slice_totals([r for r in records if r.arch == a]),
                    agg.get("by_arch", {}).get(name))
    print(f"{store_path}: records agree with {json_path} "
          f"(total, per-policy and per-arch integer sums)")


def main():
    ap = argparse.ArgumentParser(
        description="Inspect and validate a ulpmc-fleet binary store (.ulpf)."
    )
    ap.add_argument("store", help="binary store written by ulpmc-fleet --store")
    ap.add_argument("--records", type=int, default=0, metavar="N",
                    help="also print the first N records (-1 for all)")
    ap.add_argument("--check", metavar="JSON",
                    help="cross-check totals against a fleet JSON artifact")
    args = ap.parse_args()

    header, records = load_store(args.store)
    print_summary(args.store, header, records)
    if args.records:
        print_records(records, args.records)
    if args.check:
        cross_check(args.store, args.check, header, records)


if __name__ == "__main__":
    main()
