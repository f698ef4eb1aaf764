// Fleet JSON artifact and human summary (DESIGN.md §13).
//
// The JSON is a DETERMINISTIC artifact: it contains only quantities that
// are pure functions of (timeline, FleetOptions) — integer totals,
// integer-derived floats and sketch payloads — never wall time, thread
// counts, scheduler stats or the simulator tier. The fleet smoke test
// diffs the bytes across thread counts, engine tiers and `--merge`d
// shard sets. Host-dependent numbers (wall time, device-hours/sec,
// workers) go to the human summary on stdout only.
#pragma once

#include <iosfwd>
#include <string>

#include "fleet/fleet.hpp"

namespace ulpmc::fleet {

/// Writes the deterministic fleet artifact. `records` is the device count
/// the artifact covers (this shard's; the fleet total once merged); the
/// "shard" key appears only when opt.shard_n > 1, so a merged artifact is
/// byte-identical to an unsharded run's.
void write_json(std::ostream& os, const std::string& timeline_name, const FleetOptions& opt,
                double block_period_s, const FleetAggregate& agg, std::uint64_t records);

/// Human summary (stdout): aggregate highlights plus the host-dependent
/// throughput and scheduler numbers the JSON deliberately omits.
void print_summary(std::ostream& os, const FleetOptions& opt, const FleetResult& res);

} // namespace ulpmc::fleet
