// Fault-tolerant fleet farm (DESIGN.md §13 "Farming").
//
// Shard stores merge byte-exactly (merge_stores below) and every shard run
// is crash-resumable from its CRC-framed journal, so scattering shards over
// worker PROCESSES is plumbing — but plumbing that loses a worker loses
// the run unless the supervisor is dependable. fleet::Farm is that
// supervisor: it fork/execs one `ulpmc-fleet --shard k/N --resume
// shard_k.jnl` worker per shard, watches each worker's journal for
// progress (device records and periodic heartbeat frames both grow the
// file; a worker whose journal stops growing is hung, whatever its
// process state says), and recovers failures:
//
//   * liveness timeout -> SIGTERM (the worker's graceful-preemption
//     handler finishes in-flight frames and exits with the polite code
//     3) -> SIGKILL after a grace period if the worker stays silent;
//   * any non-zero death -> restart the shard with `--resume` after a
//     truncated-exponential backoff with ±25% seeded jitter (the BleLink
//     retry discipline from scenario/link.cpp) — the journal guarantees
//     no completed device is ever re-simulated;
//   * a bounded per-shard retry budget turns permanent failures into a
//     clean partial-failure report naming the dead shard (a worker that
//     exits 2 — bad usage / journal-meta mismatch — is declared dead
//     immediately: no restart can fix a disagreeing spec).
//
// When every shard completes, the farm merges the shard stores
// IN-PROCESS into the same JSON artifact and ULPF store an unsharded
// `ulpmc-fleet` run would have written, byte for byte — the same
// merge_stores `ulpmc-fleet --merge` runs.
//
// A seeded chaos mode SIGKILLs (or SIGSTOPs, to exercise the timeout
// escalation) the farm's own workers at deterministic progress points;
// the farm_smoke ctest and FarmTest prove merged output stays
// byte-identical to the unsharded reference despite every kill.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "fleet/fleet.hpp"
#include "scenario/timeline.hpp"

namespace ulpmc::fleet {

class FarmError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

struct FarmOptions {
    /// Global fleet spec (shard_k/shard_n are ignored: the farm owns the
    /// split — shard k of `workers` goes to worker k).
    FleetOptions fleet;
    std::string timeline_path;
    std::string fleet_bin;     ///< worker binary (ulpmc-fleet)
    std::string dir = "farm";  ///< scratch dir: shard_K.{jnl,ulpf,log}
    std::string json_path;     ///< merged JSON artifact ("" = skip)
    std::string store_path;    ///< merged ULPF store ("" = skip)
    unsigned workers = 4;      ///< shard count N (one process per shard)
    unsigned worker_threads = 0; ///< --threads passed to each worker
    double heartbeat_s = 0.5;  ///< worker heartbeat period (--heartbeat)
    double timeout_s = 10.0;   ///< no-journal-growth window before SIGTERM
    double term_grace_s = 2.0; ///< SIGTERM -> SIGKILL escalation grace
    double backoff_base_s = 0.25; ///< restart backoff (BleLink discipline)
    double backoff_max_s = 8.0;
    unsigned retries = 8;      ///< restarts allowed per shard before it is dead
    unsigned chaos_kills = 0;  ///< seeded chaos: direct SIGKILLs to deliver
    unsigned chaos_stalls = 0; ///< seeded chaos: SIGSTOPs (hang -> timeout path)
    std::uint64_t chaos_seed = 1;
};

/// One scheduled chaos disruption of shard `shard`'s worker. The worker
/// delivers it to itself at the record: right after it fsyncs the record
/// frame that brings its journal to `at_records` device records (replayed
/// frames included, as scan_journal counts them), and before it releases
/// the journal.
struct ChaosEvent {
    unsigned shard = 0;
    std::uint64_t at_records = 0;
    bool stall = false; ///< SIGSTOP (exercises timeout escalation) vs SIGKILL
};

/// Seeded chaos schedule — a pure function of (workers, devices,
/// chaos_kills, chaos_stalls, chaos_seed), so a campaign is reproducible.
/// Per-shard trigger points are strictly increasing, each within
/// [1, ~60% of the shard's device count] so the kill lands before the
/// worker can finish.
std::vector<ChaosEvent> chaos_schedule(const FarmOptions& opt);

/// One shard's events as the worker's `--chaos-at` value:
/// comma-separated `kill@N` / `stop@N`, triggers strictly increasing.
std::string chaos_at_arg(const std::vector<ChaosEvent>& events);

/// Parses a `--chaos-at` value into `events` (shard fields 0). False on
/// anything malformed: an empty entry, another action, a trigger that is
/// zero, not a number, or not above the one before.
bool parse_chaos_at(const std::string& arg, std::vector<ChaosEvent>& events);

/// Restart backoff for the `restart`-th restart (1-based): truncated
/// binary exponential with ±25% seeded jitter, capped at `max_s` AFTER
/// jitter — exactly the BleLink::enter_backoff discipline.
double farm_backoff_s(double base_s, double max_s, unsigned restart, Rng& rng);

/// Incremental shard-journal scan state. The farm never re-reads a
/// journal from the start while a worker runs: it keeps the byte offset
/// of the last complete frame and parses only the new tail each poll.
struct JournalProgress {
    std::uint64_t offset = 0;  ///< bytes covered by complete, CRC-valid frames
    std::uint64_t bytes = 0;   ///< file size at the last scan (liveness signal)
    std::uint64_t record_frames = 0; ///< RECD frames (appended only for fresh sims)
    std::uint64_t heartbeats = 0;    ///< HRTB frames
    std::uint64_t heartbeat_devices = 0; ///< completed count piggybacked on last HRTB
    std::uint64_t duplicate_records = 0; ///< a gdi journaled twice = a re-simulated device
    std::unordered_set<std::uint64_t> gdis; ///< distinct journaled devices
};

/// Counts the frames read_journal(path, p.offset) returns. A
/// torn or mid-append tail is left alone (the offset only advances past
/// CRC-valid frames); a missing file is simply "no progress yet".
void scan_journal(const std::string& path, JournalProgress& p);

struct ShardOutcome {
    std::uint64_t devices = 0;  ///< shard device count
    unsigned attempts = 0;      ///< worker processes launched
    unsigned chaos_kills = 0;   ///< chaos SIGKILLs delivered
    unsigned chaos_stalls = 0;  ///< chaos SIGSTOPs delivered
    unsigned timeout_terms = 0; ///< SIGTERMs sent on liveness timeout
    unsigned timeout_kills = 0; ///< SIGKILL escalations after the grace
    unsigned preempted_exits = 0; ///< polite exit-3 deaths (graceful preemption)
    std::uint64_t journaled = 0;       ///< distinct devices in the final journal
    std::uint64_t record_frames = 0;   ///< total RECD frames (== journaled proves no re-sim)
    std::uint64_t duplicate_records = 0;
    bool done = false;
    bool dead = false; ///< retry budget exhausted or permanent (exit 2) failure
    int last_status = 0; ///< last exit code, or -signo for signal deaths
};

struct FarmReport {
    std::vector<ShardOutcome> shards;
    unsigned restarts = 0; ///< worker launches beyond each shard's first
    unsigned chaos_kills = 0;
    unsigned chaos_stalls = 0;
    unsigned chaos_undelivered = 0; ///< scheduled events no worker delivered
    unsigned timeout_terms = 0;
    unsigned timeout_kills = 0;
    unsigned preempted_exits = 0;
    std::uint64_t devices_simulated = 0; ///< total RECD frames across shards
    std::uint64_t devices_journaled = 0; ///< distinct journaled devices
    std::uint64_t duplicate_records = 0; ///< must be 0: no journaled device re-simulated
    std::vector<unsigned> dead_shards;
    double wall_s = 0;
    bool complete = false;  ///< all shards done and the merge succeeded
    std::string merged_json; ///< merged artifact text (only when complete)
};

/// A complete shard-store set merged back into the unsharded shape.
struct MergedFleet {
    std::vector<DeviceRecord> records; ///< ascending gdi, all shards
    FleetAggregate aggregate;
    std::string json; ///< byte-identical to the unsharded ulpmc-fleet artifact
};

/// The one shard merge: rebuilds the unsharded artifact from a complete
/// shard-store set, given in any order (each store is placed by its
/// header's shard key). Throws a one-line FarmError for an unreadable or
/// corrupt store, a header that disagrees with the spec (seed, devices,
/// cohorts), a duplicate, missing or mixed-N shard set, and any record
/// whose cohort/arch/policy is not device_spec(fleet, gdi) or whose
/// block count is not the one `tl` and fleet.days imply. `fleet`'s shard
/// fields are ignored.
MergedFleet merge_stores(const FleetOptions& fleet, const scenario::Timeline& tl,
                         const std::string& timeline_name,
                         const std::vector<std::string>& store_paths);

/// The supervisor. Construction validates options and loads the timeline
/// (throws FarmError on unusable options, an unreadable timeline, or a
/// non-executable worker binary); run() supervises to completion.
class Farm {
public:
    explicit Farm(const FarmOptions& opt, std::ostream* log = nullptr);

    const scenario::Timeline& timeline() const { return tl_; }

    /// Runs all shards to completion (or death), merges, and writes the
    /// merged artifacts when json_path/store_path are set. Never throws
    /// for worker failures — those are the report's job; throws FarmError
    /// only for supervisor-level impossibilities (spawn failure, scratch
    /// dir not creatable, a final shard set that does not merge).
    FarmReport run();

private:
    FarmOptions opt_;
    scenario::Timeline tl_;
    std::string timeline_name_;
    std::ostream* log_;
};

/// Human summary of a supervision run (stdout of ulpmc-farm).
void print_farm_summary(std::ostream& os, const FarmOptions& opt, const FarmReport& rep);

/// Machine-readable supervision report (--report artifact; counters and
/// outcomes only, never byte-gated — the merged JSON is the gated one).
void write_farm_report(std::ostream& os, const FarmOptions& opt, const FarmReport& rep);

} // namespace ulpmc::fleet
