// ulpmc-fleet: fleet simulation driver (DESIGN.md §13).
//
// Runs a fleet of heterogeneous device lifetimes — per-device
// architecture, resilience policy, workload cohort, initial charge and
// seed all derived from the global device index — over one
// sweep::SweepRunner, with shared cohort benchmarks and a shared
// calibration cache.
// The JSON artifact is deterministic: byte-identical across thread
// counts, simulator engine tiers, and shard splits (--merge over the K
// shard stores reproduces the unsharded JSON and store bytes).
//
// Usage:
//   ulpmc-fleet --timeline FILE [options]
//   ulpmc-fleet --timeline FILE --merge S0.ulpf,S1.ulpf,... [spec options]
//     --timeline FILE   phase script (required)
//     --devices N       GLOBAL fleet size across all shards (default 1000)
//     --seed N          fleet master seed (default 1)
//     --cohorts N       workload cohorts / patients (default 8)
//     --days D          per-device lifetime in days (default: one pass)
//     --baseline F      fraction of devices on the baseline policy (default 0.25)
//     --engine E        reference|fast|trace|batched (default trace)
//     --threads N       worker threads, 0 = hardware (default 0)
//     --shard K/N       run shard K of N (devices with gdi % N == K)
//     --merge LIST      simulate nothing: merge a complete set of shard stores
//                       (comma-separated, any order) into the unsharded
//                       --json/--store. Every store is checked against the
//                       spec options; not with --shard/--journal/--resume
//     --json FILE       write the deterministic artifact to FILE ('-' = stdout)
//     --store FILE      write the per-device binary record store to FILE
//     --journal FILE    append one durable frame per finished device to FILE
//     --resume FILE     continue the run journaled in FILE: journaled devices
//                       are adopted, not re-simulated
//     --heartbeat S     append a liveness heartbeat frame to the journal every
//                       S seconds (requires --journal/--resume) so a farm
//                       supervisor can tell "slow device" from "hung worker"
//
// --journal, --resume and graceful SIGTERM/SIGINT preemption (in-flight
// devices' frames land, then exit 3 with no artifacts) follow the
// durable-run protocol of DESIGN.md §9.6.
//
// Exit codes: 0 success, 2 bad usage (malformed, duplicate or
// inconsistent options, unreadable or corrupt timeline/journal, a shard
// set that does not merge),
// 3 preempted by SIGTERM/SIGINT (journal flushed, artifacts unwritten).
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <iostream>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/journal.hpp"
#include "common/numparse.hpp"
#include "common/serial.hpp"
#include "fleet/farm.hpp"
#include "fleet/fleet.hpp"
#include "fleet/report.hpp"
#include "fleet/store.hpp"
#include "scenario/engine.hpp"
#include "scenario/timeline.hpp"

namespace {

using ulpmc::fleet::kFleetHeartbeatFrame;
using ulpmc::fleet::kFleetRecordFrame;
using ulpmc::parse_count;
using ulpmc::parse_double;
using ulpmc::parse_u64;

void usage(std::ostream& os) {
    os << "usage: ulpmc-fleet --timeline FILE [--devices N] [--seed N] [--cohorts N]\n"
          "                   [--days D] [--baseline F] [--engine E] [--threads N]\n"
          "                   [--shard K/N] [--json FILE] [--store FILE]\n"
          "                   [--journal FILE | --resume FILE] [--heartbeat S]\n"
          "       ulpmc-fleet --timeline FILE --merge S0.ulpf,S1.ulpf,... [spec options]\n"
          "                   [--json FILE] [--store FILE]\n";
}

/// Everything a journaled record depends on. `threads` is deliberately
/// absent: results are thread-count-independent, so a resume may use a
/// different worker count than the run it continues.
std::vector<std::uint8_t> meta_payload(const ulpmc::fleet::FleetOptions& opt,
                                       std::uint32_t timeline_crc) {
    std::vector<std::uint8_t> m;
    ulpmc::put_raw(m, opt.seed);
    ulpmc::put_raw(m, opt.devices);
    ulpmc::put_raw(m, static_cast<std::uint32_t>(opt.cohorts));
    ulpmc::put_raw(m, static_cast<std::uint32_t>(opt.shard_k));
    ulpmc::put_raw(m, static_cast<std::uint32_t>(opt.shard_n));
    ulpmc::put_f64(m, opt.days);
    ulpmc::put_f64(m, opt.baseline_fraction);
    ulpmc::put_raw(m, static_cast<std::uint8_t>(opt.engine));
    ulpmc::put_raw(m, timeline_crc);
    return m;
}

bool parse_shard(const std::string& s, unsigned& k, unsigned& n) {
    const auto slash = s.find('/');
    if (slash == std::string::npos) return false;
    std::uint64_t uk = 0, un = 0;
    if (!parse_u64(s.substr(0, slash), uk) || !parse_u64(s.substr(slash + 1), un)) return false;
    if (un < 1 || uk >= un) return false;
    k = static_cast<unsigned>(uk);
    n = static_cast<unsigned>(un);
    return true;
}

std::vector<std::string> split_list(const std::string& s) {
    std::vector<std::string> out;
    std::string::size_type start = 0;
    for (;;) {
        const auto comma = s.find(',', start);
        out.push_back(s.substr(start, comma - start));
        if (comma == std::string::npos) return out;
        start = comma + 1;
    }
}

/// Publishes the store, then the JSON. Each is rendered in memory and
/// published via fsync+rename: a killed run never leaves a truncated
/// artifact for a gate to misread. Returns the exit code.
int write_artifacts(const std::string& json_path, const std::string& store_path,
                    const std::string& timeline_name, const ulpmc::scenario::Timeline& tl,
                    const ulpmc::fleet::FleetOptions& opt,
                    const std::vector<ulpmc::fleet::DeviceRecord>& records,
                    const ulpmc::fleet::FleetAggregate& agg) {
    if (!store_path.empty()) {
        try {
            ulpmc::fleet::write_store(store_path, ulpmc::fleet::store_header(opt), records);
        } catch (const ulpmc::fleet::FleetStoreError& e) {
            std::cerr << e.what() << "\n";
            return 1;
        }
    }
    if (json_path.empty()) return 0;
    std::ostringstream out;
    ulpmc::fleet::write_json(out, timeline_name, opt, tl.block_period_s, agg, records.size());
    if (json_path == "-") {
        std::cout << out.str();
        return 0;
    }
    try {
        ulpmc::write_file_atomic(json_path, out.str());
    } catch (const ulpmc::AtomicFileError& e) {
        std::cerr << e.what() << "\n";
        return 2;
    }
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    std::string timeline_path, json_path, store_path, journal_path;
    std::vector<std::string> merge_paths;
    bool resume = false;
    double heartbeat_s = 0;
    ulpmc::fleet::FleetOptions opt;

    std::set<std::string> seen;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (!arg.empty() && arg[0] == '-' && !seen.insert(arg).second) {
            std::cerr << arg << ": duplicate option\n";
            return 2;
        }
        auto value = [&](const char* name) -> std::string {
            if (i + 1 >= argc) {
                std::cerr << name << " requires a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--timeline") {
            timeline_path = value("--timeline");
        } else if (arg == "--devices") {
            if (!parse_u64(value("--devices"), opt.devices) || opt.devices < 1) {
                std::cerr << "--devices: expected a positive count\n";
                return 2;
            }
        } else if (arg == "--seed") {
            if (!parse_u64(value("--seed"), opt.seed)) {
                std::cerr << "--seed: not a number\n";
                return 2;
            }
        } else if (arg == "--cohorts") {
            if (!parse_count(value("--cohorts"), 1, 4096, opt.cohorts)) {
                std::cerr << "--cohorts: expected a count in [1, 4096]\n";
                return 2;
            }
        } else if (arg == "--days") {
            if (!parse_double(value("--days"), opt.days) || opt.days <= 0) {
                std::cerr << "--days: expected a positive number\n";
                return 2;
            }
        } else if (arg == "--baseline") {
            if (!parse_double(value("--baseline"), opt.baseline_fraction) ||
                opt.baseline_fraction < 0 || opt.baseline_fraction > 1) {
                std::cerr << "--baseline: expected a fraction in [0, 1]\n";
                return 2;
            }
        } else if (arg == "--engine") {
            if (!ulpmc::cluster::parse_engine(value("--engine"), opt.engine)) {
                std::cerr << "--engine: unknown engine (reference|fast|trace|batched)\n";
                return 2;
            }
        } else if (arg == "--threads") {
            if (!parse_count(value("--threads"), 0, 1024, opt.threads)) {
                std::cerr << "--threads: expected a count in [0, 1024]\n";
                return 2;
            }
        } else if (arg == "--shard") {
            if (!parse_shard(value("--shard"), opt.shard_k, opt.shard_n)) {
                std::cerr << "--shard: expected K/N with 0 <= K < N\n";
                return 2;
            }
        } else if (arg == "--merge") {
            merge_paths = split_list(value("--merge"));
            for (const std::string& p : merge_paths) {
                if (p.empty()) {
                    std::cerr << "--merge: expected a comma-separated list of shard stores\n";
                    return 2;
                }
            }
        } else if (arg == "--json") {
            json_path = value("--json");
        } else if (arg == "--store") {
            store_path = value("--store");
        } else if (arg == "--journal") {
            journal_path = value("--journal");
        } else if (arg == "--resume") {
            journal_path = value("--resume");
            resume = true;
        } else if (arg == "--heartbeat") {
            if (!parse_double(value("--heartbeat"), heartbeat_s) || heartbeat_s <= 0) {
                std::cerr << "--heartbeat: expected a positive period in seconds\n";
                return 2;
            }
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else {
            std::cerr << arg << ": unknown option\n";
            usage(std::cerr);
            return 2;
        }
    }
    if (timeline_path.empty()) {
        std::cerr << "--timeline is required\n";
        usage(std::cerr);
        return 2;
    }
    if (seen.count("--journal") && seen.count("--resume")) {
        std::cerr << "--journal and --resume are mutually exclusive "
                     "(--resume already journals to its file)\n";
        return 2;
    }
    if (heartbeat_s > 0 && journal_path.empty()) {
        std::cerr << "--heartbeat requires --journal or --resume "
                     "(heartbeats are journal frames)\n";
        return 2;
    }
    if (!merge_paths.empty() && (seen.count("--shard") || !journal_path.empty())) {
        std::cerr << "--merge simulates nothing: it takes no --shard, --journal or --resume\n";
        return 2;
    }

    ulpmc::scenario::Timeline tl;
    std::uint32_t tl_crc = 0; // the journal must not resume against an edited script
    try {
        tl = ulpmc::scenario::load_lifetime_timeline(timeline_path, opt.days, &tl_crc);
    } catch (const ulpmc::scenario::TimelineError& e) {
        std::cerr << e.what() << "\n";
        return 2;
    }
    std::string tl_name = timeline_path;
    if (const auto slash = tl_name.find_last_of('/'); slash != std::string::npos)
        tl_name = tl_name.substr(slash + 1);

    if (!merge_paths.empty()) {
        ulpmc::fleet::MergedFleet merged;
        try {
            merged = ulpmc::fleet::merge_stores(opt, tl, tl_name, merge_paths);
        } catch (const ulpmc::fleet::FarmError& e) {
            std::cerr << e.what() << "\n";
            return 2;
        }
        std::cout << "merged " << merged.records.size() << " devices from "
                  << merge_paths.size() << " shard stores\n";
        return write_artifacts(json_path, store_path, tl_name, tl, opt, merged.records,
                               merged.aggregate);
    }

    // ---- durable progress journal (DESIGN.md §9.6) ---------------------
    std::unique_ptr<ulpmc::JournalWriter> journal;
    std::unordered_map<std::uint64_t, ulpmc::fleet::DeviceRecord> replay;
    if (!journal_path.empty()) {
        auto replay_frame = [&](std::size_t f, const ulpmc::JournalFrame& fr) {
            // A heartbeat carries no replay state but is not unknown.
            if (fr.kind != kFleetRecordFrame) return fr.kind == kFleetHeartbeatFrame;
            ulpmc::fleet::DeviceRecord r;
            if (fr.payload.size() != sizeof(r))
                throw ulpmc::JournalError(
                    journal_path + ": frame " + std::to_string(f) + ": record payload is " +
                    std::to_string(fr.payload.size()) + " bytes, expected " +
                    std::to_string(sizeof(r)) + "; refusing to resume");
            std::memcpy(&r, fr.payload.data(), sizeof(r));
            if (r.gdi >= opt.devices || r.gdi % opt.shard_n != opt.shard_k)
                throw ulpmc::JournalError(journal_path + ": journaled device " +
                                          std::to_string(r.gdi) +
                                          " is outside this shard; refusing to resume");
            replay[r.gdi] = r;
            return true;
        };
        try {
            ulpmc::RunJournal rj = ulpmc::open_run_journal(
                journal_path, resume, meta_payload(opt, tl_crc), replay_frame, std::cerr);
            if (rj.resumed)
                std::cerr << "note: resuming with " << replay.size()
                          << " journaled device(s)\n";
            journal = std::move(rj.writer);
        } catch (const ulpmc::JournalError& e) {
            std::cerr << e.what() << "\n";
            return 2;
        }
    }

    // ---- graceful preemption + heartbeat -------------------------------
    // The journal mutex serializes device-record appends (completion
    // hook, any worker thread) against heartbeat appends (its own thread):
    // JournalWriter is not concurrency-safe and interleaved fwrites would
    // tear frames.
    ulpmc::install_preempt_handlers();
    std::mutex journal_m;
    std::atomic<std::uint64_t> completed{replay.size()};
    std::atomic<bool> hb_stop{false};
    std::condition_variable hb_cv;
    std::mutex hb_m;
    std::thread hb;
    if (journal && heartbeat_s > 0) {
        hb = std::thread([&] {
            std::uint64_t seq = 0;
            std::unique_lock<std::mutex> lk(hb_m);
            while (!hb_stop.load()) {
                hb_cv.wait_for(lk, std::chrono::duration<double>(heartbeat_s));
                if (hb_stop.load()) break;
                std::vector<std::uint8_t> p;
                p.reserve(16); // [u64 seq][u64 completed]
                ulpmc::put_raw(p, seq++);
                ulpmc::put_raw(p, completed.load());
                std::lock_guard<std::mutex> jl(journal_m);
                try {
                    journal->append(kFleetHeartbeatFrame, p);
                } catch (const ulpmc::JournalError&) {
                    break; // record appends will surface the same failure
                }
            }
        });
    }
    auto stop_heartbeat = [&] {
        hb_stop.store(true);
        hb_cv.notify_all();
        if (hb.joinable()) hb.join();
    };

    ulpmc::fleet::FleetEngine engine(tl, opt);
    ulpmc::fleet::FleetResume hooks;
    hooks.lookup = [&](std::uint64_t gdi, ulpmc::fleet::DeviceRecord& out) {
        if (ulpmc::preempt_requested()) throw ulpmc::Preempted{};
        const auto it = replay.find(gdi);
        if (it == replay.end()) return false;
        out = it->second;
        return true;
    };
    if (journal) {
        hooks.on_complete = [&](const ulpmc::fleet::DeviceRecord& r) {
            std::vector<std::uint8_t> p(sizeof(r));
            std::memcpy(p.data(), &r, sizeof(r));
            {
                std::lock_guard<std::mutex> jl(journal_m);
                journal->append(kFleetRecordFrame, p);
            }
            completed.fetch_add(1);
        };
    }
    ulpmc::fleet::FleetResult res;
    try {
        res = engine.run(hooks);
    } catch (const ulpmc::Preempted&) {
        // The pool claimed no device after the throw; in-flight devices
        // finished and journaled before run() rethrew. Everything else
        // resumes from the journal next run.
        stop_heartbeat();
        if (journal)
            std::cerr << "preempted: " << completed.load()
                      << " device(s) journaled; resume to continue\n";
        else
            std::cerr << "preempted (no journal: progress not retained)\n";
        return 3;
    } catch (...) {
        stop_heartbeat();
        throw;
    }
    stop_heartbeat();
    ulpmc::fleet::print_summary(std::cout, opt, res);
    return write_artifacts(json_path, store_path, tl_name, tl, opt, res.records,
                           res.aggregate);
}
