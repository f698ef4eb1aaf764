// ulpmc-farm: fault-tolerant fleet farm supervisor (DESIGN.md §13).
//
// Splits a fleet over N shard worker processes (ulpmc-fleet, one per
// shard), watches each worker's journal for heartbeat/progress frames,
// recovers hung or crashed workers (SIGTERM -> SIGKILL on liveness
// timeout, restart with truncated exponential backoff + jitter and
// --resume so no completed device is re-simulated), and merges the shard
// stores in-process into the exact JSON + ULPF artifacts an unsharded
// run would emit. A seeded chaos mode kills/stalls the farm's own
// workers at deterministic progress points to prove all of the above.
//
// Usage:
//   ulpmc-farm --timeline FILE --fleet-bin PATH [options]
//     --timeline FILE   phase script (required)
//     --fleet-bin PATH  ulpmc-fleet worker binary (required)
//     --devices N       GLOBAL fleet size (default 1000)
//     --seed N          fleet master seed (default 1)
//     --cohorts N       workload cohorts (default 8)
//     --days D          per-device lifetime (default: one pass)
//     --baseline F      baseline-policy fraction (default 0.25)
//     --engine E        reference|fast|trace|batched (default trace)
//     --workers N       shard worker processes (default 4)
//     --worker-threads N  threads per worker, 0 = hardware (default 0)
//     --dir DIR         scratch dir for shard_K.{jnl,ulpf,log} (default farm)
//     --json FILE       merged fleet JSON (byte-identical to unsharded)
//     --store FILE      merged ULPF store (byte-identical to unsharded)
//     --report FILE     supervision report JSON ('-' = stdout)
//     --heartbeat S     worker heartbeat period (default 0.5)
//     --timeout S       no-journal-growth window before SIGTERM (default 10)
//     --grace S         SIGTERM -> SIGKILL escalation grace (default 2)
//     --backoff BASE/MAX  restart backoff bounds in seconds (default 0.25/8)
//     --retries N       restarts allowed per shard (default 8)
//     --chaos SPEC      kills=K[,stalls=S][,seed=N] — SIGKILL/SIGSTOP own
//                       workers at seeded progress points
//
// Exit codes: 0 complete (merged artifacts written), 2 bad usage or
// shard stores that do not merge, 3 partial failure (a shard died after
// exhausting its retry budget; the summary names it), 1 artifact I/O error.
#include <iostream>
#include <set>
#include <sstream>
#include <string>

#include "common/atomic_file.hpp"
#include "common/numparse.hpp"
#include "fleet/farm.hpp"
#include "fleet/store.hpp"

namespace {

using ulpmc::parse_count;
using ulpmc::parse_double;
using ulpmc::parse_u64;

void usage(std::ostream& os) {
    os << "usage: ulpmc-farm --timeline FILE --fleet-bin PATH [--devices N] [--seed N]\n"
          "                  [--cohorts N] [--days D] [--baseline F] [--engine E]\n"
          "                  [--workers N] [--worker-threads N] [--dir DIR]\n"
          "                  [--json FILE] [--store FILE] [--report FILE]\n"
          "                  [--heartbeat S] [--timeout S] [--grace S]\n"
          "                  [--backoff BASE/MAX] [--retries N]\n"
          "                  [--chaos kills=K[,stalls=S][,seed=N]]\n";
}

/// kills=K[,stalls=S][,seed=N], any order, each key at most once; K and S
/// share --retries' bound.
bool parse_chaos(const std::string& spec, ulpmc::fleet::FarmOptions& opt) {
    std::set<std::string> keys;
    std::size_t start = 0;
    while (start <= spec.size()) {
        const std::size_t comma = spec.find(',', start);
        const std::string part =
            spec.substr(start, comma == std::string::npos ? spec.size() - start : comma - start);
        start = comma == std::string::npos ? spec.size() + 1 : comma + 1;
        if (part.empty()) return false;
        const std::size_t eq = part.find('=');
        if (eq == std::string::npos) return false;
        const std::string key = part.substr(0, eq);
        if (!keys.insert(key).second) return false;
        const std::string value = part.substr(eq + 1);
        if (key == "kills") {
            if (!parse_count(value, 0, 10000, opt.chaos_kills)) return false;
        } else if (key == "stalls") {
            if (!parse_count(value, 0, 10000, opt.chaos_stalls)) return false;
        } else if (key != "seed" || !parse_u64(value, opt.chaos_seed)) {
            return false;
        }
    }
    return keys.count("kills") > 0;
}

} // namespace

int main(int argc, char** argv) {
    ulpmc::fleet::FarmOptions opt;
    std::string report_path;

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
            opt.timeline_path = value("--timeline");
        } else if (arg == "--fleet-bin") {
            opt.fleet_bin = value("--fleet-bin");
        } else if (arg == "--devices") {
            if (!parse_u64(value("--devices"), opt.fleet.devices) || opt.fleet.devices < 1) {
                std::cerr << "--devices: expected a positive count\n";
                return 2;
            }
        } else if (arg == "--seed") {
            if (!parse_u64(value("--seed"), opt.fleet.seed)) {
                std::cerr << "--seed: not a number\n";
                return 2;
            }
        } else if (arg == "--cohorts") {
            if (!parse_count(value("--cohorts"), 1, 4096, opt.fleet.cohorts)) {
                std::cerr << "--cohorts: expected a count in [1, 4096]\n";
                return 2;
            }
        } else if (arg == "--days") {
            if (!parse_double(value("--days"), opt.fleet.days) || opt.fleet.days <= 0) {
                std::cerr << "--days: expected a positive number\n";
                return 2;
            }
        } else if (arg == "--baseline") {
            if (!parse_double(value("--baseline"), opt.fleet.baseline_fraction) ||
                opt.fleet.baseline_fraction < 0 || opt.fleet.baseline_fraction > 1) {
                std::cerr << "--baseline: expected a fraction in [0, 1]\n";
                return 2;
            }
        } else if (arg == "--engine") {
            if (!ulpmc::cluster::parse_engine(value("--engine"), opt.fleet.engine)) {
                std::cerr << "--engine: unknown engine (reference|fast|trace|batched)\n";
                return 2;
            }
        } else if (arg == "--workers") {
            if (!parse_count(value("--workers"), 1, 256, opt.workers)) {
                std::cerr << "--workers: expected a count in [1, 256]\n";
                return 2;
            }
        } else if (arg == "--worker-threads") {
            if (!parse_count(value("--worker-threads"), 0, 1024, opt.worker_threads)) {
                std::cerr << "--worker-threads: expected a count in [0, 1024]\n";
                return 2;
            }
        } else if (arg == "--dir") {
            opt.dir = value("--dir");
        } else if (arg == "--json") {
            opt.json_path = value("--json");
        } else if (arg == "--store") {
            opt.store_path = value("--store");
        } else if (arg == "--report") {
            report_path = value("--report");
        } else if (arg == "--heartbeat") {
            if (!parse_double(value("--heartbeat"), opt.heartbeat_s) || opt.heartbeat_s <= 0) {
                std::cerr << "--heartbeat: expected a positive period in seconds\n";
                return 2;
            }
        } else if (arg == "--timeout") {
            if (!parse_double(value("--timeout"), opt.timeout_s) || opt.timeout_s <= 0) {
                std::cerr << "--timeout: expected a positive window in seconds\n";
                return 2;
            }
        } else if (arg == "--grace") {
            if (!parse_double(value("--grace"), opt.term_grace_s) || opt.term_grace_s < 0) {
                std::cerr << "--grace: expected a non-negative window in seconds\n";
                return 2;
            }
        } else if (arg == "--backoff") {
            const std::string v = value("--backoff");
            const auto slash = v.find('/');
            if (slash == std::string::npos ||
                !parse_double(v.substr(0, slash), opt.backoff_base_s) ||
                !parse_double(v.substr(slash + 1), opt.backoff_max_s) ||
                opt.backoff_base_s <= 0 || opt.backoff_max_s < opt.backoff_base_s) {
                std::cerr << "--backoff: expected BASE/MAX seconds with 0 < BASE <= MAX\n";
                return 2;
            }
        } else if (arg == "--retries") {
            if (!parse_count(value("--retries"), 0, 10000, opt.retries)) {
                std::cerr << "--retries: expected a count in [0, 10000]\n";
                return 2;
            }
        } else if (arg == "--chaos") {
            if (!parse_chaos(value("--chaos"), opt)) {
                std::cerr << "--chaos: expected kills=K[,stalls=S][,seed=N]\n";
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
    if (opt.timeline_path.empty() || opt.fleet_bin.empty()) {
        std::cerr << "--timeline and --fleet-bin are required\n";
        usage(std::cerr);
        return 2;
    }

    try {
        ulpmc::fleet::Farm farm(opt, &std::cerr);
        const ulpmc::fleet::FarmReport rep = farm.run();
        ulpmc::fleet::print_farm_summary(std::cout, opt, rep);
        if (!report_path.empty()) {
            if (report_path == "-") {
                ulpmc::fleet::write_farm_report(std::cout, opt, rep);
            } else {
                std::ostringstream out;
                ulpmc::fleet::write_farm_report(out, opt, rep);
                ulpmc::write_file_atomic(report_path, out.str());
            }
        }
        return rep.complete ? 0 : 3;
    } catch (const ulpmc::fleet::FarmError& e) {
        std::cerr << e.what() << "\n";
        return 2;
    } catch (const ulpmc::fleet::FleetStoreError& e) {
        std::cerr << e.what() << "\n";
        return 1;
    } catch (const ulpmc::AtomicFileError& e) {
        std::cerr << e.what() << "\n";
        return 1;
    }
}
