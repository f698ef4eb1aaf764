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
// Options follow the shared grammar of common/cli.hpp.
// Exit codes: 0 complete (merged artifacts written), 2 bad usage or
// shard stores that do not merge, 3 partial failure (a shard died after
// exhausting its retry budget; the summary names it), 1 artifact I/O error.
#include <iostream>
#include <limits>
#include <set>
#include <sstream>
#include <string>

#include "common/atomic_file.hpp"
#include "common/cli.hpp"
#include "common/numparse.hpp"
#include "fleet/farm.hpp"
#include "fleet/store.hpp"

namespace {

using ulpmc::parse_count;
using ulpmc::parse_double;
using ulpmc::parse_u64;

constexpr const char* kUsage =
    "usage: ulpmc-farm --timeline FILE --fleet-bin PATH [--devices N] [--seed N]\n"
    "                  [--cohorts N] [--days D] [--baseline F] [--engine E]\n"
    "                  [--workers N] [--worker-threads N] [--dir DIR]\n"
    "                  [--json FILE] [--store FILE] [--report FILE]\n"
    "                  [--heartbeat S] [--timeout S] [--grace S]\n"
    "                  [--backoff BASE/MAX] [--retries N]\n"
    "                  [--chaos kills=K[,stalls=S][,seed=N]]\n";

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

/// BASE/MAX with 0 < BASE <= MAX.
bool parse_backoff(const std::string& v, ulpmc::fleet::FarmOptions& opt) {
    const auto slash = v.find('/');
    return slash != std::string::npos && parse_double(v.substr(0, slash), opt.backoff_base_s) &&
           parse_double(v.substr(slash + 1), opt.backoff_max_s) && opt.backoff_base_s > 0 &&
           opt.backoff_max_s >= opt.backoff_base_s;
}

} // namespace

int main(int argc, char** argv) {
    ulpmc::fleet::FarmOptions opt;
    std::string report_path;

    ulpmc::cli::Parser cli(kUsage);
    cli.text("--timeline", opt.timeline_path);
    cli.text("--fleet-bin", opt.fleet_bin);
    cli.positive("--devices", opt.fleet.devices);
    cli.u64("--seed", opt.fleet.seed);
    cli.count("--cohorts", opt.fleet.cohorts, 1, 4096);
    cli.positive("--days", opt.fleet.days, "expected a positive number");
    cli.real("--baseline", opt.fleet.baseline_fraction, 0, 1, "expected a fraction in [0, 1]");
    cli.bind("--engine", opt.fleet.engine, ulpmc::cluster::parse_engine,
             ulpmc::cluster::kUnknownEngine);
    cli.count("--workers", opt.workers, 1, 256);
    cli.count("--worker-threads", opt.worker_threads, 0, 1024);
    cli.text("--dir", opt.dir);
    cli.text("--json", opt.json_path);
    cli.text("--store", opt.store_path);
    cli.text("--report", report_path);
    cli.positive("--heartbeat", opt.heartbeat_s, "expected a positive period in seconds");
    cli.positive("--timeout", opt.timeout_s, "expected a positive window in seconds");
    cli.real("--grace", opt.term_grace_s, 0, std::numeric_limits<double>::infinity(),
             "expected a non-negative window in seconds");
    cli.bind("--backoff", opt, parse_backoff, "expected BASE/MAX seconds with 0 < BASE <= MAX");
    cli.count("--retries", opt.retries, 0, 10000);
    cli.bind("--chaos", opt, parse_chaos, "expected kills=K[,stalls=S][,seed=N]");
    if (const auto rc = cli.parse(argc, argv)) return *rc;
    if (opt.timeline_path.empty() || opt.fleet_bin.empty()) {
        std::cerr << "--timeline and --fleet-bin are required\n" << kUsage;
        return 2;
    }

    try {
        ulpmc::fleet::Farm farm(opt, &std::cerr);
        const ulpmc::fleet::FarmReport rep = farm.run();
        ulpmc::fleet::print_farm_summary(std::cout, opt, rep);
        if (!report_path.empty()) {
            std::ostringstream out;
            ulpmc::fleet::write_farm_report(out, opt, rep);
            ulpmc::publish_file(report_path, out.str());
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
