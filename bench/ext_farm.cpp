// Extension: fault-tolerant farm chaos campaign (DESIGN.md §13).
//
// The claim under test: a farm of supervised shard worker processes —
// SIGKILLed and SIGSTOPped by a seeded chaos schedule, recovered by
// heartbeat-timeout escalation and backoff restarts with --resume —
// still merges to the EXACT bytes (JSON artifact and ULPF store) of an
// unsharded in-process run, and never re-simulates a journaled device.
//
// The bench runs three arms:
//   1. reference: the fleet engine in-process, unsharded (the ground
//      truth both for bytes and for the device-record store);
//   2. clean farm: worker processes, no chaos — isolates the
//      process/merge plumbing from the fault machinery;
//   3. chaos farm: the seeded disruption schedule (default 6 SIGKILLs +
//      2 SIGSTOPs, the stalls exercising the timeout -> SIGTERM ->
//      SIGKILL path), fresh scratch dir, same expected bytes.
//
// Every mismatch is a hard failure (exit 1): this bench is the campaign
// the CI farm job gates on. The JSON artifact carries the supervision
// counters (restarts, kills, stalls, escalations, re-simulated devices)
// — all host-timing-free except wall seconds, and never byte-compared.
//
// Usage: ext_farm --fleet-bin PATH [--seed S] [--devices N] [--cohorts C]
//                 [--workers W] [--kills K] [--stalls S] [--chaos-seed N]
//                 [--threads T] [--engine E] [--timeline FILE]
//                 [--dir DIR] [--json FILE]
#include <cerrno>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include <sys/stat.h>

#include "common/atomic_file.hpp"
#include "fleet/farm.hpp"
#include "fleet/fleet.hpp"
#include "fleet/report.hpp"
#include "fleet/store.hpp"
#include "scenario/timeline.hpp"

using namespace ulpmc;

namespace {

/// Built-in script: a copy of bench/timelines/fleet_smoke.txt (written
/// to the scratch dir when --timeline is absent — workers are separate
/// processes and must load the script from a path).
constexpr const char* kBenchTimeline = R"(# fleet-smoke (built into ext_farm)
block_period_s 2.0
battery_j 0.012

phase clean     120 harvest_uw=50
phase radiation 120 lambda=2e-8 ble_loss=0.05 harvest_uw=50
phase drought   120 ble=down harvest_uw=150
phase recovery  120 ble_loss=0.01 harvest_uw=400
)";

bool read_file(const std::string& path, std::string& out) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

} // namespace

int main(int argc, char** argv) {
    fleet::FarmOptions opt;
    opt.fleet.seed = 1;
    opt.fleet.devices = 96;
    opt.fleet.cohorts = 3;
    opt.workers = 4;
    opt.worker_threads = 2;
    opt.chaos_kills = 6;
    opt.chaos_stalls = 2;
    opt.chaos_seed = 7;
    opt.dir = "farm_bench";
    // Campaign-scale supervision constants: tight enough that a SIGSTOPped
    // worker is detected, killed and restarted in well under a second.
    opt.heartbeat_s = 0.1;
    opt.timeout_s = 1.0;
    opt.term_grace_s = 0.3;
    opt.backoff_base_s = 0.05;
    opt.backoff_max_s = 0.4;
    opt.poll_s = 0.02;
    unsigned ref_threads = 0;
    std::string json_path;
    std::string timeline_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << arg << " requires a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--fleet-bin") {
            opt.fleet_bin = value();
        } else if (arg == "--seed") {
            opt.fleet.seed = std::stoull(value());
        } else if (arg == "--devices") {
            opt.fleet.devices = std::stoull(value());
        } else if (arg == "--cohorts") {
            opt.fleet.cohorts = static_cast<unsigned>(std::stoul(value()));
        } else if (arg == "--workers") {
            opt.workers = static_cast<unsigned>(std::stoul(value()));
        } else if (arg == "--kills") {
            opt.chaos_kills = static_cast<unsigned>(std::stoul(value()));
        } else if (arg == "--stalls") {
            opt.chaos_stalls = static_cast<unsigned>(std::stoul(value()));
        } else if (arg == "--chaos-seed") {
            opt.chaos_seed = std::stoull(value());
        } else if (arg == "--threads") {
            ref_threads = static_cast<unsigned>(std::stoul(value()));
            opt.worker_threads = ref_threads;
        } else if (arg == "--engine") {
            if (!cluster::parse_engine(value(), opt.fleet.engine)) {
                std::cerr << "--engine: unknown engine\n";
                return 2;
            }
        } else if (arg == "--timeline") {
            timeline_path = value();
        } else if (arg == "--dir") {
            opt.dir = value();
        } else if (arg == "--json") {
            json_path = value();
        } else {
            std::cerr << arg << ": unknown option\n";
            return 2;
        }
    }
    if (opt.fleet_bin.empty()) {
        std::cerr << "--fleet-bin is required (path to the ulpmc-fleet worker binary)\n";
        return 2;
    }

    if (mkdir(opt.dir.c_str(), 0777) != 0 && errno != EEXIST) {
        std::cerr << opt.dir << ": cannot create scratch dir\n";
        return 2;
    }
    if (timeline_path.empty()) {
        timeline_path = opt.dir + "/fleet_smoke.txt";
        try {
            write_file_atomic(timeline_path, kBenchTimeline);
        } catch (const AtomicFileError& e) {
            std::cerr << e.what() << "\n";
            return 2;
        }
    }
    opt.timeline_path = timeline_path;

    std::string tl_name = timeline_path;
    if (const auto slash = tl_name.find_last_of('/'); slash != std::string::npos)
        tl_name = tl_name.substr(slash + 1);

    // ---- arm 1: unsharded in-process reference -------------------------
    scenario::Timeline tl;
    try {
        tl = scenario::load_timeline(timeline_path);
    } catch (const scenario::TimelineError& e) {
        std::cerr << timeline_path << ": " << e.what() << "\n";
        return 2;
    }
    fleet::FleetOptions ref_opt = opt.fleet;
    ref_opt.shard_k = 0;
    ref_opt.shard_n = 1;
    ref_opt.threads = ref_threads;
    fleet::FleetEngine ref_eng(tl, ref_opt);
    const fleet::FleetResult ref = ref_eng.run();
    std::ostringstream ref_json_ss;
    fleet::write_json(ref_json_ss, tl_name, ref_opt, tl.block_period_s, ref.aggregate,
                      ref.records.size());
    const std::string ref_json = ref_json_ss.str();
    const std::string ref_store = opt.dir + "/reference.ulpf";
    fleet::write_store(ref_store, fleet::store_header(ref_opt), ref.records);
    std::cout << "reference: " << ref.records.size() << " devices in-process, "
              << ref.wall_s << " s\n";

    struct Arm {
        const char* name;
        fleet::FarmReport rep;
        bool json_identical = false;
        bool store_identical = false;
    };
    Arm arms[2] = {{"clean", {}, false, false}, {"chaos", {}, false, false}};

    int rc = 0;
    for (Arm& arm : arms) {
        const bool chaos = std::string(arm.name) == "chaos";
        fleet::FarmOptions fo = opt;
        fo.dir = opt.dir + "/" + arm.name;
        fo.json_path = fo.dir + "/merged.json";
        fo.store_path = fo.dir + "/merged.ulpf";
        if (!chaos) {
            fo.chaos_kills = 0;
            fo.chaos_stalls = 0;
        }
        try {
            fleet::Farm farm(fo, nullptr);
            arm.rep = farm.run();
        } catch (const fleet::FarmError& e) {
            std::cerr << arm.name << ": " << e.what() << "\n";
            return 1;
        }
        const fleet::FarmReport& rep = arm.rep;
        if (!rep.complete) {
            std::cerr << arm.name << ": farm did not complete (dead shards)\n";
            rc = 1;
        }
        arm.json_identical = rep.merged_json == ref_json;
        std::string merged_store_bytes, ref_store_bytes;
        arm.store_identical = read_file(fo.store_path, merged_store_bytes) &&
                              read_file(ref_store, ref_store_bytes) &&
                              merged_store_bytes == ref_store_bytes;
        std::cout << arm.name << " farm: " << (rep.complete ? "complete" : "INCOMPLETE")
                  << ", json " << (arm.json_identical ? "identical" : "DIFFERS") << ", store "
                  << (arm.store_identical ? "identical" : "DIFFERS") << ", " << rep.restarts
                  << " restarts, " << rep.chaos_kills << " kills, " << rep.chaos_stalls
                  << " stalls, " << rep.timeout_kills << " timeout escalations, "
                  << rep.devices_simulated << " simulations for " << rep.devices_journaled
                  << " devices (" << rep.duplicate_records << " re-simulated), "
                  << rep.wall_s << " s\n";
        if (!arm.json_identical || !arm.store_identical) {
            std::cerr << arm.name << ": merged artifact differs from the unsharded reference\n";
            rc = 1;
        }
        if (rep.duplicate_records != 0) {
            std::cerr << arm.name << ": a journaled device was re-simulated\n";
            rc = 1;
        }
        if (chaos) {
            // The campaign must actually have disrupted something: every
            // scheduled kill/stall delivered, and the stalls must have
            // been recovered through the timeout escalation path.
            if (rep.chaos_kills != opt.chaos_kills || rep.chaos_stalls != opt.chaos_stalls) {
                std::cerr << "chaos: schedule under-delivered (" << rep.chaos_kills << "+"
                          << rep.chaos_stalls << " of " << opt.chaos_kills << "+"
                          << opt.chaos_stalls << ")\n";
                rc = 1;
            }
            if (opt.chaos_stalls > 0 && rep.timeout_kills == 0) {
                std::cerr << "chaos: stalls were scheduled but the timeout escalation "
                             "path never fired\n";
                rc = 1;
            }
            if (rep.restarts == 0) {
                std::cerr << "chaos: no worker was ever restarted\n";
                rc = 1;
            }
        }
    }

    if (!json_path.empty()) {
        std::ostringstream out;
        out << "{\n";
        out << "  \"campaign\": {\n";
        out << "    \"devices\": " << opt.fleet.devices << ",\n";
        out << "    \"seed\": " << opt.fleet.seed << ",\n";
        out << "    \"workers\": " << opt.workers << ",\n";
        out << "    \"kills\": " << opt.chaos_kills << ",\n";
        out << "    \"stalls\": " << opt.chaos_stalls << ",\n";
        out << "    \"chaos_seed\": " << opt.chaos_seed << "\n";
        out << "  },\n";
        for (std::size_t i = 0; i < 2; ++i) {
            const Arm& arm = arms[i];
            const fleet::FarmReport& rep = arm.rep;
            out << "  \"" << arm.name << "\": {\n";
            out << "    \"complete\": " << (rep.complete ? "true" : "false") << ",\n";
            out << "    \"json_identical\": " << (arm.json_identical ? "true" : "false")
                << ",\n";
            out << "    \"store_identical\": " << (arm.store_identical ? "true" : "false")
                << ",\n";
            out << "    \"restarts\": " << rep.restarts << ",\n";
            out << "    \"chaos_kills\": " << rep.chaos_kills << ",\n";
            out << "    \"chaos_stalls\": " << rep.chaos_stalls << ",\n";
            out << "    \"timeout_terms\": " << rep.timeout_terms << ",\n";
            out << "    \"timeout_kills\": " << rep.timeout_kills << ",\n";
            out << "    \"preempted_exits\": " << rep.preempted_exits << ",\n";
            out << "    \"devices_simulated\": " << rep.devices_simulated << ",\n";
            out << "    \"devices_journaled\": " << rep.devices_journaled << ",\n";
            out << "    \"duplicate_records\": " << rep.duplicate_records << ",\n";
            out << "    \"wall_s\": " << rep.wall_s << "\n";
            out << "  }" << (i == 0 ? "," : "") << "\n";
        }
        out << "}\n";
        std::ofstream jf(json_path);
        if (!jf) {
            std::cerr << json_path << ": cannot open for writing\n";
            return 1;
        }
        jf << out.str();
    }
    std::cout << (rc == 0 ? "farm chaos campaign: all checks passed\n"
                          : "farm chaos campaign: FAILURES above\n");
    return rc;
}
