// Extension: fleet throughput — amortized cohort/calibration sharing vs
// a naive per-device loop (DESIGN.md §13).
//
// The claim under test: running N heterogeneous devices through the
// fleet engine costs a small fixed setup (one benchmark per cohort, one
// calibration per distinct (cohort, arch, policy, level)) plus a tiny
// marginal cost per device, where a naive loop of single-device lifetime
// runs (what `for d in ...; do ulpmc-life ...; done` does) pays the full
// benchmark + calibration bill for EVERY device. The bench times both
// arms on the same timeline and reports the speedup
//
//     speedup = (naive_per_device x devices) / fleet_wall
//
// The naive arm actually runs a representative spread of the same device
// specs (the fleet's own fleet::device_config), so both arms
// simulate identical physics; it is sampled (default 12 devices) because
// running all N naively is precisely the cost this layer exists to avoid.
//
// The JSON artifact has two parts: the "fleet"/"aggregate" subtrees are
// deterministic (pure function of timeline + options; byte-compared
// against the committed bench/BENCH_fleet.json by tools/check_fleet.py)
// and the "throughput" subtree is host-dependent (wall times, speedup —
// gated only as speedup >= 10, never byte-compared).
//
// Usage: ext_fleet [--seed S] [--devices N] [--cohorts C] [--naive M]
//                  [--threads T] [--engine E] [--timeline FILE]
//                  [--json FILE]
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common/numparse.hpp"
#include "fleet/fleet.hpp"
#include "fleet/report.hpp"
#include "scenario/engine.hpp"
#include "scenario/timeline.hpp"
#include "sweep/sweep.hpp"

using namespace ulpmc;

namespace {

/// Built-in script: a copy of bench/timelines/fleet_smoke.txt. Low-flux
/// radiation (most blocks credit from the shared calibration), a BLE
/// drought and a recovery phase — the regime where fixed-cost sharing
/// dominates and the ladder's backoff/degradation machinery all engage.
constexpr const char* kBenchTimeline = R"(# fleet-smoke (built into ext_fleet)
block_period_s 2.0
battery_j 0.012

phase clean     120 harvest_uw=50
phase radiation 120 lambda=2e-8 ble_loss=0.05 harvest_uw=50
phase drought   120 ble=down harvest_uw=150
phase recovery  120 ble_loss=0.01 harvest_uw=400
)";

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

} // namespace

int main(int argc, char** argv) {
    fleet::FleetOptions opt;
    opt.seed = 1;
    opt.devices = 512;
    opt.cohorts = 2;
    std::uint64_t naive_devices = 12;
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
        if (arg == "--seed") {
            if (!parse_u64(value(), opt.seed)) {
                std::cerr << "--seed: not a number\n";
                return 2;
            }
        } else if (arg == "--devices") {
            if (!parse_u64(value(), opt.devices) || opt.devices < 1) {
                std::cerr << "--devices: expected a positive count\n";
                return 2;
            }
        } else if (arg == "--cohorts") {
            if (!parse_count(value(), 1, 4096, opt.cohorts)) {
                std::cerr << "--cohorts: expected a count in [1, 4096]\n";
                return 2;
            }
        } else if (arg == "--naive") {
            if (!parse_u64(value(), naive_devices)) {
                std::cerr << "--naive: not a number\n";
                return 2;
            }
        } else if (arg == "--threads") {
            if (!parse_count(value(), 0, 1024, opt.threads)) {
                std::cerr << "--threads: expected a count in [0, 1024]\n";
                return 2;
            }
        } else if (arg == "--engine") {
            if (!cluster::parse_engine(value(), opt.engine)) {
                std::cerr << "--engine: unknown engine\n";
                return 2;
            }
        } else if (arg == "--timeline") {
            timeline_path = value();
        } else if (arg == "--json") {
            json_path = value();
        } else {
            std::cerr << arg << ": unknown option\n";
            return 2;
        }
    }
    naive_devices = std::min(naive_devices, opt.devices);
    if (naive_devices == 0) naive_devices = 1;

    scenario::Timeline tl;
    std::string tl_name = "fleet-smoke";
    try {
        if (timeline_path.empty()) {
            std::istringstream in(kBenchTimeline);
            tl = scenario::parse_timeline(in);
        } else {
            tl = scenario::load_lifetime_timeline(timeline_path, opt.days);
            tl_name = timeline_path;
            if (const auto slash = tl_name.find_last_of('/'); slash != std::string::npos)
                tl_name = tl_name.substr(slash + 1);
        }
    } catch (const scenario::TimelineError& e) {
        std::cerr << e.what() << "\n";
        return 2;
    }

    // Fleet arm: shared benchmarks, shared calibration cache, pooled
    // clusters, one shared-cursor pool.
    fleet::FleetEngine eng(tl, opt);
    const fleet::FleetResult res = eng.run();
    fleet::print_summary(std::cout, opt, res);

    // Naive arm: an evenly-spread sample of the SAME device specs, each
    // paying its own benchmark build and calibrations — the per-device
    // cost of looping ulpmc-life.
    const auto t0 = std::chrono::steady_clock::now();
    sweep::SweepRunner naive_pool(1);
    for (std::uint64_t i = 0; i < naive_devices; ++i) {
        const std::uint64_t gdi = i * opt.devices / naive_devices;
        scenario::LifetimeEngine one(tl, fleet::device_config(opt, fleet::device_spec(opt, gdi)));
        (void)one.run(naive_pool);
    }
    const double naive_wall = seconds_since(t0);
    const double naive_per_device = naive_wall / static_cast<double>(naive_devices);
    const double naive_projected = naive_per_device * static_cast<double>(opt.devices);
    const double fleet_wall = res.wall_s > 0 ? res.wall_s : 1e-9;
    const double speedup = naive_projected / fleet_wall;

    std::cout << "naive loop: " << naive_devices << " devices in " << naive_wall << " s ("
              << naive_per_device << " s/device, projected " << naive_projected << " s for "
              << opt.devices << ")\n";
    std::cout << "speedup: " << speedup << "x over the naive per-device loop\n";

    if (!json_path.empty()) {
        std::ostringstream art;
        fleet::write_json(art, tl_name, opt, tl.block_period_s, res.aggregate,
                          res.records.size());
        std::string body = art.str();
        // Splice the host-dependent throughput subtree in before the
        // artifact's closing brace: body ends "  }\n}\n".
        body.resize(body.size() - 2); // drop the final "}\n"
        body.pop_back();              // drop the newline after "  }"
        body += ",\n";
        std::ofstream out(json_path);
        if (!out) {
            std::cerr << json_path << ": cannot open for writing\n";
            return 1;
        }
        out << body;
        out << "  \"throughput\": {\n";
        out << "    \"device_hours\": " << res.device_hours << ",\n";
        out << "    \"fleet_wall_s\": " << res.wall_s << ",\n";
        out << "    \"device_hours_per_s\": " << res.device_hours / fleet_wall << ",\n";
        out << "    \"workers\": " << res.sched.workers << ",\n";
        out << "    \"calibrations\": " << res.calibrations << ",\n";
        out << "    \"naive_devices\": " << naive_devices << ",\n";
        out << "    \"naive_wall_s\": " << naive_wall << ",\n";
        out << "    \"naive_per_device_s\": " << naive_per_device << ",\n";
        out << "    \"naive_projected_s\": " << naive_projected << ",\n";
        out << "    \"speedup\": " << speedup << "\n";
        out << "  }\n";
        out << "}\n";
    }
    return 0;
}
