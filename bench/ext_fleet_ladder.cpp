// Extension: degradation-ladder threshold sweep over a fleet — where
// should the rungs sit? (DESIGN.md §13, EXPERIMENTS.md).
//
// The ladder thresholds (shed / coarse / tight / silence, as state-of-
// charge fractions) were hand-set in every pre-fleet experiment. This
// bench sweeps a curated set of candidate ladders over a ladder-only
// fleet on a battery-stressed timeline and reports, per candidate, the
// fleet-wide delivered-sample fraction against total energy drawn —
// the two axes the wearable trades. Candidates on the Pareto front
// (no other candidate delivers more for less energy) are marked; the
// resulting table is committed in EXPERIMENTS.md.
//
// Eager ladders (high thresholds) shed leads early: cheap, but they
// forfeit signal they had the charge to acquire. Lazy ladders (low
// thresholds) run full-fidelity into the drought and pay in brownouts —
// delivery lost to a dead device instead of a deliberate degrade.
//
// Usage: ext_fleet_ladder [--seed S] [--devices N] [--cohorts C]
//                         [--threads T] [--engine E] [--timeline FILE]
//                         [--json FILE]
#include <array>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "fleet/fleet.hpp"
#include "scenario/engine.hpp"
#include "scenario/timeline.hpp"

using namespace ulpmc;

namespace {

/// A battery-stressed script: weak harvest under low-flux radiation,
/// then a BLE drought on a middling harvester, then recovery. The full-
/// power draw outruns the harvester, so WHERE the ladder rungs sit
/// decides how much signal survives to the recharge.
constexpr const char* kLadderTimeline = R"(# fleet-ladder (built into ext_fleet_ladder)
block_period_s 2.0
battery_j 0.015

phase stress    480 lambda=2e-8 ble_loss=0.05 harvest_uw=35
phase drought   480 ble=down harvest_uw=40
phase recovery  240 ble_loss=0.01 harvest_uw=300
)";

struct Candidate {
    const char* name;
    scenario::LadderThresholds th;
};

/// From rung-everything-early down to rung-nothing-until-dead.
constexpr Candidate kCandidates[] = {
    {"eager-80/60/40/20", {0.80, 0.60, 0.40, 0.20}},
    {"early-70/50/30/15", {0.70, 0.50, 0.30, 0.15}},
    {"default-60/40/25/10", {0.60, 0.40, 0.25, 0.10}},
    {"mid-50/30/15/05", {0.50, 0.30, 0.15, 0.05}},
    {"lax-40/20/10/04", {0.40, 0.20, 0.10, 0.04}},
    {"late-30/15/08/03", {0.30, 0.15, 0.08, 0.03}},
    {"lazy-20/10/05/02", {0.20, 0.10, 0.05, 0.02}},
    {"never-05/03/02/01", {0.05, 0.03, 0.02, 0.01}},
};

struct Point {
    std::string name;
    double delivered = 0; ///< fleet delivered-sample fraction
    double energy_j = 0;  ///< fleet total drain [J]
    std::uint64_t sdc = 0;
    std::uint64_t brownouts = 0;
    bool pareto = false;
};

} // namespace

int main(int argc, char** argv) {
    fleet::FleetOptions base;
    base.seed = 1;
    base.devices = 48;
    base.cohorts = 2;
    base.baseline_fraction = 0; // ladder-only: the sweep is about the rungs
    std::string json_path;
    std::string timeline_path;
    cli::Parser cli("usage: ext_fleet_ladder [--seed S] [--devices N] [--cohorts C]\n"
                    "                        [--threads T] [--engine E] [--timeline FILE]\n"
                    "                        [--json FILE]\n");
    cli.u64("--seed", base.seed);
    cli.positive("--devices", base.devices);
    cli.count("--cohorts", base.cohorts, 1, 4096);
    cli.count("--threads", base.threads, 0, 1024);
    cli.bind("--engine", base.engine, cluster::parse_engine, cluster::kUnknownEngine);
    cli.text("--timeline", timeline_path);
    cli.text("--json", json_path);
    if (const auto rc = cli.parse(argc, argv)) return *rc;

    scenario::Timeline tl;
    try {
        if (timeline_path.empty()) {
            std::istringstream in(kLadderTimeline);
            tl = scenario::parse_timeline(in);
        } else {
            tl = scenario::load_lifetime_timeline(timeline_path, base.days);
        }
    } catch (const scenario::TimelineError& e) {
        std::cerr << e.what() << "\n";
        return 2;
    }

    std::vector<Point> points;
    for (const Candidate& c : kCandidates) {
        fleet::FleetOptions opt = base;
        opt.thresholds = c.th;
        fleet::FleetEngine eng(tl, opt);
        const fleet::FleetResult res = eng.run();
        const auto& t = res.aggregate.total;
        Point p;
        p.name = c.name;
        p.delivered = t.samples_total > 0 ? static_cast<double>(t.samples_delivered) /
                                                static_cast<double>(t.samples_total)
                                          : 0.0;
        p.energy_j = static_cast<double>(t.energy_nj) * 1e-9;
        p.sdc = t.sdc_blocks;
        p.brownouts = t.brownouts;
        points.push_back(p);
        std::cout << c.name << ": delivered " << 100.0 * p.delivered << "%, energy "
                  << p.energy_j << " J, " << p.brownouts << " brownouts\n";
    }

    // Pareto front on (delivered up, energy down).
    for (std::size_t i = 0; i < points.size(); ++i) {
        bool dominated = false;
        for (std::size_t j = 0; j < points.size() && !dominated; ++j) {
            if (j == i) continue;
            const bool no_worse = points[j].delivered >= points[i].delivered &&
                                  points[j].energy_j <= points[i].energy_j;
            const bool better = points[j].delivered > points[i].delivered ||
                                points[j].energy_j < points[i].energy_j;
            dominated = no_worse && better;
        }
        points[i].pareto = !dominated;
    }

    std::cout << "\n| ladder (shed/coarse/tight/silence) | delivered % | energy [J] | "
                 "brownouts | SDC | Pareto |\n";
    std::cout << "|---|---:|---:|---:|---:|:---:|\n";
    for (const Point& p : points) {
        std::ostringstream row;
        row.precision(4);
        row << "| " << p.name << " | " << 100.0 * p.delivered << " | " << p.energy_j << " | "
            << p.brownouts << " | " << p.sdc << " | " << (p.pareto ? "front" : "") << " |";
        std::cout << row.str() << "\n";
    }

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            std::cerr << json_path << ": cannot open for writing\n";
            return 1;
        }
        out << "{\n  \"fleet_ladder_sweep\": {\n";
        out << "    \"seed\": " << base.seed << ",\n";
        out << "    \"devices\": " << base.devices << ",\n";
        out << "    \"cohorts\": " << base.cohorts << ",\n";
        out << "    \"points\": [\n";
        for (std::size_t i = 0; i < points.size(); ++i) {
            const Point& p = points[i];
            out << "      {\"ladder\": \"" << p.name << "\", \"delivered_fraction\": "
                << p.delivered << ", \"energy_j\": " << p.energy_j << ", \"brownouts\": "
                << p.brownouts << ", \"sdc_blocks\": " << p.sdc << ", \"pareto\": "
                << (p.pareto ? "true" : "false") << "}" << (i + 1 < points.size() ? "," : "")
                << "\n";
        }
        out << "    ]\n  }\n}\n";
    }
    return 0;
}
