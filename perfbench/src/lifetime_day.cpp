// lifetime-day: one device, both policies (ladder and baseline), through
// LifetimeEngine::run with a multi-threaded SweepRunner. The timeline is
// bench/timelines/week.txt's day with its phases (and the battery) scaled
// to a quarter, so one repetition fits a benchmark run. The struck-block
// path (fault simulation, verification, rollback, derating) and the
// engine's intra-device parallel fan-out, both of which the fleet
// workload barely touches, dominate here.
#include <sstream>

#include "common/crc32.hpp"
#include "fault/fault.hpp"
#include "scenario/engine.hpp"
#include "scenario/report.hpp"
#include "scenario/timeline.hpp"
#include "sweep/sweep.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using ulpmc::scenario::CalibrationCache;
using ulpmc::scenario::LifetimeEngine;
using ulpmc::scenario::LifetimeReport;
using ulpmc::scenario::Policy;

constexpr unsigned kSetups = 7;
constexpr unsigned kTierRounds = 2;

/// bench/timelines/week.txt at quarter scale, except the flight: a short
/// window that strikes nearly every block. At week.txt's sparse rate the
/// seed-to-seed Poisson count of struck blocks alone moved throughput by
/// +-25%; a saturated window makes the count almost seed-independent and
/// lets each chunk's struck blocks fan out in parallel.
constexpr const char* kTimeline = R"(block_period_s 2.0
battery_j 1.0
phase morning     3600 harvest_uw=40
phase commute      900 ble=down harvest_uw=20
phase office      2700 ble_loss=0.02 harvest_uw=60
phase arrhythmia   450 arrhythmia=1 ble_loss=0.02 harvest_uw=60
phase flight       200 lambda=1e-4 ble_loss=0.10 harvest_uw=10
phase evening     2700 ble_loss=0.01 harvest_uw=120
phase night       7650 ble_loss=0.05 harvest_uw=15
)";

constexpr Policy kPolicies[] = {Policy::Ladder, Policy::Baseline};

struct Inputs {
    ulpmc::scenario::Timeline tl;
    std::shared_ptr<const ulpmc::app::EcgBenchmark> bench;
};

/// One lifetime per policy through `cache`; each run is one span.
std::vector<LifetimeReport> run_pair(const Inputs& in, std::uint64_t seed,
                                     ulpmc::cluster::SimEngine engine, CalibrationCache& cache,
                                     ulpmc::sweep::SweepRunner& pool, const char* const spans[2]) {
    std::vector<LifetimeReport> out;
    for (unsigned p = 0; p < 2; ++p) {
        ulpmc::scenario::DeviceConfig dc;
        dc.seed = seed;
        dc.engine = engine;
        dc.policy = kPolicies[p];
        ScopedSpan s(spans[p], "scenario");
        LifetimeEngine eng(in.tl, dc, in.bench, &cache);
        out.push_back(eng.run(pool));
    }
    return out;
}

std::string digest(const LifetimeReport& r) {
    std::ostringstream os;
    ulpmc::scenario::write_json(os, "day", {r});
    const std::string s = os.str();
    return std::to_string(ulpmc::crc32(s.data(), s.size()));
}

struct Counts {
    std::uint64_t struck = 0, rollbacks = 0;
};

Counts counts(const LifetimeReport& r) {
    Counts c;
    for (const auto& ph : r.phases) {
        c.struck += ph.struck_blocks;
        c.rollbacks += ph.rollbacks;
    }
    return c;
}

} // namespace

Result run_lifetime_day(const Context& ctx, Gate& gate) {
    Result res;
    ulpmc::sweep::SweepRunner pool(ctx.workers);
    const std::uint64_t device_seed = ulpmc::fault::mix_seed(ctx.seed, 1);

    Inputs in;
    for (unsigned i = 0; i < kSetups; ++i) {
        const Clock::time_point t0 = Clock::now();
        std::istringstream text(kTimeline);
        in.tl = ulpmc::scenario::parse_timeline(text);
        in.bench = std::make_shared<const ulpmc::app::EcgBenchmark>(
            ulpmc::app::BenchmarkOptions{.seed = ulpmc::fault::mix_seed(ctx.seed, 0)});
        res.setup_s.push_back(seconds_since(t0));
    }
    const auto expected_blocks =
        static_cast<std::uint64_t>(in.tl.total_s() / in.tl.block_period_s + 0.5);

    static const char* const kRunSpans[2] = {"scenario.run.ladder", "scenario.run.baseline"};
    std::vector<LifetimeReport> reps;
    repeat(ctx, 3, res, [&](bool) {
        // A user's run starts cold: a fresh calibration cache each time.
        CalibrationCache cache;
        const Clock::time_point t0 = Clock::now();
        reps = run_pair(in, device_seed, ulpmc::cluster::SimEngine::Trace, cache, pool,
                        kRunSpans);
        const double t = seconds_since(t0);
        for (const LifetimeReport& r : reps) {
            const std::string op = ulpmc::scenario::policy_name(r.policy);
            gate.check(op, r.total_blocks == expected_blocks,
                       "simulated " + std::to_string(r.total_blocks) + " blocks");
            gate.observe(op, "digest", digest(r));
            gate.observe(op, "struck_blocks", counts(r).struck);
            gate.observe(op, "sdc_blocks", r.sdc_blocks);
        }
        gate.end_rep();
        return t;
    });

    double simulated_s = 0;
    for (const LifetimeReport& r : reps) simulated_s += r.simulated_s;
    res.ops_per_rep = 2;
    res.device_hours_per_rep = simulated_s / 3600.0;
    res.headline = "device_hours_per_s";
    res.headline_unit = "h/s";
    res.headline_per_rep = res.device_hours_per_rep;

    if (ctx.trace) {
        auto& m = res.layers;
        const double traced_reps = static_cast<double>(res.traced_s.size());
        m["scenario.run_s.ladder"] = Spans::total("scenario.run.ladder") / traced_reps;
        m["scenario.run_s.baseline"] = Spans::total("scenario.run.baseline") / traced_reps;
        Counts total;
        for (const LifetimeReport& r : reps) {
            m["scenario.total_blocks"] += static_cast<double>(r.total_blocks);
            m["scenario.sdc_blocks"] += static_cast<double>(r.sdc_blocks);
            total.struck += counts(r).struck;
            total.rollbacks += counts(r).rollbacks;
        }
        m["scenario.struck_blocks"] = static_cast<double>(total.struck);
        m["scenario.rollbacks"] = static_cast<double>(total.rollbacks);

        // Attribution: a cold pair, then the same pair over the warm cache
        // on each tier, alternating for kTierRounds rounds. Cold minus warm
        // is the calibration cost; the warm pair is all struck-block
        // simulation and crediting. Numbers are medians over rounds.
        static const char* const kCold[2] = {"scenario.cold", "scenario.cold"};
        static const char* const kWarm[2] = {"scenario.warm.trace", "scenario.warm.trace"};
        static const char* const kBatched[2] = {"scenario.warm.batched", "scenario.warm.batched"};
        std::vector<double> cold_s, warm_s, batched_s;
        Spans::enable(true);
        for (unsigned r = 0; r < kTierRounds; ++r) {
            CalibrationCache cache;
            Clock::time_point t0 = Clock::now();
            run_pair(in, device_seed, ulpmc::cluster::SimEngine::Trace, cache, pool, kCold);
            cold_s.push_back(seconds_since(t0));
            t0 = Clock::now();
            const auto warm =
                run_pair(in, device_seed, ulpmc::cluster::SimEngine::Trace, cache, pool, kWarm);
            warm_s.push_back(seconds_since(t0));
            t0 = Clock::now();
            const auto batched = run_pair(in, device_seed, ulpmc::cluster::SimEngine::Batched,
                                          cache, pool, kBatched);
            batched_s.push_back(seconds_since(t0));
            for (unsigned p = 0; p < 2; ++p) {
                const std::string op = std::string("tier.batched.") +
                                       ulpmc::scenario::policy_name(kPolicies[p]);
                gate.check(op, digest(batched[p]) == digest(warm[p]),
                           "batched report differs from trace");
            }
            gate.end_rep(false);
        }
        Spans::enable(false);
        const double warm = median(warm_s);
        m["scenario.calibration_s"] = median(cold_s) - warm;
        m["scenario.ms_per_struck_block"] =
            total.struck == 0 ? 0 : warm * 1e3 / static_cast<double>(total.struck);
        m["scenario.run_s.trace"] = warm;
        m["scenario.run_s.batched"] = median(batched_s);
    }
    return res;
}

} // namespace perfbench
