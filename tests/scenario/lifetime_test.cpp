// Lifetime engine determinism and invariants (DESIGN.md §12).
//
// The headline guarantee: one (timeline, seed) pair fully determines a
// device lifetime — the emitted JSON is byte-identical across simulator
// engine tiers (trace vs batched) and across SweepRunner thread counts.
// Chunk planning draws every strike from a stream keyed by the global
// block index and all device state applies in block order, so neither the
// engine tier (stat-identical by the differential suites) nor the
// parallel scheduling of struck-block simulations can leak into the
// bytes.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "app/benchmark.hpp"
#include "scenario/engine.hpp"
#include "scenario/report.hpp"
#include "scenario/timeline.hpp"
#include "sweep/sweep.hpp"

namespace ulpmc::scenario {
namespace {

/// Small but eventful: the battery descends the ladder during calm+storm,
/// the storm injects faults (parallel struck-block path exercised), the
/// drought buffers, the recovery recharges.
constexpr const char* kScript = R"(
block_period_s 2.0
battery_j 0.01
phase calm     60 harvest_uw=20
phase storm    60 lambda=2e-6 ble_loss=0.2 harvest_uw=20
phase drought  60 ble=down harvest_uw=300
phase recovery 60 ble_loss=0.02 harvest_uw=400
)";

Timeline script() {
    std::istringstream in(kScript);
    return parse_timeline(in);
}

LifetimeReport run_once(cluster::SimEngine engine, unsigned threads, Policy policy,
                        std::uint64_t seed = 7) {
    DeviceConfig dc;
    dc.seed = seed;
    dc.engine = engine;
    dc.policy = policy;
    LifetimeEngine eng(script(), dc);
    sweep::SweepRunner pool(threads);
    return eng.run(pool);
}

std::string as_json(const LifetimeReport& rep) {
    std::ostringstream os;
    write_json(os, "test", {rep});
    return os.str();
}

TEST(Lifetime, JsonIsByteIdenticalAcrossEngineTiersAndThreadCounts) {
    const std::string reference = as_json(run_once(cluster::SimEngine::Trace, 1, Policy::Ladder));
    // The engine tier must not be able to leak into the bytes...
    EXPECT_EQ(reference, as_json(run_once(cluster::SimEngine::Batched, 1, Policy::Ladder)));
    // ...and neither may the parallel scheduling of struck-block runs.
    EXPECT_EQ(reference, as_json(run_once(cluster::SimEngine::Trace, 4, Policy::Ladder)));
    EXPECT_EQ(reference, as_json(run_once(cluster::SimEngine::Batched, 4, Policy::Ladder)));
}

TEST(Lifetime, LadderVerifiesEveryBlockAndWalksTheLadder) {
    const LifetimeReport rep = run_once(cluster::SimEngine::Trace, 4, Policy::Ladder);
    // Verified blocks can roll back but never ship corruption.
    EXPECT_EQ(rep.sdc_blocks, 0u);
    EXPECT_EQ(rep.link.samples_delivered_corrupt, 0u);
    std::uint64_t struck = 0, blocks = 0;
    unsigned deepest = 0;
    for (const PhaseReport& p : rep.phases) {
        struck += p.struck_blocks;
        blocks += p.blocks;
        deepest = std::max(deepest, p.deepest_level);
    }
    EXPECT_EQ(blocks, rep.total_blocks);
    // The storm must actually have struck (the parallel path ran)...
    EXPECT_GT(struck, 0u);
    // ...and the draining battery must have pushed past Full.
    EXPECT_GT(deepest, static_cast<unsigned>(DegradeLevel::Full));
    EXPECT_GT(rep.delivered_fraction, 0.0);
    EXPECT_LE(rep.full_fidelity_fraction, rep.delivered_fraction);
    // Conservation at the link: every sensed sample was delivered (full,
    // degraded), evicted, or still sits buffered — never silently lost.
    std::uint64_t sensed = 0;
    for (const PhaseReport& p : rep.phases) sensed += p.samples_sensed;
    EXPECT_GE(sensed, rep.link.samples_delivered + rep.link.samples_delivered_degraded +
                          rep.link.samples_dropped);
}

TEST(Lifetime, SeedChangesTheRun) {
    const LifetimeReport a = run_once(cluster::SimEngine::Trace, 2, Policy::Ladder, 7);
    const LifetimeReport b = run_once(cluster::SimEngine::Trace, 2, Policy::Ladder, 8);
    EXPECT_NE(as_json(a), as_json(b));
}

TEST(Lifetime, BaselineShipsWhatTheLadderCatches) {
    const LifetimeReport rep = run_once(cluster::SimEngine::Trace, 4, Policy::Baseline);
    std::uint64_t rollbacks = 0;
    for (const PhaseReport& p : rep.phases) rollbacks += p.rollbacks;
    // The unverified device never rolls back; its failures surface as SDC
    // or fail-stops instead (exact counts are seed-dependent, so only the
    // structural property is pinned here — the bench gates the numbers).
    EXPECT_EQ(rollbacks, 0u);
    // Corrupt samples can only come from SDC blocks.
    if (rep.sdc_blocks == 0) {
        EXPECT_EQ(rep.link.samples_delivered_corrupt, 0u);
    }
    EXPECT_GT(rep.delivered_fraction, 0.0);
}

/// Dense strikes: at lambda=1e-4 nearly every block is struck, so every
/// pool thread runs several struck blocks off the same clean-run memo. The
/// device starts at 20% charge, so the ladder's burst runs on the 4-core
/// TightProtect rung while the arrhythmia episode overrides it to Full:
/// the chunk's struck blocks use two levels' memos.
constexpr const char* kDenseScript = R"(
block_period_s 2.0
battery_j 0.5
phase burst   48 lambda=1e-4 ble_loss=0.1 harvest_uw=20
phase episode 16 lambda=1e-4 arrhythmia=1 harvest_uw=20
)";

std::string dense_json(cluster::SimEngine engine, unsigned threads, Policy policy) {
    std::istringstream in(kDenseScript);
    DeviceConfig dc;
    dc.seed = 5;
    dc.engine = engine;
    dc.policy = policy;
    dc.initial_charge = 0.2;
    LifetimeEngine eng(parse_timeline(in), dc);
    sweep::SweepRunner pool(threads);
    const LifetimeReport rep = eng.run(pool);
    // Every block of the one 32-block chunk is struck: even at 4 threads,
    // each thread runs several struck blocks.
    EXPECT_EQ(rep.phases[0].struck_blocks, 24u);
    EXPECT_EQ(rep.phases[1].struck_blocks, 8u);
    if (policy == Policy::Ladder) {
        EXPECT_EQ(rep.phases[0].deepest_level, static_cast<unsigned>(DegradeLevel::TightProtect));
        EXPECT_EQ(rep.phases[1].deepest_level, static_cast<unsigned>(DegradeLevel::Full));
    }
    return as_json(rep);
}

TEST(Lifetime, DenseStrikesAreByteIdenticalAcrossEngineTiersAndThreadCounts) {
    for (const Policy policy : {Policy::Ladder, Policy::Baseline}) {
        SCOPED_TRACE(policy_name(policy));
        const std::string reference = dense_json(cluster::SimEngine::Trace, 1, policy);
        EXPECT_EQ(reference, dense_json(cluster::SimEngine::Trace, 4, policy));
        EXPECT_EQ(reference, dense_json(cluster::SimEngine::Batched, 4, policy));
        // The reference tier is the oracle at system level too.
        EXPECT_EQ(reference, dense_json(cluster::SimEngine::Reference, 2, policy));
    }
}

TEST(Lifetime, ReferenceDeviceOnATraceWarmedCacheGivesTheSameBytes) {
    // A shared cache holds the calibrations and clean-run memos of
    // whichever device reached a key first. A reference device that
    // follows a trace device through it still simulates its struck blocks
    // on its own tier, from cycle 0, and must write the same report.
    const auto bench =
        std::make_shared<const app::EcgBenchmark>(app::BenchmarkOptions{.seed = 5});
    for (const Policy policy : {Policy::Ladder, Policy::Baseline}) {
        SCOPED_TRACE(policy_name(policy));
        const auto run = [&](cluster::SimEngine engine, CalibrationCache& cache) {
            std::istringstream in(kDenseScript);
            DeviceConfig dc;
            dc.seed = 5;
            dc.engine = engine;
            dc.policy = policy;
            dc.initial_charge = 0.2;
            LifetimeEngine eng(parse_timeline(in), dc, bench, &cache);
            sweep::SweepRunner pool(2);
            return as_json(eng.run(pool));
        };
        CalibrationCache shared, own;
        const std::string trace = run(cluster::SimEngine::Trace, shared);
        EXPECT_EQ(trace, run(cluster::SimEngine::Reference, shared));
        EXPECT_EQ(trace, run(cluster::SimEngine::Reference, own));
    }
}

TEST(Lifetime, DaysCyclesTheScript) {
    DeviceConfig dc;
    dc.seed = 3;
    dc.policy = Policy::Ladder;
    dc.max_days = 480.0 / 86400.0; // two passes of the 240 s script
    LifetimeEngine eng(script(), dc);
    sweep::SweepRunner pool(2);
    const LifetimeReport rep = eng.run(pool);
    EXPECT_EQ(rep.total_blocks, 240u);
    // Both passes land in the same per-phase aggregates.
    EXPECT_EQ(rep.phases.size(), 4u);
    EXPECT_EQ(rep.phases[0].blocks, 60u);
}

} // namespace
} // namespace ulpmc::scenario
