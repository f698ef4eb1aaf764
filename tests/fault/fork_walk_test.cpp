// Differential test of the forked strike walk (fault::run_strikes_forked,
// DESIGN.md §12): every strike forked off one clean walk must end in the
// state a fresh run_with_fault from cycle 0 leaves — same statistics,
// traps, halted flags, pending register faults, golden verdict and
// future-determining state. Covered on the reference oracle and the
// trace tier, under the three protection shapes the lifetime engine
// simulates, with strikes of every kind its universe draws, tied strike
// cycles, and strikes at both ends of the clean run.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "app/benchmark.hpp"
#include "cluster/cluster.hpp"
#include "fault/fault.hpp"

namespace ulpmc::fault {
namespace {

enum class Shape { Baseline, LadderFloor, TightProtect };

cluster::ClusterConfig shape_config(const app::EcgBenchmark& bench, Shape shape,
                                    cluster::SimEngine engine) {
    cluster::ClusterConfig c =
        cluster::make_config(cluster::ArchKind::UlpmcBank, bench.layout().dm_layout());
    c.barrier_enabled = bench.layout().use_barrier;
    c.engine = engine;
    c.watchdog_cycles = 20'000;
    if (shape == Shape::Baseline) return c;
    c.ecc_enabled = true;
    c.im_scrub = true;
    c.reg_protection = core::RegProtection::Parity;
    if (shape == Shape::TightProtect) {
        c.cores = kNumCores / 2;
        c.reg_protection = core::RegProtection::Tmr;
        c.dm_scrub = true;
        c.xbar_self_check = true;
    }
    return c;
}

/// What a fresh run_with_fault leaves behind, for comparison.
struct Fresh {
    cluster::ClusterStats stats;
    std::vector<core::Trap> traps;
    std::vector<bool> halted;
    unsigned pending = 0;
    bool verified = false;
    cluster::Cluster::Snapshot state;
};

Fresh capture(const cluster::Cluster& cl, const app::EcgBenchmark& bench, unsigned cores) {
    Fresh f;
    f.stats = cl.stats();
    for (unsigned p = 0; p < cores; ++p) {
        f.traps.push_back(cl.core_trap(static_cast<CoreId>(p)));
        f.halted.push_back(cl.core_halted(static_cast<CoreId>(p)));
    }
    f.pending = cl.pending_reg_faults();
    f.verified = bench.verify(cl, cores);
    cl.save(f.state);
    return f;
}

/// Every kind of the lifetime universe, plus the walk's edge cases: a
/// strike at cycle 0, one at the clean run's last cycle, and two pairs of
/// tied strike cycles. Sorted by strike cycle, as the walk requires.
std::vector<FaultSpec> strike_batch(const app::EcgBenchmark& bench, unsigned cores,
                                    Cycle clean_cycles, std::uint64_t seed) {
    FaultUniverse u;
    u.text_words = bench.program().text.size();
    u.dm_words = bench.layout().dm_layout().limit();
    u.cores = cores;
    u.window = clean_cycles;
    FaultInjector inj(seed);
    std::vector<FaultSpec> specs;
    for (unsigned k = 0; k < 8; ++k) {
        const auto kind = static_cast<FaultKind>(k);
        if (!(kAllFaultKinds & fault_bit(kind))) continue;
        u.kinds = fault_bit(kind);
        specs.push_back(inj.draw(u));
    }
    u.kinds = kAllFaultKinds;
    specs.push_back(inj.draw(u));

    FaultSpec first = specs[0];
    first.cycle = 0;
    FaultSpec last = specs[1];
    last.cycle = clean_cycles - 1;
    FaultSpec tie_a = specs[2];
    tie_a.cycle = specs[3].cycle;
    FaultSpec tie_b = specs[4];
    tie_b.cycle = clean_cycles - 1;
    specs.insert(specs.end(), {first, last, tie_a, tie_b});
    std::stable_sort(specs.begin(), specs.end(),
                     [](const FaultSpec& a, const FaultSpec& b) { return a.cycle < b.cycle; });
    return specs;
}

void check_shape(Shape shape, cluster::SimEngine engine, std::uint64_t seed) {
    const app::EcgBenchmark bench;
    const cluster::ClusterConfig cfg = shape_config(bench, shape, engine);

    Cycle clean_cycles = 0;
    {
        cluster::Cluster clean(cfg, bench.image());
        bench.load_inputs(clean, cfg.cores);
        clean_cycles = clean.run();
        ASSERT_TRUE(bench.verify(clean, cfg.cores));
    }

    const auto specs = strike_batch(bench, cfg.cores, clean_cycles, seed);
    const Cycle bound = 4 * clean_cycles + cfg.watchdog_cycles + 1000;
    std::vector<Fresh> want;
    for (const FaultSpec& f : specs) {
        // A newly constructed cluster per strike: reset() keeps a consumed
        // glitch's (dead) payload, which state_equals would see.
        cluster::Cluster fresh(cfg, bench.image());
        bench.load_inputs(fresh, cfg.cores);
        FaultInjector::run_with_fault(fresh, f, bound);
        want.push_back(capture(fresh, bench, cfg.cores));
    }

    cluster::Cluster walker(cfg, bench.image());
    bench.load_inputs(walker, cfg.cores);
    cluster::Cluster::Snapshot fork;
    std::size_t calls = 0;
    bool any_unverified = false;
    run_strikes_forked(walker, specs, bound, fork, [&](std::size_t i, const cluster::Cluster& cl) {
        ASSERT_EQ(i, calls++);
        const Fresh got = capture(cl, bench, cfg.cores);
        const Fresh& w = want[i];
        const std::string what = specs[i].describe();
        EXPECT_TRUE(got.stats == w.stats) << what;
        EXPECT_EQ(got.traps, w.traps) << what;
        EXPECT_EQ(got.halted, w.halted) << what;
        EXPECT_EQ(got.pending, w.pending) << what;
        EXPECT_EQ(got.verified, w.verified) << what;
        EXPECT_TRUE(cl.state_equals(w.state)) << what;
        any_unverified = any_unverified || !w.verified;
    });
    EXPECT_EQ(calls, specs.size());
    // Baseline strikes must be able to corrupt a block, or the verdict
    // comparison above pinned nothing but "verified".
    if (shape == Shape::Baseline) {
        EXPECT_TRUE(any_unverified);
    }
}

TEST(ForkedWalk, BaselineMatchesFreshRunsOnTraceAndReference) {
    check_shape(Shape::Baseline, cluster::SimEngine::Trace, 11);
    check_shape(Shape::Baseline, cluster::SimEngine::Reference, 11);
}

TEST(ForkedWalk, LadderFloorMatchesFreshRunsOnTraceAndReference) {
    check_shape(Shape::LadderFloor, cluster::SimEngine::Trace, 12);
    check_shape(Shape::LadderFloor, cluster::SimEngine::Reference, 12);
}

TEST(ForkedWalk, TightProtectMatchesFreshRunsOnTraceAndReference) {
    check_shape(Shape::TightProtect, cluster::SimEngine::Trace, 13);
    check_shape(Shape::TightProtect, cluster::SimEngine::Reference, 13);
}

TEST(ForkedWalk, SingleStrikeLeavesTheForkUntouched) {
    // One strike runs exactly as run_with_fault: no save, so the fork
    // snapshot a caller passes in is never written.
    const app::EcgBenchmark bench;
    const cluster::ClusterConfig cfg =
        shape_config(bench, Shape::Baseline, cluster::SimEngine::Trace);
    cluster::Cluster cl(cfg, bench.image());
    bench.load_inputs(cl, cfg.cores);
    cluster::Cluster::Snapshot fork;
    FaultSpec f;
    f.kind = FaultKind::RegUpset;
    f.cycle = 500;
    const FaultSpec one[] = {f};
    run_strikes_forked(cl, one, 1'000'000, fork, [](std::size_t, const cluster::Cluster&) {});
    EXPECT_EQ(fork.saved_cycle(), 0u);
}

} // namespace
} // namespace ulpmc::fault
