// Differential test of the one strike routine (fault::strike) through the
// clean-run memo (cluster::CleanRun, DESIGN.md §11-12), as the lifetime
// engine's struck blocks take it: restore the rung below the strike,
// strike, then rejoin the clean run or run on to the end. Strike by strike, that must give what a fresh run_with_fault from
// cycle 0 gives on the reference oracle — statistics (upset events
// included), traps, halted flags, pending register faults and the golden
// verdict — and end in the same future-determining state as a fresh run
// on the memo's own tier. Covered under the three protection shapes the
// lifetime engine simulates, with strikes of every kind its universe
// draws and strikes at cycle 0, exactly on a rung and on the last clean
// cycle; across tiers (a memo captured on one fast-path tier restored
// into another); and rung by rung against full snapshots of a standalone
// clean run, on the even schedule and on the checkpointed stream's
// block-boundary schedule.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/benchmark.hpp"
#include "app/streaming.hpp"
#include "cluster/clean_run.hpp"
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
    c.watchdog_cycles = cluster::kWatchdogCycles;
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

/// A cluster as the lifetime engine builds one per struck block: freshly
/// loaded, standing at rung 0.
struct Loaded {
    cluster::Cluster cl;
    Loaded(const cluster::ClusterConfig& cfg, const app::EcgBenchmark& bench)
        : cl(cfg, bench.image()) {
        bench.load_inputs(cl, cfg.cores);
    }
};

/// What a struck block leaves behind, for comparison.
struct Outcome {
    cluster::ClusterStats stats;
    std::vector<core::Trap> traps;
    std::vector<bool> halted;
    unsigned pending = 0;
    bool verified = false;
};

/// `view` embodies the block's final state; `stats` are its statistics
/// (view's own, or the credited ones of a rejoined block).
Outcome outcome_of(const cluster::Cluster& view, const cluster::ClusterStats& stats,
                   const app::EcgBenchmark& bench, unsigned cores) {
    Outcome o;
    o.stats = stats;
    for (unsigned p = 0; p < cores; ++p) {
        o.traps.push_back(view.core_trap(static_cast<CoreId>(p)));
        o.halted.push_back(view.core_halted(static_cast<CoreId>(p)));
    }
    o.pending = view.pending_reg_faults();
    o.verified = bench.verify(view, cores);
    return o;
}

/// Every kind of the lifetime universe, plus the memo's edge cases: a
/// strike at cycle 0, one exactly on a rung's cycle, and two on the clean
/// run's last cycle.
std::vector<FaultSpec> strike_batch(const app::EcgBenchmark& bench, unsigned cores,
                                    Cycle clean_cycles, Cycle rung_cycle, std::uint64_t seed) {
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
        specs.push_back(inj.draw(u));
    }
    u.kinds = kAllFaultKinds;
    specs.push_back(inj.draw(u));

    FaultSpec first = specs[0];
    first.cycle = 0;
    FaultSpec on_rung = specs[2];
    on_rung.cycle = rung_cycle;
    FaultSpec last = specs[4];
    last.cycle = clean_cycles - 1;
    FaultSpec last_b = specs[7];
    last_b.cycle = clean_cycles - 1;
    specs.insert(specs.end(), {first, on_rung, last, last_b});
    return specs;
}

/// Runs every strike of a batch through the memo captured on `capture`
/// and restored into clusters of `tier`, against fresh runs from cycle 0.
void check_shape(Shape shape, cluster::SimEngine capture, cluster::SimEngine tier,
                 std::uint64_t seed) {
    const app::EcgBenchmark bench;
    const cluster::ClusterConfig cfg = shape_config(bench, shape, tier);
    const cluster::ClusterConfig ref_cfg =
        shape_config(bench, shape, cluster::SimEngine::Reference);

    // The capture cluster parks at the clean final state: the view of
    // every rejoined block.
    Loaded golden(shape_config(bench, shape, capture), bench);
    const cluster::CleanRun memo(golden.cl);
    ASSERT_TRUE(bench.verify(golden.cl, cfg.cores));
    const Cycle clean_cycles = memo.cycles();

    const auto specs = strike_batch(bench, cfg.cores, clean_cycles, memo.rung_cycle(5), seed);
    const Cycle bound = cluster::hang_bound(cfg, clean_cycles);
    unsigned rejoined = 0, walked = 0;
    bool any_unverified = false;
    for (const FaultSpec& f : specs) {
        const std::string what = f.describe();
        // The oracle: a fresh reference-tier run from cycle 0.
        Loaded oracle(ref_cfg, bench);
        FaultInjector::run_with_fault(oracle.cl, f, bound);
        const Outcome want = outcome_of(oracle.cl, oracle.cl.stats(), bench, cfg.cores);
        // A fresh run on the memo path's tier, for the state comparison.
        Loaded fresh(cfg, bench);
        FaultInjector::run_with_fault(fresh.cl, f, bound);
        cluster::Cluster::Snapshot fresh_state;
        fresh.cl.save(fresh_state);

        // The memo path, through the strike routine LifetimeEngine::run
        // takes.
        Loaded block(cfg, bench);
        cluster::ClusterStats credited;
        const StrikeEnd end = strike(block.cl, f, bound, &memo, true, credited);
        ASSERT_LE(memo.rung_cycle(end.rung), f.cycle) << what;
        Outcome got;
        if (end.rejoined) {
            ++rejoined;
            EXPECT_EQ(end.cycles, credited.cycles) << what;
            got = outcome_of(golden.cl, credited, bench, cfg.cores);
            EXPECT_TRUE(golden.cl.state_equals(fresh_state)) << what;
        } else {
            ++walked;
            EXPECT_EQ(end.cycles, block.cl.stats().cycles) << what;
            got = outcome_of(block.cl, block.cl.stats(), bench, cfg.cores);
            EXPECT_TRUE(block.cl.state_equals(fresh_state)) << what;
        }
        EXPECT_TRUE(got.stats == want.stats) << what;
        EXPECT_EQ(got.stats.upset_events(), want.stats.upset_events()) << what;
        EXPECT_EQ(got.traps, want.traps) << what;
        EXPECT_EQ(got.halted, want.halted) << what;
        EXPECT_EQ(got.pending, want.pending) << what;
        EXPECT_EQ(got.verified, want.verified) << what;
        any_unverified = any_unverified || !want.verified;
    }
    // Both ends of the memo path run.
    EXPECT_GT(rejoined, 0u);
    EXPECT_GT(walked, 0u);
    // Baseline strikes must be able to corrupt a block, or the verdict
    // comparison above pinned nothing but "verified".
    if (shape == Shape::Baseline) {
        EXPECT_TRUE(any_unverified);
    }
}

TEST(MemoStrikes, BaselineMatchesFreshReferenceRuns) {
    check_shape(Shape::Baseline, cluster::SimEngine::Trace, cluster::SimEngine::Trace, 22);
}

TEST(MemoStrikes, LadderFloorMatchesFreshReferenceRuns) {
    check_shape(Shape::LadderFloor, cluster::SimEngine::Trace, cluster::SimEngine::Trace, 12);
}

TEST(MemoStrikes, TightProtectMatchesFreshReferenceRuns) {
    check_shape(Shape::TightProtect, cluster::SimEngine::Trace, cluster::SimEngine::Trace, 13);
}

TEST(MemoStrikes, MemoRestoresAcrossFastPathTiers) {
    // A calibration cache is shared across tiers, so the memo may come
    // from a device of another tier than the block it serves.
    check_shape(Shape::LadderFloor, cluster::SimEngine::Fast, cluster::SimEngine::Trace, 14);
    check_shape(Shape::TightProtect, cluster::SimEngine::Trace, cluster::SimEngine::Fast, 15);
    check_shape(Shape::Baseline, cluster::SimEngine::Fast, cluster::SimEngine::Batched, 16);
}

TEST(MemoStrikes, CompactRungsMaterializeToFullSnapshots) {
    // Every rung, materialized from its stored non-DM state and DM deltas
    // against the loaded state, is the state a standalone clean run has at
    // the rung's cycle, statistics included. Three inputs: the even
    // schedule, whose rung cycles are r * floor(clean / kRungs), captured
    // with and without a known length (the lifetime engine passes the
    // calibration's, which skips the sizing run), and the checkpointed
    // stream's block tops plus its commit point, whose rungs must also be
    // full saves taken at the monitor's block tops.
    enum class Schedule { Even, EvenKnownLength, BlockTops };
    const app::EcgBenchmark bench;
    constexpr unsigned kBlocks = 4;
    const app::StreamingBenchmark stream({.use_barrier = true}, kBlocks);
    for (const Schedule schedule :
         {Schedule::Even, Schedule::EvenKnownLength, Schedule::BlockTops}) {
        SCOPED_TRACE(static_cast<int>(schedule));
        const Shape shape =
            schedule == Schedule::EvenKnownLength ? Shape::TightProtect : Shape::Baseline;
        const bool tops = schedule == Schedule::BlockTops;
        const app::EcgBenchmark& inputs = tops ? stream.base() : bench;
        const cluster::ClusterConfig cfg = shape_config(inputs, shape, cluster::SimEngine::Trace);
        const auto fresh = [&] {
            auto cl = std::make_unique<cluster::Cluster>(cfg, tops ? stream.image() : bench.image());
            inputs.load_inputs(*cl, cfg.cores);
            return cl;
        };
        std::optional<cluster::CleanRun> memo;
        std::vector<cluster::Cluster::Snapshot> top(kBlocks);
        Cycle length = 0;
        if (tops) {
            length = stream.capture_stream(cfg, memo).total_cycles;
            ASSERT_EQ(memo->final_rung(), kBlocks);
            stream.run_checkpointed(cfg, [&](cluster::Cluster& cl, unsigned block, unsigned) {
                cl.save(top[block]); // right after the checkpoint, a no-op on clean state
            });
        } else {
            length = fresh()->run();
            const auto capture = fresh();
            if (schedule == Schedule::Even) {
                memo.emplace(*capture);
            } else {
                memo.emplace(*capture, length);
            }
            ASSERT_EQ(memo->final_rung(), cluster::CleanRun::kRungs);
        }
        EXPECT_EQ(memo->cycles(), length);
        const auto loaded = fresh();
        const auto clean = fresh();
        const auto probe = fresh();
        cluster::Cluster::Snapshot full;
        for (unsigned r = 0; r <= memo->final_rung(); ++r) {
            SCOPED_TRACE(r);
            if (r < memo->final_rung()) {
                clean->run(memo->rung_cycle(r));
            } else {
                clean->run();
            }
            ASSERT_EQ(clean->stats().cycles, memo->rung_cycle(r));
            if (!tops && r < cluster::CleanRun::kRungs) {
                EXPECT_EQ(memo->rung_cycle(r), r * (length / cluster::CleanRun::kRungs));
            }
            clean->save(full);
            const cluster::Cluster::Snapshot& mat = memo->materialize(*loaded, r);
            EXPECT_TRUE(clean->state_equals(mat));
            EXPECT_TRUE(mat.saved_stats() == full.saved_stats());
            probe->restore(mat);
            EXPECT_TRUE(probe->state_equals(full));
            EXPECT_TRUE(probe->stats() == clean->stats());
            if (tops && r < kBlocks) {
                EXPECT_TRUE(probe->state_equals(top[r]));
                EXPECT_TRUE(mat.saved_stats() == top[r].saved_stats());
            }
        }
        // A ladder holds a small fraction of one full DM image per rung.
        EXPECT_LT(memo->resident_bytes(), 200'000u);
    }
}

} // namespace
} // namespace ulpmc::fault
