// Campaign-level engine differential (DESIGN.md §11): the batched engine
// only changes how much of each injection is simulated, never what it
// computes. Every one-shot and streaming campaign shape runs under Trace
// and Batched, on 1 and 3 pool threads, with 1 and 8 injections per pool
// task. Every InjectionRecord field except the batch_* counters must match
// the Trace oracle; the batch_* counters must not depend on the pool size
// or the batch width. The one-shot batch_* counters are also recomputed
// from standalone runs, independently of the campaign code.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/benchmark.hpp"
#include "app/streaming.hpp"
#include "cluster/cluster.hpp"
#include "cluster/config.hpp"
#include "fault/campaign.hpp"
#include "fault/fault.hpp"
#include "sweep/sweep.hpp"

namespace ulpmc::fault {
namespace {

enum class Shape { OneShot, OneShotCheckpoint, StreamResilient, StreamCheckpoint };

const char* shape_name(Shape s) {
    switch (s) {
    case Shape::OneShot: return "oneshot";
    case Shape::OneShotCheckpoint: return "oneshot+ckpt";
    case Shape::StreamResilient: return "stream";
    case Shape::StreamCheckpoint: return "stream+ckpt";
    }
    return "?";
}

void expect_same_outcomes(const InjectionRecord& a, const InjectionRecord& b,
                          const std::string& ctx) {
    EXPECT_EQ(a.fault.describe(), b.fault.describe()) << ctx;
    EXPECT_EQ(a.outcome, b.outcome) << ctx;
    EXPECT_EQ(a.trap, b.trap) << ctx;
    EXPECT_EQ(a.cycles, b.cycles) << ctx;
    EXPECT_EQ(a.ecc_corrected, b.ecc_corrected) << ctx;
    EXPECT_EQ(a.rollbacks, b.rollbacks) << ctx;
    EXPECT_EQ(a.checkpoints, b.checkpoints) << ctx;
    EXPECT_EQ(a.reexec_cycles, b.reexec_cycles) << ctx;
    EXPECT_EQ(a.strikes, b.strikes) << ctx;
}

void expect_same_batch_counters(const InjectionRecord& a, const InjectionRecord& b,
                                const std::string& ctx) {
    EXPECT_EQ(a.batch_lockstep_cycles, b.batch_lockstep_cycles) << ctx;
    EXPECT_EQ(a.batch_lane_peels, b.batch_lane_peels) << ctx;
    EXPECT_EQ(a.batch_peel_reasons, b.batch_peel_reasons) << ctx;
}

TEST(CampaignEngines, BatchedMatchesTraceAcrossPoolsAndBatchWidths) {
    const app::EcgBenchmark bench{};
    const app::StreamingBenchmark stream({.use_barrier = true}, 2);
    sweep::SweepRunner serial(1), parallel(3);

    const auto run = [&](Shape shape, cluster::SimEngine engine, sweep::SweepRunner& pool,
                         unsigned batch) {
        const bool oneshot = shape == Shape::OneShot || shape == Shape::OneShotCheckpoint;
        CampaignConfig cfg;
        cfg.seed = 7;
        // One-shot: not a multiple of 8, so the last pool task is partial.
        cfg.injections = oneshot ? 10 : 6;
        cfg.ecc = true;
        cfg.engine = engine;
        cfg.batch = batch;
        cfg.checkpoint = shape == Shape::OneShotCheckpoint || shape == Shape::StreamCheckpoint;
        if (cfg.checkpoint) cfg.reg_protection = core::RegProtection::Parity;
        if (oneshot) return run_campaign(bench, cluster::ArchKind::UlpmcBank, cfg, pool);
        return run_streaming_campaign(stream, cluster::ArchKind::UlpmcBank, cfg, pool);
    };

    for (const Shape shape : {Shape::OneShot, Shape::OneShotCheckpoint, Shape::StreamResilient,
                              Shape::StreamCheckpoint}) {
        // The first combination (trace, 1 thread, batch 1) is the oracle.
        CampaignResult oracle, first_batched;
        bool have_batched = false;
        for (const auto engine : {cluster::SimEngine::Trace, cluster::SimEngine::Batched}) {
            for (sweep::SweepRunner* pool : {&serial, &parallel}) {
                for (const unsigned batch : {1u, 8u}) {
                    const std::string ctx = std::string(shape_name(shape)) + "/" +
                                            cluster::engine_name(engine) + "/t" +
                                            std::to_string(pool->threads()) + "/b" +
                                            std::to_string(batch);
                    const CampaignResult r = run(shape, engine, *pool, batch);
                    if (oracle.runs.empty()) {
                        oracle = r;
                        continue;
                    }
                    ASSERT_EQ(r.runs.size(), oracle.runs.size()) << ctx;
                    EXPECT_EQ(r.clean_cycles, oracle.clean_cycles) << ctx;
                    EXPECT_EQ(r.energy_per_op, oracle.energy_per_op) << ctx;
                    EXPECT_EQ(r.counts, oracle.counts) << ctx;
                    for (std::size_t i = 0; i < r.runs.size(); ++i) {
                        const std::string ictx = ctx + " injection " + std::to_string(i);
                        expect_same_outcomes(r.runs[i], oracle.runs[i], ictx);
                        if (engine == cluster::SimEngine::Trace) {
                            expect_same_batch_counters(r.runs[i], InjectionRecord{}, ictx);
                        } else if (have_batched) {
                            expect_same_batch_counters(r.runs[i], first_batched.runs[i], ictx);
                        }
                    }
                    if (engine == cluster::SimEngine::Batched && !have_batched) {
                        first_batched = r;
                        have_batched = true;
                    }
                }
            }
        }
        // The memoized paths must actually have run: every shape but the
        // checkpointed one-shot (which never rejoins) takes cycles from
        // the clean run.
        if (shape != Shape::OneShotCheckpoint) {
            EXPECT_GT(first_batched.batch_lockstep_cycles, 0u) << shape_name(shape);
        }
    }
}

TEST(CampaignEngines, OneShotLockstepCyclesAreTheRungPrefixPlusTheCreditedTail) {
    const app::EcgBenchmark bench{};
    sweep::SweepRunner pool(1);
    CampaignConfig cfg;
    cfg.seed = 11;
    cfg.injections = 24;
    cfg.ecc = true;
    cfg.engine = cluster::SimEngine::Batched;
    const CampaignResult res = run_campaign(bench, cluster::ArchKind::UlpmcBank, cfg, pool);

    // The campaign's cluster, built here from the same settings.
    auto ccfg = cluster::make_config(cluster::ArchKind::UlpmcBank, bench.layout().dm_layout());
    ccfg.barrier_enabled = bench.layout().use_barrier;
    ccfg.ecc_enabled = cfg.ecc;
    ccfg.watchdog_cycles = cluster::kWatchdogCycles;
    const auto fresh = [&] {
        auto cl = std::make_unique<cluster::Cluster>(ccfg, bench.image());
        bench.load_inputs(*cl, ccfg.cores);
        return cl;
    };

    // Restore rungs at r * floor(clean / 12), then the final state.
    const Cycle clean_cycles = fresh()->run();
    ASSERT_EQ(clean_cycles, res.clean_cycles);
    constexpr unsigned kRungs = 12;
    std::vector<Cycle> at;
    for (unsigned r = 0; r < kRungs; ++r) at.push_back(r * (clean_cycles / kRungs));
    at.push_back(clean_cycles);
    std::vector<cluster::Cluster::Snapshot> rung(at.size());
    {
        const auto cl = fresh();
        for (std::size_t r = 0; r < at.size(); ++r) {
            cl->run(at[r]);
            cl->save(rung[r]);
        }
    }
    const Cycle bound = cluster::hang_bound(ccfg, clean_cycles);

    unsigned rejoined = 0, walked = 0;
    for (std::size_t i = 0; i < res.runs.size(); ++i) {
        const InjectionRecord& rec = res.runs[i];
        const std::string ctx = "injection " + std::to_string(i) + " " + rec.fault.describe();
        unsigned below = 0;
        while (below + 1 < kRungs && at[below + 1] <= rec.fault.cycle) ++below;

        // Standalone struck run from cycle 0, compared with each later rung.
        const auto cl = fresh();
        cl->run(rec.fault.cycle);
        FaultInjector::apply(*cl, rec.fault);
        std::optional<std::size_t> joined;
        for (std::size_t r = below + 1; r < at.size() && !joined; ++r) {
            cl->run(at[r]);
            if (cl->state_equals(rung[r])) joined = r;
        }

        std::array<std::uint64_t, cluster::kPeelReasonCount> reasons{};
        const bool xbar = rec.fault.kind == FaultKind::IXbarGlitch ||
                          rec.fault.kind == FaultKind::DXbarGlitch ||
                          rec.fault.kind == FaultKind::IXbarStateUpset ||
                          rec.fault.kind == FaultKind::DXbarStateUpset;
        ++reasons[static_cast<unsigned>(xbar ? cluster::PeelReason::CrossbarUpset
                                             : cluster::PeelReason::FaultStrike)];
        std::uint64_t lockstep = at[below];
        if (joined) {
            ++rejoined;
            lockstep += clean_cycles - at[*joined];
            EXPECT_EQ(rec.cycles, clean_cycles) << ctx;
        } else {
            ++walked;
            EXPECT_EQ(rec.cycles, cl->run(bound)) << ctx;
            ++reasons[static_cast<unsigned>(cl->stats().watchdog_trips > 0
                                                ? cluster::PeelReason::Watchdog
                                                : cluster::PeelReason::MemoBail)];
        }
        EXPECT_EQ(rec.batch_lockstep_cycles, lockstep) << ctx;
        EXPECT_EQ(rec.batch_lane_peels, 1u) << ctx;
        EXPECT_EQ(rec.batch_peel_reasons, reasons) << ctx;
    }
    // Both ends of the walk are exercised.
    EXPECT_GT(rejoined, 0u);
    EXPECT_GT(walked, 0u);
}

} // namespace
} // namespace ulpmc::fault
