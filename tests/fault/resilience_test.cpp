// Resilient streaming monitor tests (DESIGN.md §9): block-boundary
// checkpoint/rollback heals transient upsets, persistent upsets degrade
// to drop-one-lead with every surviving lead still bit-exact (acceptance
// behavior b), and SEC-DED heals in-flight without costing a rollback.
#include <gtest/gtest.h>

#include "app/streaming.hpp"
#include "fault/campaign.hpp"
#include "sweep/sweep.hpp"

namespace ulpmc::app {
namespace {

cluster::ClusterConfig stream_config(const StreamingBenchmark& s) {
    auto cfg = cluster::make_config(cluster::ArchKind::UlpmcBank, s.base().layout().dm_layout());
    cfg.watchdog_cycles = cluster::kWatchdogCycles;
    return cfg;
}

TEST(ResilientStreaming, FaultFreeRunNeverRollsBack) {
    const StreamingBenchmark s({.use_barrier = true}, 2);
    const auto out = s.run_resilient(stream_config(s));
    EXPECT_EQ(out.blocks, 2u);
    EXPECT_EQ(out.rollbacks, 0u);
    EXPECT_EQ(out.leads_dropped, 0u);
    EXPECT_TRUE(out.all_surviving_verified);
    EXPECT_EQ(out.total_cycles, 2 * out.clean_block_cycles);
}

TEST(ResilientStreaming, TransientUpsetRollsBackOnceAndVerifies) {
    const StreamingBenchmark s({.use_barrier = true}, 2);
    const Addr strike = static_cast<Addr>(s.base().layout().x_base() + 40);
    unsigned hook_calls = 0;
    const auto out = s.run_resilient(
        stream_config(s), [&](cluster::Cluster& cl, unsigned block, unsigned attempt) {
            ++hook_calls;
            if (block == 0 && attempt == 0) {
                cl.run(300);
                cl.inject_dm_fault(3, strike, 0x2000); // lead 3's sample buffer
            }
        });
    EXPECT_EQ(out.blocks, 2u);
    EXPECT_EQ(out.rollbacks, 1u) << "block 0 re-executes from its checkpoint";
    EXPECT_EQ(out.leads_dropped, 0u) << "the retry is clean: no degradation";
    EXPECT_TRUE(out.all_surviving_verified);
    EXPECT_EQ(hook_calls, 3u) << "block 0 twice, block 1 once";
}

TEST(ResilientStreaming, PersistentUpsetDropsOnlyTheBrokenLead) {
    // A latched fault re-hits lead 5 on every attempt of block 1: rollback
    // cannot heal it, so the lead is dropped while the other seven keep
    // streaming verified (acceptance behavior b).
    const StreamingBenchmark s({.use_barrier = true}, 3);
    const Addr strike = static_cast<Addr>(s.base().layout().x_base() + 11);
    const auto out = s.run_resilient(
        stream_config(s), [&](cluster::Cluster& cl, unsigned block, unsigned) {
            if (block >= 1) {
                cl.run(300);
                cl.inject_dm_fault(5, strike, 0x4000);
            }
        });
    EXPECT_EQ(out.blocks, 3u);
    EXPECT_EQ(out.rollbacks, 1u) << "block 1's first failure tries a rollback";
    EXPECT_EQ(out.leads_dropped, 1u);
    ASSERT_EQ(out.lead_alive.size(), 8u);
    for (unsigned p = 0; p < 8; ++p) EXPECT_EQ(out.lead_alive[p], p == 5 ? 0 : 1) << p;
    EXPECT_TRUE(out.all_surviving_verified);
}

TEST(ResilientStreaming, EccHealsUpsetWithoutRollback) {
    const StreamingBenchmark s({.use_barrier = true}, 2);
    auto cfg = stream_config(s);
    cfg.ecc_enabled = true;
    const Addr strike = static_cast<Addr>(s.base().layout().x_base() + 40);
    const auto out =
        s.run_resilient(cfg, [&](cluster::Cluster& cl, unsigned block, unsigned attempt) {
            if (block == 0 && attempt == 0) {
                cl.run(300);
                cl.inject_dm_fault(3, strike, 0x2000);
            }
        });
    EXPECT_EQ(out.rollbacks, 0u) << "SEC-DED corrects in flight: no rollback needed";
    EXPECT_EQ(out.leads_dropped, 0u);
    EXPECT_GE(out.ecc_corrected, 1u);
    EXPECT_TRUE(out.all_surviving_verified);
}

TEST(CheckpointedStreaming, FaultFreeRunTakesOneCheckpointPerBlock) {
    // The generalized service replaces per-block cluster rebuilds with one
    // continuous cluster: cross-block state survives, and the only cost in
    // a clean run is the checkpoints themselves — one per block boundary
    // plus the final commit point after the drain.
    const StreamingBenchmark s({.use_barrier = true}, 3);
    const auto out = s.run_checkpointed(stream_config(s));
    EXPECT_EQ(out.blocks, 3u);
    EXPECT_EQ(out.checkpoints, 4u);
    EXPECT_EQ(out.rollbacks, 0u);
    EXPECT_EQ(out.reexec_cycles, 0u);
    EXPECT_EQ(out.leads_dropped, 0u);
    EXPECT_TRUE(out.all_surviving_verified);
}

TEST(CheckpointedStreaming, TransientUpsetReplaysFromCheckpoint) {
    const StreamingBenchmark s({.use_barrier = true}, 2);
    const Addr strike = static_cast<Addr>(s.base().layout().x_base() + 40);
    const auto out = s.run_checkpointed(
        stream_config(s), [&](cluster::Cluster& cl, unsigned block, unsigned attempt) {
            if (block == 0 && attempt == 0) {
                cl.run(cl.stats().cycles + 300);
                cl.inject_dm_fault(3, strike, 0x2000);
            }
        });
    EXPECT_EQ(out.blocks, 2u);
    EXPECT_EQ(out.rollbacks, 1u) << "block 0 replays from its checkpoint";
    EXPECT_GT(out.reexec_cycles, 0u) << "the replay is priced, not free";
    EXPECT_EQ(out.leads_dropped, 0u);
    EXPECT_TRUE(out.all_surviving_verified);
}

TEST(CheckpointedStreaming, PersistentUpsetStillDegradesToDropOneLead) {
    const StreamingBenchmark s({.use_barrier = true}, 2);
    const Addr strike = static_cast<Addr>(s.base().layout().x_base() + 11);
    const auto out = s.run_checkpointed(
        stream_config(s), [&](cluster::Cluster& cl, unsigned block, unsigned) {
            if (block >= 1) {
                cl.run(cl.stats().cycles + 300);
                cl.inject_dm_fault(5, strike, 0x4000);
            }
        });
    EXPECT_EQ(out.rollbacks, 1u);
    EXPECT_EQ(out.leads_dropped, 1u);
    ASSERT_EQ(out.lead_alive.size(), 8u);
    for (unsigned p = 0; p < 8; ++p) EXPECT_EQ(out.lead_alive[p], p == 5 ? 0 : 1) << p;
    EXPECT_TRUE(out.all_surviving_verified);
}

TEST(ResilientStreaming, StreamingCampaignIsReproducible) {
    const StreamingBenchmark s({.use_barrier = true}, 2);
    fault::CampaignConfig cfg;
    cfg.seed = 5;
    cfg.injections = 8;
    sweep::SweepRunner serial(1), parallel(3);
    const auto a = fault::run_streaming_campaign(s, cluster::ArchKind::UlpmcBank, cfg, serial);
    const auto b = fault::run_streaming_campaign(s, cluster::ArchKind::UlpmcBank, cfg, parallel);
    ASSERT_EQ(a.runs.size(), b.runs.size());
    for (std::size_t i = 0; i < a.runs.size(); ++i) {
        EXPECT_EQ(a.runs[i].fault.describe(), b.runs[i].fault.describe()) << i;
        EXPECT_EQ(a.runs[i].outcome, b.runs[i].outcome) << i;
    }
    EXPECT_EQ(a.counts, b.counts);
}

} // namespace
} // namespace ulpmc::app
