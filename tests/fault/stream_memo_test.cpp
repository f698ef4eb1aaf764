// Differential test of the checkpointed stream's clean-run memo (a
// cluster::CleanRun with one rung per block top, DESIGN.md §11): the
// memoized run_checkpointed restores the first perturbed block's rung,
// and after the last perturbed block it rejoins the clean stream at a
// block top and credits the tail. Injection by injection, that must give
// every ResilientOutcome field the plain run_checkpointed gives, except
// memoized_cycles, which must be the restored rung's cycle plus the
// credited tail (final minus the rejoin rung). Covered under no register
// protection, parity and TMR, with strikes in every block of a 4-block
// stream and persistent strikes that re-hit every later attempt.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "app/streaming.hpp"
#include "cluster/clean_run.hpp"
#include "cluster/config.hpp"
#include "fault/fault.hpp"

namespace ulpmc::fault {
namespace {

using app::StreamingBenchmark;
using Outcome = StreamingBenchmark::ResilientOutcome;

constexpr unsigned kBlocks = 4;

cluster::ClusterConfig memo_config(const StreamingBenchmark& s, core::RegProtection prot) {
    cluster::ClusterConfig c =
        cluster::make_config(cluster::ArchKind::UlpmcBank, s.base().layout().dm_layout());
    c.ecc_enabled = true;
    c.reg_protection = prot;
    c.watchdog_cycles = cluster::kWatchdogCycles;
    c.engine = cluster::SimEngine::Batched;
    return c;
}

/// Every field but memoized_cycles.
void expect_same(const Outcome& a, const Outcome& b, const std::string& ctx) {
    EXPECT_EQ(a.blocks, b.blocks) << ctx;
    EXPECT_EQ(a.rollbacks, b.rollbacks) << ctx;
    EXPECT_EQ(a.leads_dropped, b.leads_dropped) << ctx;
    EXPECT_EQ(a.lead_alive, b.lead_alive) << ctx;
    EXPECT_EQ(a.all_surviving_verified, b.all_surviving_verified) << ctx;
    EXPECT_EQ(a.total_cycles, b.total_cycles) << ctx;
    EXPECT_EQ(a.clean_block_cycles, b.clean_block_cycles) << ctx;
    EXPECT_EQ(a.ecc_corrected, b.ecc_corrected) << ctx;
    EXPECT_EQ(a.watchdog_trips, b.watchdog_trips) << ctx;
    EXPECT_EQ(a.xbar_selfchecks, b.xbar_selfchecks) << ctx;
    EXPECT_EQ(a.im_scrub_corrected, b.im_scrub_corrected) << ctx;
    EXPECT_EQ(a.checkpoints, b.checkpoints) << ctx;
    EXPECT_EQ(a.reexec_cycles, b.reexec_cycles) << ctx;
    EXPECT_EQ(a.reg_parity_traps, b.reg_parity_traps) << ctx;
    EXPECT_EQ(a.reg_tmr_votes, b.reg_tmr_votes) << ctx;
    EXPECT_EQ(a.latent_reg_faults, b.latent_reg_faults) << ctx;
    EXPECT_EQ(a.ckpt_stored_bytes, b.ckpt_stored_bytes) << ctx;
    EXPECT_EQ(a.ckpt_full_bytes, b.ckpt_full_bytes) << ctx;
    EXPECT_EQ(a.ckpt_crc_failures, b.ckpt_crc_failures) << ctx;
    EXPECT_EQ(a.ckpt_fallbacks, b.ckpt_fallbacks) << ctx;
    EXPECT_EQ(a.storage_exhausted, b.storage_exhausted) << ctx;
}

/// How often each branch of the memoized monitor ran.
struct Branches {
    unsigned prefix = 0;     ///< restored a rung above rung 0
    unsigned rejoined = 0;   ///< credited a clean tail
    unsigned walked = 0;     ///< could have rejoined, matched no block top
    unsigned persistent = 0; ///< strikes that re-hit every later attempt
};

void check_protection(const StreamingBenchmark& s, core::RegProtection prot, std::uint64_t seed,
                      unsigned injections, Branches& seen) {
    const cluster::ClusterConfig cfg = memo_config(s, prot);
    const std::string pctx = core::reg_protection_name(prot);
    std::optional<cluster::CleanRun> clean;
    const Outcome ref = s.capture_stream(cfg, clean);
    ASSERT_TRUE(clean.has_value()) << pctx;
    ASSERT_EQ(clean->final_rung(), kBlocks) << pctx;
    expect_same(ref, s.run_checkpointed(cfg), pctx + " clean stream");
    EXPECT_EQ(clean->cycles(), ref.total_cycles) << pctx;

    FaultUniverse u;
    u.text_words = s.base().program().text.size();
    u.dm_words = s.base().layout().dm_layout().limit();
    u.cores = cfg.cores;
    u.window = ref.clean_block_cycles;
    for (unsigned i = 0; i < injections; ++i) {
        FaultInjector inj(mix_seed(seed, i));
        const FaultSpec f = inj.draw(u);
        const unsigned target = i % kBlocks;
        const bool memory = f.kind == FaultKind::ImBitFlip || f.kind == FaultKind::DmBitFlip;
        const bool persistent = memory && target == 2;
        seen.persistent += persistent ? 1 : 0;
        const std::string ctx = pctx + " injection " + std::to_string(i) + " block " +
                                std::to_string(target) + (persistent ? " persistent " : " ") +
                                f.describe();

        const auto perturbs = [&](unsigned block, unsigned attempt) {
            return (block == target && attempt == 0) || (persistent && block >= target);
        };
        const auto hook = [&](cluster::Cluster& cl, unsigned block, unsigned attempt) {
            if (!perturbs(block, attempt)) return;
            cl.run(cl.stats().cycles + f.cycle);
            FaultInjector::apply(cl, f);
        };
        const Outcome plain = s.run_checkpointed(cfg, hook);
        const Outcome memo =
            s.run_checkpointed(cfg, hook, perturbs, *clean, ref.clean_block_cycles);
        expect_same(memo, plain, ctx);
        EXPECT_EQ(plain.memoized_cycles, 0u) << ctx;

        // The restored rung is the first perturbed block's top; a credited
        // tail runs from a block top after the last perturbed block to the
        // final rung.
        unsigned start = 0;
        while (start + 1 < kBlocks && !perturbs(start, 0)) ++start;
        unsigned last = 0;
        for (unsigned b = 0; b < kBlocks; ++b)
            if (perturbs(b, 0) || perturbs(b, 1)) last = b;
        ASSERT_GE(memo.memoized_cycles, clean->rung_cycle(start)) << ctx;
        const Cycle tail = memo.memoized_cycles - clean->rung_cycle(start);
        if (start > 0) ++seen.prefix;
        if (tail == 0) {
            if (last + 1 < kBlocks) ++seen.walked;
            continue;
        }
        unsigned joined = 0;
        for (unsigned r = last + 1; r < kBlocks; ++r)
            if (tail == clean->cycles() - clean->rung_cycle(r)) joined = r;
        EXPECT_NE(joined, 0u) << ctx << ": credited tail " << tail
                              << " starts at no block top after the last perturbed block";
        ++seen.rejoined;
    }
}

TEST(StreamMemo, MemoizedMonitorMatchesThePlainOneUnderEveryProtection) {
    const StreamingBenchmark s({.use_barrier = true}, kBlocks);
    Branches seen;
    // One strike per block and protection keeps the test affordable under
    // the sanitizers; these seeds draw every branch below.
    check_protection(s, core::RegProtection::None, 41, kBlocks, seen);
    check_protection(s, core::RegProtection::Parity, 42, kBlocks, seen);
    check_protection(s, core::RegProtection::Tmr, 43, kBlocks, seen);
    EXPECT_GT(seen.prefix, 0u) << "no injection restored a rung above rung 0";
    EXPECT_GT(seen.rejoined, 0u) << "no injection rejoined the clean stream";
    EXPECT_GT(seen.walked, 0u) << "every injection that could rejoin did";
    EXPECT_GT(seen.persistent, 0u) << "no persistent strike was drawn";
}

} // namespace
} // namespace ulpmc::fault
