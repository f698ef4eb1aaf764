// Architectural-state protection tests (DESIGN.md §9): register parity
// traps on the first read of a struck register, TMR out-votes the same
// strike silently, never-read upsets are classified latent instead of
// masked, adjacent-bit bursts defeat SEC-DED but not checkpoint replay,
// the protected streaming campaign reaches zero SDC, and the
// classification tables are identical across all three engine tiers.
#include <gtest/gtest.h>

#include <bit>

#include "app/benchmark.hpp"
#include "app/streaming.hpp"
#include "cluster/cluster.hpp"
#include "fault/campaign.hpp"
#include "fault/fault.hpp"
#include "isa/assembler.hpp"
#include "power/calibration.hpp"
#include "power/power_model.hpp"
#include "sweep/sweep.hpp"

namespace ulpmc::fault {
namespace {

constexpr mmu::DmLayout kLayout{.shared_words = 64, .private_words_per_core = 256};

// Countdown that only touches r2, then reads r5 exactly once: a strike
// on r5 mid-loop stays latched until the read after the loop.
const char* kDelayedRead = R"(
    movi r5, 3
    movi r2, 20
loop:
    sub  r2, r2, #1
    bra  ne, loop
    add  r6, r5, #1
    hlt
)";

cluster::ClusterConfig protected_config(core::RegProtection prot,
                                        cluster::SimEngine engine) {
    auto cfg = cluster::make_config(cluster::ArchKind::UlpmcBank, kLayout);
    cfg.cores = 1;
    cfg.reg_protection = prot;
    cfg.engine = engine;
    return cfg;
}

TEST(RegProtection, ParityTrapsOnFirstReadOfStruckRegister) {
    const auto prog = isa::assemble(kDelayedRead);
    for (const auto engine : {cluster::SimEngine::Reference, cluster::SimEngine::Fast,
                              cluster::SimEngine::Trace}) {
        cluster::Cluster cl(protected_config(core::RegProtection::Parity, engine), prog);
        cl.run(10); // r5 already holds 3, countdown in flight
        cl.inject_reg_fault(0, 5, 0x10);
        cl.run(10'000);
        EXPECT_EQ(cl.core_trap(0), core::Trap::RegParityFault) << cluster::engine_name(engine);
        EXPECT_EQ(cl.stats().reg_parity_traps, 1u) << cluster::engine_name(engine);
    }
}

TEST(RegProtection, TmrOutvotesStruckRegisterSilently) {
    const auto prog = isa::assemble(kDelayedRead);
    for (const auto engine : {cluster::SimEngine::Reference, cluster::SimEngine::Fast,
                              cluster::SimEngine::Trace}) {
        cluster::Cluster cl(protected_config(core::RegProtection::Tmr, engine), prog);
        cl.run(10);
        cl.inject_reg_fault(0, 5, 0x10);
        cl.run(10'000);
        EXPECT_EQ(cl.core_trap(0), core::Trap::None) << cluster::engine_name(engine);
        EXPECT_TRUE(cl.core_halted(0)) << cluster::engine_name(engine);
        EXPECT_EQ(cl.core_state(0).regs[6], 4u) << "vote must yield the clean value";
        EXPECT_EQ(cl.stats().reg_tmr_votes, 1u) << cluster::engine_name(engine);
    }
}

TEST(RegProtection, UnprotectedStrikeCorruptsSilently) {
    // The baseline the protection modes are measured against: with no
    // protection the flipped value flows straight into the dataflow.
    const auto prog = isa::assemble(kDelayedRead);
    cluster::Cluster cl(
        protected_config(core::RegProtection::None, cluster::SimEngine::Trace), prog);
    cl.run(10);
    cl.inject_reg_fault(0, 5, 0x10);
    cl.run(10'000);
    EXPECT_EQ(cl.core_trap(0), core::Trap::None);
    EXPECT_EQ(cl.core_state(0).regs[6], (3u ^ 0x10u) + 1u) << "silent data corruption";
}

TEST(RegProtection, NeverReadUpsetStaysLatent) {
    // A strike on a register the program never reads again must not trap,
    // must not corrupt, and must stay visible as a pending (latent) fault.
    const auto prog = isa::assemble(kDelayedRead);
    cluster::Cluster cl(
        protected_config(core::RegProtection::Parity, cluster::SimEngine::Trace), prog);
    cl.run(10);
    cl.inject_reg_fault(0, 9, 0x10); // r9: dead state
    cl.run(10'000);
    EXPECT_EQ(cl.core_trap(0), core::Trap::None);
    EXPECT_TRUE(cl.core_halted(0));
    EXPECT_EQ(cl.pending_reg_faults(), 1u);
    EXPECT_TRUE(cl.reg_parity_pending());
    EXPECT_EQ(cl.stats().reg_parity_traps, 0u);
}

TEST(RegProtection, ScrubClearsLatentUpsets) {
    const auto prog = isa::assemble(kDelayedRead);
    cluster::Cluster cl(
        protected_config(core::RegProtection::Tmr, cluster::SimEngine::Trace), prog);
    cl.run(10);
    cl.inject_reg_fault(0, 9, 0x10);
    cl.run(10'000);
    ASSERT_EQ(cl.pending_reg_faults(), 1u);
    cl.scrub_registers();
    EXPECT_EQ(cl.pending_reg_faults(), 0u);
    EXPECT_EQ(cl.stats().reg_tmr_votes, 1u) << "scrub repairs via the voter";
}

TEST(MultiBit, AdjacentTripleBurstDefeatsSecDed) {
    // SEC-DED(31,26) mis-decodes three adjacent flips as a single-bit
    // error at an aliased position: no trap, wrong data — exactly the
    // silent-corruption channel the checkpoint layer exists to close.
    const auto prog = isa::assemble(R"(
        movi r1, 70
        movi r2, 30
    loop:
        sub  r2, r2, #1
        bra  ne, loop
        mov  r3, @r1
        hlt
    )");
    auto cfg = cluster::make_config(cluster::ArchKind::UlpmcBank, kLayout);
    cfg.cores = 1;
    cfg.ecc_enabled = true;

    cluster::Cluster burst(cfg, prog);
    burst.dm_poke(0, 70, 5);
    burst.run(10);
    burst.inject_dm_fault(0, 70, 0b111 << 4); // adjacent triple: aliases
    burst.run(10'000);
    EXPECT_EQ(burst.core_trap(0), core::Trap::None) << "mis-correction is silent";
    EXPECT_TRUE(burst.core_halted(0));
    EXPECT_NE(burst.core_state(0).regs[3], 5u) << "the read returns corrupt data";

    cluster::Cluster pair(cfg, prog);
    pair.dm_poke(0, 70, 5);
    pair.run(10);
    pair.inject_dm_fault(0, 70, 0b11 << 4); // double-bit: detected
    pair.run(10'000);
    EXPECT_EQ(pair.core_trap(0), core::Trap::EccFault) << "SEC-DED still detects pairs";
}

TEST(MultiBit, BurstDrawsAreAdjacentAndLegacyCompatible) {
    // burst_len = 1 must reproduce the exact PR2-era draw sequence (the
    // extra burst-position draw only happens for real bursts), and burst
    // masks must be runs of exactly burst_len adjacent bits.
    FaultUniverse legacy;
    legacy.text_words = 200;
    legacy.dm_words = 1000;
    legacy.cores = 8;
    legacy.window = 50'000;

    auto single = legacy;
    single.burst_len = 1;
    single.reg_burst = 1;
    FaultInjector a(123), b(123);
    for (int i = 0; i < 64; ++i) EXPECT_EQ(a.draw(legacy).describe(), b.draw(single).describe());

    auto burst = legacy;
    burst.burst_len = 3;
    burst.reg_burst = 2;
    FaultInjector inj(99);
    for (int i = 0; i < 64; ++i) {
        const auto f = inj.draw(burst);
        if (f.kind == FaultKind::DmBitFlip || f.kind == FaultKind::ImBitFlip) {
            ASSERT_NE(f.flip_mask, 0u);
            const auto m = f.flip_mask >> std::countr_zero(f.flip_mask);
            EXPECT_EQ(m, 0b111u) << "mask must be 3 adjacent bits, got " << f.flip_mask;
        } else if (f.kind == FaultKind::RegUpset) {
            EXPECT_EQ(f.burst, 2u);
        }
    }
}

TEST(Campaign, LatentOutcomeIsSeparatedFromMasked) {
    // Register upsets that never reach the dataflow must be reported as
    // latent, not inflate the "masked by luck" bucket.
    const app::EcgBenchmark bench{};
    CampaignConfig cfg;
    cfg.seed = 18;
    cfg.injections = 32;
    cfg.reg_burst = 2; // spatial pairs double the dead-register hit rate
    cfg.kinds = fault_bit(FaultKind::RegUpset);
    sweep::SweepRunner pool;
    const auto r = run_campaign(bench, cluster::ArchKind::UlpmcBank, cfg, pool);
    EXPECT_GE(r.count(Outcome::Latent), 1u) << "dead-state strikes exist in any real window";
    for (const auto& rec : r.runs) {
        // Latent is only reachable through the verified branch, and only
        // register strikes can latch without being consumed.
        if (rec.outcome == Outcome::Latent) EXPECT_EQ(rec.fault.kind, FaultKind::RegUpset);
    }
}

TEST(Campaign, BurstLadderMatchesProtectionTiers) {
    // The MBU ladder from EXPERIMENTS.md §9 in miniature: bursts get past
    // SEC-DED, parity turns the register share into fail-stops, and the
    // checkpoint tier turns those fail-stops into recoveries.
    const app::EcgBenchmark bench{};
    CampaignConfig cfg;
    cfg.seed = 13;
    cfg.injections = 32;
    cfg.ecc = true;
    cfg.burst_len = 3;
    cfg.reg_burst = 2;
    cfg.kinds = fault_bit(FaultKind::DmBitFlip) | fault_bit(FaultKind::RegUpset);
    sweep::SweepRunner pool;

    const auto ecc_only = run_campaign(bench, cluster::ArchKind::UlpmcBank, cfg, pool);
    cfg.reg_protection = core::RegProtection::Parity;
    const auto parity = run_campaign(bench, cluster::ArchKind::UlpmcBank, cfg, pool);
    cfg.checkpoint = true;
    const auto ckpt = run_campaign(bench, cluster::ArchKind::UlpmcBank, cfg, pool);

    EXPECT_GE(ecc_only.count(Outcome::Sdc), 1u) << "bursts must defeat SEC-DED";
    EXPECT_LE(parity.count(Outcome::Sdc), ecc_only.count(Outcome::Sdc));
    EXPECT_GE(parity.count(Outcome::Trapped), 1u) << "parity converts SDC to fail-stop";
    EXPECT_GE(ckpt.count(Outcome::RolledBack), 1u) << "checkpoint converts traps to recovery";
    EXPECT_LE(ckpt.count(Outcome::Sdc), parity.count(Outcome::Sdc));
    EXPECT_GT(ckpt.coverage(), ecc_only.coverage());
}

TEST(Campaign, ClassificationIsIdenticalAcrossEngineTiers) {
    // The differential acceptance check: the same seeded burst campaign
    // must produce bit-identical per-injection outcomes on all tiers.
    const app::EcgBenchmark bench{};
    CampaignConfig cfg;
    cfg.seed = 17;
    cfg.injections = 16;
    cfg.ecc = true;
    cfg.burst_len = 3;
    cfg.reg_burst = 2;
    cfg.reg_protection = core::RegProtection::Parity;
    cfg.checkpoint = true;
    sweep::SweepRunner pool;

    cfg.engine = cluster::SimEngine::Reference;
    const auto ref = run_campaign(bench, cluster::ArchKind::UlpmcBank, cfg, pool);
    cfg.engine = cluster::SimEngine::Fast;
    const auto fast = run_campaign(bench, cluster::ArchKind::UlpmcBank, cfg, pool);
    cfg.engine = cluster::SimEngine::Trace;
    const auto trace = run_campaign(bench, cluster::ArchKind::UlpmcBank, cfg, pool);

    ASSERT_EQ(ref.runs.size(), fast.runs.size());
    ASSERT_EQ(ref.runs.size(), trace.runs.size());
    for (std::size_t i = 0; i < ref.runs.size(); ++i) {
        EXPECT_EQ(ref.runs[i].outcome, fast.runs[i].outcome) << i;
        EXPECT_EQ(ref.runs[i].outcome, trace.runs[i].outcome) << i;
        EXPECT_EQ(ref.runs[i].cycles, fast.runs[i].cycles) << i;
        EXPECT_EQ(ref.runs[i].cycles, trace.runs[i].cycles) << i;
    }
    EXPECT_EQ(ref.counts, fast.counts);
    EXPECT_EQ(ref.counts, trace.counts);
}

TEST(StreamingCampaign, ProtectedBurstCampaignHasZeroSdc) {
    // The headline acceptance criterion: ECC + register parity +
    // generalized checkpointing drives the MBU/burst campaign to zero
    // silent data corruptions on the streaming workload.
    const app::StreamingBenchmark s({.use_barrier = true}, 2);
    CampaignConfig cfg;
    cfg.seed = 42;
    cfg.injections = 10;
    cfg.ecc = true;
    cfg.burst_len = 3;
    cfg.reg_burst = 2;
    cfg.reg_protection = core::RegProtection::Parity;
    cfg.checkpoint = true;
    sweep::SweepRunner pool;
    const auto r = run_streaming_campaign(s, cluster::ArchKind::UlpmcBank, cfg, pool);
    EXPECT_EQ(r.count(Outcome::Sdc), 0u);
    EXPECT_EQ(r.runs.size(), 10u);
    EXPECT_GT(r.checkpoints, 0u) << "every block boundary is a recovery point";
}

TEST(PowerModel, ProtectionAddersMatchCalibration) {
    // The priced layer: parity and TMR are per-op core adders, checkpoint
    // traffic is a DM adder proportional to words saved per op.
    const power::PowerModel model(cluster::ArchKind::UlpmcBank);
    power::EventRates r;
    r.im_bank_accesses = 0.2;
    r.ixbar_requests = 1.0;
    r.dm_bank_accesses = 0.4;
    r.dxbar_requests = 0.4;
    r.ops_per_cycle = 7.0;

    const auto none = model.energy_per_op(r);
    r.reg_protection = core::RegProtection::Parity;
    const auto parity = model.energy_per_op(r);
    EXPECT_DOUBLE_EQ(parity.cores, none.cores + power::cal::kRegParityEnergyPerOp);
    EXPECT_DOUBLE_EQ(parity.dm, none.dm);

    r.reg_protection = core::RegProtection::Tmr;
    const auto tmr = model.energy_per_op(r);
    EXPECT_DOUBLE_EQ(tmr.cores, none.cores + power::cal::kRegTmrEnergyPerOp);
    EXPECT_GT(power::cal::kRegTmrEnergyPerOp, power::cal::kRegParityEnergyPerOp)
        << "TMR must cost more than parity: that is the §9 trade-off";

    r.reg_protection = core::RegProtection::None;
    r.checkpoint_words_per_op = 0.25;
    const auto ckpt = model.energy_per_op(r);
    EXPECT_DOUBLE_EQ(ckpt.dm, none.dm + 0.25 * power::cal::kCheckpointWordEnergy);
    EXPECT_DOUBLE_EQ(ckpt.cores, none.cores);
}

} // namespace
} // namespace ulpmc::fault
