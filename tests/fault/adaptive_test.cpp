// Adaptive-resilience tests (DESIGN.md §9): the self-tuning checkpoint
// controller recovers every strike of the two-phase campaign while
// spending less overhead energy than mis-tuned fixed intervals, its
// classification is bit-identical across the three engine tiers, arbiter
// sequential-state upsets are a real silent-corruption channel that the
// self-checking arbiter closes, the idle-cycle IM scrub walker drains the
// latent-upset population that only it can reach, and both new protection
// layers are priced in the calibrated energy model.
#include <gtest/gtest.h>

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

/// The bench's quiet-lead/burst-tail environment (ext_fault_adaptive) in
/// miniature: strikes on parity-protected register files, every consumed
/// one a detected trap the checkpoint layer replays.
CampaignConfig two_phase_config() {
    CampaignConfig cfg;
    cfg.seed = 42;
    cfg.injections = 3;
    cfg.ecc = true;
    cfg.reg_protection = core::RegProtection::Parity;
    cfg.kinds = fault_bit(FaultKind::RegUpset);
    cfg.checkpoint = true;
    cfg.lambda_low = 1e-5;
    cfg.lambda_high = 1e-3;
    return cfg;
}

TEST(AdaptiveCheckpoint, BeatsMisTunedFixedIntervalsAtZeroSdc) {
    // The tentpole acceptance criterion (the full ladder is
    // bench/ext_fault_adaptive): on an environment whose rate spans two
    // decades, the self-tuning controller must recover every strike AND
    // spend less checkpoint+re-execution energy than a fixed interval
    // tuned for either phase alone.
    const app::StreamingBenchmark s({.use_barrier = true}, 3);
    sweep::SweepRunner pool;
    auto cfg = two_phase_config();

    cfg.checkpoint_interval = 200; // burst-tuned: save spam over the quiet lead
    const auto fixed_short = run_adaptive_campaign(s, cluster::ArchKind::UlpmcBank, cfg, pool);
    cfg.checkpoint_interval = 6'000; // quiet-tuned: long replays under the burst
    const auto fixed_long = run_adaptive_campaign(s, cluster::ArchKind::UlpmcBank, cfg, pool);
    cfg.adaptive_checkpoint = true;
    cfg.checkpoint_interval = 2'000;
    const auto adaptive = run_adaptive_campaign(s, cluster::ArchKind::UlpmcBank, cfg, pool);

    EXPECT_EQ(adaptive.count(Outcome::Sdc), 0u);
    EXPECT_DOUBLE_EQ(adaptive.coverage(), 1.0);
    EXPECT_GT(adaptive.strikes, 0u);
    EXPECT_GT(adaptive.interval_updates, 0u) << "the controller must actually re-tune";
    EXPECT_GT(adaptive.overhead_energy, 0.0);
    EXPECT_LT(adaptive.overhead_energy, fixed_short.overhead_energy);
    EXPECT_LT(adaptive.overhead_energy, fixed_long.overhead_energy);
}

TEST(AdaptiveCheckpoint, CampaignIsIdenticalAcrossEngineTiers) {
    // The adaptive controller closes the loop THROUGH the simulator
    // (observed events -> interval -> execution schedule), so any tier
    // divergence would compound; per-run outcome, cycles, strike count
    // and controller telemetry must stay bit-identical.
    const app::StreamingBenchmark s({.use_barrier = true}, 2);
    sweep::SweepRunner pool;
    auto cfg = two_phase_config();
    cfg.injections = 2;
    cfg.adaptive_checkpoint = true;
    cfg.checkpoint_interval = 1'000;

    cfg.engine = cluster::SimEngine::Reference;
    const auto ref = run_adaptive_campaign(s, cluster::ArchKind::UlpmcBank, cfg, pool);
    cfg.engine = cluster::SimEngine::Fast;
    const auto fast = run_adaptive_campaign(s, cluster::ArchKind::UlpmcBank, cfg, pool);
    cfg.engine = cluster::SimEngine::Trace;
    const auto trace = run_adaptive_campaign(s, cluster::ArchKind::UlpmcBank, cfg, pool);

    ASSERT_EQ(ref.runs.size(), fast.runs.size());
    ASSERT_EQ(ref.runs.size(), trace.runs.size());
    for (std::size_t i = 0; i < ref.runs.size(); ++i) {
        EXPECT_EQ(ref.runs[i].outcome, fast.runs[i].outcome) << i;
        EXPECT_EQ(ref.runs[i].outcome, trace.runs[i].outcome) << i;
        EXPECT_EQ(ref.runs[i].cycles, fast.runs[i].cycles) << i;
        EXPECT_EQ(ref.runs[i].cycles, trace.runs[i].cycles) << i;
        EXPECT_EQ(ref.runs[i].strikes, trace.runs[i].strikes) << i;
        EXPECT_EQ(ref.runs[i].checkpoints, trace.runs[i].checkpoints) << i;
        EXPECT_EQ(ref.runs[i].reexec_cycles, trace.runs[i].reexec_cycles) << i;
    }
    EXPECT_EQ(ref.counts, fast.counts);
    EXPECT_EQ(ref.counts, trace.counts);
    EXPECT_EQ(ref.interval_updates, trace.interval_updates);
    EXPECT_DOUBLE_EQ(ref.overhead_energy, trace.overhead_energy);
}

TEST(AdaptiveCheckpoint, AGiveUpIsTrappedEvenWhileAnotherCoreRuns) {
    // Double-bit DM strikes ECC detects but cannot correct. One that lands
    // before a checkpoint is saved with it, so every rollback re-traps
    // until the runner gives up, and the cores it did not trap run on. The
    // give-up is the verdict: Trapped, not Hang.
    const app::StreamingBenchmark s({.use_barrier = true}, 2);
    sweep::SweepRunner pool;
    CampaignConfig cfg;
    cfg.seed = 3;
    cfg.injections = 8;
    cfg.ecc = true;
    cfg.kinds = fault_bit(FaultKind::DmBitFlip);
    cfg.flip_bits = 2;
    cfg.checkpoint = true;
    cfg.checkpoint_interval = 2'000;
    cfg.lambda_low = 1e-4;
    cfg.lambda_high = 1e-3;
    const auto res = run_adaptive_campaign(s, cluster::ArchKind::UlpmcBank, cfg, pool);

    unsigned trapped = 0;
    for (const InjectionRecord& r : res.runs) {
        if (r.trap == core::Trap::None) continue;
        ++trapped;
        EXPECT_EQ(r.outcome, Outcome::Trapped) << r.fault.describe();
    }
    EXPECT_GT(trapped, 0u) << "no run gave up: the strikes miss the case";
}

TEST(ArbiterUpset, SelfCheckClosesTheSilentCorruptionChannel) {
    // Arbiter sequential-state upsets (stuck round-robin pointer, flipped
    // grant register) slip past the stall/retry protocol: the unprotected
    // campaign must show at least one non-benign outcome, and the
    // self-checking arbiter must convert every one into a counted repair.
    const app::EcgBenchmark bench{};
    CampaignConfig cfg;
    cfg.seed = 42;
    cfg.injections = 16;
    cfg.kinds = kArbiterFaultKinds;
    sweep::SweepRunner pool;
    const auto plain = run_campaign(bench, cluster::ArchKind::UlpmcBank, cfg, pool);
    cfg.xbar_self_check = true;
    const auto checked = run_campaign(bench, cluster::ArchKind::UlpmcBank, cfg, pool);

    EXPECT_GT(plain.count(Outcome::Sdc) + plain.count(Outcome::Hang) +
                  plain.count(Outcome::Trapped),
              0u)
        << "the unprotected arbiter must be a real failure channel";
    EXPECT_EQ(checked.count(Outcome::Sdc), 0u);
    EXPECT_EQ(checked.count(Outcome::Hang), 0u);
    EXPECT_GE(checked.count(Outcome::Corrected), 1u)
        << "repairs must be visible as counted self-check events";
    EXPECT_GE(checked.coverage(), plain.coverage());
}

TEST(ArbiterUpset, ClassificationIsIdenticalAcrossEngineTiers) {
    // A pending arbiter-state upset must force the trace engine off its
    // superblock fast path until consumed or repaired: per-injection
    // outcome AND cycle count stay bit-identical across tiers.
    const app::EcgBenchmark bench{};
    CampaignConfig cfg;
    cfg.seed = 19;
    cfg.injections = 12;
    cfg.kinds = kArbiterFaultKinds;
    cfg.xbar_self_check = true;
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

TEST(ImScrub, WalkerDrainsLatentUpsetsOnlyItCanReach) {
    // Single-bit upsets seeded in instruction words past the halt: no
    // demand fetch ever touches them, so only the background walker can
    // repair them. The walker steals exactly the cycles in which a bank
    // serves no demand fetch — under the interleaved organization most
    // banks idle most cycles, and barrier-parked or early-halted cores
    // (the two staggered phases below) donate their fetch slots too.
    const auto prog = isa::assemble(R"(
        movi r1, 70
        mov  r2, @r1
    p1: sub  r2, r2, #1
        bra  ne, p1
        movi r14, 65535
        mov  @r14, r0
        movi r1, 71
        mov  r2, @r1
    p2: sub  r2, r2, #1
        bra  ne, p2
        hlt
        add  r4, r4, #1
        add  r4, r4, #1
    )");
    constexpr mmu::DmLayout layout{.shared_words = 64, .private_words_per_core = 256};
    auto cfg = cluster::make_config(cluster::ArchKind::UlpmcInt, layout);
    cfg.cores = 2;
    cfg.barrier_enabled = true;
    cfg.ecc_enabled = true;

    for (const bool scrub : {false, true}) {
        auto c = cfg;
        c.im_scrub = scrub;
        cluster::Cluster cl(c, prog);
        // Phase 1: core 0 counts long, core 1 parks at the barrier (bank 1
        // idles); phase 2: core 0 halts early, core 1 counts (bank 0 idles).
        cl.dm_poke(0, 70, 3000);
        cl.dm_poke(1, 70, 5);
        cl.dm_poke(0, 71, 5);
        cl.dm_poke(1, 71, 3000);
        const auto pad = static_cast<PAddr>(prog.text.size() - 2);
        cl.inject_im_fault(pad, 0x1);
        cl.inject_im_fault(pad + 1, 0x1);
        const auto seeded = cl.im_latent_upsets();
        ASSERT_GE(seeded, 2u) << "each ungated replica holds the latent pair";

        cl.run(100'000);
        ASSERT_TRUE(cl.core_halted(0));
        ASSERT_TRUE(cl.core_halted(1));
        if (scrub) {
            EXPECT_EQ(cl.im_latent_upsets(), 0u) << "the walker must drain the population";
            EXPECT_GE(cl.stats().im_scrub_corrected, seeded);
            EXPECT_GT(cl.stats().im_scrub_reads, 0u) << "walker reads are counted (and priced)";
        } else {
            EXPECT_EQ(cl.im_latent_upsets(), seeded) << "no walker, no repair";
            EXPECT_EQ(cl.stats().im_scrub_reads, 0u);
        }
    }
}

TEST(DmScrub, WalkerDrainsLatentDmUpsetsOnlyItCanReach) {
    // Single-bit upsets seeded in DM words outside the working set: no
    // demand access ever touches them, so only the background DM walker
    // can repair them. After the initial counter load the countdown loop
    // performs no DM traffic, so every bank donates every cycle and the
    // per-bank walkers sweep their full word range well inside the run.
    const auto prog = isa::assemble(R"(
        movi r1, 70
        mov  r2, @r1
    lp: sub  r2, r2, #1
        bra  ne, lp
        hlt
    )");
    constexpr mmu::DmLayout layout{.shared_words = 64, .private_words_per_core = 256};
    auto cfg = cluster::make_config(cluster::ArchKind::UlpmcBank, layout);
    cfg.cores = 2;
    cfg.ecc_enabled = true;

    for (const bool scrub : {false, true}) {
        auto c = cfg;
        c.dm_scrub = scrub;
        cluster::Cluster cl(c, prog);
        cl.dm_poke(0, 70, 3000);
        cl.dm_poke(1, 70, 3000);
        cl.inject_dm_fault(0, 100, 0x1);
        cl.inject_dm_fault(1, 120, 0x2);
        const auto seeded = cl.dm_latent_upsets();
        ASSERT_EQ(seeded, 2u);

        cl.run(100'000);
        ASSERT_TRUE(cl.core_halted(0));
        ASSERT_TRUE(cl.core_halted(1));
        if (scrub) {
            EXPECT_EQ(cl.dm_latent_upsets(), 0u) << "the walker must drain the population";
            EXPECT_GE(cl.stats().dm_scrub_corrected, seeded);
            EXPECT_GT(cl.stats().dm_scrub_reads, 0u) << "walker reads are counted (and priced)";
        } else {
            EXPECT_EQ(cl.dm_latent_upsets(), seeded) << "no walker, no repair";
            EXPECT_EQ(cl.stats().dm_scrub_reads, 0u);
        }
    }
}

TEST(DmScrub, WalkerPointerRidesSnapshotRollback) {
    // The per-bank walker pointers are architectural state for replay:
    // a rollback that did not restore them would scrub different words on
    // re-execution and diverge from the straight-through run. Save
    // mid-flight, run on, roll back, and the replay must land on stats
    // bit-identical to an undisturbed run.
    const auto prog = isa::assemble(R"(
        movi r1, 70
        mov  r2, @r1
    lp: sub  r2, r2, #1
        bra  ne, lp
        hlt
    )");
    constexpr mmu::DmLayout layout{.shared_words = 64, .private_words_per_core = 256};
    auto cfg = cluster::make_config(cluster::ArchKind::UlpmcBank, layout);
    cfg.cores = 1;
    cfg.ecc_enabled = true;
    cfg.dm_scrub = true;

    const auto seed = [&](cluster::Cluster& cl) {
        cl.dm_poke(0, 70, 3000);
        cl.inject_dm_fault(0, 100, 0x1);
    };
    cluster::Cluster straight(cfg, prog);
    seed(straight);
    straight.run(100'000);
    ASSERT_TRUE(straight.core_halted(0));

    cluster::Cluster cl(cfg, prog);
    seed(cl);
    cl.run(500);
    cluster::Cluster::Snapshot snap;
    cl.save(snap);
    cl.run(4'000);
    cl.restore(snap);
    EXPECT_TRUE(cl.state_equals(snap)) << "restore must bring the walker pointers back";
    cl.run(100'000);
    EXPECT_EQ(cl.stats(), straight.stats());
    EXPECT_EQ(cl.dm_latent_upsets(), 0u);
}

TEST(PowerModel, ScrubAndSelfCheckAddersMatchCalibration) {
    // Both new layers are priced, not free: scrub-walker reads are IM bank
    // activations, the arbiter checker toggles every armed cycle on each
    // crossbar.
    const power::PowerModel model(cluster::ArchKind::UlpmcBank);
    power::EventRates r;
    r.im_bank_accesses = 0.2;
    r.ixbar_requests = 1.0;
    r.dm_bank_accesses = 0.4;
    r.dxbar_requests = 0.4;
    r.ops_per_cycle = 7.0;

    const auto base = model.energy_per_op(r);
    r.im_scrub_reads = 0.5;
    const auto scrub = model.energy_per_op(r);
    EXPECT_DOUBLE_EQ(scrub.im, base.im + 0.5 * power::cal::kImScrubReadEnergy);
    EXPECT_DOUBLE_EQ(scrub.dm, base.dm);

    r.im_scrub_reads = 0;
    r.dm_scrub_reads = 0.25;
    const auto dm_scrub = model.energy_per_op(r);
    EXPECT_DOUBLE_EQ(dm_scrub.dm, base.dm + 0.25 * power::cal::kDmScrubReadEnergy);
    EXPECT_DOUBLE_EQ(dm_scrub.im, base.im);

    r.dm_scrub_reads = 0;
    r.xbar_self_check = true;
    const auto checked = model.energy_per_op(r);
    const double per_op = power::cal::kXbarSelfCheckEnergyPerCycle / r.ops_per_cycle;
    EXPECT_DOUBLE_EQ(checked.dxbar, base.dxbar + per_op);
    EXPECT_DOUBLE_EQ(checked.ixbar, base.ixbar + per_op) << "both crossbars carry a checker";
    EXPECT_DOUBLE_EQ(checked.im, base.im);
}

} // namespace
} // namespace ulpmc::fault
