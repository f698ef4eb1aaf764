// Differential tests for the clean-run ladder (DESIGN.md §11): an
// injection restored from the rung below its strike, struck, and either
// simulated to the end or rejoined onto the clean run must be cycle- and
// stat-identical to a standalone Trace-tier run of the same schedule. A
// rejoined run's statistics are materialized as its own statistics at the
// rejoin rung plus the clean tail. The sweep covers all three IM policies
// and 1/2/4/8 cores.
#include <gtest/gtest.h>

#include <string>

#include "cluster/clean_run.hpp"
#include "cluster/cluster.hpp"
#include "cluster/config.hpp"
#include "common/rng.hpp"
#include "isa/assembler.hpp"
#include "isa/program_image.hpp"

namespace ulpmc {
namespace {

constexpr mmu::DmLayout kLayout{.shared_words = 512, .private_words_per_core = 2048};

constexpr cluster::ArchKind kArchs[] = {cluster::ArchKind::McRef, cluster::ArchKind::UlpmcInt,
                                        cluster::ArchKind::UlpmcBank};
constexpr unsigned kCoreCounts[] = {1, 2, 4, 8};
constexpr unsigned kRungs = cluster::CleanRun::kRungs;

isa::Program loop_program() {
    return isa::assemble(R"(
            movi r1, 700
            movi r2, 30
    loop:   add  r3, r3, #1
            mov  @r1+, r3
            sub  r2, r2, #1
            bra  ne, loop
    done:   bra  al, done
    )");
}

/// Stores every iteration to the SAME address, so a DM upset there is
/// overwritten within one iteration — the divergence a rejoin can prove out.
isa::Program overwrite_program() {
    return isa::assemble(R"(
            movi r2, 200
    loop:   movi r1, 700
            add  r3, r3, #1
            mov  @r1+, r3
            sub  r2, r2, #1
            bra  ne, loop
    done:   bra  al, done
    )");
}

cluster::ClusterConfig cfg_of(cluster::ArchKind arch, unsigned cores, cluster::SimEngine engine) {
    auto cfg = cluster::make_config(arch, kLayout);
    cfg.cores = cores;
    cfg.engine = engine;
    return cfg;
}

/// `view` (the cluster embodying the injection's final state) with
/// statistics `stats` must be indistinguishable from the standalone `ref`.
void expect_run_matches(const cluster::Cluster& view, const cluster::ClusterStats& stats,
                        const cluster::Cluster& ref, const std::string& ctx) {
    ASSERT_EQ(stats, ref.stats()) << ctx;
    for (unsigned p = 0; p < view.config().cores; ++p) {
        const auto pid = static_cast<CoreId>(p);
        ASSERT_EQ(view.core_state(pid), ref.core_state(pid)) << ctx;
        ASSERT_EQ(view.core_halted(pid), ref.core_halted(pid)) << ctx;
        ASSERT_EQ(view.core_trap(pid), ref.core_trap(pid)) << ctx;
        for (Addr v = 690; v < 740; ++v)
            ASSERT_EQ(view.dm_peek(pid, v), ref.dm_peek(pid, v)) << ctx << " vaddr " << v;
    }
}

TEST(CleanRunDiff, RestoreBelowStrikeMatchesTrace) {
    const auto prog = loop_program();
    const auto image = isa::ProgramImage::build(prog);
    Rng rng(0xBA7C4ED0);
    unsigned rejoined = 0, walked = 0;
    for (const auto arch : kArchs) {
        for (const unsigned cores : kCoreCounts) {
            const std::string ctx = cluster::arch_name(arch) + "/c" + std::to_string(cores);
            const auto tcfg = cfg_of(arch, cores, cluster::SimEngine::Trace);
            const auto bcfg = cfg_of(arch, cores, cluster::SimEngine::Batched);
            cluster::Cluster ref_clean(tcfg, image);
            const Cycle clean_cycles = ref_clean.run(100'000);

            // The capture parks at the clean final state, rung-spaced.
            cluster::Cluster golden(bcfg, image);
            const cluster::CleanRun clean(golden);
            ASSERT_EQ(clean.cycles(), clean_cycles) << ctx;
            expect_run_matches(golden, golden.stats(), ref_clean, ctx + " capture");
            for (unsigned r = 0; r < kRungs; ++r)
                ASSERT_EQ(clean.rung_cycle(r), r * (clean_cycles / kRungs)) << ctx;

            for (int trial = 0; trial < 4; ++trial) {
                const Cycle strike = 10 + rng.below(static_cast<std::uint32_t>(clean_cycles / 2));
                const CoreId vcore = static_cast<CoreId>(rng.below(cores));
                const unsigned kind = rng.below(3);
                const auto apply = [&](cluster::Cluster& cl) {
                    switch (kind) {
                    case 0: cl.inject_reg_fault(vcore, 3, 0x5); break;
                    case 1: cl.inject_dm_fault(vcore, 705, 0xFF); break;
                    default: cl.inject_im_fault(2, 0x1); break;
                    }
                };
                const std::string tctx = ctx + " strike " + std::to_string(strike) + " kind " +
                                         std::to_string(kind);

                // Standalone Trace reference of the struck run.
                cluster::Cluster ref(tcfg, image);
                ref.run(strike);
                apply(ref);
                ref.run(200'000);

                // Restore below, strike, simulate to the end.
                cluster::Cluster cl(bcfg, image);
                const unsigned from = clean.restore_below(cl, strike);
                ASSERT_LE(clean.rung_cycle(from), strike) << tctx;
                ASSERT_EQ(cl.stats(), clean.materialize(cl, from).saved_stats()) << tctx;
                cl.run(strike);
                apply(cl);
                cl.run(200'000);
                expect_run_matches(cl, cl.stats(), ref, tctx + " full");

                // Same schedule through the rejoin walk: either it rejoins
                // and the credited statistics plus the clean final state
                // stand for the run, or it simulates on to the same end.
                cluster::Cluster walk(bcfg, image);
                clean.restore_below(walk, strike);
                walk.run(strike);
                apply(walk);
                cluster::ClusterStats credited;
                if (clean.rejoin(walk, from, credited)) {
                    ++rejoined;
                    expect_run_matches(golden, credited, ref, tctx + " rejoined");
                } else {
                    ++walked;
                    walk.run(200'000);
                    expect_run_matches(walk, walk.stats(), ref, tctx + " walked");
                }
            }
        }
    }
    // The random sweep exercises both ends of the walk.
    EXPECT_GT(rejoined, 0u);
    EXPECT_GT(walked, 0u);
}

TEST(CleanRunDiff, ConvergedInjectionRejoinsAtMidRungWithExactStats) {
    const auto prog = overwrite_program();
    const auto image = isa::ProgramImage::build(prog);
    const auto arch = cluster::ArchKind::UlpmcBank;
    const unsigned cores = 4;
    const auto bcfg = cfg_of(arch, cores, cluster::SimEngine::Batched);

    cluster::Cluster golden(bcfg, image);
    const cluster::CleanRun clean(golden);

    const Cycle strike = 120;
    cluster::Cluster ref(cfg_of(arch, cores, cluster::SimEngine::Trace), image);
    ref.run(strike);
    ref.inject_dm_fault(0, 700, 0x3C);
    ref.run(200'000);
    ASSERT_EQ(ref.stats().cycles, clean.cycles()) << "fault must converge for this test";

    cluster::Cluster cl(bcfg, image);
    const unsigned from = clean.restore_below(cl, strike);
    cl.run(strike);
    cl.inject_dm_fault(0, 700, 0x3C);
    cluster::ClusterStats credited;
    const auto joined = clean.rejoin(cl, from, credited);
    ASSERT_TRUE(joined.has_value()) << "overwritten upset must rejoin";
    ASSERT_GT(*joined, from);
    ASSERT_LT(*joined, kRungs) << "the upset washes out long before the end";
    expect_run_matches(golden, credited, ref, "rejoined");

    // Cycles taken from the clean run = the restored rung's prefix plus
    // the credited tail; the rest was simulated privately.
    const Cycle prefix = clean.rung_cycle(from);
    const Cycle simulated = cl.stats().cycles - prefix;
    const Cycle tail = credited.cycles - cl.stats().cycles;
    EXPECT_EQ(tail, clean.cycles() - clean.rung_cycle(*joined));
    EXPECT_EQ(prefix + simulated + tail, ref.stats().cycles);
}

TEST(CleanRunDiff, UnstruckRunRejoinsAtTheNextRung) {
    const auto prog = loop_program();
    const auto image = isa::ProgramImage::build(prog);
    const auto bcfg = cfg_of(cluster::ArchKind::UlpmcInt, 2, cluster::SimEngine::Batched);
    cluster::Cluster golden(bcfg, image);
    const cluster::CleanRun clean(golden);

    // Without a strike the state never leaves the clean run: the walk
    // rejoins at the first rung it reaches, and the last restore rung
    // rejoins at the final state with a zero-length tail.
    cluster::ClusterStats credited;
    for (const unsigned from : {0u, kRungs - 1}) {
        cluster::Cluster cl(bcfg, image);
        ASSERT_EQ(clean.restore_below(cl, clean.rung_cycle(from)), from);
        const auto joined = clean.rejoin(cl, from, credited);
        ASSERT_TRUE(joined.has_value());
        EXPECT_EQ(*joined, from + 1);
        EXPECT_EQ(credited, clean.final_stats());
    }
}

} // namespace
} // namespace ulpmc
