// Differential test of the simulation engine tiers. The optimized engines
// (fast: pre-decoded IM, PC-indexed fetch table, claim-bitmask crossbar
// arbitration, in-place execute; trace: superblock dispatch with memoized
// timing) must be cycle-for-cycle identical to the reference engine: same
// ClusterStats, same architectural core state, same data-memory contents —
// for every IM policy and core count, on randomized SPMD programs that mix
// private/shared loads and stores (so broadcast rides, bank conflicts,
// stalls, and denials all occur).
#include <gtest/gtest.h>

#include <initializer_list>
#include <string>

#include "app/benchmark.hpp"
#include "cluster/cluster.hpp"
#include "cluster/config.hpp"
#include "common/rng.hpp"
#include "isa/assembler.hpp"
#include "mmu/mmu.hpp"

namespace ulpmc {
namespace {

constexpr mmu::DmLayout kLayout{.shared_words = 512, .private_words_per_core = 2048};

constexpr cluster::SimEngine kAllEngines[] = {
    cluster::SimEngine::Reference, cluster::SimEngine::Fast, cluster::SimEngine::Trace};

/// A random but well-formed SPMD kernel: pointer setup, a loop of
/// ALU/load/store work, and a branch-to-self halt. Addresses stay inside
/// the layout by construction (worst case: every body slot a post-inc
/// private store).
std::string random_program(Rng& rng) {
    const int priv = 512 + static_cast<int>(rng.range(0, 800));
    const int shared = static_cast<int>(rng.range(0, 400));
    const int iters = static_cast<int>(rng.range(8, 50));
    std::string s;
    s += "        movi r1, " + std::to_string(priv) + "\n";
    s += "        movi r2, " + std::to_string(shared) + "\n";
    s += "        movi r4, " + std::to_string(iters) + "\n";
    s += "loop:\n";
    const int body = static_cast<int>(rng.range(3, 8));
    for (int i = 0; i < body; ++i) {
        switch (rng.below(8)) {
        case 0:
            s += "        add r3, r3, #" + std::to_string(rng.range(1, 7)) + "\n";
            break;
        case 1:
            s += "        sub r3, r3, #" + std::to_string(rng.range(1, 7)) + "\n";
            break;
        case 2:
            s += "        xor r3, r3, r5\n";
            break;
        case 3:
            s += "        mov @r1+, r3\n"; // private store (conflict-free)
            break;
        case 4:
            s += "        mov r5, @r2\n"; // shared load: broadcast / conflicts
            break;
        case 5:
            s += "        mov r6, @r1\n"; // private load
            break;
        case 6:
            s += "        mov @r2, r3\n"; // shared store: write conflicts
            break;
        case 7:
            s += "        sft r3, r3, #1\n";
            break;
        }
    }
    s += "        sub r4, r4, #1\n";
    s += "        bra ne, loop\n";
    s += "done:   bra al, done\n";
    return s;
}

/// Asserts `got` (an optimized engine) is observably identical to `ref`
/// (the reference engine) after both ran to completion.
void expect_same_observable_state(cluster::Cluster& got, cluster::Cluster& ref,
                                  unsigned cores, const std::string& context) {
    ASSERT_EQ(got.stats(), ref.stats()) << context;
    for (unsigned p = 0; p < cores; ++p) {
        const auto pid = static_cast<CoreId>(p);
        ASSERT_EQ(got.core_state(pid), ref.core_state(pid)) << context << " core " << p;
        ASSERT_EQ(got.core_halted(pid), ref.core_halted(pid)) << context << " core " << p;
        ASSERT_EQ(got.core_trap(pid), ref.core_trap(pid)) << context << " core " << p;
        for (Addr v = 0; v < kLayout.limit(); ++v) {
            ASSERT_EQ(got.dm_peek(pid, v), ref.dm_peek(pid, v))
                << context << " core " << p << " vaddr " << v;
        }
    }
}

/// Runs `prog` under `cfg` on all three engine tiers and asserts they are
/// observably identical (the reference engine is the golden model).
void expect_engines_identical(cluster::ClusterConfig cfg, const isa::Program& prog,
                              Cycle max_cycles, const std::string& context) {
    cfg.engine = cluster::SimEngine::Reference;
    cluster::Cluster ref(cfg, prog);
    const Cycle cycles_ref = ref.run(max_cycles);

    for (const auto engine : {cluster::SimEngine::Fast, cluster::SimEngine::Trace}) {
        cfg.engine = engine;
        cluster::Cluster opt(cfg, prog);
        const std::string ctx = context + " engine=" + cluster::engine_name(engine);
        ASSERT_EQ(opt.run(max_cycles), cycles_ref) << ctx;
        expect_same_observable_state(opt, ref, cfg.cores, ctx);
    }
}

TEST(FastpathDiff, RandomProgramsAllPoliciesAllCoreCounts) {
    Rng rng(0xD1FFu);
    const cluster::ArchKind archs[] = {cluster::ArchKind::McRef, cluster::ArchKind::UlpmcInt,
                                       cluster::ArchKind::UlpmcBank};
    const unsigned core_counts[] = {1, 2, 4, 8};
    for (const auto arch : archs) {
        for (const unsigned n : core_counts) {
            for (int i = 0; i < 3; ++i) {
                const auto prog = isa::assemble(random_program(rng));
                auto cfg = cluster::make_config(arch, kLayout);
                cfg.cores = n;
                cfg.stagger_start = (i % 2) == 1;
                const std::string context = cluster::arch_name(arch) + " cores=" +
                                            std::to_string(n) + " prog=" + std::to_string(i);
                expect_engines_identical(cfg, prog, 200'000, context);
            }
        }
    }
}

TEST(FastpathDiff, MaxCyclesTimeoutReportsIdenticalLiveCycleCount) {
    // A program that never halts: the run is bounded by max_cycles while
    // every core still executes, and every engine must report the bound
    // (the cycle counter stays live, not stuck at the last halt/trap).
    const auto prog = isa::assemble(R"(
            movi r1, 512
    loop:   add  r3, r3, #1
            mov  @r1, r3
            bra  al, loop
    )");
    for (const auto arch : {cluster::ArchKind::McRef, cluster::ArchKind::UlpmcInt}) {
        auto cfg = cluster::make_config(arch, kLayout);
        cfg.stagger_start = true;
        cfg.engine = cluster::SimEngine::Reference;
        cluster::Cluster ref(cfg, prog);
        EXPECT_EQ(ref.run(5'000), 5'000u);
        for (const auto engine : {cluster::SimEngine::Fast, cluster::SimEngine::Trace}) {
            cfg.engine = engine;
            cluster::Cluster opt(cfg, prog);
            EXPECT_EQ(opt.run(5'000), 5'000u);
            EXPECT_EQ(opt.stats(), ref.stats())
                << cluster::arch_name(arch) << " engine=" << cluster::engine_name(engine);
        }
    }
}

TEST(FastpathDiff, ImPokeRefreshesPredecodedEntry) {
    // Patching IM must re-decode exactly the patched word, so the next
    // fetch executes the new instruction on the optimized engines too.
    const auto prog = isa::assemble("        movi r1, 5\ndone:   bra al, done\n");
    const auto patched = isa::assemble("        movi r1, 7\ndone:   bra al, done\n");
    for (const auto arch : {cluster::ArchKind::McRef, cluster::ArchKind::UlpmcInt,
                            cluster::ArchKind::UlpmcBank}) {
        for (const auto engine : kAllEngines) {
            auto cfg = cluster::make_config(arch, kLayout);
            cfg.engine = engine;
            cluster::Cluster cl(cfg, prog);
            cl.im_poke(0, patched.text[0]);
            cl.run(1'000);
            for (unsigned p = 0; p < cfg.cores; ++p) {
                const auto pid = static_cast<CoreId>(p);
                EXPECT_EQ(cl.im_peek(0, pid), patched.text[0])
                    << cluster::arch_name(arch) << " " << cluster::engine_name(engine);
                EXPECT_EQ(cl.core_state(pid).regs[1], 7)
                    << cluster::arch_name(arch) << " " << cluster::engine_name(engine);
            }
        }
    }
}

TEST(FastpathDiff, ImPokeAfterFetchExecutesLatchedInstruction) {
    // A word already fetched into EX executes as latched, even if IM is
    // patched between the fetch and the commit — on every engine (the
    // hardware latches the fetched word; the optimized engines must not
    // observe the patch through their pre-decode pointers).
    const auto prog = isa::assemble("        movi r1, 5\ndone:   bra al, done\n");
    const auto patched = isa::assemble("        movi r1, 7\ndone:   bra al, done\n");
    for (const auto engine : kAllEngines) {
        auto cfg = cluster::make_config(cluster::ArchKind::UlpmcInt, kLayout);
        cfg.cores = 1;
        cfg.engine = engine;
        cluster::Cluster cl(cfg, prog);
        ASSERT_TRUE(cl.step()); // cycle 1: the movi is fetched into EX
        cl.im_poke(0, patched.text[0]);
        cl.run(1'000);
        EXPECT_EQ(cl.core_state(0).regs[1], 5) << cluster::engine_name(engine);
    }
}

TEST(FastpathDiff, InjectedFaultsKeepEnginesCycleIdentical) {
    // Mid-run SEU injections (IM/DM bit flips, register upsets) go through
    // the same coherence path as im_poke; every engine must stay
    // cycle-for-cycle identical afterwards — with and without SEC-DED, on
    // every IM policy.
    Rng rng(0xFA17u);
    const cluster::ArchKind archs[] = {cluster::ArchKind::McRef, cluster::ArchKind::UlpmcInt,
                                       cluster::ArchKind::UlpmcBank};
    for (const auto arch : archs) {
        for (const bool ecc : {false, true}) {
            const auto prog = isa::assemble(random_program(rng));
            auto cfg = cluster::make_config(arch, kLayout);
            cfg.ecc_enabled = ecc;
            cfg.engine = cluster::SimEngine::Reference;
            cluster::Cluster ref(cfg, prog);
            cfg.engine = cluster::SimEngine::Fast;
            cluster::Cluster fast(cfg, prog);
            cfg.engine = cluster::SimEngine::Trace;
            cluster::Cluster trace(cfg, prog);
            const std::string context =
                cluster::arch_name(arch) + std::string(ecc ? " ecc" : " raw");

            // Park all engines mid-flight, deposit identical upsets.
            const PAddr pc = rng.below(static_cast<std::uint32_t>(prog.text.size()));
            const InstrWord im_flip = 1u << rng.below(24);
            const Addr vaddr = rng.below(kLayout.limit());
            const Word dm_flip = static_cast<Word>(1u << rng.below(16));
            for (auto* cl : {&ref, &fast, &trace}) {
                cl->run(40);
                cl->inject_im_fault(pc, im_flip);
                cl->inject_dm_fault(1, vaddr, dm_flip);
                cl->inject_reg_fault(0, 3, 0x0010);
            }
            const Cycle cycles_ref = ref.run(200'000);
            ASSERT_EQ(fast.run(200'000), cycles_ref) << context;
            ASSERT_EQ(trace.run(200'000), cycles_ref) << context;
            expect_same_observable_state(fast, ref, cfg.cores, context + " fast");
            expect_same_observable_state(trace, ref, cfg.cores, context + " trace");
        }
    }
}

// ---- SPMD lockstep cycles (DESIGN.md §10) ---------------------------------
// The trace tier commits and fetches lockstep cores without arbitration.
// Each case runs a reference-tier and a trace-tier instance side by side
// and compares them at several cycles — statistics, traps, and the trace
// instance's full future-determining state against the reference's
// snapshot — so a divergence is caught where it happens, not only in the
// final result.

/// Runs both instances to each checkpoint in turn and asserts there:
/// identical statistics and traps, and state_equals against a snapshot of
/// the reference (memories, core contexts, arbitration and scrub state).
void expect_exact_at(cluster::Cluster& trace, cluster::Cluster& ref,
                     std::initializer_list<Cycle> checkpoints, const std::string& ctx) {
    cluster::Cluster::Snapshot snap;
    for (const Cycle at : checkpoints) {
        ASSERT_EQ(trace.run(at), ref.run(at)) << ctx << " @" << at;
        ASSERT_EQ(trace.stats(), ref.stats()) << ctx << " @" << at;
        for (unsigned p = 0; p < ref.config().cores; ++p)
            ASSERT_EQ(trace.core_trap(static_cast<CoreId>(p)), ref.core_trap(static_cast<CoreId>(p)))
                << ctx << " @" << at << " core " << p;
        ref.save(snap);
        ASSERT_TRUE(trace.state_equals(snap)) << ctx << " @" << at;
    }
}

/// Every core streams a shared word (a broadcast read) and its private
/// window in lockstep: the shape the lockstep cycle serves.
constexpr const char* kLockstepKernel = R"(
            movi r1, 600
            movi r2, 40
            movi r4, 300
    loop:   mov  r5, @r2
            add  r3, r3, r5
            mov  @r1+, r3
            mov  r6, @r1
            xor  r3, r3, r6
            sub  r4, r4, #1
            bra  ne, loop
            hlt
    )";

cluster::ClusterConfig lockstep_cfg(cluster::ArchKind arch, cluster::SimEngine engine) {
    auto cfg = cluster::make_config(arch, kLayout);
    cfg.engine = engine;
    return cfg;
}

const app::EcgBenchmark& ecg_bench() {
    static const app::EcgBenchmark bench{};
    return bench;
}

cluster::Cluster ecg_cluster(cluster::ArchKind arch, cluster::SimEngine engine) {
    const auto& bench = ecg_bench();
    auto cfg = cluster::make_config(arch, bench.layout().dm_layout());
    cfg.barrier_enabled = bench.layout().use_barrier;
    cfg.engine = engine;
    cluster::Cluster cl(cfg, bench.image());
    bench.load_inputs(cl, cfg.cores);
    return cl;
}

TEST(FastpathDiff, LockstepEcgBlockExactAtCheckpoints) {
    for (const auto arch : {cluster::ArchKind::UlpmcInt, cluster::ArchKind::UlpmcBank}) {
        auto ref = ecg_cluster(arch, cluster::SimEngine::Reference);
        auto trace = ecg_cluster(arch, cluster::SimEngine::Trace);
        expect_exact_at(trace, ref, {3'000, 40'000, 120'000, 50'000'000},
                        "ecg " + cluster::arch_name(arch));
        EXPECT_TRUE(ecg_bench().verify(trace, trace.config().cores));
    }
}

TEST(FastpathDiff, LockstepEngagesOnTheEcgBlock) {
    // Without this a legality gate that never fires would pass every
    // differential test above. The census: on the proposed designs almost
    // every cycle is a lockstep cycle; mc-ref's staggered start and
    // dedicated IM banks never are, and the reference tier never tries.
    for (const auto arch : {cluster::ArchKind::UlpmcInt, cluster::ArchKind::UlpmcBank}) {
        auto cl = ecg_cluster(arch, cluster::SimEngine::Trace);
        const Cycle cycles = cl.run();
        const auto& n = cl.lockstep_counts();
        EXPECT_GE(n.execute, cycles * 9 / 10) << cluster::arch_name(arch);
        EXPECT_GE(n.fetch, cycles * 9 / 10) << cluster::arch_name(arch);
    }
    auto mcref = ecg_cluster(cluster::ArchKind::McRef, cluster::SimEngine::Trace);
    mcref.run();
    EXPECT_EQ(mcref.lockstep_counts().execute, 0u);
    EXPECT_EQ(mcref.lockstep_counts().fetch, 0u);
    auto ref = ecg_cluster(cluster::ArchKind::UlpmcBank, cluster::SimEngine::Reference);
    ref.run();
    EXPECT_EQ(ref.lockstep_counts().execute, 0u);
    EXPECT_EQ(ref.lockstep_counts().fetch, 0u);
}

TEST(FastpathDiff, LockstepBranchSplitsPcs) {
    // A data-dependent branch sends the cores down loops of different
    // lengths (the fetch half sees different PCs and falls back); the
    // barrier brings them back into lockstep once per outer iteration.
    const auto prog = isa::assemble(R"(
            .equ BARRIER, 0xFFFF
            movi r7, BARRIER
            movi r4, 6
    outer:  movi r1, 600
            mov  r2, @r1
            or   r2, r2, #0
            bra  eq, sync
    spin:   add  r3, r3, r2
            sub  r2, r2, #1
            bra  ne, spin
    sync:   mov  @r7, r0
            mov  @r1, r3
            sub  r4, r4, #1
            bra  ne, outer
            hlt
    )");
    for (const auto arch : {cluster::ArchKind::UlpmcInt, cluster::ArchKind::UlpmcBank}) {
        auto cfg = lockstep_cfg(arch, cluster::SimEngine::Reference);
        cfg.barrier_enabled = true;
        cluster::Cluster ref(cfg, prog);
        cfg.engine = cluster::SimEngine::Trace;
        cluster::Cluster trace(cfg, prog);
        for (auto* cl : {&ref, &trace})
            for (unsigned p = 0; p < cfg.cores; ++p)
                cl->dm_poke(static_cast<CoreId>(p), 600, static_cast<Word>(p % 3));
        expect_exact_at(trace, ref, {9, 25, 80, 400, 100'000}, "split " + cluster::arch_name(arch));
        EXPECT_TRUE(trace.core_halted(0));
        const auto& n = trace.lockstep_counts();
        EXPECT_GT(n.execute, 0u);
        EXPECT_LT(n.fetch, trace.stats().cycles) << "the split must force generic fetches";
    }
}

TEST(FastpathDiff, LockstepSharedSectionConflictFallsBack) {
    // Every core stores through a pointer read from its private window,
    // then runs a dual-port ALU op (load through a second pointer, store
    // through the first). One core's pointer strays into the shared
    // section, onto the bank another core's private access uses: a write
    // against an earlier core's write, a write against a later core's
    // read, or a read of a different word than an earlier core's read. The
    // proof must fail on exactly those cycles and the generic arbiter must
    // stall one of the pair; the barrier restores lockstep every iteration.
    const auto prog = isa::assemble(R"(
            .equ BARRIER, 0xFFFF
            movi r7, BARRIER
            movi r4, 20
            movi r2, 600
            mov  r1, @r2
            movi r2, 601
            mov  r6, @r2
    loop:   add  r3, r3, #1
            mov  @r1, r3
            add  @r1, r3, @r6
            mov  @r7, r0
            sub  r4, r4, #1
            bra  ne, loop
            hlt
    )");
    const Addr store_at = 700;
    // A load address whose bank differs from the store's on every core, so
    // the dual-port op never conflicts with itself.
    Addr load_at = store_at + 1;
    while (mmu::DataMmu(kLayout, 0).translate(load_at)->bank ==
           mmu::DataMmu(kLayout, 0).translate(store_at)->bank)
        ++load_at;
    struct Case {
        const char* name;
        Addr pointer;   ///< the private word holding the stray pointer (600 store, 601 load)
        CoreId stray;   ///< core whose pointer lands in the shared section
        CoreId victim;  ///< core whose private bank it lands on
        Addr victim_at; ///< the victim's access into that bank
    };
    const Case cases[] = {{"write/write", 600, 5, 2, store_at},
                          {"write/read", 600, 2, 5, load_at},
                          {"read/read", 601, 5, 2, load_at}};
    for (const Case& k : cases) {
        const BankId bank = mmu::DataMmu(kLayout, k.victim).translate(k.victim_at)->bank;
        const mmu::DataMmu stray_mmu(kLayout, k.stray);
        Addr shared = 0;
        while (stray_mmu.translate(shared)->bank != bank) ++shared;
        ASSERT_LT(shared, kLayout.shared_words);
        for (const auto arch : {cluster::ArchKind::UlpmcInt, cluster::ArchKind::UlpmcBank}) {
            auto cfg = lockstep_cfg(arch, cluster::SimEngine::Reference);
            cfg.barrier_enabled = true;
            cluster::Cluster ref(cfg, prog);
            cfg.engine = cluster::SimEngine::Trace;
            cluster::Cluster trace(cfg, prog);
            for (auto* cl : {&ref, &trace}) {
                for (unsigned p = 0; p < cfg.cores; ++p) {
                    const auto pid = static_cast<CoreId>(p);
                    cl->dm_poke(pid, 600, store_at);
                    cl->dm_poke(pid, 601, load_at);
                    if (pid == k.stray) cl->dm_poke(pid, k.pointer, shared);
                }
            }
            const std::string ctx = std::string(k.name) + " " + cluster::arch_name(arch);
            expect_exact_at(trace, ref, {9, 10, 11, 12, 13, 50, 100'000}, ctx);
            EXPECT_GT(ref.stats().dxbar.denied, 0u) << ctx << ": the stray pointer must conflict";
            EXPECT_GT(trace.lockstep_counts().execute, 0u) << ctx;
        }
    }
}

TEST(FastpathDiff, LockstepEccDoubleBitOnlyRotatedWinnerTraps) {
    // A double-bit word read in lockstep — an IM word every core fetches,
    // or a shared DM word every core reads by broadcast — traps only the
    // core whose read the arbiter counted: the rotated-priority winner
    // (cycle % masters), not the lowest core id. The riders carry on with
    // the word they peeked. Strikes land on several cycles so the winner
    // varies.
    const auto prog = isa::assemble(kLockstepKernel);
    bool winner_not_core0 = false;
    for (const bool im_side : {true, false}) {
        for (const Cycle strike_at : {21u, 38u, 55u, 100u}) {
            auto cfg = lockstep_cfg(cluster::ArchKind::UlpmcInt, cluster::SimEngine::Reference);
            cfg.ecc_enabled = true;
            cluster::Cluster ref(cfg, prog);
            cfg.engine = cluster::SimEngine::Trace;
            cluster::Cluster trace(cfg, prog);
            for (auto* cl : {&ref, &trace}) {
                cl->run(strike_at);
                if (im_side)
                    cl->inject_im_fault(4, 0x6); // `add r3, r3, r5`: still decodes
                else
                    cl->inject_dm_fault(0, 40, 0x3); // the shared word of `mov r5, @r2`
            }
            const std::string ctx =
                std::string(im_side ? "im" : "dm") + " strike@" + std::to_string(strike_at);
            expect_exact_at(trace, ref, {strike_at + 1, strike_at + 8, strike_at + 30, 100'000},
                            ctx);
            unsigned trapped = 0;
            for (unsigned p = 0; p < cfg.cores; ++p) {
                if (ref.core_trap(static_cast<CoreId>(p)) != core::Trap::EccFault) continue;
                ++trapped;
                if (p != 0) winner_not_core0 = true;
            }
            EXPECT_GT(trapped, 0u) << ctx;
            EXPECT_GT(trace.lockstep_counts().execute, 0u) << ctx;
        }
    }
    EXPECT_TRUE(winner_not_core0) << "no strike exercised a winner other than core 0";
}

TEST(FastpathDiff, LockstepScrubbersSeeExactBusyMasks) {
    // The DM walker skips exactly the banks the lockstep commits claimed;
    // the IM walker skips only the bank the winner's fetch read.
    const auto prog = isa::assemble(kLockstepKernel);
    for (const auto arch : {cluster::ArchKind::UlpmcInt, cluster::ArchKind::UlpmcBank}) {
        auto cfg = lockstep_cfg(arch, cluster::SimEngine::Reference);
        cfg.ecc_enabled = true;
        cfg.im_scrub = true;
        cfg.dm_scrub = true;
        cluster::Cluster ref(cfg, prog);
        cfg.engine = cluster::SimEngine::Trace;
        cluster::Cluster trace(cfg, prog);
        for (auto* cl : {&ref, &trace}) {
            cl->run(30);
            cl->inject_dm_fault(3, 900, 0x1);
            cl->inject_im_fault(2, 0x1);
        }
        expect_exact_at(trace, ref, {31, 200, 1'000, 100'000}, "scrub " + cluster::arch_name(arch));
        EXPECT_GT(trace.stats().dm_scrub_reads, 0u);
        EXPECT_GT(trace.stats().im_scrub_reads, 0u);
        EXPECT_GT(trace.lockstep_counts().execute, 0u);
        EXPECT_GT(trace.lockstep_counts().fetch, 0u);
    }
}

TEST(FastpathDiff, LockstepGlitchArmedMidRun) {
    // A glitch armed between two lockstep cycles must be consumed by a
    // real arbitration round on the next cycle, on either crossbar. It is
    // re-armed on each cycle of one loop iteration, so it meets every
    // instruction of the body (a D-side glitch on a master without a
    // request dissipates).
    const auto prog = isa::assemble(kLockstepKernel);
    const xbar::Glitch glitches[] = {{.kind = xbar::Glitch::Kind::DroppedGrant, .master = 3},
                                     {.kind = xbar::Glitch::Kind::SpuriousDenial, .master = 6}};
    for (const bool im_side : {true, false}) {
        for (const auto& g : glitches) {
            auto cfg = lockstep_cfg(cluster::ArchKind::UlpmcBank, cluster::SimEngine::Reference);
            cluster::Cluster ref(cfg, prog);
            cfg.engine = cluster::SimEngine::Trace;
            cluster::Cluster trace(cfg, prog);
            const std::string ctx = std::string(im_side ? "ixbar" : "dxbar") + " glitch " +
                                    std::to_string(static_cast<int>(g.kind));
            for (Cycle at = 44; at < 52; ++at) {
                expect_exact_at(trace, ref, {at}, ctx);
                for (auto* cl : {&ref, &trace}) cl->inject_xbar_glitch(im_side, g);
            }
            expect_exact_at(trace, ref, {52, 60, 100'000}, ctx);
            EXPECT_GT(ref.stats().dxbar.denied + ref.stats().ixbar.denied, 0u) << ctx;
        }
    }
}

} // namespace
} // namespace ulpmc
