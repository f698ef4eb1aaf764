// Equivalence tests for the zero-allocation reuse layer: Cluster::reset()
// must be indistinguishable from fresh construction (across geometry and
// engine changes, and after fault injection), Cluster save()/restore()
// must replay runs bit-exactly (including undoing faults and patches),
// and cluster::pooled_cluster() must hand back the same re-initialized
// instance per thread.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/config.hpp"
#include "cluster/pool.hpp"
#include "isa/assembler.hpp"
#include "isa/program_image.hpp"

namespace ulpmc {
namespace {

constexpr mmu::DmLayout kLayout{.shared_words = 512, .private_words_per_core = 2048};

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

cluster::ClusterConfig cfg_of(cluster::ArchKind arch, unsigned cores,
                              cluster::SimEngine engine = cluster::SimEngine::Trace) {
    auto cfg = cluster::make_config(arch, kLayout);
    cfg.cores = cores;
    cfg.engine = engine;
    return cfg;
}

void expect_identical(cluster::Cluster& a, cluster::Cluster& b, unsigned cores,
                      const std::string& ctx) {
    ASSERT_EQ(a.stats(), b.stats()) << ctx;
    for (unsigned p = 0; p < cores; ++p) {
        const auto pid = static_cast<CoreId>(p);
        ASSERT_EQ(a.core_state(pid), b.core_state(pid)) << ctx << " core " << p;
        ASSERT_EQ(a.core_halted(pid), b.core_halted(pid)) << ctx << " core " << p;
        ASSERT_EQ(a.core_trap(pid), b.core_trap(pid)) << ctx << " core " << p;
        for (Addr v = 0; v < kLayout.limit(); ++v)
            ASSERT_EQ(a.dm_peek(pid, v), b.dm_peek(pid, v))
                << ctx << " core " << p << " vaddr " << v;
    }
}

TEST(ClusterReuse, ResetMatchesFreshConstruction) {
    const auto image = isa::ProgramImage::build(loop_program());
    // Exercise a full geometry + engine change: the reused instance was
    // built as a 4-core banked trace cluster, the target is a 2-core
    // dedicated-IM reference cluster with ECC.
    const auto first = cfg_of(cluster::ArchKind::UlpmcBank, 4);
    auto target = cfg_of(cluster::ArchKind::McRef, 2, cluster::SimEngine::Reference);
    target.ecc_enabled = true;

    cluster::Cluster reused(first, image);
    reused.run(100); // park mid-run so reset() has real state to erase
    reused.reset(target, image);

    cluster::Cluster fresh(target, image);
    ASSERT_EQ(reused.run(100'000), fresh.run(100'000));
    expect_identical(reused, fresh, target.cores, "reset vs fresh");
}

TEST(ClusterReuse, ResetErasesFaultsAndPatches) {
    const auto image = isa::ProgramImage::build(loop_program());
    const auto cfg = cfg_of(cluster::ArchKind::UlpmcBank, 2);

    cluster::Cluster reused(cfg, image);
    reused.run(20);
    reused.inject_im_fault(2, 0x1); // corrupt a loop-body word
    reused.dm_poke(0, 700, 0xBEEF);
    reused.run(500);
    reused.reset(cfg, image);

    cluster::Cluster fresh(cfg, image);
    ASSERT_EQ(reused.run(100'000), fresh.run(100'000));
    expect_identical(reused, fresh, cfg.cores, "reset after faults");
}

TEST(ClusterReuse, SnapshotRoundTripReplaysIdentically) {
    const auto prog = loop_program();
    const auto cfg = cfg_of(cluster::ArchKind::UlpmcBank, 2);

    cluster::Cluster cl(cfg, prog);
    cl.run(60); // mid-block, mid-run
    cluster::Cluster::Snapshot snap;
    cl.save(snap);

    const Cycle end1 = cl.run(100'000);
    const auto stats1 = cl.stats();
    std::vector<core::CoreState> states1;
    std::vector<Word> dm1;
    for (unsigned p = 0; p < cfg.cores; ++p) {
        states1.push_back(cl.core_state(static_cast<CoreId>(p)));
        for (Addr v = 0; v < kLayout.limit(); ++v)
            dm1.push_back(cl.dm_peek(static_cast<CoreId>(p), v));
    }

    cl.restore(snap);
    ASSERT_EQ(cl.run(100'000), end1);
    ASSERT_EQ(cl.stats(), stats1);
    std::size_t di = 0;
    for (unsigned p = 0; p < cfg.cores; ++p) {
        ASSERT_EQ(cl.core_state(static_cast<CoreId>(p)), states1[p]) << "core " << p;
        for (Addr v = 0; v < kLayout.limit(); ++v)
            ASSERT_EQ(cl.dm_peek(static_cast<CoreId>(p), v), dm1[di++]) << "vaddr " << v;
    }
}

TEST(ClusterReuse, SnapshotRestoreUndoesFaultAndTextPatch) {
    const auto prog = loop_program();
    const auto patched = isa::assemble(R"(
            movi r1, 700
            movi r2, 30
    loop:   add  r3, r3, #7
            mov  @r1+, r3
            sub  r2, r2, #1
            bra  ne, loop
    done:   bra  al, done
    )");
    const auto cfg = cfg_of(cluster::ArchKind::UlpmcBank, 1);

    cluster::Cluster ref(cfg, prog);
    const Cycle clean = ref.run(100'000);

    cluster::Cluster cl(cfg, prog);
    cl.run(40);
    cluster::Cluster::Snapshot snap;
    cl.save(snap);
    cl.im_poke(2, patched.text[2]); // text patch invalidates the memo
    cl.inject_im_fault(3, 0x3);     // plus a raw double-bit upset
    cl.dm_poke(0, 710, 0xDEAD);
    cl.run(300);

    cl.restore(snap); // must undo the faults, the patch, and the run
    ASSERT_EQ(cl.run(100'000), clean);
    expect_identical(cl, ref, cfg.cores, "restore undoes faults");
}

TEST(ClusterReuse, SnapshotPortableAcrossInstances) {
    // The batched tier's peel restores a snapshot of the REPRESENTATIVE
    // into a DIFFERENT cluster instance — one that may carry its own IM
    // dirt from a previous injection. The restore must erase the target's
    // dirt (dirt-union repair), apply the source's, and land bit-exactly.
    const auto prog = loop_program();
    const auto image = isa::ProgramImage::build(prog);
    const auto cfg = cfg_of(cluster::ArchKind::UlpmcBank, 2);

    cluster::Cluster a(cfg, image);
    a.run(60);
    cluster::Cluster::Snapshot snap;
    a.save(snap);

    cluster::Cluster b(cfg, image);
    b.run(33);
    b.inject_im_fault(4, 0x1); // dirt at a PC clean in a's snapshot
    b.inject_dm_fault(0, 700, 0xFF);
    b.run(100);

    b.restore(snap);
    ASSERT_TRUE(b.state_equals(snap));
    ASSERT_EQ(b.run(100'000), a.run(100'000));
    expect_identical(a, b, cfg.cores, "cross-instance restore");
}

TEST(ClusterReuse, SnapshotStoresOnlyDirtyImCells) {
    // Memory-dedup contract: the IM is captured as (per-bank stats +
    // raw cells of the dirty PCs), never the full kImWordsTotal image —
    // what keeps a 12-rung campaign ladder affordable per thread.
    const auto prog = loop_program();
    const auto cfg = cfg_of(cluster::ArchKind::UlpmcBank, 2);

    cluster::Cluster cl(cfg, prog);
    cl.run(50);
    cluster::Cluster::Snapshot clean;
    cl.save(clean);
    ASSERT_EQ(clean.saved_im_cells(), 0u) << "clean IM captures zero cells";

    cl.inject_im_fault(2, 0x1);
    cl.inject_im_fault(5, 0x3);
    cluster::Cluster::Snapshot dirty;
    cl.save(dirty);
    ASSERT_GE(dirty.saved_im_cells(), 2u) << "both dirty PCs captured";
    ASSERT_LE(dirty.saved_im_cells(), std::size_t{2} * cfg.cores)
        << "only dirty-PC replicas, not the whole IM";

    // Restore-identity: the dirty snapshot replays the faulted execution,
    // the clean one undoes the dirt entirely.
    cluster::Cluster ref(cfg, prog);
    const Cycle clean_cycles = ref.run(100'000);
    cl.restore(clean);
    ASSERT_EQ(cl.run(100'000), clean_cycles);
    expect_identical(cl, ref, cfg.cores, "clean snapshot undoes IM dirt");
}

TEST(ClusterReuse, StateEqualsTracksDivergence) {
    const auto prog = loop_program();
    const auto cfg = cfg_of(cluster::ArchKind::UlpmcInt, 2);

    cluster::Cluster cl(cfg, prog);
    cl.run(60);
    cluster::Cluster::Snapshot snap;
    cl.save(snap);
    ASSERT_TRUE(cl.state_equals(snap)) << "reflexive at the save point";

    cl.run(65);
    ASSERT_FALSE(cl.state_equals(snap)) << "mid-loop progress diverges";

    cl.restore(snap);
    ASSERT_TRUE(cl.state_equals(snap));
    cl.inject_dm_fault(0, 705, 0xF0);
    ASSERT_FALSE(cl.state_equals(snap)) << "DM upset is future-determining";
}

TEST(ClusterReuse, PooledClusterReinitializesSameInstance) {
    const auto image = isa::ProgramImage::build(loop_program());
    const auto cfg = cfg_of(cluster::ArchKind::UlpmcBank, 2);

    cluster::Cluster& a = cluster::pooled_cluster(cfg, image);
    const Cycle cy = a.run(100'000);
    const auto stats = a.stats();

    cluster::Cluster& b = cluster::pooled_cluster(cfg, image);
    ASSERT_EQ(&a, &b) << "one instance per thread";
    ASSERT_EQ(b.stats().cycles, 0u) << "handed back re-initialized";
    ASSERT_EQ(b.run(100'000), cy);
    ASSERT_EQ(b.stats(), stats);
}

TEST(ClusterReuse, PooledClusterKeepsOneBucketPerShape) {
    const auto image = isa::ProgramImage::build(loop_program());
    cluster::pooled_cluster_clear();
    const auto before = cluster::pooled_cluster_stats();

    // Two distinct shapes (core count differs): each gets its own bucket,
    // and alternating between them re-uses both instances.
    const auto cfg2 = cfg_of(cluster::ArchKind::UlpmcBank, 2);
    const auto cfg4 = cfg_of(cluster::ArchKind::UlpmcBank, 4);
    cluster::Cluster* c2 = &cluster::pooled_cluster(cfg2, image);
    cluster::Cluster* c4 = &cluster::pooled_cluster(cfg4, image);
    ASSERT_NE(c2, c4) << "distinct shapes must not share a bucket";
    for (int i = 0; i < 3; ++i) {
        ASSERT_EQ(&cluster::pooled_cluster(cfg2, image), c2);
        ASSERT_EQ(&cluster::pooled_cluster(cfg4, image), c4);
    }

    const auto after = cluster::pooled_cluster_stats();
    EXPECT_EQ(after.buckets, 2u);
    EXPECT_EQ(after.misses - before.misses, 2u) << "one construction per shape";
    EXPECT_EQ(after.hits - before.hits, 6u) << "every revisit is a bucket hit";
    EXPECT_EQ(after.evictions - before.evictions, 0u);

    // Protection-flag changes share the shape bucket: reset() handles them
    // without re-construction (the fleet ladder path).
    auto prot = cfg2;
    prot.ecc_enabled = true;
    prot.reg_protection = core::RegProtection::Tmr;
    ASSERT_EQ(&cluster::pooled_cluster(prot, image), c2);
    EXPECT_EQ(cluster::pooled_cluster_stats().hits - before.hits, 7u);
}

TEST(ClusterReuse, PooledClusterEvictsColdestShape) {
    const auto image = isa::ProgramImage::build(loop_program());
    cluster::pooled_cluster_clear();
    const auto before = cluster::pooled_cluster_stats();

    // Walk more shapes than the pool can hold (vary core count): the live
    // bucket count stays bounded and the overflow evicts.
    for (unsigned n = 0; n < cluster::kPoolMaxBuckets + 2; ++n) {
        const auto cfg = cfg_of(n < 8 ? cluster::ArchKind::UlpmcBank : cluster::ArchKind::McRef,
                                1 + (n % 8));
        cluster::pooled_cluster(cfg, image);
    }
    const auto after = cluster::pooled_cluster_stats();
    EXPECT_EQ(after.buckets, cluster::kPoolMaxBuckets);
    EXPECT_EQ(after.misses - before.misses, cluster::kPoolMaxBuckets + 2);
    EXPECT_EQ(after.evictions - before.evictions, 2u) << "overflow evicts the coldest";
    cluster::pooled_cluster_clear();
    EXPECT_EQ(cluster::pooled_cluster_stats().buckets, 0u);
}

} // namespace
} // namespace ulpmc
