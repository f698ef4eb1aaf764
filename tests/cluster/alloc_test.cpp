// Zero-allocation guarantees for the reuse layer (own binary: it replaces
// the global allocator with a counting one). After warm-up, steady-state
// Cluster::step()/run() must not touch the heap, and neither must the
// shapes the sweep runner, fault campaigns and lifetime engine execute per
// point: reset() with unchanged geometry, save() into a warm snapshot,
// restore(), and the clean-run memo paths built from them.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "app/benchmark.hpp"
#include "cluster/clean_run.hpp"
#include "cluster/cluster.hpp"
#include "cluster/config.hpp"
#include "cluster/pool.hpp"
#include "fault/fault.hpp"
#include "isa/assembler.hpp"
#include "isa/program_image.hpp"

namespace {
std::atomic<std::uint64_t> g_news{0};
std::uint64_t alloc_count() { return g_news.load(std::memory_order_relaxed); }
} // namespace

void* operator new(std::size_t sz) {
    g_news.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(sz ? sz : 1)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t sz) { return ::operator new(sz); }
void* operator new(std::size_t sz, const std::nothrow_t&) noexcept {
    g_news.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(sz ? sz : 1);
}
void* operator new[](std::size_t sz, const std::nothrow_t& t) noexcept {
    return ::operator new(sz, t);
}
void* operator new(std::size_t sz, std::align_val_t al) {
    g_news.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(al);
    if (void* p = std::aligned_alloc(a, (sz + a - 1) / a * a)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t sz, std::align_val_t al) { return ::operator new(sz, al); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace ulpmc {
namespace {

constexpr mmu::DmLayout kLayout{.shared_words = 512, .private_words_per_core = 2048};

isa::Program loop_program() {
    return isa::assemble(R"(
            movi r1, 700
            movi r2, 2000
    loop:   add  r3, r3, #1
            mov  @r1, r3
            sub  r2, r2, #1
            bra  ne, loop
    done:   bra  al, done
    )");
}

cluster::ClusterConfig make_cfg(unsigned cores) {
    auto cfg = cluster::make_config(cluster::ArchKind::UlpmcBank, kLayout);
    cfg.cores = cores;
    return cfg;
}

TEST(ZeroAlloc, SteadyStateStepIsHeapFree) {
    const auto prog = loop_program();
    const auto cfg = make_cfg(8);
    cluster::Cluster cl(cfg, prog);
    cl.run(200); // warm-up: scratch buffers and decode caches settle

    const std::uint64_t before = alloc_count();
    for (int i = 0; i < 2'000; ++i) cl.step();
    EXPECT_EQ(alloc_count(), before) << "Cluster::step() allocated on the heap";
}

TEST(ZeroAlloc, SteadyStateRunBurstIsHeapFree) {
    const auto prog = loop_program();
    const auto cfg = make_cfg(1); // single active core: the memo-lane path
    cluster::Cluster cl(cfg, prog);
    cl.run(100);

    const std::uint64_t before = alloc_count();
    cl.run(6'000); // trace bursts + memoized lanes
    EXPECT_EQ(alloc_count(), before) << "Cluster::run() burst allocated on the heap";
}

TEST(ZeroAlloc, SweepAndCampaignInnerLoopIsHeapFree) {
    const auto image = isa::ProgramImage::build(loop_program());
    const auto cfg = make_cfg(4);

    // Warm-up: one full pass through every reuse shape so each buffer and
    // snapshot reaches its steady-state capacity.
    cluster::Cluster cl(cfg, image);
    cluster::Cluster::Snapshot snap;
    cl.run(60);
    cl.save(snap);
    cl.restore(snap);
    cl.run(100'000);
    cl.reset(cfg, image);
    cl.run(60);
    cl.save(snap);

    const std::uint64_t before = alloc_count();
    // Campaign shape: restore a ladder rung, run the injection to the end.
    for (int i = 0; i < 4; ++i) {
        cl.restore(snap);
        cl.run(100'000);
    }
    // Sweep shape: re-launch the same geometry from scratch.
    for (int i = 0; i < 4; ++i) {
        cl.reset(cfg, image);
        cl.run(100'000);
        cl.save(snap); // campaigns re-snapshot per ladder rebuild
    }
    EXPECT_EQ(alloc_count(), before) << "reuse inner loop allocated on the heap";
}

TEST(ZeroAlloc, LifetimeMemoStruckBlockLoopIsHeapFree) {
    // Lifetime shape (DESIGN.md §12): per struck block, the worker's
    // pooled cluster is freshly loaded with the block's inputs, restored
    // to the memo's rung below the strike, struck, and then either
    // rejoins the clean run or runs on to the bound and is verified.
    const app::EcgBenchmark bench;
    auto cfg = cluster::make_config(cluster::ArchKind::UlpmcBank, bench.layout().dm_layout());
    cfg.barrier_enabled = bench.layout().use_barrier;
    cfg.watchdog_cycles = cluster::kWatchdogCycles;
    cfg.ecc_enabled = true;
    cfg.reg_protection = core::RegProtection::Parity;

    cluster::Cluster& capture = cluster::pooled_cluster(cfg, bench.image());
    bench.load_inputs(capture, cfg.cores);
    const cluster::CleanRun memo(capture);
    const Cycle clean = memo.cycles();
    const Cycle bound = cluster::hang_bound(cfg, clean);

    // Blocks struck as the lifetime universe draws them.
    fault::FaultUniverse u;
    u.text_words = bench.program().text.size();
    u.dm_words = bench.layout().dm_layout().limit();
    u.window = clean;
    fault::FaultInjector inj(1);
    fault::FaultSpec specs[8];
    for (auto& f : specs) f = inj.draw(u);

    cluster::ClusterStats credited;
    std::uint64_t joined = 0, walked = 0;
    const auto block = [&](const fault::FaultSpec& f) {
        cluster::Cluster& cl = cluster::pooled_cluster(cfg, bench.image());
        bench.load_inputs(cl, cfg.cores);
        const unsigned from = memo.restore_below(cl, f.cycle);
        cl.run(f.cycle);
        fault::FaultInjector::apply(cl, f);
        if (memo.rejoin(cl, from, credited)) {
            ++joined;
        } else {
            cl.run(bound);
            walked += bench.verify(cl, cfg.cores) ? 1 : 2;
        }
    };
    // Warm-up: every block once, so each buffer reaches its capacity.
    for (const auto& f : specs) block(f);

    const std::uint64_t before = alloc_count();
    for (int i = 0; i < 2; ++i)
        for (const auto& f : specs) block(f);
    EXPECT_EQ(alloc_count(), before) << "memo struck-block loop allocated on the heap";
    EXPECT_GT(joined, 0u) << "some block must rejoin";
    EXPECT_GT(walked, 0u) << "some block must run on to the bound";
    cluster::pooled_cluster_clear();
}

TEST(ZeroAlloc, BatchedCampaignInnerLoopIsHeapFree) {
    const auto prog = loop_program();
    const auto image = isa::ProgramImage::build(prog);
    auto cfg = make_cfg(4);
    cfg.engine = cluster::SimEngine::Batched;

    // Campaign shape: the clean run is captured once; every injection
    // then restores the rung below its strike, strikes, walks the later
    // rungs trying to rejoin, and either materializes its credited
    // statistics or simulates to the end. DM faults only, so the
    // snapshots' IM dirt lists stay at their warm capacity.
    cluster::Cluster golden(cfg, image);
    const cluster::CleanRun clean(golden);
    constexpr unsigned kRungs = cluster::CleanRun::kRungs;
    cluster::Cluster cl(cfg, image);
    // run_campaign saves each thread's freshly loaded cluster (rung 0)
    // once and restores it before every injection.
    cluster::Cluster::Snapshot loaded;
    cl.save(loaded);
    cluster::ClusterStats credited;
    std::uint64_t joined = 0;
    const auto inject = [&](Cycle strike, Word mask) {
        cl.restore(loaded);
        const unsigned from = clean.restore_below(cl, strike);
        cl.run(strike);
        if (mask != 0) cl.inject_dm_fault(0, 700, mask);
        if (clean.rejoin(cl, from, credited)) {
            ++joined;
        } else {
            cl.run(100'000);
        }
    };

    // Warm-up pass: every rung restored once, the stats buffer sized.
    for (unsigned r = 0; r < kRungs; ++r) inject(clean.rung_cycle(r) + 1, 0xFF);

    const std::uint64_t before = alloc_count();
    for (int i = 0; i < 4; ++i) {
        for (unsigned r = 0; r < kRungs; ++r) {
            inject(clean.rung_cycle(r) + 5, 0x0F);
            inject(clean.rung_cycle(r) + 2, 0); // unstruck: rejoins
        }
    }
    EXPECT_EQ(alloc_count(), before) << "batched campaign inner loop allocated on the heap";
    EXPECT_GE(joined, 4u * kRungs) << "the unstruck injections must rejoin";
}

TEST(ZeroAlloc, FleetHeterogeneousPoolLoopIsHeapFree) {
    // Fleet shape (DESIGN.md §13): one worker interleaves devices of
    // DIFFERENT shapes — e.g. an 8-core banked device's calibration run
    // followed by a 2-core reference one — through pooled_cluster(). The
    // per-shape buckets must make the alternating loop heap-free once
    // every shape in the working set has been constructed.
    const auto prog = loop_program();
    const auto image = isa::ProgramImage::build(prog);
    auto cfg_a = make_cfg(8);
    auto cfg_b = cluster::make_config(cluster::ArchKind::McRef, kLayout);
    cfg_b.cores = 2;
    cfg_b.ecc_enabled = true;

    cluster::pooled_cluster_clear();
    // Warm-up: construct both shape buckets and let their buffers settle.
    cluster::pooled_cluster(cfg_a, image).run(100'000);
    cluster::pooled_cluster(cfg_b, image).run(100'000);
    const auto warm = cluster::pooled_cluster_stats();

    const std::uint64_t before = alloc_count();
    for (int i = 0; i < 4; ++i) {
        cluster::pooled_cluster(cfg_a, image).run(100'000);
        // Ladder rung on the same shape: protection flags flip in place.
        auto rung = cfg_a;
        rung.reg_protection = core::RegProtection::Parity;
        cluster::pooled_cluster(rung, image).run(100'000);
        cluster::pooled_cluster(cfg_b, image).run(100'000);
    }
    EXPECT_EQ(alloc_count(), before) << "heterogeneous pool loop allocated on the heap";
    const auto after = cluster::pooled_cluster_stats();
    EXPECT_EQ(after.misses, warm.misses) << "warm shapes must never re-construct";
    EXPECT_EQ(after.evictions, 0u);
    cluster::pooled_cluster_clear();
}

} // namespace
} // namespace ulpmc
