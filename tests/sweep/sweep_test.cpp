// SweepRunner: deterministic input-order results, thread-count
// equivalence, exception propagation (the batch is abandoned at the first
// failure), and the degenerate cases.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cluster/config.hpp"
#include "isa/assembler.hpp"
#include "sweep/sweep.hpp"

namespace ulpmc {
namespace {

isa::Program test_program() {
    return isa::assemble(R"(
            movi r1, 512
            movi r2, 50
    loop:   add  r3, r3, #1
            mov  @r1+, r3
            sub  r2, r2, #1
            bra  ne, loop
    done:   bra  al, done
    )");
}

std::vector<sweep::SweepPoint> test_points() {
    const mmu::DmLayout layout{.shared_words = 512, .private_words_per_core = 2048};
    std::vector<sweep::SweepPoint> points;
    for (const auto arch : {cluster::ArchKind::McRef, cluster::ArchKind::UlpmcInt,
                            cluster::ArchKind::UlpmcBank}) {
        sweep::SweepPoint pt;
        pt.label = cluster::arch_name(arch);
        pt.cfg = cluster::make_config(arch, layout);
        pt.max_cycles = 100'000;
        points.push_back(std::move(pt));
    }
    return points;
}

TEST(SweepRunner, ThreadsAccessorCountsCaller) {
    sweep::SweepRunner one(1);
    EXPECT_EQ(one.threads(), 1u); // no pool threads: sequential reference
    sweep::SweepRunner four(4);
    EXPECT_EQ(four.threads(), 4u);
}

TEST(SweepRunner, ForEachIndexCoversEveryIndexExactlyOnce) {
    sweep::SweepRunner pool(4);
    std::vector<std::atomic<int>> hits(257);
    pool.for_each_index(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(SweepRunner, MapPreservesInputOrder) {
    std::vector<int> items(100);
    std::iota(items.begin(), items.end(), 0);
    sweep::SweepRunner pool(4);
    const auto out =
        pool.map(std::span<const int>(items), [](const int& v) { return v * v; });
    ASSERT_EQ(out.size(), items.size());
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i * i));
}

TEST(SweepRunner, EmptyBatchIsANoOp) {
    sweep::SweepRunner pool(2);
    int calls = 0;
    pool.for_each_index(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    const auto out = pool.run(test_program(), {});
    EXPECT_TRUE(out.empty());
}

TEST(SweepRunner, SingleThreadRunsOnCallerInIndexOrder) {
    // The fleet gives every device's lifetime fan-out a SweepRunner(1):
    // it must spawn no thread and run the batch as a plain loop.
    sweep::SweepRunner pool(1);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    pool.for_each_index(50, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    ASSERT_EQ(order.size(), 50u);
    for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(SweepRunner, FirstExceptionAbandonsUnclaimedIndices) {
    // After the first exception no thread claims a new index: a fleet's
    // preemption or failing journal append stops the run instead of
    // simulating every remaining device.
    sweep::SweepRunner pool(1);
    std::vector<std::size_t> called;
    EXPECT_THROW(pool.for_each_index(10,
                                     [&](std::size_t i) {
                                         called.push_back(i);
                                         if (i == 3) throw std::runtime_error("index 3 failed");
                                     }),
                 std::runtime_error);
    EXPECT_EQ(called, (std::vector<std::size_t>{0, 1, 2, 3}));
    // The abandoned batch leaves the pool reusable.
    std::size_t n = 0;
    pool.for_each_index(10, [&](std::size_t) { ++n; });
    EXPECT_EQ(n, 10u);
}

TEST(SweepRunner, FirstExceptionPropagatesAndPoolStaysUsable) {
    sweep::SweepRunner pool(2);
    EXPECT_THROW(pool.for_each_index(
                     16, [](std::size_t i) {
                         if (i == 7) throw std::runtime_error("point 7 failed");
                     }),
                 std::runtime_error);
    // The pool must still be usable after a failed batch.
    std::atomic<int> n{0};
    pool.for_each_index(8, [&](std::size_t) { ++n; });
    EXPECT_EQ(n.load(), 8);
}

TEST(SweepRunner, RunMatchesSequentialReference) {
    const auto prog = test_program();
    const auto points = test_points();
    sweep::SweepRunner sequential(1);
    sweep::SweepRunner parallel(4);
    const auto ref = sequential.run(prog, points);
    const auto par = parallel.run(prog, points);
    ASSERT_EQ(ref.size(), points.size());
    ASSERT_EQ(par.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        // Input order preserved regardless of which thread ran the point.
        EXPECT_EQ(ref[i].label, points[i].label);
        EXPECT_EQ(par[i].label, ref[i].label);
        EXPECT_EQ(par[i].cycles, ref[i].cycles);
        EXPECT_EQ(par[i].all_halted, ref[i].all_halted);
        EXPECT_TRUE(ref[i].all_halted);
        EXPECT_EQ(par[i].stats, ref[i].stats);
        ASSERT_EQ(par[i].final_states.size(), ref[i].final_states.size());
        for (std::size_t p = 0; p < ref[i].final_states.size(); ++p)
            EXPECT_EQ(par[i].final_states[p], ref[i].final_states[p]);
    }
}

} // namespace
} // namespace ulpmc
