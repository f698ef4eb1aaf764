// Parallel design-space sweep runner.
//
// The paper's methodology is a design-space exploration: the same
// application is simulated across architecture variants (IM policy, bank
// counts, core counts, voltage/frequency operating points) and the
// resulting cycle/access statistics feed the power model. Every point is
// an independent simulation, so the sweep is embarrassingly parallel —
// this runner fans the points out over a persistent thread pool, one
// Cluster instance per point, and returns results in INPUT ORDER
// regardless of which thread finished first, so sweep output (tables,
// figures) is deterministic.
//
// The pool is general-purpose: run() covers the common program-vs-configs
// sweep, map()/for_each_index() cover callers that build their own per-
// point work (e.g. whole EcgBenchmark runs, power-model evaluation). It is
// the repo's one pool: fault campaigns, a lifetime's struck-block fan-out
// and a fleet's devices (DESIGN.md §13 "One pool") all run on it. Threads
// claim one index at a time from a shared atomic cursor, so uneven
// per-index cost balances without any initial deal of the index space.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/config.hpp"
#include "cluster/stats.hpp"
#include "common/types.hpp"
#include "core/state.hpp"
#include "isa/program.hpp"

namespace ulpmc::sweep {

/// One configuration point of a design-space sweep.
struct SweepPoint {
    std::string label;          ///< identifies the point in result tables
    cluster::ClusterConfig cfg; ///< full architecture configuration
    Cycle max_cycles = 50'000'000;
};

/// Everything a sweep consumer needs from one simulated point.
struct SweepOutcome {
    std::string label;
    cluster::ClusterConfig cfg;
    cluster::ClusterStats stats;
    std::vector<core::CoreState> final_states; ///< one per core
    bool all_halted = false; ///< false: hit max_cycles or a core trapped
    Cycle cycles = 0;
};

/// A persistent pool of worker threads executing index-parallel batches.
/// The calling thread participates in every batch, so a runner built with
/// `threads == 1` degenerates to plain sequential execution (no pool
/// threads at all) — useful as the deterministic reference in tests.
class SweepRunner {
public:
    /// `threads == 0` uses the hardware concurrency.
    explicit SweepRunner(unsigned threads = 0);
    ~SweepRunner();

    SweepRunner(const SweepRunner&) = delete;
    SweepRunner& operator=(const SweepRunner&) = delete;

    /// Total workers per batch, the caller included.
    unsigned threads() const { return static_cast<unsigned>(workers_.size()) + 1; }

    /// Invokes `fn(i)` for every i in [0, n), distributed over the pool.
    /// Blocks until all calls returned. After the first exception thrown
    /// by any call, no thread claims a new index: calls already running
    /// finish, then that exception is rethrown here. Not reentrant: `fn`
    /// must not call back into the same runner.
    void for_each_index(std::size_t n, const std::function<void(std::size_t)>& fn);

    /// Parallel transform preserving input order: out[i] = fn(items[i]).
    template <typename T, typename Fn>
    auto map(std::span<const T> items, Fn&& fn) {
        using R = std::invoke_result_t<Fn&, const T&>;
        std::vector<R> out(items.size());
        for_each_index(items.size(),
                       [&](std::size_t i) { out[i] = fn(items[i]); });
        return out;
    }

    /// Simulates `prog` under every configuration point. Results are in
    /// the same order as `points`.
    std::vector<SweepOutcome> run(const isa::Program& prog,
                                  std::span<const SweepPoint> points);

private:
    /// One in-flight batch; lives on for_each_index()'s stack. `next` is
    /// the lock-free shared claim cursor; the rest is guarded by m_.
    struct Batch {
        const std::function<void(std::size_t)>* fn = nullptr;
        std::size_t count = 0;
        std::atomic<std::size_t> next{0};
        unsigned attached = 0;     ///< threads currently draining
        std::exception_ptr error;  ///< first failure, rethrown by caller
    };

    void worker_loop();
    void drain(Batch& b);

    std::vector<std::thread> workers_;
    std::mutex m_;
    std::condition_variable work_cv_; ///< signals a new batch (or stop)
    std::condition_variable done_cv_; ///< signals batch fully drained
    Batch* current_ = nullptr;
    std::uint64_t batch_id_ = 0;
    bool stop_ = false;
};

} // namespace ulpmc::sweep
