#include "sweep/sweep.hpp"

#include "cluster/pool.hpp"
#include "common/assert.hpp"

namespace ulpmc::sweep {

SweepRunner::SweepRunner(unsigned threads) {
    if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
    // The caller participates in every batch, so spawn one fewer.
    workers_.reserve(threads - 1);
    for (unsigned t = 0; t + 1 < threads; ++t)
        workers_.emplace_back([this] { worker_loop(); });
}

SweepRunner::~SweepRunner() {
    {
        std::lock_guard lk(m_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (auto& w : workers_) w.join();
}

void SweepRunner::worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
        Batch* b = nullptr;
        {
            std::unique_lock lk(m_);
            work_cv_.wait(lk, [&] { return stop_ || (current_ && batch_id_ != seen); });
            if (stop_) return;
            seen = batch_id_;
            b = current_;
            ++b->attached;
        }
        drain(*b);
    }
}

void SweepRunner::drain(Batch& b) {
    for (;;) {
        const std::size_t i = b.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= b.count) break;
        std::exception_ptr err;
        try {
            (*b.fn)(i);
        } catch (...) {
            err = std::current_exception();
        }
        if (err) {
            std::lock_guard lk(m_);
            if (!b.error) b.error = err;
            // Abandon the batch: no thread claims a new index after the
            // first failure; calls already running finish.
            b.next.store(b.count, std::memory_order_relaxed);
        }
    }
    std::lock_guard lk(m_);
    ULPMC_ASSERT(b.attached > 0);
    --b.attached;
    if (b.attached == 0) done_cv_.notify_all();
}

void SweepRunner::for_each_index(std::size_t n, const std::function<void(std::size_t)>& fn) {
    if (n == 0) return;
    Batch b;
    b.fn = &fn;
    b.count = n;
    {
        std::lock_guard lk(m_);
        ULPMC_EXPECTS(current_ == nullptr); // not reentrant
        current_ = &b;
        ++batch_id_;
        ++b.attached; // the caller drains too
    }
    work_cv_.notify_all();
    drain(b);
    {
        // Wait for stragglers: a worker may still be inside its last
        // iteration (or between claiming the batch and finding it empty).
        // The caller's drain returned, so every index is claimed (or the
        // batch was abandoned); `attached == 0` then guarantees every
        // claimed call returned and no thread still touches `b`, which
        // lives on this stack frame.
        std::unique_lock lk(m_);
        done_cv_.wait(lk, [&] { return b.attached == 0; });
        current_ = nullptr;
    }
    if (b.error) std::rethrow_exception(b.error);
}

std::vector<SweepOutcome> SweepRunner::run(const isa::Program& prog,
                                           std::span<const SweepPoint> points) {
    // Decode once per sweep: every point (on every worker) loads from the
    // same shared image instead of re-deriving decode caches per reset
    // (DESIGN.md §11).
    const auto image = isa::ProgramImage::build(prog);
    std::vector<SweepOutcome> out(points.size());
    // Per-point result storage is laid out up front, so the parallel inner
    // loop below is free of heap allocation (pooled clusters + preallocated
    // outcome slots) once each worker's pooled instance is warm.
    for (std::size_t i = 0; i < points.size(); ++i) {
        out[i].label = points[i].label;
        out[i].cfg = points[i].cfg;
        out[i].final_states.resize(points[i].cfg.cores);
    }
    for_each_index(points.size(), [&](std::size_t i) {
        const SweepPoint& p = points[i];
        cluster::Cluster& cl = cluster::pooled_cluster(p.cfg, image);
        const Cycle cycles = cl.run(p.max_cycles);

        SweepOutcome& o = out[i];
        o.stats = cl.stats();
        o.cycles = cycles;
        bool all = true;
        for (unsigned c = 0; c < p.cfg.cores; ++c) {
            o.final_states[c] = cl.core_state(static_cast<CoreId>(c));
            all = all && cl.core_halted(static_cast<CoreId>(c));
        }
        o.all_halted = all;
    });
    return out;
}

} // namespace ulpmc::sweep
