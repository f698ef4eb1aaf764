#include "fleet/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/assert.hpp"

namespace ulpmc::fleet {

namespace {

struct Range {
    std::uint64_t begin = 0, end = 0; ///< half-open
    std::uint64_t size() const { return end - begin; }
};

/// One worker's deque of unclaimed ranges. The owner claims single
/// indices from the FRONT range (device granularity, so one long device
/// never holds later indices hostage); thieves split off whole ranges
/// from the BACK, which keeps the owner's locality streak intact.
struct WorkerDeque {
    std::mutex m;
    std::deque<Range> ranges;
    std::uint64_t executed = 0;
    std::uint64_t steals = 0;
    std::uint64_t stolen_tasks = 0;
};

} // namespace

WorkStealingPool::WorkStealingPool(unsigned threads)
    : threads_(threads != 0 ? threads : std::max(1u, std::thread::hardware_concurrency())) {}

WorkStealingPool::Stats
WorkStealingPool::run(std::uint64_t n, const std::function<void(std::uint64_t, unsigned)>& fn) {
    const unsigned w = threads_;
    std::vector<WorkerDeque> deques(w);

    // Initial deal: contiguous slices, remainder spread over the leaders.
    const std::uint64_t base = n / w, extra = n % w;
    std::uint64_t next = 0;
    for (unsigned i = 0; i < w; ++i) {
        const std::uint64_t take = base + (i < extra ? 1 : 0);
        if (take > 0) deques[i].ranges.push_back({next, next + take});
        next += take;
    }
    ULPMC_EXPECTS(next == n);

    std::atomic<std::uint64_t> remaining{n};
    std::atomic<bool> abort{false};
    std::mutex err_m;
    std::exception_ptr error;

    auto worker = [&](unsigned self) {
        WorkerDeque& mine = deques[self];
        while (!abort.load(std::memory_order_relaxed)) {
            // Claim one index from my own front range.
            std::uint64_t idx = 0;
            bool have = false;
            {
                std::lock_guard lock(mine.m);
                if (!mine.ranges.empty()) {
                    Range& r = mine.ranges.front();
                    idx = r.begin++;
                    if (r.begin == r.end) mine.ranges.pop_front();
                    have = true;
                }
            }
            if (!have) {
                // Steal: take half of the richest-looking victim's ranges
                // (back half, so the victim keeps its locality streak).
                if (remaining.load(std::memory_order_acquire) == 0) return;
                bool stole = false;
                for (unsigned hop = 1; hop < w && !stole; ++hop) {
                    WorkerDeque& victim = deques[(self + hop) % w];
                    // Both locks at once (deadlock-avoiding order): two
                    // thieves robbing each other must not invert the order.
                    std::scoped_lock lock(victim.m, mine.m);
                    const std::size_t nr = victim.ranges.size();
                    if (nr == 0) continue;
                    std::uint64_t moved = 0;
                    if (nr == 1) {
                        // Split the lone range in half; steal the top half.
                        Range& r = victim.ranges.front();
                        if (r.size() < 2) continue;
                        const std::uint64_t mid = r.begin + r.size() / 2;
                        mine.ranges.push_back({mid, r.end});
                        moved = r.end - mid;
                        r.end = mid;
                    } else {
                        for (std::size_t k = 0; k < (nr + 1) / 2; ++k) {
                            mine.ranges.push_back(victim.ranges.back());
                            moved += victim.ranges.back().size();
                            victim.ranges.pop_back();
                        }
                    }
                    ++mine.steals;
                    mine.stolen_tasks += moved;
                    stole = true;
                }
                if (!stole) {
                    if (remaining.load(std::memory_order_acquire) == 0) return;
                    std::this_thread::yield();
                }
                continue;
            }
            try {
                fn(idx, self);
            } catch (...) {
                {
                    std::lock_guard lock(err_m);
                    if (!error) error = std::current_exception();
                }
                abort.store(true, std::memory_order_relaxed);
            }
            ++mine.executed;
            remaining.fetch_sub(1, std::memory_order_release);
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(w - 1);
    for (unsigned i = 1; i < w; ++i) pool.emplace_back(worker, i);
    worker(0);
    for (auto& t : pool) t.join();

    if (error) std::rethrow_exception(error);

    Stats s;
    s.workers = w;
    for (const WorkerDeque& d : deques) {
        s.executed += d.executed;
        s.steals += d.steals;
        s.stolen_tasks += d.stolen_tasks;
    }
    return s;
}

} // namespace ulpmc::fleet
