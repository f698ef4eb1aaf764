// The four benchmark workloads (README.md gives the reason for each).
//
// A workload builds its inputs from the seed (timed as set-up), then
// repeats one fixed-size closed batch until the run's time is spent,
// timing only the batch. End-to-end numbers are medians over the
// untraced repetitions. In a traced run the repetitions alternate
// untraced/traced — the ratio of their medians is the tracing overhead —
// and the workload adds its attribution passes and per-layer metrics.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "pins.hpp"
#include "spans.hpp"

namespace perfbench {

struct Context {
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;      ///< traced run: per-layer metrics instead of end-to-end
    bool oracle = false;     ///< pinning run: use the reference oracle where one exists
    std::string work_dir;    ///< scratch files (journal, artifacts)
    unsigned workers = 4;    ///< every pool's worker count
};

struct Result {
    std::vector<double> setup_s;  ///< one sample per set-up
    std::vector<double> rep_s;    ///< untraced repetition times
    std::vector<double> traced_s; ///< traced repetition times (traced run only)
    double ops_per_rep = 0;           ///< checked operations per repetition
    double device_hours_per_rep = 0;  ///< simulated device time per repetition
    /// The workload's own throughput, printed beside the gated metrics
    /// (sim_cycles_per_s, injections_per_s or device_hours_per_s).
    std::string headline;
    std::string headline_unit;
    double headline_per_rep = 0;
    std::map<std::string, double> layers; ///< per-layer metrics (traced run)
};

using WorkloadFn = Result (*)(const Context&, Gate&);

Result run_ecg_sweep(const Context& ctx, Gate& gate);
Result run_fault_campaign(const Context& ctx, Gate& gate);
Result run_fleet_durable(const Context& ctx, Gate& gate);
Result run_lifetime_day(const Context& ctx, Gate& gate);

/// Runs `rep(traced)` until at least `min_reps` untraced repetitions ran
/// and another one would not end within `ctx.seconds`. In a traced run
/// repetitions alternate untraced/traced (spans recorded only in traced
/// ones). `rep` returns the seconds of its timed section.
template <typename Fn>
void repeat(const Context& ctx, unsigned min_reps, Result& res, Fn&& rep) {
    const Clock::time_point t0 = Clock::now();
    for (unsigned i = 0;; ++i) {
        const bool traced = ctx.trace && i % 2 == 1;
        const Clock::time_point r0 = Clock::now();
        Spans::enable(traced);
        const double t = rep(traced);
        Spans::enable(false);
        (traced ? res.traced_s : res.rep_s).push_back(t);
        const bool enough = res.rep_s.size() >= min_reps && (!ctx.trace || !res.traced_s.empty());
        if (enough && seconds_since(t0) + seconds_since(r0) > ctx.seconds) break;
    }
}

} // namespace perfbench
