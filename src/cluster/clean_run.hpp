// One fault-free run captured as a snapshot ladder (DESIGN.md §11).
//
// A fault campaign strikes many copies of the same deterministic run, so
// the clean prefix before a strike is the same for every injection, and
// so is the clean tail after a strike whose upset has washed out. Both
// are taken from one captured clean run instead of being re-simulated:
//
//   restore_below() seeds a cluster from the highest rung at or below the
//   strike cycle;
//   rejoin() walks the struck cluster to each later rung and proves with
//   Cluster::state_equals that it is back on the clean schedule, then
//   credits the clean tail from the rungs' saved statistics.
//
// Both are exact by determinism: the results are bit-identical to a
// standalone run (tests/cluster/clean_run_test.cpp). The ladder is
// immutable once built, so one copy serves every thread of a campaign.
#pragma once

#include <optional>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/stats.hpp"
#include "common/types.hpp"

namespace ulpmc::cluster {

class CleanRun {
public:
    /// Restore rungs (the final state is not one of them).
    static constexpr unsigned kRungs = 12;

    /// Captures the clean run of `cl`, which must be loaded and at cycle
    /// 0: runs it to quiescence, then replays it saving rung r at cycle
    /// r * floor(cycles / kRungs) for r < kRungs, plus the final state as
    /// the last rung. Leaves `cl` at the final state.
    explicit CleanRun(Cluster& cl);

    const Cluster::Snapshot& rung(unsigned r) const { return ladder_[r]; }
    const Cluster::Snapshot& final_state() const { return ladder_.back(); }
    /// Length of the clean run.
    Cycle cycles() const { return final_state().saved_cycle(); }

    /// Restores into `cl` the highest rung at or below `cycle` and
    /// returns its index. `cl` must share the capture's configuration and
    /// program image.
    unsigned restore_below(Cluster& cl, Cycle cycle) const;

    /// `cl` followed the clean run up to rung `from` and has diverged
    /// since. Advances it to each later rung in turn, final state
    /// included, until its state equals the rung's. On a match at rung r,
    /// writes the run's final statistics into `out` — cl's own statistics
    /// at r plus the clean tail, final minus r, on every event counter —
    /// and returns r. Returns nullopt when no rung matched; `cl` then
    /// stands at the final state's cycle, or wherever it quiesced.
    std::optional<unsigned> rejoin(Cluster& cl, unsigned from, ClusterStats& out) const;

private:
    std::vector<Cluster::Snapshot> ladder_;
};

} // namespace ulpmc::cluster
