// One fault-free run captured as a compact snapshot ladder (DESIGN.md §11).
//
// Fault campaigns and struck lifetime blocks strike copies of the same
// deterministic run, so the clean prefix before a strike is the same for
// every injection, and so is the clean tail after a strike whose upset
// has washed out. Both are taken from one captured clean run instead of
// being re-simulated:
//
//   restore_below() seeds a cluster from the highest rung at or below the
//   strike cycle;
//   matches() proves with Cluster::state_equals that the struck cluster is
//   back on the clean run at a rung; rejoin() walks it to each later rung
//   until one matches, then credits the clean tail from the rungs' saved
//   statistics.
//
// A rung is appended wherever the caller stops the clean run: at even
// strides (the constructor), or at every block top of the checkpointed
// stream (app/streaming.hpp). The last rung is the final state.
//
// Rungs are compact. Rung 0 is not stored at all: it is the freshly
// loaded cluster every caller builds anyway. Every later rung stores its
// snapshot's Control half whole plus the DM cells that changed since the
// rung before it, a few hundred words where a full snapshot carries the
// whole DM. A rung is materialized on demand against the loaded state,
// into one snapshot per thread that moves forward rung by rung.
//
// All operations are exact by determinism: the results are bit-identical
// to a standalone run (tests/cluster/clean_run_test.cpp,
// tests/fault/fork_walk_test.cpp, tests/fault/stream_memo_test.cpp). The
// ladder is immutable once captured, so one copy serves every thread of a
// campaign, or every device of a fleet that shares a calibration.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/stats.hpp"
#include "common/types.hpp"

namespace ulpmc::cluster {

class CleanRun {
public:
    /// Restore rungs of the evenly spaced ladder (the final state is not
    /// one of them).
    static constexpr unsigned kRungs = 12;

    /// Captures the clean run of `cl`, which must be freshly loaded (cycle
    /// 0, inputs in place): runs it to quiescence, then replays it saving
    /// rung r at cycle r * floor(cycles / kRungs) for r < kRungs, plus the
    /// final state as rung kRungs. Leaves `cl` at the final state. A
    /// caller that already knows the run's length (a calibration ran it)
    /// passes it as `length`, which saves the sizing run.
    explicit CleanRun(Cluster& cl, std::optional<Cycle> length = std::nullopt);

    /// Starts a ladder whose rung 0 is the freshly loaded `loaded`.
    static CleanRun begin(const Cluster& loaded);

    /// Appends `cl`, the cluster begin() was given run on, as the next
    /// rung; the last rung appended is the final state. This thread uses
    /// no other CleanRun between begin() and the last append().
    void append(const Cluster& cl);

    /// Index of the final state's rung.
    unsigned final_rung() const { return static_cast<unsigned>(rungs_.size() - 1); }
    /// Cycle of rung r.
    Cycle rung_cycle(unsigned r) const { return rungs_[r].state.saved_cycle(); }
    /// Statistics of the clean run at rung r >= 1.
    const ClusterStats& rung_stats(unsigned r) const;
    /// Length of the clean run.
    Cycle cycles() const { return rung_cycle(final_rung()); }
    /// Statistics of the whole clean run.
    const ClusterStats& final_stats() const { return rung_stats(final_rung()); }

    /// Restores into `cl` the highest rung at or below `cycle`, the final
    /// state excluded, and returns its index. `cl` must be freshly loaded, exactly
    /// as the capture's cluster was (same configuration, program image and
    /// inputs), or restored from a snapshot of such a cluster, so it
    /// already stands at rung 0. The engine tier may differ
    /// among the fast-path tiers (fast, trace, batched).
    unsigned restore_below(Cluster& cl, Cycle cycle) const;

    /// True when `cl` is back on the clean run at rung r. This thread last
    /// restored a rung at or below r of this ladder, and has matched only
    /// rungs up to r since.
    bool matches(const Cluster& cl, unsigned r) const;

    /// `cl` was seeded by restore_below() on this thread, returning
    /// `from`, and has diverged since. Advances it to each later rung in
    /// turn, final state included, until it matches() the rung. On a
    /// match at rung r, writes the run's final statistics into `out` —
    /// cl's own statistics at r plus the clean tail, final minus r, on
    /// every event counter — and returns r. Returns nullopt when no rung
    /// matched; `cl` then stands at the final state's cycle, or wherever
    /// it quiesced.
    std::optional<unsigned> rejoin(Cluster& cl, unsigned from, ClusterStats& out) const;

    /// Rung r in full, materialized against the freshly loaded `loaded`
    /// (the same precondition as restore_below). Valid until this thread
    /// next uses any CleanRun.
    const Cluster::Snapshot& materialize(const Cluster& loaded, unsigned r) const;

    /// Heap bytes the ladder holds.
    std::size_t resident_bytes() const;

    /// Tells this ladder from every other one built in the process.
    std::uint64_t id() const { return id_; }

private:
    /// One DM cell as it stands at a rung (DM cells hold 16-bit words).
    struct DmCell {
        std::uint16_t offset = 0;
        std::uint8_t bank = 0;
        std::uint8_t check = 0;
        std::uint16_t cell = 0;
    };
    struct Rung {
        Cluster::Snapshot::Control state; ///< everything but the DM cells
        std::vector<DmCell> dm;           ///< DM cells that differ from the rung before
    };
    /// This thread's one materialized rung.
    struct Materialized;
    static Materialized& materialized();
    /// Moves this thread's materialized rung forward to `r`.
    void advance(Materialized& m, unsigned r) const;

    CleanRun() = default;

    std::uint64_t id_ = 0;    ///< tells this run's materialized rungs from another's
    std::vector<Rung> rungs_; ///< rung 0 holds nothing
};

} // namespace ulpmc::cluster
