// Generalized checkpoint/rollback service (DESIGN.md §9).
//
// PR 2's rollback was streaming-specific: the block boundary was the
// checkpoint and "rollback" was a cluster reset plus input replay, which
// only works because that workload keeps no state across blocks. This
// service generalizes it on top of Cluster::save/restore: checkpoints can
// be taken on a cycle interval or at explicit program points (the caller
// decides), they capture the FULL cluster state — register files, PC,
// flags, memories, arbitration state — so cross-checkpoint state (e.g.
// the streaming firmware's block counter) survives a rollback, and any
// detected-but-unhealable trap (ECC double-bit, register parity,
// watchdog) re-executes from the last checkpoint instead of fail-stopping
// the whole run. Re-execution cost is accounted (reexec_cycles) so the
// energy model can bound it.
#pragma once

#include "cluster/ckpt_store.hpp"
#include "cluster/cluster.hpp"
#include "common/types.hpp"
#include "fault/estimator.hpp"

namespace ulpmc::cluster {

/// Relative-change threshold before a newly solved adaptive interval is
/// adopted — re-tuning on every estimator wiggle thrashes the schedule for
/// nothing.
inline constexpr double kIntervalHysteresis = 0.25;

/// Lower clamp for the adaptive controller's solved interval: below it
/// checkpoint traffic dominates.
inline constexpr Cycle kMinCheckpointInterval = 200;

struct CheckpointConfig {
    /// Cycles between automatic checkpoints inside run(). 0 = explicit
    /// checkpoints only (the caller marks recovery points itself). Under
    /// `adaptive` this is only the STARTING interval (0 = start at
    /// max_interval); the controller re-solves it online.
    Cycle interval = 0;
    /// Rollbacks attempted since the last successful checkpoint before
    /// the runner gives up (a deterministic fault re-traps forever; the
    /// bound turns that into a detected, reported failure).
    unsigned max_retries = 2;
    /// Detect-before-save: checkpoint() rolls back instead of saving when
    /// the parity sweep finds a latched upset. Drivers that verify and
    /// recover per-core themselves (the streaming monitor, which must not
    /// sacrifice a whole checkpoint to a lead it already dropped) turn
    /// this off and query reg_parity_pending(pid) directly.
    bool parity_guard = true;

    // ---- adaptive interval control (DESIGN.md §9) ----------------------
    /// Re-solve the optimal-interval formula
    ///   T* = sqrt(2 * cores * W * E_word / (lambda * E_cycle))
    /// at every window boundary, with lambda from an online
    /// fault::UpsetRateEstimator over observed correction/trap events
    /// (ClusterStats::upset_events()). The other terms are power::cal's:
    /// W = kCheckpointWordsPerCore, E_word = kCheckpointWordEnergy and
    /// E_cycle = cores * kCoreEnergyPerOp.
    bool adaptive = false;
    /// Upper clamp for the solved interval (the lower one is
    /// kMinCheckpointInterval): above it detection latency dominates.
    Cycle max_interval = 100'000;

    // ---- durable delta storage (DESIGN.md §9.6) ------------------------
    /// Route every snapshot through the delta CheckpointStorage (keyframe
    /// + dirty-word delta records with CRC32). rollback() then restores
    /// by DECODING stored payload bytes — storage corruption becomes a
    /// real fault channel, detected by the CRC and absorbed by the
    /// keyframe fallback chain (or flowing into SDC when verification is
    /// off, which is what the storage-fault campaigns measure). The
    /// adaptive T* solve then prices a saved word at
    /// power::cal::kCheckpointDeltaWordEnergy (slightly above E_word for
    /// the dirty tracking) but only on the words a delta actually stores:
    /// it scales its save cost by the observed stored/full byte ratio, so
    /// cheap deltas buy shorter intervals.
    bool delta_store = false;
    CkptStorageConfig storage{};
};

struct CheckpointStats {
    std::uint64_t checkpoints = 0;   ///< snapshots taken
    std::uint64_t rollbacks = 0;     ///< restores after a detected error
    Cycle reexec_cycles = 0;         ///< simulated cycles thrown away by rollbacks
    bool gave_up = false;            ///< retry budget exhausted on one checkpoint
    /// delta_store only: every stored record failed verification on a
    /// rollback — a detected, unrecoverable storage loss (sets gave_up).
    bool storage_exhausted = false;
    // Adaptive-control telemetry (stay zero for fixed-interval runs).
    std::uint64_t interval_updates = 0; ///< re-solves that changed the interval
    Cycle current_interval = 0;      ///< interval in force (adaptive runs)
    double lambda_hat = 0.0;         ///< estimator rate at the last re-solve
};

/// Drives one Cluster with checkpoint/rollback semantics. The runner owns
/// the snapshot buffer (reused across checkpoints — steady state
/// allocates nothing) but not the cluster.
class CheckpointRunner {
public:
    explicit CheckpointRunner(Cluster& cl) : cl_(cl) {}

    /// Re-arms the runner for a fresh run of the (possibly reset) cluster:
    /// statistics cleared, no checkpoint held. Snapshot buffers are kept.
    void reset(const CheckpointConfig& cfg);

    /// Takes a checkpoint at the current cycle. First scrubs the register
    /// files through the protection layer: under TMR every pending upset
    /// is vote-repaired so the snapshot is clean; under parity a pending
    /// (detectable) upset means the CURRENT state is corrupt — saving it
    /// would poison the recovery point, so the runner rolls back to the
    /// previous checkpoint instead (detect-before-save) and returns false.
    bool checkpoint();

    /// Restores the last checkpoint, charging the discarded cycles to
    /// reexec_cycles. Requires a prior successful checkpoint().
    void rollback();

    /// Runs the cluster until it quiesces or reaches `bound`, taking
    /// interval checkpoints (cfg.interval > 0) and rolling back on any
    /// trap. A trap that survives cfg.max_retries rollbacks sets gave_up
    /// and stops (the caller classifies the failure). Returns the final
    /// cycle count (monotonic simulated time, rollbacks included in
    /// stats().reexec_cycles, not in the cluster's own cycle counter).
    Cycle run(Cycle bound);

    const CheckpointStats& stats() const { return stats_; }
    bool has_checkpoint() const { return has_ckpt_; }
    Cycle checkpoint_cycle() const { return snap_cycle_; }

    /// The interval currently in force: the adaptive controller's latest
    /// solution, or cfg.interval on fixed-interval runs.
    Cycle effective_interval() const { return cfg_.adaptive ? cur_interval_ : cfg_.interval; }

    /// The durable record store (cfg.delta_store runs). Mutable access is
    /// the checkpoint-storage fault injector's strike surface.
    CheckpointStorage& storage() { return storage_; }
    const CheckpointStorage& storage() const { return storage_; }

private:
    bool any_trap() const;
    bool any_running() const;
    /// Feeds the estimator the correction/trap events since the last
    /// observation point and re-solves the interval (adaptive runs only).
    /// Must run BEFORE a rollback: restore rewinds the statistics the
    /// window delta is computed from.
    void observe_and_retune();
    /// Re-bases the observation window on the cluster's current counters
    /// (after a save or a restore moved them).
    void rebase_window();
    Cycle solve_interval(double lambda) const;

    Cluster& cl_;
    CheckpointConfig cfg_;
    CheckpointStats stats_;
    Cluster::Snapshot snap_;
    CheckpointStorage storage_;
    bool has_ckpt_ = false;
    Cycle snap_cycle_ = 0;
    unsigned retries_ = 0;
    // Adaptive-control state.
    fault::UpsetRateEstimator est_;
    Cycle cur_interval_ = 0;
    std::uint64_t base_events_ = 0;
    Cycle base_cycle_ = 0;
    /// Cycles a rollback scheduled for re-execution. The strike process
    /// (and hence lambda) lives in PROGRAM time; replayed cycles would
    /// inflate the measured inter-event gaps, so observation windows
    /// discount them as they are re-executed.
    Cycle replay_debt_ = 0;
};

} // namespace ulpmc::cluster
