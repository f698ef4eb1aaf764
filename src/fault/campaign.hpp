// Seeded fault-injection campaigns (DESIGN.md §9).
//
// A campaign runs thousands of independent, seeded injections of the ECG
// benchmark, one simulated particle strike each, and classifies every run
// by how the architecture absorbed the upset. The classification follows
// the standard dependability taxonomy:
//
//   Masked      — outputs bit-exact, no protection mechanism fired, no
//                 corrupted state left behind;
//   Latent      — outputs bit-exact but a struck register was never read
//                 or overwritten: the upset is still architecturally live
//                 and would corrupt whatever reads it next. Counting these
//                 as Masked would overstate the architecture's intrinsic
//                 masking, so they get their own bucket;
//   Corrected   — outputs bit-exact, SEC-DED corrected >= 1 single-bit
//                 upset or register TMR out-voted >= 1 read;
//   RolledBack  — streaming monitor re-executed the struck block from its
//                 checkpoint and the retry verified (streaming campaigns);
//   LeadDropped — a persistently-corrupted lead was dropped; the surviving
//                 leads stayed bit-exact (streaming campaigns);
//   Trapped     — a core detected the upset and fail-stopped (ECC
//                 double-bit trap, illegal fetch, watchdog, ...);
//   Hang        — cores still running at the cycle bound (silent livelock);
//   Sdc         — silent data corruption: run completed, outputs wrong.
//
// Reproducibility contract: the per-injection RNG seed is
// mix_seed(cfg.seed, i) with i the injection index, so the i-th
// injection of a campaign is the same fault with the same classification
// on every run, every thread count, every platform.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "app/benchmark.hpp"
#include "app/streaming.hpp"
#include "cluster/cluster.hpp"
#include "cluster/config.hpp"
#include "cluster/stats.hpp"
#include "core/state.hpp"
#include "fault/fault.hpp"
#include "sweep/sweep.hpp"

namespace ulpmc::fault {

enum class Outcome : std::uint8_t {
    Masked, Latent, Corrected, RolledBack, LeadDropped, Trapped, Hang, Sdc
};
inline constexpr unsigned kOutcomeCount = 8;

const char* outcome_name(Outcome o);

/// run_adaptive_campaign's two-phase strike environment: the quiet lead
/// spans this fraction of the fault-free schedule, the burst tail the rest.
inline constexpr double kLambdaSplit = 0.75;

/// Largest campaign a command-line driver accepts (`ext_fault_campaign
/// --injections`, `ext_fault_adaptive --runs`): a campaign keeps one
/// InjectionRecord per injection in memory, and a larger count is a typo,
/// not a measurement.
inline constexpr unsigned kMaxInjections = 1'000'000;

struct CampaignConfig {
    std::uint64_t seed = 1;
    unsigned injections = 256;
    bool ecc = false;               ///< SEC-DED on every IM/DM bank
    unsigned kinds = kAllFaultKinds;
    unsigned flip_bits = 1;         ///< 1 = SEU; 2 exercises double-bit detection
    unsigned burst_len = 1;         ///< >1: adjacent-bit memory MBU bursts
    unsigned reg_burst = 1;         ///< >1: multi-register spatial upsets
    /// Register-file protection mode of every injected cluster.
    core::RegProtection reg_protection = core::RegProtection::None;
    /// One-shot campaigns: drive every injection through the generalized
    /// CheckpointRunner (interval checkpoints + trap-driven rollback).
    /// Streaming campaigns: recover via run_checkpointed() (one continuous
    /// cluster, block-boundary checkpoints) instead of run_resilient().
    bool checkpoint = false;
    /// Interval between one-shot checkpoints; 0 = clean_cycles / 8.
    Cycle checkpoint_interval = 0;
    /// Idle-cycle IM scrub walker on every injected cluster.
    bool im_scrub = false;
    /// Self-checking crossbar arbiters (suppress grant flips, resync a
    /// stuck round-robin pointer) on every injected cluster.
    bool xbar_self_check = false;
    // ---- run_adaptive_campaign only -----------------------------------
    /// Self-tuning checkpoint interval (DESIGN.md §9) instead of the fixed
    /// checkpoint_interval above (which then only seeds the start).
    bool adaptive_checkpoint = false;
    /// Two-phase strike environment: expected upsets per cycle over the
    /// quiet lead (the first kLambdaSplit of the fault-free schedule) and
    /// the burst tail (the rest) — a mostly-benign wearable that walks
    /// into a high-flux episode.
    double lambda_low = 0.0;
    double lambda_high = 0.0;
    /// Simulator tier (no effect on outcomes — differential-tested).
    /// SimEngine::Batched additionally selects the memoized campaign
    /// paths (DESIGN.md §11): a struck one-shot run rejoins the
    /// campaign's clean-run ladder once its state converges, and
    /// streaming injections credit unperturbed blocks from the memoized
    /// fault-free stream. Outcome tables stay byte-identical to Trace;
    /// only wall-clock and the batch_* counters change.
    cluster::SimEngine engine = cluster::SimEngine::Trace;
    /// One-shot injections per pool task, under every engine. Outputs do
    /// not depend on it.
    unsigned batch = 8;
};

/// One injection, fully described and classified.
struct InjectionRecord {
    FaultSpec fault;
    Outcome outcome = Outcome::Masked;
    core::Trap trap = core::Trap::None; ///< first trap observed when Trapped
    Cycle cycles = 0;
    std::uint64_t ecc_corrected = 0;
    std::uint64_t rollbacks = 0;     ///< checkpoint restores in this run
    std::uint64_t checkpoints = 0;   ///< snapshots taken in this run
    Cycle reexec_cycles = 0;         ///< cycles re-executed after rollbacks
    std::uint64_t strikes = 1;       ///< upsets deposited (adaptive runs: many)
    // ---- batched-engine observability (zero under other engines) ------
    /// Cycles this injection took from the clean run instead of
    /// simulating them (restored prefix + credited tail, or the memoized
    /// clean stream).
    std::uint64_t batch_lockstep_cycles = 0;
    std::uint64_t batch_lane_peels = 0; ///< divergences from the clean run
    /// Per-PeelReason divergence breakdown of this injection.
    std::array<std::uint64_t, cluster::kPeelReasonCount> batch_peel_reasons{};
};

/// One-shot outcome classification, shared by every one-shot campaign
/// path and by the lifetime engine's struck blocks, so their verdicts
/// agree by construction. `view` is the cluster embodying the
/// injection's final state; `st` its (materialized) statistics — the same
/// object for a plain run; the clean final state and the credited
/// statistics for a rejoined one. Any core still running is a Hang, else
/// any trap is Trapped; only then does `bench.verify` run, splitting
/// RolledBack / Corrected / Latent / Masked from Sdc.
void classify_oneshot(const cluster::Cluster& view, const cluster::ClusterStats& st,
                      const app::EcgBenchmark& bench, unsigned cores, InjectionRecord& rec);

struct CampaignResult {
    cluster::ArchKind arch{};
    CampaignConfig cfg;
    Cycle clean_cycles = 0;   ///< fault-free reference run
    double energy_per_op = 0; ///< clean-run J/op under this protection tier
    std::vector<InjectionRecord> runs;
    std::array<unsigned, kOutcomeCount> counts{};
    std::uint64_t checkpoints = 0;   ///< total snapshots over all injections
    Cycle reexec_cycles = 0;         ///< total re-executed cycles (rollback cost)
    // Adaptive-campaign aggregates (zero elsewhere).
    std::uint64_t strikes = 0;          ///< total upsets deposited
    std::uint64_t interval_updates = 0; ///< controller re-solves that changed the interval
    double overhead_energy = 0;         ///< checkpoint-save + re-execution energy [J]
    // Batched-engine aggregates (zero elsewhere).
    std::uint64_t batch_lockstep_cycles = 0; ///< total shared/memoized cycles
    std::uint64_t batch_lane_peels = 0;      ///< total divergences
    std::array<std::uint64_t, cluster::kPeelReasonCount> batch_peel_reasons{};
    // Storage-campaign aggregates (run_storage_campaign only, zero elsewhere).
    std::uint64_t ckpt_stored_bytes = 0;  ///< checkpoint bytes actually persisted
    std::uint64_t ckpt_full_bytes = 0;    ///< full-keyframe-equivalent bytes
    std::uint64_t ckpt_crc_failures = 0;  ///< stored records rejected by CRC
    std::uint64_t ckpt_fallbacks = 0;     ///< restores served by an older keyframe

    unsigned count(Outcome o) const { return counts[static_cast<unsigned>(o)]; }
    /// Fraction of injections that did NOT end in silent data corruption —
    /// the headline detection/recovery coverage number.
    double coverage() const;
};

/// Runs cfg.injections seeded strikes of the single-block ECG benchmark
/// on `arch`, parallelized over `pool`. Without cfg.checkpoint the
/// outcomes are Masked / Latent / Corrected / Trapped / Hang / Sdc; with
/// it, a trap inside one checkpoint interval of the strike rolls back and
/// re-executes (RolledBack).
CampaignResult run_campaign(const app::EcgBenchmark& bench, cluster::ArchKind arch,
                            const CampaignConfig& cfg, sweep::SweepRunner& pool);

/// Streaming variant: every injection strikes one resilient streaming run
/// (block-boundary checkpoint/rollback + drop-one-lead, app/streaming) and
/// is classified by how the monitor recovered. A quarter of the IM/DM
/// strikes are drawn *persistent* (latched upsets re-deposited on every
/// attempt), which is what exercises the lead-drop path.
CampaignResult run_streaming_campaign(const app::StreamingBenchmark& bench,
                                      cluster::ArchKind arch, const CampaignConfig& cfg,
                                      sweep::SweepRunner& pool);

/// Adaptive-vs-fixed checkpoint study (DESIGN.md §9). Every "injection" is
/// one full multi-block streaming run on ONE continuous cluster driven by
/// the CheckpointRunner; seeded strikes arrive at rate cfg.lambda_low over
/// the first kLambdaSplit of the fault-free schedule and
/// cfg.lambda_high over the rest (exponential inter-arrival times).
/// cfg.adaptive_checkpoint
/// selects the self-tuning controller (starting from
/// cfg.checkpoint_interval; 0 = max_interval), otherwise
/// cfg.checkpoint_interval is the fixed interval under test. Strikes are
/// transient: a rollback re-executes WITHOUT re-depositing them, so the
/// interesting outputs are the policy's overhead — checkpoints taken,
/// cycles re-executed, and their combined energy (overhead_energy) — at
/// equal (ideally zero-SDC) coverage.
CampaignResult run_adaptive_campaign(const app::StreamingBenchmark& bench,
                                     cluster::ArchKind arch, const CampaignConfig& cfg,
                                     sweep::SweepRunner& pool);

/// Checkpoint-STORAGE campaign knobs (DESIGN.md §9.6): the record-store
/// layout under test and whether the stored records themselves are a
/// fault target on top of the execution strikes.
struct StorageCampaignOptions {
    cluster::CkptStorageConfig storage{};
    /// Pair every execution strike with one CkptBitFlip deposited into
    /// the record store at the struck block's boundary checkpoint — the
    /// very record the rollback then tries to consume.
    bool storage_strikes = false;
};

/// Durable-storage variant of the streaming campaign: every injection is
/// one run_checkpointed() stream whose block-boundary snapshots persist
/// through a CheckpointStorage (cfg.checkpoint must be set). Each
/// injection deposits one execution strike inside one block; with
/// opts.storage_strikes it ALSO corrupts a stored record at that block's
/// checkpoint, so the rollback exercises CRC verification and the
/// keyframe fallback chain. Outcomes: a fallback-assisted recovery is
/// RolledBack, an unrecoverable record loss fail-stops as Trapped, and
/// corruption that flows through an unverified restore shows up as
/// LeadDropped / Hang / Sdc — never silently with crc_verify on.
CampaignResult run_storage_campaign(const app::StreamingBenchmark& bench,
                                    cluster::ArchKind arch, const CampaignConfig& cfg,
                                    const StorageCampaignOptions& opts,
                                    sweep::SweepRunner& pool);

} // namespace ulpmc::fault
