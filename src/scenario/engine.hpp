// Device lifetime scenario engine (DESIGN.md §12).
//
// Composes the pieces every earlier extension built — the streaming ECG
// benchmark (workload), the duty-cycle governor (energy per block
// period), the BLE link (scenario/link), the battery/brownout model
// (scenario/battery), the fault injector (struck blocks) and the online
// upset-rate estimator (lambda-aware adaptation) — into one continuously
// running device walking a scripted timeline (scenario/timeline).
//
// Two policies are compared:
//  * Ladder   — the graceful-degradation device: every block is verified
//               against the golden pipeline (rollback on corruption), and
//               the battery level drives the degradation ladder (shed
//               leads -> coarsen transmission -> tighten protection with
//               lambda-tuned checkpoints + DVFS derating -> radio
//               silence). Arrhythmia phases override the ladder: clinical
//               episodes are monitored at full fidelity regardless of
//               charge.
//  * Baseline — the no-resilience, no-degradation device (watchdog only,
//               so hangs still end): nothing is verified, corrupted
//               blocks ship silently (the SDC channel) and the device
//               burns full power until it browns out.
//
// Affordability and determinism: simulating days of wall time cycle-by-
// cycle is impossible, so the engine simulates the CLUSTER only where it
// matters — once per degradation level to calibrate (cycles, event rates,
// verified outputs), and for the struck blocks (seeded injection,
// classification against the golden outputs). Unstruck blocks are
// credited from the calibration, which is exact: the firmware is
// block-stateless, so every unperturbed block IS the calibration run
// (the same crediting argument as the campaign layer's memoization).
// Struck blocks share that argument too: a struck block is the
// calibration run up to its strike cycle, and again after its upset washes
// out. So each calibration key keeps one clean-run memo next to its
// calibration (cluster::CleanRun, captured by the key's first struck
// block): a struck block restores the rung below its strike, strikes, and
// either rejoins the clean run at a later rung — its tail credited, its
// outputs the verified clean outputs — or runs on to the end and is
// classified. Restore and rejoin are exact by determinism, so a block
// ends exactly where a fresh run from cycle 0 would. The reference tier
// runs every struck block from cycle 0 instead: it is the oracle the memo
// is diffed against. Device time advances in fixed chunks of kChunkBlocks
// block periods; the ladder level and derating decision freeze at each
// chunk boundary (the governor's control tick), every strike is drawn
// from a stream keyed by its global block index, outcomes are stored per
// block, and all device state (battery, link, estimator) applies strictly
// in block order. Results are therefore bit-identical across engine tiers
// AND SweepRunner thread counts.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "app/benchmark.hpp"
#include "cluster/clean_run.hpp"
#include "cluster/config.hpp"
#include "common/types.hpp"
#include "scenario/battery.hpp"
#include "scenario/link.hpp"
#include "scenario/timeline.hpp"
#include "sweep/sweep.hpp"

namespace ulpmc::scenario {

enum class Policy : std::uint8_t { Ladder, Baseline };
const char* policy_name(Policy p);

struct DeviceConfig {
    cluster::ArchKind arch = cluster::ArchKind::UlpmcBank;
    /// Simulator tier for calibration and struck-block runs. No effect on
    /// any reported number (the tiers are stat-identical; pinned by test).
    cluster::SimEngine engine = cluster::SimEngine::Trace;
    std::uint64_t seed = 1;
    Policy policy = Policy::Ladder;
    /// Simulated lifetime in days; 0 = one pass of the timeline.
    double max_days = 0;
    /// Battery charge fraction at t = 0. The capacity is the timeline's;
    /// the link and the brownout thresholds are their defaults.
    double initial_charge = 1.0;
    /// State-of-charge rungs of the degradation ladder (ladder policy
    /// only). Defaults are the hand-set thresholds every pre-fleet
    /// experiment used; bench/ext_fleet_ladder sweeps them.
    LadderThresholds thresholds{};
};

/// Accumulated over every block a timeline phase governed (cycled passes
/// of the script merge into the same entry).
struct PhaseReport {
    std::string name;
    std::uint64_t blocks = 0;          ///< block periods under this phase
    std::uint64_t brownout_blocks = 0; ///< device was off (regulator out)
    std::uint64_t struck_blocks = 0;   ///< blocks that drew >= 1 upset
    std::uint64_t rollbacks = 0;       ///< verified-and-retried blocks (ladder)
    std::uint64_t sdc_blocks = 0;      ///< corrupted blocks shipped (baseline)
    std::uint64_t trapped_blocks = 0;  ///< blocks lost to a fail-stop (baseline)
    std::uint64_t derated_blocks = 0;  ///< blocks run with SER-derating margin
    std::uint64_t samples_sensed = 0;  ///< samples acquired by live leads
    std::uint64_t samples_shed = 0;    ///< samples not acquired (leads shed / device off)
    double energy_compute_j = 0;    ///< governor-scheduled compute (+ sleep)
    double energy_checkpoint_j = 0; ///< checkpoint traffic
    double energy_reexec_j = 0;     ///< rollback re-execution
    double energy_radio_j = 0;      ///< transmit energy (losses included)
    double harvest_j = 0;           ///< energy harvested during the phase
    double battery_end = 0;         ///< charge fraction after the phase's last block
    double lambda_hat_end = 0;      ///< estimator state after the last block
    unsigned deepest_level = 0;     ///< deepest DegradeLevel entered
};

/// One point of the battery state-of-charge trace.
struct BatterySample {
    double t_s = 0;
    double fraction = 0;
};

struct LifetimeReport {
    Policy policy = Policy::Ladder;
    std::uint64_t seed = 0;
    std::string arch;
    double simulated_s = 0;
    double block_period_s = 0;
    double battery_capacity_j = 0;
    /// Time of the first brownout, -1 if the battery never gave out.
    double first_brownout_s = -1;
    std::uint64_t total_blocks = 0;
    /// Every sample the sensor COULD have acquired (8 leads, all blocks).
    std::uint64_t samples_total = 0;
    /// Good samples at the peer (full + degraded fidelity) / samples_total.
    double delivered_fraction = 0;
    /// Full-fidelity samples only.
    double full_fidelity_fraction = 0;
    std::uint64_t sdc_blocks = 0;
    LinkStats link;
    std::vector<PhaseReport> phases;        ///< one per timeline phase
    std::vector<BatterySample> battery_trace; ///< sampled at phase transitions
};

/// Durable-execution hooks for a lifetime run (DESIGN.md §9.6). The
/// engine's complete mutable state — battery, link, estimator, derating
/// latch, phase reports and battery trace — is encoded at every chunk
/// boundary (the governor tick, the only point where nothing is in
/// flight); a run restarted from such a snapshot replays zero blocks and
/// finishes bit-identical to the uninterrupted run. Integrity (CRC) and
/// config binding are the journal layer's job: the engine only checks
/// structural sanity and asserts on a state that cannot be its own.
struct LifeResume {
    /// Encoded chunk-boundary state to restart from; empty = fresh run.
    std::vector<std::uint8_t> state;
    /// Called after every applied chunk with the state encoded at that
    /// boundary — the bytes a journal should persist. May be empty.
    std::function<void(const std::vector<std::uint8_t>&)> on_chunk;
};

/// Everything the engine needs to credit an unstruck block at one
/// degradation level, measured from a single verified cluster run.
/// Deterministic for a fixed (benchmark, config, block period) — which is
/// what makes the fleet-wide CalibrationCache sound.
struct LevelCalibration {
    cluster::ClusterConfig cfg;
    Cycle clean_cycles = 0;
    std::uint64_t ops = 0;
    /// Governor-scheduled energy for one block period (compute + sleep,
    /// leakage included; checkpoints and radio are charged separately).
    double energy_block_j = 0;
    double v_op = 0;           ///< supply while computing (derating base)
    double energy_cycle_j = 0; ///< compute energy per cluster cycle (T* input)
    std::size_t tx_bits = 0;   ///< compressed payload bits per block
};

/// Thread-safe, shared store of LevelCalibrations for a whole device
/// fleet. Devices sharing a workload cohort and an architecture pay the
/// per-level calibration run exactly once per process; concurrent fleet
/// workers hitting the same key dedupe on a per-key once_flag (distinct
/// keys calibrate in parallel). Next to each calibration sits the key's
/// clean-run memo, captured by the first struck block that needs it, so
/// keys that are never struck never pay for one. Cached values are pure
/// functions of their key, so WHICH worker computes one can never leak
/// into any result.
class CalibrationCache {
public:
    /// Everything cached under one key.
    class Entry {
    public:
        const LevelCalibration& calibration() const { return cal_; }
        /// The key's clean-run memo (DESIGN.md §11), captured by `capture`
        /// exactly once across all threads, on first use.
        const cluster::CleanRun& clean_run(
            const std::function<std::unique_ptr<const cluster::CleanRun>()>& capture);

    private:
        friend class CalibrationCache;
        std::once_flag cal_once_;
        LevelCalibration cal_;
        std::once_flag clean_once_;
        std::unique_ptr<const cluster::CleanRun> clean_;
    };

    /// Returns the entry stored under `key`, its calibration computed by
    /// `compute` exactly once per key across all threads. The reference
    /// stays valid for the cache's lifetime.
    Entry& get(const std::string& key, const std::function<LevelCalibration()>& compute);

    std::size_t size() const;

private:
    mutable std::mutex m_;
    std::unordered_map<std::string, std::unique_ptr<Entry>> map_;
};

/// Blocks a lifetime of `max_days` (0 = one pass of the timeline) runs:
/// whole block periods only. The one definition LifetimeEngine::run and
/// the fleet merge's record check share. Throws TimelineError when the
/// run is shorter than one block period or spans 2^64 or more of them.
std::uint64_t lifetime_blocks(const Timeline& tl, double max_days);

/// load_timeline(path, bytes_crc), then lifetime_blocks(tl, max_days): the
/// timeline a lifetime or fleet run of `max_days` loads. Every
/// TimelineError it throws names `path` once.
Timeline load_lifetime_timeline(const std::string& path, double max_days,
                                std::uint32_t* bytes_crc = nullptr);

/// Runs one device lifetime. The per-level calibrations are cached inside
/// the engine, so running both policies through one instance shares them;
/// the fleet layer shares one benchmark and one CalibrationCache across
/// thousands of engine instances instead.
class LifetimeEngine {
public:
    LifetimeEngine(const Timeline& tl, const DeviceConfig& dc);
    /// Fleet flavor: share a prebuilt benchmark (decode-once ProgramImage
    /// included) and optionally a cross-device calibration cache. The
    /// benchmark's own seed governs the patient/workload data; `dc.seed`
    /// governs only strikes and the link — decoupled so one cohort's
    /// benchmark serves many devices.
    LifetimeEngine(const Timeline& tl, const DeviceConfig& dc,
                   std::shared_ptr<const app::EcgBenchmark> bench,
                   CalibrationCache* cache = nullptr);
    ~LifetimeEngine();

    const Timeline& timeline() const { return tl_; }
    const DeviceConfig& device() const { return dc_; }
    const app::EcgBenchmark& benchmark() const { return *bench_; }

    /// Simulates the lifetime. Deterministic for a fixed (timeline, seed):
    /// bit-identical across engine tiers and `pool` thread counts.
    LifetimeReport run(sweep::SweepRunner& pool);
    /// Durable flavor: optionally restarts from an encoded chunk-boundary
    /// snapshot and/or emits one after every chunk (LifeResume above).
    /// Resuming from the final boundary re-runs zero blocks and still
    /// returns the complete report.
    LifetimeReport run(sweep::SweepRunner& pool, const LifeResume& resume);

private:
    const LevelCalibration& calibrate(DegradeLevel level);
    LevelCalibration compute_calibration(DegradeLevel level) const;
    cluster::ClusterConfig config_for(DegradeLevel level) const;
    /// The level's clean-run memo, captured on first use.
    const cluster::CleanRun& clean_run(DegradeLevel level);

    Timeline tl_;
    DeviceConfig dc_;
    std::shared_ptr<const app::EcgBenchmark> bench_;
    /// The shared cache, or own_cache_ when the caller passed none.
    CalibrationCache* cache_;
    std::unique_ptr<CalibrationCache> own_cache_;
    /// Resolved per-level cache entries, lazily filled.
    std::array<CalibrationCache::Entry*, kDegradeLevelCount> calib_{};
};

} // namespace ulpmc::scenario
