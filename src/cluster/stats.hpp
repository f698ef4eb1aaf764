// Run statistics collected by the cycle-accurate cluster. These counts are
// the only inputs the energy model needs (power = calibrated energy per
// event x event rate), and they directly feed the paper's §IV-C2
// cycle-count / IM-access-count comparison.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/state.hpp"
#include "xbar/crossbar.hpp"

namespace ulpmc::cluster {

/// Why a batched-engine injection left the clean run (DESIGN.md §11).
/// The campaign drivers count these per injection
/// (fault::InjectionRecord::batch_peel_reasons).
enum class PeelReason : std::uint8_t {
    FaultStrike,   ///< a memory/register fault was injected
    CrossbarUpset, ///< an arbiter glitch/state upset was injected
    Trap,          ///< a trap off the clean run (no campaign path counts it yet)
    Watchdog,      ///< never rejoined, and the watchdog fired
    MemoBail       ///< never rejoined: ran out privately
};
inline constexpr unsigned kPeelReasonCount = 5;

/// Display name ("fault_strike", ...): JSON artifact keys.
const char* peel_reason_name(PeelReason r);

/// Per-core counters.
struct CoreRunStats {
    std::uint64_t instret = 0;       ///< committed instructions ("ops")
    std::uint64_t stall_cycles = 0;  ///< cycles stalled on a denied grant
    std::uint64_t dm_loads = 0;      ///< committed data reads
    std::uint64_t dm_stores = 0;     ///< committed data writes
    std::uint64_t im_fetches = 0;    ///< instruction fetches served
    Cycle halted_at = 0;             ///< cycle the core halted (0 if never)
    core::Trap trap = core::Trap::None;

    friend bool operator==(const CoreRunStats&, const CoreRunStats&) = default;
};

/// Whole-cluster counters.
struct ClusterStats {
    Cycle cycles = 0; ///< total cycles until the last core halted
    std::vector<CoreRunStats> core;

    xbar::XbarStats ixbar; ///< instruction-side interconnect
    xbar::XbarStats dxbar; ///< data-side interconnect

    std::uint64_t im_bank_accesses = 0; ///< physical IM bank activations
    std::uint64_t dm_bank_reads = 0;
    std::uint64_t dm_bank_writes = 0;

    unsigned im_banks_used = 0;  ///< banks holding program content
    unsigned im_banks_gated = 0; ///< banks power gated for the whole run
    unsigned im_banks_total = kImBanks;

    // Resilience counters (DESIGN.md §9). Zero on every run without ECC /
    // injected faults, so the paper-reproduction statistics are unchanged.
    bool ecc_enabled = false;
    std::uint64_t ecc_im_corrected = 0;   ///< IM single-bit upsets fixed on read
    std::uint64_t ecc_dm_corrected = 0;   ///< DM single-bit upsets fixed on read
    std::uint64_t ecc_uncorrectable = 0;  ///< double-bit upsets detected (trap)
    std::uint64_t faults_injected = 0;    ///< SEU/glitch injections applied
    std::uint64_t watchdog_trips = 0;     ///< cores stopped by the watchdog

    // Register-file protection counters (DESIGN.md §9). Like the ECC
    // counters these stay zero on unprotected fault-free runs.
    core::RegProtection reg_protection = core::RegProtection::None;
    std::uint64_t reg_parity_traps = 0; ///< parity mismatches -> RegParityFault
    std::uint64_t reg_tmr_votes = 0;    ///< upset registers repaired by majority vote

    // Idle-cycle IM scrubbing counters (DESIGN.md §9). Zero unless
    // ClusterConfig::im_scrub is on.
    bool im_scrub_enabled = false;            ///< walker armed (from config)
    bool xbar_self_check = false;             ///< self-checking arbiters armed
    std::uint64_t im_scrub_reads = 0;         ///< scrub-walker bank reads
    std::uint64_t im_scrub_corrected = 0;     ///< latent upsets repaired by the walker
    std::uint64_t im_scrub_uncorrectable = 0; ///< double-bit words the walker found

    // Idle-cycle DM scrubbing counters (DESIGN.md §9). Zero unless
    // ClusterConfig::dm_scrub is on.
    bool dm_scrub_enabled = false;            ///< DM walker armed (from config)
    std::uint64_t dm_scrub_reads = 0;         ///< DM scrub-walker bank reads
    std::uint64_t dm_scrub_corrected = 0;     ///< latent DM upsets repaired by the walker
    std::uint64_t dm_scrub_uncorrectable = 0; ///< double-bit DM words the walker found

    /// Observable correction/trap events — everything the hardware can
    /// count that indicates a particle actually struck (hijacked grants
    /// are deliberately absent: those are the SILENT corruption channel).
    /// The online upset-rate estimator (fault::UpsetRateEstimator)
    /// differences this across windows to track lambda without ground
    /// truth.
    std::uint64_t upset_events() const {
        return ecc_im_corrected + ecc_dm_corrected + ecc_uncorrectable + reg_parity_traps +
               reg_tmr_votes + im_scrub_corrected + im_scrub_uncorrectable +
               dm_scrub_corrected + dm_scrub_uncorrectable + watchdog_trips + xbar_selfchecks();
    }

    /// Repairs of both self-checking arbiters: suppressed grants plus
    /// resynchronized priority heads.
    std::uint64_t xbar_selfchecks() const {
        return ixbar.selfcheck_fixes + ixbar.selfcheck_resyncs + dxbar.selfcheck_fixes +
               dxbar.selfcheck_resyncs;
    }

    /// Total committed instructions over all cores (the paper's "Ops").
    std::uint64_t total_ops() const {
        std::uint64_t n = 0;
        for (const auto& c : core) n += c.instret;
        return n;
    }

    /// Aggregate useful throughput in operations per cycle, the quantity
    /// that converts a workload requirement [Ops/s] into a clock frequency.
    double ops_per_cycle() const {
        return cycles == 0 ? 0.0 : static_cast<double>(total_ops()) / static_cast<double>(cycles);
    }

    std::uint64_t dm_bank_accesses() const { return dm_bank_reads + dm_bank_writes; }

    /// Cores that ended in a trap (any kind). Nonzero means the run must
    /// not be reported as a success.
    unsigned cores_trapped() const {
        unsigned n = 0;
        for (const auto& c : core) n += c.trap != core::Trap::None;
        return n;
    }

    std::uint64_t ecc_corrected() const { return ecc_im_corrected + ecc_dm_corrected; }

    friend bool operator==(const ClusterStats&, const ClusterStats&) = default;
};

/// One-word status of core p: "halted", "running" (hit the cycle bound),
/// or "TRAP:<name>" — used by every bench/example summary so trapped runs
/// are impossible to miss.
std::string core_status(const CoreRunStats& c);

/// Prints the standard per-core run summary table (state, instructions,
/// stalls) plus one line of cluster-level resilience counters when any are
/// nonzero. Shared by the tools, examples and benches.
void print_run_summary(std::ostream& os, const ClusterStats& s);

} // namespace ulpmc::cluster
