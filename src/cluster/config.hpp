// Cluster architecture configurations: the paper's reference design and
// the two proposed variants, plus the individual feature switches so the
// benches can run ablations (broadcast on/off, gating on/off, stagger).
#pragma once

#include <string>

#include "common/types.hpp"
#include "core/state.hpp"
#include "mmu/mmu.hpp"

namespace ulpmc::cluster {

/// The three architectures compared throughout the paper's §IV.
enum class ArchKind : std::uint8_t {
    McRef,    ///< reference: dedicated IM banks, no broadcast (PATMOS'11)
    UlpmcInt, ///< proposed, interleaved IM bank selection
    UlpmcBank ///< proposed, packed IM banks + power gating
};

/// Display name used in every reproduced table ("mc-ref", ...).
std::string arch_name(ArchKind k);

/// Simulator engine tiers (DESIGN.md §10). All tiers are cycle-for-cycle
/// and stat-for-stat identical; they differ only in how much work the
/// simulator does per simulated cycle.
enum class SimEngine : std::uint8_t {
    Reference, ///< decode-every-fetch, full round-robin arbitration
    Fast,      ///< PR 1: pre-decoded IM + conflict-free crossbar fast path
    Trace,     ///< PR 3: Fast + superblock dispatch with memoized timing
    Batched    ///< Trace inside one instance, plus the memoized
               ///< campaign paths (DESIGN.md §11)
};

/// Display / CLI name: "reference", "fast", "trace", "batched".
std::string engine_name(SimEngine e);

/// Parse a --engine value. Returns false on unknown names.
bool parse_engine(const std::string& s, SimEngine& out);

/// Full cluster parameterization. Use make_config() for the paper's three
/// designs; individual fields exist so ablation benches can deviate.
struct ClusterConfig {
    ArchKind arch = ArchKind::UlpmcBank;
    unsigned cores = kNumCores;

    mmu::DmLayout dm_layout;
    mmu::ImPolicy im_policy = mmu::ImPolicy::Banked;

    /// Memory geometry. Defaults are the paper's (16x4kB DM, 8x12kB IM);
    /// the bank-sweep extension (bench/ext_bank_sweep) varies them.
    unsigned im_banks = kImBanks;
    unsigned dm_banks = kDmBanks;
    std::size_t im_bank_words = kImWordsPerBank;
    std::size_t dm_bank_words = kDmWordsPerBank;

    /// Read broadcast in the data / instruction crossbars (§III-B).
    bool dm_broadcast = true;
    bool im_broadcast = true;

    /// Power-gate IM banks that hold no program content (§III-C;
    /// meaningful for the Banked policy only).
    bool gate_unused_im_banks = false;

    /// Start core p at cycle p. Our reconstruction of how mc-ref avoids
    /// lockstep same-address conflicts on the shared CS vector without
    /// broadcast support (DESIGN.md §2, substitution 5).
    bool stagger_start = false;

    /// Extension (not in the paper): memory-mapped barrier register at
    /// virtual address 0xFFFF that resynchronizes the cores.
    bool barrier_enabled = false;

    /// Resilience extension (DESIGN.md §9): SEC-DED ECC on every IM and DM
    /// bank. Single-bit upsets are corrected on read (and scrubbed),
    /// double-bit upsets raise Trap::EccFault on the consuming core. The
    /// encode/check energy is charged by the power model (calibration.hpp
    /// ECC constants).
    bool ecc_enabled = false;

    /// Resilience extension (DESIGN.md §9): register-file protection.
    /// Parity fail-stops the striken core with Trap::RegParityFault on
    /// the first read of a corrupted register; TMR majority-votes three
    /// shadow copies on every read and silently repairs it. Both are
    /// charged by the power model (calibration.hpp protection constants).
    core::RegProtection reg_protection = core::RegProtection::None;

    /// Resilience extension (DESIGN.md §9): idle-cycle IM scrubbing. On
    /// every cycle in which an ungated IM bank serves no fetch, a per-bank
    /// scrub walker reads-and-corrects one word (wrapping through the
    /// bank), draining latent single-bit upsets before a second strike
    /// makes them uncorrectable. Requires ecc_enabled to actually repair;
    /// each scrub read is priced by the power model.
    bool im_scrub = false;

    /// Resilience extension (DESIGN.md §9): idle-cycle DM scrubbing — the
    /// IM walker generalized to the data banks. On every cycle in which a
    /// DM bank serves no granted request, its walker reads-and-corrects
    /// one word. Long-lifetime runs need this: a latent DM upset that sits
    /// unread for hours is one more strike away from an uncorrectable
    /// double-bit word. Requires ecc_enabled to actually repair; each
    /// scrub read is priced by the power model (cal::kDmScrubReadEnergy).
    bool dm_scrub = false;

    /// Resilience extension (DESIGN.md §9): self-checking crossbar
    /// arbiters (both I- and D-side). Duplicate-and-compare on the grant
    /// vector and the rotating-priority head: a flipped grant register is
    /// suppressed (the master stalls and retries) and a stuck head is
    /// resynchronized from the cycle counter. Charged per cycle by the
    /// power model.
    bool xbar_self_check = false;

    /// Resilience extension: watchdog window in cycles. A core that
    /// commits no instruction for this many consecutive cycles (barrier
    /// parking included — legitimate waits are orders of magnitude
    /// shorter) is stopped with Trap::Watchdog so the cluster degrades
    /// instead of hanging. 0 disables the watchdog.
    Cycle watchdog_cycles = 0;

    /// Simulator engine tier (no architectural meaning). Results and
    /// statistics are cycle-for-cycle identical across all tiers — the
    /// lower tiers exist so any discrepancy can be bisected from the CLI
    /// (--engine=reference|fast|trace|batched) and pinned by differential
    /// tests.
    SimEngine engine = SimEngine::Trace;

    /// True for every tier above Reference: pre-decoded IM and the
    /// crossbars' conflict-free fast path are enabled.
    bool fast_path() const { return engine != SimEngine::Reference; }

    /// True for the trace-compiled tiers (Trace and Batched): superblock
    /// dispatch, memo lanes and the text-image/blockmap caches are active.
    /// A Batched cluster behaves exactly like a Trace cluster inside one
    /// instance; the memoized campaign paths live above Cluster (DESIGN.md §11).
    bool trace_path() const {
        return engine == SimEngine::Trace || engine == SimEngine::Batched;
    }
};

/// Virtual data address of the barrier register (extension).
inline constexpr Addr kBarrierAddr = 0xFFFF;

/// The paper's three designs with a given data layout.
ClusterConfig make_config(ArchKind k, mmu::DmLayout layout);

/// Watchdog window of every campaign and lifetime cluster: a core that
/// commits nothing for this long traps instead of hanging.
inline constexpr Cycle kWatchdogCycles = 20'000;

/// Cycle bound for a possibly struck run whose fault-free run takes
/// `clean_cycles` under `cfg`: 4x the clean run plus the watchdog window
/// bounds every legitimate execution, so a core still running is hung.
inline Cycle hang_bound(const ClusterConfig& cfg, Cycle clean_cycles) {
    return 4 * clean_cycles + cfg.watchdog_cycles + 1000;
}

} // namespace ulpmc::cluster
