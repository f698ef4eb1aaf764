// Deterministic single-event-upset (SEU) injection for the cluster.
//
// The paper operates the cluster near the threshold voltage — exactly the
// regime where soft-error rates explode — so the reproduction grows a
// dependability axis (DESIGN.md §9): seeded fault campaigns quantify how
// the three memory organizations behave under injected upsets, and what
// SEC-DED protection costs in the calibrated energy model.
//
// Everything here is reproducible bit-for-bit: all randomness flows
// through common/rng (xoshiro128**), and a (seed, stream) pair fully
// determines every drawn fault. The injector itself is stateless apart
// from its RNG; faults are applied through the Cluster's injection hooks,
// which model the physical upset faithfully (stored bits flip, ECC check
// bits do not re-encode).
#pragma once

#include <cstdint>
#include <string>

#include "cluster/ckpt_store.hpp"
#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "xbar/crossbar.hpp"

namespace ulpmc::fault {

/// Where the upset strikes.
enum class FaultKind : std::uint8_t {
    ImBitFlip,  ///< instruction-memory bank cell
    DmBitFlip,  ///< data-memory bank cell
    RegUpset,   ///< architectural register of one core
    IXbarGlitch, ///< I-Xbar arbitration upset (dropped grant / spurious denial)
    DXbarGlitch, ///< D-Xbar arbitration upset
    IXbarStateUpset, ///< I-Xbar arbiter STATE upset (stuck RR pointer / grant-register flip)
    DXbarStateUpset, ///< D-Xbar arbiter state upset
    CkptBitFlip      ///< stored checkpoint payload word (DESIGN.md §9.6)
};

const char* fault_kind_name(FaultKind k);

/// Bitmask helpers for FaultUniverse::kinds.
inline constexpr unsigned fault_bit(FaultKind k) { return 1u << static_cast<unsigned>(k); }
/// The legacy universe. Deliberately EXCLUDES the arbiter-state kinds so
/// that every committed campaign baseline (bench/BENCH_fault_coverage.json)
/// reproduces its draw sequence bit-exactly; opt in via kArbiterFaultKinds.
inline constexpr unsigned kAllFaultKinds =
    fault_bit(FaultKind::ImBitFlip) | fault_bit(FaultKind::DmBitFlip) |
    fault_bit(FaultKind::RegUpset) | fault_bit(FaultKind::IXbarGlitch) |
    fault_bit(FaultKind::DXbarGlitch);
/// Arbiter sequential-state upsets (DESIGN.md §9): starvation via a stuck
/// round-robin pointer, double-grant corruption via a flipped grant
/// register, in either crossbar.
inline constexpr unsigned kArbiterFaultKinds =
    fault_bit(FaultKind::IXbarStateUpset) | fault_bit(FaultKind::DXbarStateUpset);
/// Checkpoint-STORAGE upsets (DESIGN.md §9.6): bits flip inside a stored
/// snapshot record, so the strike surfaces only when a rollback decodes
/// it — the recovery path itself is under test. Opt-in for the same
/// draw-sequence-stability reason as the arbiter kinds.
inline constexpr unsigned kCkptFaultKinds = fault_bit(FaultKind::CkptBitFlip);

/// One fully-resolved injection: kind, strike cycle, target, flipped bits.
struct FaultSpec {
    FaultKind kind = FaultKind::DmBitFlip;
    Cycle cycle = 1;               ///< applied when the simulation reaches it
    PAddr pc = 0;                  ///< ImBitFlip target
    CoreId core = 0;               ///< DmBitFlip address space / RegUpset / glitch master
    Addr vaddr = 0;                ///< DmBitFlip target (virtual, core's view)
    unsigned reg = 0;              ///< RegUpset target
    std::uint32_t flip_mask = 1;   ///< XORed into the target
    unsigned burst = 1;            ///< RegUpset: registers struck (spatial MBU)
    xbar::Glitch::Kind glitch = xbar::Glitch::Kind::DroppedGrant;
    // ---- arbiter-state upsets (XbarStateUpset kinds) ------------------
    xbar::ArbiterUpset::Kind arb_kind = xbar::ArbiterUpset::Kind::GrantFlip;
    unsigned arb_head = 0;         ///< RrStuck frozen priority head
    bool arb_write_port = false;   ///< D-Xbar: strike the core's write port
    // ---- checkpoint-storage upsets (CkptBitFlip) ----------------------
    unsigned ckpt_record = 0;      ///< stored record, newest-first (mod record count)
    std::uint64_t ckpt_word = 0;   ///< 32-bit payload word (mod payload words)

    /// One-line rendering, e.g. "dm-bit-flip core3 @0x12a bit5 cycle 4711".
    std::string describe() const;
};

/// The sampling space one campaign draws from.
struct FaultUniverse {
    std::size_t text_words = 0;  ///< IM strikes land in [0, text_words)
    Addr dm_words = 0;           ///< DM strikes land in [0, dm_words) (virtual)
    unsigned cores = kNumCores;
    Cycle window = 100'000;      ///< strike cycle drawn uniform in [1, window]
    unsigned kinds = kAllFaultKinds; ///< bitmask of fault_bit(FaultKind)
    unsigned flip_bits = 1;      ///< bits flipped per strike (1 = SEU, 2 = MBU)

    // ---- multi-bit / burst models (DESIGN.md §9) ----------------------
    // Scaled-down SRAM cells are small enough that one particle track
    // spans neighbours, so realistic MBUs are SPATIALLY CORRELATED — and
    // correlation is exactly what interleaving-free SEC-DED assumes away:
    // an adjacent-bit burst of odd length has odd overall parity, so the
    // (31,26) decoder "corrects" it into a different wrong codeword.
    /// >1: memory strikes flip `burst_len` ADJACENT bits (replaces the
    /// independent flip_bits draw for ImBitFlip/DmBitFlip).
    unsigned burst_len = 1;
    /// >1: a register strike hits this many consecutive registers of the
    /// same core with the same bit column (one track across the file).
    unsigned reg_burst = 1;

    /// CkptBitFlip: payload-word index drawn uniform in [0, ckpt_words)
    /// (the applier wraps it into the struck record's actual size, which
    /// is not known at draw time). Must be > 0 when the kind is enabled.
    std::uint64_t ckpt_words = 0;
};

/// Derives the per-stream seed of injection `stream` from a campaign seed
/// (one splitmix64 step — stable across platforms and runs).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// Draws and applies faults deterministically.
class FaultInjector {
public:
    explicit FaultInjector(std::uint64_t seed) : rng_(seed) {}

    /// Draws one fault uniformly from `u`. Consecutive calls on the same
    /// injector yield a reproducible sequence.
    FaultSpec draw(const FaultUniverse& u);

    /// Applies `f` to the cluster through its injection hooks.
    /// CkptBitFlip does not strike the cluster; route it through the
    /// storage overload below (a no-op here).
    static void apply(cluster::Cluster& cl, const FaultSpec& f);

    /// Applies a CkptBitFlip to a durable checkpoint store: flips
    /// f.flip_mask bits of payload word f.ckpt_word (wrapped into the
    /// record's size) of stored record f.ckpt_record (wrapped into the
    /// record count, newest first). No-op while the store is empty or
    /// for other fault kinds.
    static void apply(cluster::CheckpointStorage& store, const FaultSpec& f);

    /// Runs `cl` until `f.cycle`, applies `f`, then runs to completion
    /// (bounded by `max_cycles`). Returns the final cycle count. The plain
    /// oracle strike() is tested against.
    static Cycle run_with_fault(cluster::Cluster& cl, const FaultSpec& f, Cycle max_cycles);

    Rng& rng() { return rng_; }

private:
    Rng rng_;
};

/// How one strike() ended.
struct StrikeEnd {
    unsigned rung = 0;     ///< rung restored below the strike; 0 without a memo
    bool rejoined = false; ///< back on the clean run: see strike()
    Cycle cycles = 0;      ///< the run's final cycle count
};

/// The one strike protocol of one-shot campaigns and struck lifetime
/// blocks (DESIGN.md §11). `cl` is freshly loaded. Given the clean-run
/// memo `clean`, restores its highest rung below `f.cycle`; then runs to
/// `f.cycle` and deposits `f`. With `rejoin` (which needs the memo) it
/// walks the later rungs: on a match the run has rejoined, its final state
/// is the clean run's and its final statistics are written to `credited`.
/// Otherwise it runs to `bound`. Each caller picks its own tier rule.
StrikeEnd strike(cluster::Cluster& cl, const FaultSpec& f, Cycle bound,
                 const cluster::CleanRun* clean, bool rejoin, cluster::ClusterStats& credited);

} // namespace ulpmc::fault
