// One physical SRAM bank of the multi-banked memory hierarchy.
//
// Banks are the unit of arbitration (one access per cycle each), of
// energy accounting (every granted access is counted), and of power
// gating (the paper's ulpmc-bank organization gates unused IM banks to
// cut leakage — §III-C). A bank stores generic 32-bit cells so the same
// class backs 16-bit data banks and 24-bit instruction banks.
//
// Resilience extension (DESIGN.md §9): a bank can carry a SEC-DED
// (single-error-correct, double-error-detect) Hamming code over each
// cell. Check bits are computed on every write/poke; every counted read
// recomputes the syndrome, silently corrects single-bit upsets in place
// (write-back scrub) and flags double-bit upsets as uncorrectable. Fault
// campaigns flip stored bits through corrupt(), which — unlike poke() —
// does NOT re-encode the check bits, exactly like a particle strike.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace ulpmc::mem {

/// Per-bank access statistics (inputs to the energy model).
struct BankStats {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t ecc_corrected = 0;     ///< single-bit upsets fixed on read
    std::uint64_t ecc_uncorrectable = 0; ///< double-bit upsets flagged on read
    std::uint64_t faults_injected = 0;   ///< corrupt() calls

    std::uint64_t accesses() const { return reads + writes; }
};

/// SEC-DED code over one <=26-bit cell: 5 Hamming check bits + 1 overall
/// parity bit. Exposed for tests and for the predecode coherence path.
namespace ecc {
/// Check bits for `data` (the low `data_bits` bits are protected).
std::uint8_t encode(std::uint32_t data, unsigned data_bits);

/// Outcome of one syndrome decode.
struct Decode {
    std::uint32_t corrected;  ///< data with a single-bit error fixed
    bool had_error = false;   ///< any mismatch between data and check bits
    bool uncorrectable = false; ///< >=2 bits flipped: detection only
};
Decode check(std::uint32_t data, std::uint8_t stored_check, unsigned data_bits);
} // namespace ecc

/// Saved state of one bank (Cluster snapshots, DESIGN.md §10): contents,
/// check bits, statistics and status flags. Opaque to everything but
/// MemoryBank; reused buffers keep their capacity across save() calls so a
/// snapshot ladder allocates only on first use.
struct BankSnapshot {
    std::vector<std::uint32_t> cells;
    std::vector<std::uint8_t> check;
    BankStats stats;
    bool gated = false;
    bool uncorrectable_pending = false;
};

/// A single SRAM bank.
class MemoryBank {
public:
    /// An unconfigured bank (zero cells); reset() before use. Exists so
    /// pooled clusters can resize their bank arrays without constructing
    /// throwaway storage.
    MemoryBank() = default;

    /// Creates a bank of `size` cells of `cell_bits` each (bookkeeping for
    /// area/energy; storage is uint32 regardless).
    MemoryBank(std::size_t size, unsigned cell_bits);

    /// Reconfigures the bank in place to the freshly-constructed state of
    /// MemoryBank(size, cell_bits) with ECC set to `ecc`: cells zeroed,
    /// statistics cleared, gating off. Reuses the existing buffers, so a
    /// same-geometry reset performs no heap allocation.
    void reset(std::size_t size, unsigned cell_bits, bool ecc);

    /// Copies the bank's full mutable state into `out` / back. The
    /// configuration (size, cell bits, ECC) must match between save and
    /// restore; restore() contract-checks it.
    void save(BankSnapshot& out) const;
    void restore(const BankSnapshot& s);

    std::size_t size() const { return cells_.size(); }
    unsigned cell_bits() const { return cell_bits_; }

    /// Reads one cell. Precondition: offset in range, bank powered. With
    /// ECC enabled the returned value is syndrome-checked: a single-bit
    /// upset is corrected (and scrubbed back into the array), a double-bit
    /// upset raises the sticky uncorrectable flag (take_uncorrectable()).
    std::uint32_t read(std::size_t offset);

    /// Writes one cell. Precondition: offset in range, bank powered.
    void write(std::size_t offset, std::uint32_t value);

    /// Non-counting accessors for loaders and tests. With ECC enabled,
    /// peek() returns the corrected view of a single-bit-upset cell (no
    /// scrub, no counting) so verification reads what a fetch would.
    std::uint32_t peek(std::size_t offset) const;
    void poke(std::size_t offset, std::uint32_t value);

    /// Whole-array view for bulk consumers (the pre-decode pass); does not
    /// count as an access. Raw cells: no ECC correction applied.
    std::span<const std::uint32_t> cells() const { return cells_; }

    /// Raw stored state of one cell: bits as deposited (no ECC correction)
    /// plus the stored check byte (0 without ECC). This is the unit of the
    /// deduplicated IM snapshot (DESIGN.md §11): only cells on a cluster's
    /// dirty list are captured/replayed, everything else is provably still
    /// the pristine program image.
    struct CellState {
        std::uint32_t cell = 0;
        std::uint8_t check = 0;
        friend bool operator==(const CellState&, const CellState&) = default;
    };
    CellState cell_state(std::size_t offset) const;
    void set_cell_state(std::size_t offset, CellState s);

    /// True when the bank's future-determining state — cells, check bits,
    /// gating and the sticky uncorrectable flag, but NOT statistics —
    /// matches the snapshot. The clean-run ladder's rejoin comparator.
    bool state_equals(const BankSnapshot& s) const;

    /// Statistics restore for deduplicated snapshots (full restores go
    /// through restore()).
    void set_stats(const BankStats& s) { stats_ = s; }

    bool uncorrectable_pending() const { return uncorrectable_pending_; }
    void set_uncorrectable_pending(bool u) { uncorrectable_pending_ = u; }

    /// Soft-error injection: XORs `flip_mask` into the stored cell without
    /// touching the check bits (a strike flips cells, not the code).
    /// Counted in stats().faults_injected.
    void corrupt(std::size_t offset, std::uint32_t flip_mask);

    /// Outcome of one idle-cycle scrub step (DESIGN.md §9).
    struct ScrubResult {
        bool corrected = false;     ///< a latent single-bit upset was repaired
        bool uncorrectable = false; ///< the word is already past SEC-DED's reach
    };

    /// Idle-cycle scrub: syndrome-checks the cell at `offset` and repairs
    /// a single-bit upset in place. Unlike read() it does NOT touch the
    /// demand-access statistics or the sticky uncorrectable flag — a scrub
    /// engine walking the array is background maintenance, not a consuming
    /// access (the cluster counts scrub reads separately and prices them
    /// in power::cal). No-op without ECC (nothing to check against).
    ScrubResult scrub_step(std::size_t offset);

    /// Latent-upset population: cells whose stored bits disagree with
    /// their check bits right now (upsets deposited but not yet read or
    /// scrubbed). The drain metric for the IM scrub walker. Non-counting;
    /// 0 without ECC.
    std::size_t latent_upsets() const;

    /// Returns and clears the uncorrectable-error flag raised by the most
    /// recent read()s. The caller (the cluster) turns it into a trap.
    bool take_uncorrectable() {
        const bool u = uncorrectable_pending_;
        uncorrectable_pending_ = false;
        return u;
    }

    /// Power gating (retention is NOT modeled: gating wipes contents, so
    /// the simulator faults on any access to a gated bank — matching the
    /// hardware reality that only *unused* banks may be gated).
    void set_power_gated(bool gated);
    bool power_gated() const { return gated_; }

    const BankStats& stats() const { return stats_; }
    void reset_stats() { stats_ = {}; }

private:
    std::vector<std::uint32_t> cells_;
    std::vector<std::uint8_t> check_; ///< SEC-DED check bits, sized when ECC on
    unsigned cell_bits_ = 0;
    bool gated_ = false;
    bool ecc_ = false;
    bool uncorrectable_pending_ = false;
    BankStats stats_;
};

} // namespace ulpmc::mem
