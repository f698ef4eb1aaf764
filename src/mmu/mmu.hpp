// Memory management units (paper §III, Fig. 2).
//
// Data side: the DM is split into a SHARED section (read-only lookup
// tables, interleaved word-wise across all banks so linear walks spread
// over banks) and per-core PRIVATE sections (working data, placed in
// disjoint banks so private traffic is conflict-free by construction).
// The MMU translates the single compiled program's virtual addresses into
// (bank, offset) pairs using the core's PID — this is what lets one
// program image serve all eight cores.
//
// Instruction side: three bank-selection policies —
//   Dedicated   (mc-ref):     core p fetches from its own IM bank p;
//   Interleaved (ulpmc-int):  bank = PC mod #banks  (LSB selection);
//   Banked      (ulpmc-bank): bank = PC div bank-size (MSB selection),
// the last packing the program into the fewest banks so the rest can be
// power gated.
#pragma once

#include <cstdint>
#include <optional>

#include "common/types.hpp"

namespace ulpmc::mmu {

/// A physical location behind a crossbar.
struct BankedAddr {
    BankId bank = 0;
    std::uint32_t offset = 0;

    friend bool operator==(const BankedAddr&, const BankedAddr&) = default;
};

/// Sizing of the data memory's virtual layout. Fixed at application link
/// time ("the size of the private and shared sections are configurable and
/// determined during compilation" — §III-D).
struct DmLayout {
    Addr shared_words = 0;           ///< virtual [0, shared_words): shared
    Addr private_words_per_core = 0; ///< virtual [shared, shared+priv): private

    /// Virtual address of the first private word.
    Addr private_base() const { return shared_words; }

    /// One-past-the-last valid virtual address.
    std::uint32_t limit() const {
        return static_cast<std::uint32_t>(shared_words) + private_words_per_core;
    }
};

/// Per-core data-side MMU.
class DataMmu {
public:
    /// Layout legality (sections must fit the physical banks without
    /// overlap) is contract-checked here.
    DataMmu(DmLayout layout, CoreId pid, unsigned banks = kDmBanks,
            std::size_t words_per_bank = kDmWordsPerBank);

    /// Translates a virtual word address. std::nullopt on fault
    /// (address beyond the mapped sections).
    std::optional<BankedAddr> translate(Addr vaddr) const;

    /// True when the address falls in the shared section.
    bool is_shared(Addr vaddr) const { return vaddr < layout_.shared_words; }

    const DmLayout& layout() const { return layout_; }
    CoreId pid() const { return pid_; }

    /// Words of private data each of the core's banks must reserve
    /// (= private_words_per_core / banks-per-core, rounded up).
    std::size_t private_words_per_bank() const { return priv_per_bank_; }

    /// Banks owned by each core (the paper's geometry: two).
    unsigned banks_per_core() const { return banks_per_core_; }

private:
    DmLayout layout_;
    CoreId pid_;
    unsigned banks_;
    std::size_t words_per_bank_;
    std::size_t priv_per_bank_;
    unsigned banks_per_core_;
    // Shift forms of the divisions in translate(), valid when the divisor
    // is a power of two (every paper geometry); -1 otherwise.
    int bank_shift_ = -1;
    int priv_shift_ = -1;
};

/// Instruction-side bank selection.
enum class ImPolicy : std::uint8_t {
    Dedicated,   ///< mc-ref: per-core IM bank, no I-Xbar
    Interleaved, ///< ulpmc-int: LSB bank select
    Banked       ///< ulpmc-bank: MSB bank select (enables gating)
};

/// Maps a program counter to a physical IM location.
class ImMap {
public:
    ImMap(ImPolicy policy, unsigned banks = kImBanks,
          std::size_t words_per_bank = kImWordsPerBank);

    /// Translates a PC for core `pid`. std::nullopt when the PC exceeds
    /// the instruction space reachable under the policy.
    std::optional<BankedAddr> translate(PAddr pc, CoreId pid) const;

    /// Number of banks a program of `text_words` instructions occupies
    /// under this policy (the complement may be power gated).
    unsigned banks_used(std::size_t text_words) const;

    ImPolicy policy() const { return policy_; }

private:
    ImPolicy policy_;
    unsigned banks_;
    std::size_t words_per_bank_;
    std::uint32_t limit_; ///< banks_ * words_per_bank_
    // Shift forms of the translate() divisions (power-of-two geometries).
    int bank_shift_ = -1;
    int word_shift_ = -1;
};

} // namespace ulpmc::mmu
