// Pre-decoded instruction memory: a side array mirroring the IM banks
// with the decode result of every stored 24-bit word, so the simulator's
// fetch path costs an array lookup instead of a bit-field decode on every
// cycle. Decoding happens once when a word is loaded; the array must be
// kept coherent by routing every IM write through refresh() — per-word
// invalidation, so tools and tests that patch IM keep exact semantics.
//
// The cache carries no timing or statistics meaning: it is purely a
// simulator fast path and is cycle-for-cycle equivalent to decoding at
// fetch (guarded by tests/cluster/fastpath_diff_test.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "isa/instruction.hpp"

namespace ulpmc::isa {

/// The decode of one IM word, plus decode-time metadata the per-cycle
/// engine would otherwise recompute on every fetch.
struct DecodedInstr {
    Instruction instr{}; ///< meaningful only when !illegal
    bool illegal = true; ///< word does not decode to a TamaRISC instruction
    bool has_mem = false; ///< touches data memory (load and/or store)
    bool has_load = false; ///< reads data memory
    bool has_store = false; ///< writes data memory
    bool dual_mem = false; ///< both a load and a store (two DM ports claimed)
    bool is_branch = false; ///< BRA or JAL: ends a basic block
};

/// Decodes `word` into `e` (illegal entry when it does not decode) and
/// fills all decode-time metadata flags.
void fill_entry(DecodedInstr& e, InstrWord word);

/// Side array of decoded instructions for a banked instruction memory.
class PredecodedIm {
public:
    PredecodedIm() = default;

    /// Sizes the array for `banks` banks of `words_per_bank` words each;
    /// every entry starts as the decode of an all-zero word. Reuses the
    /// entry storage (no heap allocation on a same-geometry reset).
    void reset(unsigned banks, std::size_t words_per_bank);

    unsigned banks() const { return banks_; }
    std::size_t words_per_bank() const { return words_per_bank_; }

    /// Re-decodes the word now stored at (bank, offset). Call after every
    /// poke of the underlying bank cell.
    void refresh(BankId bank, std::uint32_t offset, InstrWord word);

    /// Installs an already-decoded entry at (bank, offset) — the
    /// ProgramImage load path, where the decode was done once per campaign
    /// and each cluster instance only copies it.
    void set_entry(BankId bank, std::uint32_t offset, const DecodedInstr& e) {
        entries_[bank * words_per_bank_ + offset] = e;
    }

    /// The decoded entry at (bank, offset), or nullptr when the stored
    /// word is illegal (the core then traps, exactly as a decode at fetch
    /// would).
    const DecodedInstr* lookup(BankId bank, std::uint32_t offset) const {
        const DecodedInstr& e = entries_[bank * words_per_bank_ + offset];
        return e.illegal ? nullptr : &e;
    }

    /// Raw entry access (tests).
    const DecodedInstr& entry(BankId bank, std::uint32_t offset) const;

private:
    std::vector<DecodedInstr> entries_; ///< flat [bank][offset]
    unsigned banks_ = 0;
    std::size_t words_per_bank_ = 0;
};

} // namespace ulpmc::isa
