#include "isa/predecode.hpp"

#include "common/assert.hpp"
#include "isa/encoding.hpp"

namespace ulpmc::isa {

void PredecodedIm::reset(unsigned banks, std::size_t words_per_bank) {
    ULPMC_EXPECTS(banks > 0);
    ULPMC_EXPECTS(words_per_bank > 0);
    banks_ = banks;
    words_per_bank_ = words_per_bank;
    // An IM bank powers up all-zero; decode that image once so lookups are
    // valid even for never-written words (fetching them behaves exactly
    // like decoding the zero word at fetch time).
    DecodedInstr zero;
    fill_entry(zero, 0);
    entries_.assign(static_cast<std::size_t>(banks) * words_per_bank, zero);
}

void fill_entry(DecodedInstr& e, InstrWord word) {
    if (const auto d = decode(word)) {
        e.instr = *d;
        e.illegal = false;
        e.has_load = data_reads(*d) > 0;
        e.has_store = data_writes(*d) > 0;
        e.has_mem = e.has_load || e.has_store;
        e.dual_mem = e.has_load && e.has_store;
        e.is_branch = d->op == Opcode::BRA || d->op == Opcode::JAL;
    } else {
        e = DecodedInstr{};
    }
}

void PredecodedIm::refresh(BankId bank, std::uint32_t offset, InstrWord word) {
    ULPMC_EXPECTS(bank < banks_);
    ULPMC_EXPECTS(offset < words_per_bank_);
    fill_entry(entries_[bank * words_per_bank_ + offset], word);
}

const DecodedInstr& PredecodedIm::entry(BankId bank, std::uint32_t offset) const {
    ULPMC_EXPECTS(bank < banks_);
    ULPMC_EXPECTS(offset < words_per_bank_);
    return entries_[bank * words_per_bank_ + offset];
}

} // namespace ulpmc::isa
