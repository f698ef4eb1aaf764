#include "mem/memory_bank.hpp"

#include <array>
#include <bit>

#include "common/assert.hpp"

namespace ulpmc::mem {

namespace ecc {

namespace {

/// Widest cell the (31,26) SEC-DED code protects. Both bank flavors fit:
/// 16-bit data cells and 24-bit instruction cells.
constexpr unsigned kMaxDataBits = 26;

/// Codeword position (1-based, Hamming numbering) of data bit k: data
/// bits occupy the non-power-of-two positions in order.
constexpr std::array<std::uint8_t, kMaxDataBits> make_positions() {
    std::array<std::uint8_t, kMaxDataBits> pos{};
    unsigned p = 1;
    unsigned k = 0;
    while (k < kMaxDataBits) {
        if (!std::has_single_bit(p)) pos[k++] = static_cast<std::uint8_t>(p);
        ++p;
    }
    return pos;
}
constexpr auto kDataPos = make_positions();

bool parity32(std::uint32_t v) { return std::popcount(v) & 1; }

} // namespace

std::uint8_t encode(std::uint32_t data, unsigned data_bits) {
    ULPMC_EXPECTS(data_bits <= kMaxDataBits);
    std::uint32_t syn = 0;
    for (unsigned k = 0; k < data_bits; ++k)
        if ((data >> k) & 1) syn ^= kDataPos[k];
    // Overall parity makes the whole codeword (data + check + parity) even.
    const std::uint32_t dmask = data_bits < 32 ? (1u << data_bits) - 1u : 0xFFFFFFFFu;
    const bool p = parity32(data & dmask) ^ parity32(syn & 0x1Fu);
    return static_cast<std::uint8_t>((syn & 0x1Fu) | (p ? 0x20u : 0u));
}

Decode check(std::uint32_t data, std::uint8_t stored_check, unsigned data_bits) {
    const std::uint8_t expect = encode(data, data_bits);
    const std::uint8_t diff = stored_check ^ expect;
    const std::uint32_t syn = diff & 0x1Fu;
    // Overall parity of the received codeword: even for the expected word
    // by construction, so it reduces to the parity of the check-bit diff.
    const bool parity_odd = parity32(diff);

    Decode d{.corrected = data, .had_error = false, .uncorrectable = false};
    if (diff == 0) return d;
    d.had_error = true;
    if (!parity_odd) {
        // Even number of flipped bits (>= 2): detection only.
        d.uncorrectable = true;
        return d;
    }
    // Odd flip count: assume one. syn == 0 means the parity bit itself
    // flipped; a power-of-two syndrome points at a check bit — data is
    // intact either way. Otherwise the syndrome is the flipped codeword
    // position; map it back to the data bit.
    if (syn != 0 && !std::has_single_bit(syn)) {
        bool found = false;
        for (unsigned k = 0; k < data_bits; ++k) {
            if (kDataPos[k] == syn) {
                d.corrected = data ^ (1u << k);
                found = true;
                break;
            }
        }
        // A syndrome pointing beyond the used data positions cannot come
        // from a single flip: flag it rather than miscorrect.
        if (!found) d.uncorrectable = true;
    }
    return d;
}

} // namespace ecc

MemoryBank::MemoryBank(std::size_t size, unsigned cell_bits)
    : cells_(size, 0), cell_bits_(cell_bits) {
    ULPMC_EXPECTS(size > 0);
    ULPMC_EXPECTS(cell_bits > 0 && cell_bits <= 32);
}

void MemoryBank::reset(std::size_t size, unsigned cell_bits, bool ecc) {
    ULPMC_EXPECTS(size > 0);
    ULPMC_EXPECTS(cell_bits > 0 && cell_bits <= 32);
    cells_.assign(size, 0);
    cell_bits_ = cell_bits;
    gated_ = false;
    uncorrectable_pending_ = false;
    stats_ = {};
    ecc_ = ecc;
    if (ecc) {
        ULPMC_EXPECTS(cell_bits <= 26); // the (31,26) code's capacity
        check_.assign(size, ecc::encode(0, cell_bits));
    } else {
        check_.clear(); // capacity kept for the next ECC-enabled reset
    }
}

void MemoryBank::save(BankSnapshot& out) const {
    out.cells = cells_;
    out.check = check_;
}

void MemoryBank::restore(const BankSnapshot& s) {
    ULPMC_EXPECTS(s.cells.size() == cells_.size());
    ULPMC_EXPECTS(s.check.size() == check_.size());
    cells_ = s.cells;
    check_ = s.check;
}

MemoryBank::CellState MemoryBank::cell_state(std::size_t offset) const {
    ULPMC_EXPECTS(offset < cells_.size());
    return {cells_[offset], ecc_ ? check_[offset] : std::uint8_t{0}};
}

void MemoryBank::set_cell_state(std::size_t offset, CellState s) {
    ULPMC_EXPECTS(offset < cells_.size());
    ULPMC_EXPECTS(!gated_);
    cells_[offset] = s.cell;
    if (ecc_) check_[offset] = s.check;
}

bool MemoryBank::state_equals(const BankSnapshot& s, const BankMeta& m) const {
    return cells_ == s.cells && check_ == s.check && gated_ == m.gated &&
           uncorrectable_pending_ == m.uncorrectable_pending;
}

std::uint32_t MemoryBank::read(std::size_t offset) {
    ULPMC_EXPECTS(offset < cells_.size());
    ULPMC_EXPECTS(!gated_);
    ++stats_.reads;
    if (!ecc_) return cells_[offset];
    const ecc::Decode d = ecc::check(cells_[offset], check_[offset], cell_bits_);
    if (d.uncorrectable) {
        ++stats_.ecc_uncorrectable;
        uncorrectable_pending_ = true;
        return cells_[offset];
    }
    if (d.had_error) {
        ++stats_.ecc_corrected;
        // Write-back scrub: the upset is gone after the first read.
        cells_[offset] = d.corrected;
        check_[offset] = ecc::encode(d.corrected, cell_bits_);
    }
    return d.corrected;
}

void MemoryBank::write(std::size_t offset, std::uint32_t value) {
    ULPMC_EXPECTS(offset < cells_.size());
    ULPMC_EXPECTS(!gated_);
    ++stats_.writes;
    cells_[offset] = value;
    if (ecc_) check_[offset] = ecc::encode(value, cell_bits_);
}

std::uint32_t MemoryBank::peek(std::size_t offset) const {
    ULPMC_EXPECTS(offset < cells_.size());
    if (!ecc_) return cells_[offset];
    const ecc::Decode d = ecc::check(cells_[offset], check_[offset], cell_bits_);
    return d.uncorrectable ? cells_[offset] : d.corrected;
}

void MemoryBank::poke(std::size_t offset, std::uint32_t value) {
    ULPMC_EXPECTS(offset < cells_.size());
    ULPMC_EXPECTS(!gated_);
    cells_[offset] = value;
    if (ecc_) check_[offset] = ecc::encode(value, cell_bits_);
}

void MemoryBank::corrupt(std::size_t offset, std::uint32_t flip_mask) {
    ULPMC_EXPECTS(offset < cells_.size());
    ULPMC_EXPECTS(!gated_);
    const std::uint32_t mask = cell_bits_ < 32 ? (1u << cell_bits_) - 1u : 0xFFFFFFFFu;
    cells_[offset] ^= flip_mask & mask;
    ++stats_.faults_injected;
}

MemoryBank::ScrubResult MemoryBank::scrub_step(std::size_t offset) {
    ULPMC_EXPECTS(offset < cells_.size());
    ULPMC_EXPECTS(!gated_);
    if (!ecc_) return {};
    const ecc::Decode d = ecc::check(cells_[offset], check_[offset], cell_bits_);
    if (d.uncorrectable) return {.corrected = false, .uncorrectable = true};
    if (d.had_error) {
        cells_[offset] = d.corrected;
        check_[offset] = ecc::encode(d.corrected, cell_bits_);
        return {.corrected = true, .uncorrectable = false};
    }
    return {};
}

std::size_t MemoryBank::latent_upsets() const {
    if (!ecc_) return 0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < cells_.size(); ++i)
        n += ecc::check(cells_[i], check_[i], cell_bits_).had_error;
    return n;
}

void MemoryBank::set_power_gated(bool gated) {
    if (gated && !gated_) {
        // Gating drops state: make any stale-data bug loud, not silent.
        for (auto& c : cells_) c = 0xDEADBEEFu;
        if (ecc_)
            for (std::size_t i = 0; i < cells_.size(); ++i)
                check_[i] = ecc::encode(cells_[i], cell_bits_);
    }
    gated_ = gated;
}

} // namespace ulpmc::mem
