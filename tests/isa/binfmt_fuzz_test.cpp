// Seeded mutation fuzzing of the UPMC program container (isa/binfmt): a
// saved ECG image is mutated by byte flips, truncations and count-field
// overwrites, and the CRC is re-sealed so the parser's bounds checks — not
// just the checksum — see the damage. Every input must either be rejected
// with a one-line diagnostic, or load and save back to the identical
// bytes; it must never crash or read out of bounds (the sanitizer build
// runs the same corpus).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "app/benchmark.hpp"
#include "common/rng.hpp"
#include "isa/binfmt.hpp"

namespace ulpmc::isa {
namespace {

using Bytes = std::vector<std::uint8_t>;

const Bytes& ecg_image() {
    static const Bytes bytes = save_program(app::EcgBenchmark{}.program());
    return bytes;
}

std::uint32_t get_u32(const Bytes& b, std::size_t at) {
    return static_cast<std::uint32_t>(b[at]) | (static_cast<std::uint32_t>(b[at + 1]) << 8) |
           (static_cast<std::uint32_t>(b[at + 2]) << 16) |
           (static_cast<std::uint32_t>(b[at + 3]) << 24);
}

void put_u32(Bytes& b, std::size_t at, std::uint32_t v) {
    for (std::size_t i = 0; i < 4; ++i) b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// Replaces the trailing CRC with the checksum of everything before it.
void reseal(Bytes& b) {
    put_u32(b, b.size() - 4, crc32(b.data(), b.size() - 4));
}

/// Byte offsets of the image's count fields: text count, data count,
/// symbol count, and the first symbol's name length (a u16).
struct Fields {
    std::size_t text_count, data_count, symbol_count, first_name_len;
};

Fields fields_of(const Bytes& b) {
    Fields f{};
    f.text_count = 8;
    f.data_count = f.text_count + 4 + 3 * std::size_t{get_u32(b, f.text_count)};
    f.symbol_count = f.data_count + 4 + 2 * std::size_t{get_u32(b, f.data_count)};
    f.first_name_len = f.symbol_count + 4 + 1 + 4;
    return f;
}

/// The property: rejected with a one-line diagnostic, or accepted and
/// byte-identical when saved again. Returns the diagnostic ("" = loaded).
std::string check_input(const Bytes& bytes, const std::string& ctx) {
    std::string err;
    const auto p = load_program(bytes, err);
    if (!p) {
        EXPECT_FALSE(err.empty()) << ctx;
        EXPECT_EQ(err.find('\n'), std::string::npos) << ctx << ": " << err;
        return err.empty() ? "?" : err;
    }
    EXPECT_TRUE(save_program(*p) == bytes) << ctx << ": accepted but does not round-trip";
    return "";
}

TEST(BinFmtFuzz, PristineEcgImageRoundTrips) {
    EXPECT_EQ(check_input(ecg_image(), "pristine"), "");
}

TEST(BinFmtFuzz, ResealedByteFlips) {
    Rng rng(0xB1F1u);
    const Bytes& pristine = ecg_image();
    std::set<std::string> seen;
    for (int iter = 0; iter < 600; ++iter) {
        Bytes b = pristine;
        const unsigned flips = 1 + rng.below(4);
        // Flips concentrate on the header and the tables (the text and
        // data payloads accept any bits by design).
        const Fields f = fields_of(pristine);
        for (unsigned i = 0; i < flips; ++i) {
            const auto body = static_cast<std::uint32_t>(b.size() - 4);
            const auto tables = static_cast<std::uint32_t>(f.symbol_count);
            std::size_t pos = rng.below(body);
            if (rng.below(3) == 1) pos = rng.below(12);
            if (rng.below(3) == 2) pos = tables + rng.below(body - tables);
            b[pos] ^= static_cast<std::uint8_t>(1 + rng.below(255));
        }
        // Most inputs are re-sealed; the rest must fail the checksum.
        const bool sealed = rng.below(8) != 0;
        if (sealed) reseal(b);
        const std::string err = check_input(b, "flip iter " + std::to_string(iter));
        if (!sealed && b != pristine) {
            EXPECT_NE(err, "") << "unsealed flip accepted, iter " << iter;
        }
        seen.insert(err);
    }
    EXPECT_TRUE(seen.count("CRC mismatch (corrupted image)"));
    EXPECT_TRUE(seen.count("bad magic"));
    EXPECT_TRUE(seen.count("unsupported version"));
    EXPECT_TRUE(seen.count("truncated symbol table"));
    // Flipped name bytes reorder the table: rejected, since such an image
    // would not save back to its own bytes.
    EXPECT_TRUE(seen.count("symbol table out of order"));
}

TEST(BinFmtFuzz, ResealedTruncations) {
    Rng rng(0x7C07u);
    const Bytes& pristine = ecg_image();
    std::set<std::string> seen;
    const Fields f = fields_of(pristine);
    // Cut points: uniform over the image, or within a few bytes of a
    // section boundary, where a cut lands inside a count field.
    const std::size_t boundaries[] = {0, f.text_count, f.data_count, f.symbol_count,
                                      pristine.size() - 4};
    for (int iter = 0; iter < 300; ++iter) {
        std::size_t keep = rng.below(static_cast<std::uint32_t>(pristine.size() - 4));
        if (rng.below(3) != 0) {
            keep = boundaries[rng.below(std::size(boundaries))] + rng.below(8);
            keep = std::min(keep, pristine.size() - 5);
        }
        Bytes b(pristine.begin(), pristine.begin() + static_cast<std::ptrdiff_t>(keep));
        b.resize(keep + 4);
        reseal(b);
        seen.insert(check_input(b, "truncate to " + std::to_string(keep)));
    }
    for (const char* e : {"image too small", "bad text size", "truncated text", "bad data size",
                          "truncated data", "bad symbol count", "truncated symbol table"})
        EXPECT_TRUE(seen.count(e)) << e;
}

TEST(BinFmtFuzz, ResealedCountFieldOverwrites) {
    Rng rng(0xC0DEu);
    const Bytes& pristine = ecg_image();
    const Fields f = fields_of(pristine);
    std::set<std::string> seen;
    for (int iter = 0; iter < 400; ++iter) {
        Bytes b = pristine;
        const std::size_t at[] = {f.text_count, f.data_count, f.symbol_count, f.first_name_len};
        const unsigned which = rng.below(4);
        const std::uint32_t old = get_u32(b, at[which]);
        // Boundary values around the true count and the parser's limits,
        // plus arbitrary ones.
        const std::uint32_t candidates[] = {0u, old - 1, old + 1, old * 2, 0xFFFFFFFFu,
                                            kImWordsTotal, kImWordsTotal + 1, kDmWordsTotal + 1,
                                            100'001u, rng.next_u32()};
        std::uint32_t v = candidates[rng.below(std::size(candidates))];
        if (which == 3) {
            // The name length is a u16: overwrite only its two bytes.
            b[at[3]] = static_cast<std::uint8_t>(v);
            b[at[3] + 1] = static_cast<std::uint8_t>(v >> 8);
        } else {
            put_u32(b, at[which], v);
        }
        reseal(b);
        seen.insert(check_input(b, "field " + std::to_string(which) + " = " + std::to_string(v)));
    }
    for (const char* e : {"bad text size", "bad data size", "bad symbol count",
                          "truncated symbol table", "trailing garbage"})
        EXPECT_TRUE(seen.count(e)) << e;
}

TEST(BinFmtFuzz, EntryAndSymbolEdgeCases) {
    const Bytes& pristine = ecg_image();
    const Fields f = fields_of(pristine);
    // An entry point beyond the text.
    Bytes b = pristine;
    b[6] = 0xFF;
    b[7] = 0xFF;
    reseal(b);
    EXPECT_EQ(check_input(b, "entry"), "entry point outside text");
    // A zero-length first symbol name: the name's bytes become the next
    // field, so the table no longer parses or the name is empty.
    b = pristine;
    b[f.first_name_len] = 0;
    b[f.first_name_len + 1] = 0;
    reseal(b);
    EXPECT_NE(check_input(b, "empty name"), "");
}

} // namespace
} // namespace ulpmc::isa
