// SEC-DED layer property tests (DESIGN.md §9): every single-bit upset in
// a protected cell is corrected, every double-bit upset is detected, and
// the bank-level read path counts/corrects/scrubs exactly as documented.
#include <gtest/gtest.h>

#include "mem/memory_bank.hpp"

namespace ulpmc::mem {
namespace {

TEST(Ecc, CorrectsEverySingleBitFlip) {
    for (const unsigned bits : {16u, 24u, 26u}) {
        const std::uint32_t patterns[] = {0u, 1u, 0xA5A5u & ((1u << bits) - 1),
                                          (1u << bits) - 1, 0x00F0Fu & ((1u << bits) - 1)};
        for (const std::uint32_t data : patterns) {
            const std::uint8_t check = ecc::encode(data, bits);
            for (unsigned b = 0; b < bits; ++b) {
                const auto d = ecc::check(data ^ (1u << b), check, bits);
                EXPECT_TRUE(d.had_error);
                EXPECT_FALSE(d.uncorrectable);
                EXPECT_EQ(d.corrected, data) << "bits=" << bits << " bit=" << b;
            }
        }
    }
}

TEST(Ecc, CleanWordPassesUntouched) {
    for (const unsigned bits : {16u, 24u}) {
        const std::uint32_t data = 0x5A5Au & ((1u << bits) - 1);
        const auto d = ecc::check(data, ecc::encode(data, bits), bits);
        EXPECT_FALSE(d.had_error);
        EXPECT_FALSE(d.uncorrectable);
        EXPECT_EQ(d.corrected, data);
    }
}

TEST(Ecc, DetectsEveryDoubleBitFlip) {
    const unsigned bits = 16;
    const std::uint32_t data = 0x1234;
    const std::uint8_t check = ecc::encode(data, bits);
    for (unsigned a = 0; a < bits; ++a) {
        for (unsigned b = a + 1; b < bits; ++b) {
            const auto d = ecc::check(data ^ (1u << a) ^ (1u << b), check, bits);
            EXPECT_TRUE(d.had_error);
            EXPECT_TRUE(d.uncorrectable) << "bits " << a << "," << b;
        }
    }
}

TEST(EccBank, ReadCorrectsCountsAndScrubs) {
    MemoryBank bank;
    bank.reset(8, 16, true);
    bank.write(3, 0xBEEF);
    bank.corrupt(3, 0x0100);

    EXPECT_EQ(bank.read(3), 0xBEEFu); // corrected in flight
    EXPECT_EQ(bank.stats().ecc_corrected, 1u);
    EXPECT_EQ(bank.stats().faults_injected, 1u);
    EXPECT_FALSE(bank.take_uncorrectable());

    EXPECT_EQ(bank.read(3), 0xBEEFu); // scrub wrote the fix back
    EXPECT_EQ(bank.stats().ecc_corrected, 1u) << "second read must not correct again";
}

TEST(EccBank, PeekReturnsCorrectedViewWithoutCounting) {
    MemoryBank bank;
    bank.reset(4, 16, true);
    bank.write(0, 0x00FF);
    bank.corrupt(0, 0x8000);
    EXPECT_EQ(bank.peek(0), 0x00FFu);
    EXPECT_EQ(bank.stats().ecc_corrected, 0u);
    EXPECT_EQ(bank.stats().reads, 0u);
}

TEST(EccBank, DoubleBitUpsetRaisesStickyFlag) {
    MemoryBank bank;
    bank.reset(4, 16, true);
    bank.write(1, 0x0F0F);
    bank.corrupt(1, 0x0011);
    bank.read(1);
    EXPECT_EQ(bank.stats().ecc_uncorrectable, 1u);
    EXPECT_TRUE(bank.take_uncorrectable());
    EXPECT_FALSE(bank.take_uncorrectable()) << "flag is take-once";
}

TEST(EccBank, WithoutEccFlipsReadBackRaw) {
    MemoryBank bank(4, 16);
    bank.write(2, 0x1111);
    bank.corrupt(2, 0x0022);
    EXPECT_EQ(bank.read(2), 0x1111u ^ 0x0022u);
    EXPECT_EQ(bank.stats().ecc_corrected, 0u);
}

} // namespace
} // namespace ulpmc::mem
