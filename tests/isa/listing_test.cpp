#include "isa/listing.hpp"

#include <gtest/gtest.h>

#include "isa/assembler.hpp"

namespace ulpmc::isa {
namespace {

Program sample() {
    return assemble(R"(
        .entry main
main:   movi r1, tbl
loop:   sub  r1, r1, #1
        bra  ne, loop
        hlt
        .data
tbl:    .word 0xBEEF, 2, 3
    )");
}

TEST(Listing, ContainsHeaderAddressesAndLabels) {
    const std::string lst = format_listing(sample());
    EXPECT_NE(lst.find("; 4 instructions (12 bytes), 3 data words, entry 0"), std::string::npos);
    EXPECT_NE(lst.find("main:"), std::string::npos);
    EXPECT_NE(lst.find("loop:"), std::string::npos);
    EXPECT_NE(lst.find("0000"), std::string::npos);
    EXPECT_NE(lst.find("hlt"), std::string::npos);
}

TEST(Listing, AppendsTheSymbolTable) {
    const std::string lst = format_listing(sample());
    EXPECT_NE(lst.find("; symbols"), std::string::npos);
    EXPECT_NE(lst.find("tbl"), std::string::npos);
}

TEST(Listing, EveryInstructionGetsOneLine) {
    const Program p = sample();
    const std::string lst = format_listing(p);
    const std::string body = lst.substr(0, lst.find("\n; symbols"));
    std::size_t lines = 0;
    for (const char c : body)
        if (c == '\n') ++lines;
    // header + one line per instruction + labels (main, loop).
    EXPECT_EQ(lines, 1 + p.text.size() + 2);
}

} // namespace
} // namespace ulpmc::isa
