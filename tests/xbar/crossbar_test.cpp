#include "xbar/crossbar.hpp"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace ulpmc::xbar {
namespace {

Request rd(BankId bank, std::uint32_t off) { return {true, false, bank, off}; }
Request wr(BankId bank, std::uint32_t off) { return {true, true, bank, off}; }

TEST(Crossbar, ResetReturnsToTheConstructedState) {
    // A consumed glitch's payload must not survive reset(): the clean-run
    // memo compares a freshly reset crossbar against one that never held a
    // glitch (Crossbar::state_equals sees the payload).
    Crossbar used(4, 4, true);
    used.inject_glitch(Glitch{Glitch::Kind::SpuriousDenial, 3});
    used.reset(4, 4, true);
    XbarSnapshot fresh;
    Crossbar(4, 4, true).save(fresh);
    EXPECT_TRUE(used.state_equals(fresh));
}

TEST(Crossbar, DistinctBanksAllGranted) {
    Crossbar xb(4, 8, true);
    const std::vector<Request> reqs = {rd(0, 1), rd(1, 1), wr(2, 5), rd(3, 0)};
    const auto g = xb.arbitrate(reqs, 0);
    for (const auto& gr : g) EXPECT_TRUE(gr.granted);
    EXPECT_EQ(xb.stats().bank_accesses, 4u);
    EXPECT_EQ(xb.stats().denied, 0u);
}

TEST(Crossbar, SameBankDifferentAddressSerializes) {
    Crossbar xb(2, 4, true);
    const std::vector<Request> reqs = {rd(1, 0), rd(1, 7)};
    const auto g = xb.arbitrate(reqs, 0);
    EXPECT_NE(g[0].granted, g[1].granted); // exactly one wins
    EXPECT_EQ(xb.stats().denied, 1u);
    EXPECT_EQ(xb.stats().conflict_cycles, 1u);
}

TEST(Crossbar, BroadcastMergesSameAddressReads) {
    Crossbar xb(8, 4, true);
    std::vector<Request> reqs(8, rd(2, 13));
    const auto g = xb.arbitrate(reqs, 0);
    unsigned riders = 0;
    for (const auto& gr : g) {
        EXPECT_TRUE(gr.granted);
        riders += gr.broadcast;
    }
    EXPECT_EQ(riders, 7u);              // one owner, seven riders
    EXPECT_EQ(xb.stats().bank_accesses, 1u); // single physical access
    EXPECT_EQ(xb.stats().broadcast_riders, 7u);
}

TEST(Crossbar, BroadcastDisabledSerializesSameAddress) {
    Crossbar xb(8, 4, false); // mc-ref style interconnect
    std::vector<Request> reqs(8, rd(2, 13));
    const auto g = xb.arbitrate(reqs, 0);
    unsigned granted = 0;
    for (const auto& gr : g) granted += gr.granted;
    EXPECT_EQ(granted, 1u);
    EXPECT_EQ(xb.stats().denied, 7u);
}

TEST(Crossbar, WritesNeverBroadcast) {
    Crossbar xb(2, 4, true);
    const std::vector<Request> reqs = {wr(1, 3), wr(1, 3)};
    const auto g = xb.arbitrate(reqs, 0);
    EXPECT_NE(g[0].granted, g[1].granted);
}

TEST(Crossbar, ReadDoesNotRideOnWriteWinner) {
    Crossbar xb(2, 4, true);
    // Writer wins the bank at cycle 0 (priority head = master 0).
    const std::vector<Request> reqs = {wr(1, 3), rd(1, 3)};
    const auto g = xb.arbitrate(reqs, 0);
    EXPECT_TRUE(g[0].granted);
    EXPECT_FALSE(g[1].granted);
}

TEST(Crossbar, InactiveRequestsIgnored) {
    Crossbar xb(3, 4, true);
    std::vector<Request> reqs(3);
    reqs[1] = rd(0, 0);
    const auto g = xb.arbitrate(reqs, 0);
    EXPECT_FALSE(g[0].granted);
    EXPECT_TRUE(g[1].granted);
    EXPECT_FALSE(g[2].granted);
    EXPECT_EQ(xb.stats().requests, 1u);
}

TEST(Crossbar, RotatingPriorityIsFairOverTime) {
    // Two masters fight for one bank forever; over 1000 cycles each must
    // win ~half the grants (round-robin fairness, paper §III-B).
    Crossbar xb(2, 1, false);
    std::array<unsigned, 2> wins{};
    for (Cycle c = 0; c < 1000; ++c) {
        const std::vector<Request> reqs = {rd(0, 0), rd(0, 1)};
        const auto g = xb.arbitrate(reqs, c);
        wins[0] += g[0].granted;
        wins[1] += g[1].granted;
    }
    EXPECT_EQ(wins[0], 500u);
    EXPECT_EQ(wins[1], 500u);
}

TEST(Crossbar, EveryActiveRequesterEventuallyWins) {
    // Property: with N masters on one bank, any master waits at most N
    // cycles (the rotating head passes everyone).
    constexpr unsigned kMasters = 8;
    Crossbar xb(kMasters, 1, false);
    std::array<Cycle, kMasters> last_win{};
    for (Cycle c = 0; c < 200; ++c) {
        std::vector<Request> reqs(kMasters, rd(0, 0));
        for (unsigned m = 0; m < kMasters; ++m) reqs[m].offset = m;
        const auto g = xb.arbitrate(reqs, c);
        for (unsigned m = 0; m < kMasters; ++m)
            if (g[m].granted) last_win[m] = c;
    }
    for (unsigned m = 0; m < kMasters; ++m) EXPECT_GE(last_win[m] + kMasters, 199u);
}

TEST(Crossbar, ExactlyOneNonRiderGrantPerBankProperty) {
    // Randomized invariant sweep: per cycle and bank, at most one granted
    // request is a physical access; riders only on identical read offsets.
    Rng rng(5);
    Crossbar xb(8, 4, true);
    for (Cycle c = 0; c < 2000; ++c) {
        std::vector<Request> reqs(8);
        for (auto& r : reqs) {
            r.active = rng.below(4) != 0;
            r.is_write = rng.below(4) == 0;
            r.bank = static_cast<BankId>(rng.below(4));
            r.offset = rng.below(3);
        }
        const auto g = xb.arbitrate(reqs, c);
        std::array<int, 4> owners{};
        for (unsigned m = 0; m < 8; ++m) {
            if (!g[m].granted) continue;
            if (!g[m].broadcast) ++owners[reqs[m].bank];
            if (g[m].broadcast) EXPECT_FALSE(reqs[m].is_write);
        }
        for (const int o : owners) EXPECT_LE(o, 1);
        // Riders must match their bank owner's offset.
        for (unsigned m = 0; m < 8; ++m) {
            if (!g[m].granted || !g[m].broadcast) continue;
            bool matched = false;
            for (unsigned w = 0; w < 8; ++w) {
                if (w == m || !g[w].granted || g[w].broadcast) continue;
                if (reqs[w].bank == reqs[m].bank && reqs[w].offset == reqs[m].offset &&
                    !reqs[w].is_write)
                    matched = true;
            }
            EXPECT_TRUE(matched);
        }
    }
}

TEST(Crossbar, StatsAccumulate) {
    Crossbar xb(2, 2, true);
    const std::vector<Request> reqs = {rd(0, 0), rd(0, 0)};
    (void)xb.arbitrate(reqs, 0);
    (void)xb.arbitrate(reqs, 1);
    EXPECT_EQ(xb.stats().requests, 4u);
    EXPECT_EQ(xb.stats().grants, 4u);
    EXPECT_EQ(xb.stats().bank_accesses, 2u);
    xb.reset_stats();
    EXPECT_EQ(xb.stats().requests, 0u);
}

TEST(Crossbar, WrongArityIsContractViolation) {
    Crossbar xb(2, 2, true);
    const std::vector<Request> reqs = {rd(0, 0)};
    EXPECT_THROW(xb.arbitrate(reqs, 0), contract_violation);
}

TEST(Crossbar, BankOutOfRangeIsContractViolation) {
    Crossbar xb(1, 2, true);
    const std::vector<Request> reqs = {rd(5, 0)};
    EXPECT_THROW(xb.arbitrate(reqs, 0), contract_violation);
}

TEST(MotLevels, PowersOfTwo) {
    EXPECT_EQ(mot_levels(1), 0u);
    EXPECT_EQ(mot_levels(2), 1u);
    EXPECT_EQ(mot_levels(8), 3u);
    EXPECT_EQ(mot_levels(16), 4u);
    EXPECT_EQ(mot_levels(9), 4u);
}

} // namespace
} // namespace ulpmc::xbar
