#include "app/ecg.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/assert.hpp"

namespace ulpmc::app {
namespace {

TEST(Ecg, DeterministicPerSeedAndLead) {
    const EcgGenerator g1;
    const EcgGenerator g2;
    EXPECT_EQ(g1.lead(0, 512), g2.lead(0, 512));
    EXPECT_EQ(g1.lead(7, 100), g2.lead(7, 100));
}

TEST(Ecg, LeadsDiffer) {
    const EcgGenerator g;
    EXPECT_NE(g.lead(0, 512), g.lead(1, 512));
}

TEST(Ecg, SeedsDiffer) {
    EXPECT_NE(EcgGenerator(1).lead(0, 256), EcgGenerator(2).lead(0, 256));
}

TEST(Ecg, SamplesBounded) {
    const EcgGenerator g;
    for (unsigned lead = 0; lead < kEcgLeads; ++lead) {
        for (const auto s : g.lead(lead, 2048)) {
            EXPECT_LE(s, kEcgFullScale);
            EXPECT_GE(s, -kEcgFullScale);
        }
    }
}

TEST(Ecg, BlockHasPaperSize) { EXPECT_EQ(EcgGenerator().block(3).size(), 512u); }

TEST(Ecg, ContainsQrsPeaks) {
    // At 72 bpm and 250 Hz, a 512-sample block (~2 s) spans >= 2 beats;
    // the R peaks must stand far above the baseline.
    const EcgGenerator g;
    const auto x = g.block(0);
    const auto maxv = *std::max_element(x.begin(), x.end());
    EXPECT_GT(maxv, kEcgFullScale / 2);
    // Count prominent peaks: samples above 60% of max with local maximality.
    int peaks = 0;
    for (std::size_t i = 1; i + 1 < x.size(); ++i)
        if (x[i] > 0.6 * maxv && x[i] >= x[i - 1] && x[i] >= x[i + 1]) ++peaks;
    EXPECT_GE(peaks, 2);
    EXPECT_LE(peaks, 8);
}

TEST(Ecg, BeatPeriodicityRoughlyMatchesHeartRate) {
    const EcgGenerator g;
    const auto x = g.lead(2, 2500); // 10 s
    const auto maxv = *std::max_element(x.begin(), x.end());
    std::vector<std::size_t> peak_at;
    for (std::size_t i = 1; i + 1 < x.size(); ++i) {
        if (x[i] > 0.7 * maxv && x[i] >= x[i - 1] && x[i] >= x[i + 1]) {
            if (peak_at.empty() || i - peak_at.back() > 50) peak_at.push_back(i);
        }
    }
    ASSERT_GE(peak_at.size(), 8u); // ~12 beats in 10 s at 72 bpm
    const double mean_rr = static_cast<double>(peak_at.back() - peak_at.front()) /
                           static_cast<double>(peak_at.size() - 1);
    EXPECT_NEAR(mean_rr / kEcgSampleRateHz, 60.0 / 72.0, 0.05);
}

TEST(Ecg, InvertedLeadHasNegativePolarity) {
    // Leads 3 and 6 model aVR-like electrode projections.
    const EcgGenerator g;
    const auto x = g.block(3);
    const auto minv = *std::min_element(x.begin(), x.end());
    const auto maxv = *std::max_element(x.begin(), x.end());
    EXPECT_GT(-minv, maxv); // dominant deflection points down
}

TEST(Ecg, NonZeroMeanAbsAmplitude) {
    const EcgGenerator g;
    const auto x = g.block(1);
    const double mean_abs =
        std::accumulate(x.begin(), x.end(), 0.0,
                        [](double acc, std::int16_t v) { return acc + std::abs(v); }) /
        static_cast<double>(x.size());
    EXPECT_GT(mean_abs, 5.0);
}

TEST(Ecg, LeadOutOfRangeIsRejected) {
    EXPECT_THROW(EcgGenerator().lead(kEcgLeads, 1), contract_violation);
}

} // namespace
} // namespace ulpmc::app
