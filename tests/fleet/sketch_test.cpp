#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "fleet/sketch.hpp"

namespace ulpmc::fleet {
namespace {

TEST(Sketch, BinningRoundTrips) {
    // Every positive value lands in the bin whose [lo, hi) edges bracket
    // it, across many octaves (nanojoules to kilojoules).
    for (double x : {1e-9, 3.7e-6, 0.01, 0.5, 0.9999, 1.0, 1.5, 2.0, 42.0, 1e3, 7.3e8}) {
        const std::int32_t b = QuantileSketch::bin_of(x);
        EXPECT_LE(QuantileSketch::bin_lo(b), x) << x;
        EXPECT_LT(x, QuantileSketch::bin_lo(b + 1)) << x;
    }
}

TEST(Sketch, BinWidthBoundsRelativeError) {
    // 32 sub-bins per octave: hi/lo <= 1 + 1/32 for positive bins, so a
    // bin midpoint is within ~1.6% of any member value.
    for (std::int32_t b : {-200, -33, -1, 0, 1, 31, 32, 200}) {
        const double lo = QuantileSketch::bin_lo(b);
        const double hi = QuantileSketch::bin_lo(b + 1);
        EXPECT_GT(hi, lo);
        EXPECT_LE(hi / lo, 1.0 + 1.0 / 16.0) << "bin " << b;
    }
}

TEST(Sketch, QuantilesTrackExactWithinBinError) {
    QuantileSketch sk;
    std::vector<double> vals;
    Rng r(99);
    for (int i = 0; i < 10'000; ++i) {
        const double x = 0.001 + 10.0 * r.uniform();
        vals.push_back(x);
        sk.add(x);
    }
    std::sort(vals.begin(), vals.end());
    for (double q : {0.1, 0.5, 0.9, 0.99}) {
        const double exact = vals[static_cast<std::size_t>(q * (vals.size() - 1))];
        const double est = sk.quantile(q);
        EXPECT_NEAR(est, exact, exact * 0.04) << "q=" << q;
    }
    EXPECT_EQ(sk.count(), 10'000u);
    EXPECT_DOUBLE_EQ(sk.min(), vals.front());
    EXPECT_DOUBLE_EQ(sk.max(), vals.back());
}

TEST(Sketch, ZeroBucketIsExact) {
    QuantileSketch sk;
    for (int i = 0; i < 90; ++i) sk.add(0.0);
    for (int i = 0; i < 10; ++i) sk.add(5.0);
    EXPECT_EQ(sk.zero_count(), 90u);
    EXPECT_EQ(sk.quantile(0.5), 0.0);
    EXPECT_GT(sk.quantile(0.95), 4.0);
}

TEST(Sketch, EmptyAndSingleton) {
    QuantileSketch sk;
    EXPECT_EQ(sk.count(), 0u);
    EXPECT_EQ(sk.quantile(0.5), 0.0);
    sk.add(3.25);
    EXPECT_EQ(sk.count(), 1u);
    // A single observation: every quantile reports its bin midpoint
    // (quantiles are a pure function of the integer bins, never the float
    // extrema).
    const std::int32_t b = QuantileSketch::bin_of(3.25);
    const double mid = (QuantileSketch::bin_lo(b) + QuantileSketch::bin_lo(b + 1)) * 0.5;
    EXPECT_DOUBLE_EQ(sk.quantile(0.0), mid);
    EXPECT_DOUBLE_EQ(sk.quantile(1.0), mid);
    EXPECT_NEAR(mid, 3.25, 3.25 / 32.0);
}

} // namespace
} // namespace ulpmc::fleet
