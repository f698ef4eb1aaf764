#include "app/reconstruct.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "app/ecg.hpp"
#include "common/assert.hpp"
#include "common/rng.hpp"

namespace ulpmc::app {
namespace {

TEST(Haar, ForwardInverseRoundTripProperty) {
    Rng rng(8);
    for (const std::size_t n : {2u, 8u, 64u, 512u}) {
        std::vector<double> x(n);
        for (auto& v : x) v = rng.gaussian() * 100.0;
        std::vector<double> orig = x;
        haar_forward(x);
        haar_inverse(x);
        for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], orig[i], 1e-9);
    }
}

TEST(Haar, PreservesEnergy) {
    // Orthonormal transform: Parseval.
    Rng rng(9);
    std::vector<double> x(256);
    for (auto& v : x) v = rng.gaussian();
    double e_time = 0;
    for (const double v : x) e_time += v * v;
    haar_forward(x);
    double e_coef = 0;
    for (const double v : x) e_coef += v * v;
    EXPECT_NEAR(e_time, e_coef, 1e-9);
}

TEST(Haar, ConstantSignalIsOneCoefficient) {
    std::vector<double> x(64, 3.0);
    haar_forward(x);
    EXPECT_NEAR(x[0], 3.0 * 8.0, 1e-9); // 3 * sqrt(64)
    for (std::size_t i = 1; i < x.size(); ++i) EXPECT_NEAR(x[i], 0.0, 1e-9);
}

TEST(Haar, RejectsNonPowerOfTwo) {
    std::vector<double> x(6, 0.0);
    EXPECT_THROW(haar_forward(x), contract_violation);
    EXPECT_THROW(haar_inverse(x), contract_violation);
}

TEST(Dequantize, InvertsTheKernelQuantizer) {
    // Within the 9-bit symbol's unambiguous range (|y| < 2^14 — the
    // benchmark's measurements are bounded by 24 x 500 << 2^14),
    // |dequantize(quantize(y)) - y| <= 32.
    for (const int y : {0, 63, 64, 1000, -1000, 12345, -16384, 16383}) {
        const Word sym = cs_quantize_symbol(static_cast<Word>(y));
        const auto back = dequantize_symbols(std::vector<Word>{sym});
        EXPECT_NEAR(back[0], static_cast<double>(y), 32.001) << y;
    }
}

TEST(Omp, RecoversExactlySparseSignals) {
    // Synthesize x with 8 nonzero Haar coefficients; OMP must nail it.
    Rng rng(21);
    const CsMatrix matrix(77);
    std::vector<double> s(512, 0.0);
    for (int k = 0; k < 8; ++k) s[rng.below(512)] = rng.range(-400, 400);
    std::vector<double> x = s;
    haar_inverse(x);

    // Exact (unquantized) measurements.
    std::vector<double> y(matrix.rows(), 0.0);
    for (std::size_t r = 0; r < matrix.rows(); ++r) {
        double acc = 0;
        for (std::size_t t = 0; t < matrix.taps(); ++t) {
            const Word e = matrix.entry(r, t);
            const double v = x[e & kCsIndexMask];
            acc += (e & kCsSignBit) ? -v : v;
        }
        y[r] = acc;
    }

    const auto recon = cs_reconstruct(matrix, y);
    double worst = 0;
    for (std::size_t i = 0; i < x.size(); ++i) worst = std::max(worst, std::fabs(recon[i] - x[i]));
    EXPECT_LT(worst, 1e-6);
}

TEST(Omp, ReconstructsEcgWithReasonableFidelity) {
    const EcgGenerator gen;
    const CsMatrix matrix(1);
    const auto x = gen.block(0);

    // The node's exact measurements (no wrap occurs: |sum| < 2^15).
    const auto yw = cs_compress(matrix, x);
    std::vector<double> y(yw.size());
    for (std::size_t i = 0; i < yw.size(); ++i) y[i] = static_cast<double>(static_cast<SWord>(yw[i]));

    const auto recon = cs_reconstruct(matrix, y);
    const double prd = prd_percent(x, recon);
    EXPECT_LT(prd, 40.0); // usable morphology at 50% compression
    // And vastly better than the trivial all-zero "reconstruction".
    std::vector<double> zeros(x.size(), 0.0);
    EXPECT_LT(prd, 0.5 * prd_percent(x, zeros));
}

TEST(Omp, QuantizationCostsFidelityButNotMuch) {
    const EcgGenerator gen;
    const CsMatrix matrix(1);
    const auto x = gen.block(2);
    const auto yw = cs_compress(matrix, x);

    std::vector<double> y_exact(yw.size());
    for (std::size_t i = 0; i < yw.size(); ++i)
        y_exact[i] = static_cast<double>(static_cast<SWord>(yw[i]));
    const auto y_q = dequantize_symbols(cs_quantize(yw));

    const double prd_exact = prd_percent(x, cs_reconstruct(matrix, y_exact));
    const double prd_q = prd_percent(x, cs_reconstruct(matrix, y_q));
    EXPECT_GE(prd_q, prd_exact - 1.0); // quantization cannot help
    EXPECT_LT(prd_q, prd_exact + 20.0); // ...and costs only moderately
}

TEST(Omp, MoreMeasurementsImproveFidelity) {
    const EcgGenerator gen;
    const auto x = gen.block(1);
    double prd_small = 0;
    double prd_large = 0;
    for (const std::size_t m : {96u, 256u}) {
        const CsMatrix matrix(5, m, 512, 24);
        std::vector<std::int16_t> xs(x.begin(), x.end());
        const auto yw = cs_compress(matrix, xs);
        std::vector<double> y(yw.size());
        for (std::size_t i = 0; i < yw.size(); ++i)
            y[i] = static_cast<double>(static_cast<SWord>(yw[i]));
        const double prd = prd_percent(x, cs_reconstruct(matrix, y));
        (m == 96 ? prd_small : prd_large) = prd;
    }
    EXPECT_LT(prd_large, prd_small);
}

TEST(Omp, ConfigValidation) {
    const CsMatrix matrix(1);
    std::vector<double> wrong(10, 0.0);
    EXPECT_THROW(cs_reconstruct(matrix, wrong), contract_violation);
}

TEST(Prd, Basics) {
    const std::vector<std::int16_t> x = {100, -100, 50};
    const std::vector<double> same = {100.0, -100.0, 50.0};
    EXPECT_NEAR(prd_percent(x, same), 0.0, 1e-9);
    const std::vector<double> zeros = {0.0, 0.0, 0.0};
    EXPECT_NEAR(prd_percent(x, zeros), 100.0, 1e-9);
}

} // namespace
} // namespace ulpmc::app
