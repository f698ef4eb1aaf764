#include "app/reconstruct.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace ulpmc::app {

namespace {

constexpr double kInvSqrt2 = 0.70710678118654752440;

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

/// Solves the SPD system G z = b in place via Cholesky (G = L L^T).
/// G is n x n row-major and is overwritten with L. Returns false if G is
/// not (numerically) positive definite.
bool cholesky_solve(std::vector<double>& g, std::vector<double>& b, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            double sum = g[i * n + j];
            for (std::size_t k = 0; k < j; ++k) sum -= g[i * n + k] * g[j * n + k];
            if (i == j) {
                if (sum <= 1e-12) return false;
                g[i * n + i] = std::sqrt(sum);
            } else {
                g[i * n + j] = sum / g[j * n + j];
            }
        }
    }
    // Forward substitution L u = b.
    for (std::size_t i = 0; i < n; ++i) {
        double sum = b[i];
        for (std::size_t k = 0; k < i; ++k) sum -= g[i * n + k] * b[k];
        b[i] = sum / g[i * n + i];
    }
    // Back substitution L^T z = u.
    for (std::size_t ii = n; ii-- > 0;) {
        double sum = b[ii];
        for (std::size_t k = ii + 1; k < n; ++k) sum -= g[k * n + ii] * b[k];
        b[ii] = sum / g[ii * n + ii];
    }
    return true;
}

} // namespace

void haar_forward(std::span<double> x) {
    ULPMC_EXPECTS(is_pow2(x.size()));
    std::vector<double> tmp(x.size());
    for (std::size_t len = x.size(); len >= 2; len /= 2) {
        const std::size_t half = len / 2;
        for (std::size_t i = 0; i < half; ++i) {
            tmp[i] = (x[2 * i] + x[2 * i + 1]) * kInvSqrt2;        // approximation
            tmp[half + i] = (x[2 * i] - x[2 * i + 1]) * kInvSqrt2; // detail
        }
        std::copy(tmp.begin(), tmp.begin() + static_cast<std::ptrdiff_t>(len), x.begin());
    }
}

void haar_inverse(std::span<double> x) {
    ULPMC_EXPECTS(is_pow2(x.size()));
    std::vector<double> tmp(x.size());
    for (std::size_t len = 2; len <= x.size(); len *= 2) {
        const std::size_t half = len / 2;
        for (std::size_t i = 0; i < half; ++i) {
            tmp[2 * i] = (x[i] + x[half + i]) * kInvSqrt2;
            tmp[2 * i + 1] = (x[i] - x[half + i]) * kInvSqrt2;
        }
        std::copy(tmp.begin(), tmp.begin() + static_cast<std::ptrdiff_t>(len), x.begin());
    }
}

std::vector<double> dequantize_symbols(std::span<const Word> symbols) {
    std::vector<double> y;
    y.reserve(symbols.size());
    for (const Word s : symbols) {
        // Undo `sym = (y >> 6) & 0x1FF`: sign-extend the 9-bit symbol and
        // place the estimate mid-rise in the 64-wide bin.
        const int signed_sym = (s & 0x100) ? static_cast<int>(s) - 512 : static_cast<int>(s);
        y.push_back(static_cast<double>(signed_sym * 64 + 32));
    }
    return y;
}

std::vector<double> cs_reconstruct(const CsMatrix& matrix, std::span<const double> y) {
    const std::size_t m = matrix.rows();
    const std::size_t n = matrix.cols();
    ULPMC_EXPECTS(y.size() == m);
    ULPMC_EXPECTS(is_pow2(n));
    ULPMC_EXPECTS(kOmpMaxSupport <= m);

    // Effective dictionary A = Phi * Psi: column j is Phi applied to the
    // j-th Haar synthesis basis vector. Dense m x n, column-major.
    std::vector<double> A(m * n, 0.0);
    {
        std::vector<double> basis(n, 0.0);
        for (std::size_t j = 0; j < n; ++j) {
            std::fill(basis.begin(), basis.end(), 0.0);
            basis[j] = 1.0;
            haar_inverse(basis);
            // Sparse Phi application.
            for (std::size_t r = 0; r < m; ++r) {
                double acc = 0.0;
                for (std::size_t t = 0; t < matrix.taps(); ++t) {
                    const Word e = matrix.entry(r, t);
                    const double v = basis[e & kCsIndexMask];
                    acc += (e & kCsSignBit) ? -v : v;
                }
                A[j * m + r] = acc;
            }
        }
    }
    std::vector<double> col_norm(n, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
        double s = 0.0;
        for (std::size_t r = 0; r < m; ++r) s += A[j * m + r] * A[j * m + r];
        col_norm[j] = std::sqrt(std::max(s, 1e-12));
    }

    // --- OMP ------------------------------------------------------------
    std::vector<double> residual(y.begin(), y.end());
    double y_norm = 0.0;
    for (const double v : y) y_norm += v * v;
    y_norm = std::sqrt(std::max(y_norm, 1e-12));

    std::vector<std::size_t> support;
    std::vector<char> in_support(n, 0);
    std::vector<double> coeff;

    for (unsigned it = 0; it < kOmpMaxSupport; ++it) {
        // Most correlated unused column.
        std::size_t best = n;
        double best_corr = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
            if (in_support[j]) continue;
            double dot = 0.0;
            for (std::size_t r = 0; r < m; ++r) dot += A[j * m + r] * residual[r];
            const double corr = std::fabs(dot) / col_norm[j];
            if (corr > best_corr) {
                best_corr = corr;
                best = j;
            }
        }
        if (best == n || best_corr < 1e-9) break;
        support.push_back(best);
        in_support[best] = 1;

        // Least squares on the support: (A_S^T A_S) z = A_S^T y.
        const std::size_t k = support.size();
        std::vector<double> gram(k * k, 0.0);
        std::vector<double> rhs(k, 0.0);
        for (std::size_t a = 0; a < k; ++a) {
            const double* ca = &A[support[a] * m];
            for (std::size_t b = 0; b <= a; ++b) {
                const double* cb = &A[support[b] * m];
                double dot = 0.0;
                for (std::size_t r = 0; r < m; ++r) dot += ca[r] * cb[r];
                gram[a * k + b] = dot;
                gram[b * k + a] = dot;
            }
            double dot = 0.0;
            for (std::size_t r = 0; r < m; ++r) dot += ca[r] * y[r];
            rhs[a] = dot;
        }
        coeff = rhs;
        if (!cholesky_solve(gram, coeff, k)) {
            support.pop_back();
            in_support[best] = 0;
            break;
        }

        // Fresh residual.
        residual.assign(y.begin(), y.end());
        for (std::size_t a = 0; a < k; ++a) {
            const double* ca = &A[support[a] * m];
            for (std::size_t r = 0; r < m; ++r) residual[r] -= coeff[a] * ca[r];
        }
        double rn = 0.0;
        for (const double v : residual) rn += v * v;
        if (std::sqrt(rn) / y_norm < kOmpResidualTol) break;
    }

    // Synthesize x = Psi * s.
    std::vector<double> s(n, 0.0);
    for (std::size_t a = 0; a < support.size(); ++a) s[support[a]] = coeff[a];
    haar_inverse(s);
    return s;
}

double prd_percent(std::span<const std::int16_t> original, std::span<const double> recon) {
    ULPMC_EXPECTS(original.size() == recon.size());
    ULPMC_EXPECTS(!original.empty());
    double num = 0.0;
    double den = 0.0;
    for (std::size_t i = 0; i < original.size(); ++i) {
        const double d = static_cast<double>(original[i]) - recon[i];
        num += d * d;
        den += static_cast<double>(original[i]) * original[i];
    }
    return 100.0 * std::sqrt(num / std::max(den, 1e-12));
}

} // namespace ulpmc::app
