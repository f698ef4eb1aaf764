#include "fleet/sketch.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace ulpmc::fleet {

std::int32_t QuantileSketch::bin_of(double x) {
    ULPMC_EXPECTS(x > 0 && std::isfinite(x));
    int e = 0;
    const double m = std::frexp(x, &e); // x = m * 2^e, m in [0.5, 1)
    int sub = static_cast<int>((m - 0.5) * (2.0 * kSketchBinsPerOctave));
    if (sub >= kSketchBinsPerOctave) sub = kSketchBinsPerOctave - 1;
    return static_cast<std::int32_t>(e) * kSketchBinsPerOctave + sub;
}

double QuantileSketch::bin_lo(std::int32_t b) {
    // Floor division: e may be negative for values below 1.0.
    std::int32_t e = b / kSketchBinsPerOctave;
    std::int32_t sub = b % kSketchBinsPerOctave;
    if (sub < 0) {
        sub += kSketchBinsPerOctave;
        --e;
    }
    const double m = 0.5 + static_cast<double>(sub) * (0.5 / kSketchBinsPerOctave);
    return std::ldexp(m, e);
}

void QuantileSketch::add(double x, std::uint64_t count) {
    if (count == 0) return;
    if (total_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    total_ += count;
    if (!(x > 0)) {
        zero_ += count;
        return;
    }
    const std::int32_t b = bin_of(x);
    auto it = std::lower_bound(bins_.begin(), bins_.end(), b,
                               [](const auto& p, std::int32_t v) { return p.first < v; });
    if (it != bins_.end() && it->first == b)
        it->second += count;
    else
        bins_.insert(it, {b, count});
}

double QuantileSketch::quantile(double q) const {
    if (total_ == 0) return 0.0;
    ULPMC_EXPECTS(q >= 0.0 && q <= 1.0);
    // Nearest-rank (0-based): the value whose cumulative count first
    // exceeds rank, reported as its bin's midpoint. Deliberately a pure
    // function of the integer state (bins, zero, total), never of the
    // float extrema, so the artifact's quantiles follow from its own
    // integer bin payload.
    const auto rank =
        static_cast<std::uint64_t>(q * static_cast<double>(total_ - 1));
    std::uint64_t cum = zero_;
    if (rank < cum) return 0.0;
    for (const auto& [b, c] : bins_) {
        cum += c;
        if (rank < cum) return (bin_lo(b) + bin_lo(b + 1)) * 0.5;
    }
    return 0.0; // unreachable when counts are consistent
}

} // namespace ulpmc::fleet
