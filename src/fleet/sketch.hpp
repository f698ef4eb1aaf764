// Deterministic quantile sketch (DESIGN.md §13).
//
// Fleet aggregation needs per-metric percentiles over thousands of
// devices WITHOUT holding per-device values (memory O(sketch), not
// O(devices)), and the artifact must not depend on insertion order.
// Streaming estimators like P² or t-digest fail the second requirement.
// This sketch is a log-binned histogram instead: bin counts are
// integers, so every insertion order produces the same state.
//
// Binning is pure integer/frexp arithmetic (no libm log, whose last-ulp
// behavior varies across libms): a positive value x = m * 2^e with
// m in [0.5, 1) lands in bin 32*e + floor((m - 0.5) * 64), i.e. 32
// geometric sub-bins per octave, bounding the relative quantile error at
// one sub-bin width (~2.2%). Non-positive values (a device that delivered
// nothing, zero SDC blocks) get an exact dedicated zero bucket.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace ulpmc::fleet {

/// Sub-bins per octave: error/size trade-off. 32 keeps a whole-fleet
/// energy sketch under ~1 kB while pinning quantiles to ~2.2%.
inline constexpr int kSketchBinsPerOctave = 32;

class QuantileSketch {
public:
    /// Bin index of a positive value (log-binned, see header comment).
    static std::int32_t bin_of(double x);
    /// Lower edge of bin `b`; the upper edge is bin_lo(b + 1).
    static double bin_lo(std::int32_t b);

    /// Records `count` observations of `x`. x <= 0 goes to the exact
    /// zero bucket (the metrics sketched are all non-negative).
    void add(double x, std::uint64_t count = 1);

    /// Quantile estimate for q in [0, 1]: nearest-rank walk over the zero
    /// bucket and the ascending bins, returning the matched bin's
    /// midpoint. Deterministic; returns 0 when empty.
    double quantile(double q) const;

    std::uint64_t count() const { return total_; }
    std::uint64_t zero_count() const { return zero_; }
    double min() const { return total_ ? min_ : 0.0; }
    double max() const { return total_ ? max_ : 0.0; }
    /// Sparse (bin, count) pairs in ascending bin order (JSON payload).
    const std::vector<std::pair<std::int32_t, std::uint64_t>>& bins() const { return bins_; }

private:
    std::vector<std::pair<std::int32_t, std::uint64_t>> bins_; ///< ascending, unique
    std::uint64_t zero_ = 0;
    std::uint64_t total_ = 0;
    double min_ = 0.0, max_ = 0.0; ///< exact observed extrema (valid when total_ > 0)
};

} // namespace ulpmc::fleet
