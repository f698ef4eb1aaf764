// Strict number parsing for command-line values and text formats: the
// whole string must be the number. Unlike std::stoull/std::stod there is
// no leading whitespace, no sign, no trailing text, no silent wraparound
// of "-1" to 2^64-1, and no inf/nan.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string_view>

namespace ulpmc {

/// Parses an unsigned decimal integer. Leaves `out` alone on failure.
inline bool parse_u64(std::string_view s, std::uint64_t& out) {
    std::uint64_t v = 0;
    const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec != std::errc{} || p != s.data() + s.size()) return false;
    out = v;
    return true;
}

/// Parses an unsigned decimal count in [lo, hi] (hi fits an unsigned).
/// Leaves `out` alone on failure.
inline bool parse_count(std::string_view s, std::uint64_t lo, std::uint64_t hi, unsigned& out) {
    std::uint64_t v = 0;
    if (!parse_u64(s, v) || v < lo || v > hi) return false;
    out = static_cast<unsigned>(v);
    return true;
}

/// Parses a finite decimal floating-point number. Leaves `out` alone on
/// failure.
inline bool parse_double(std::string_view s, double& out) {
    double v = 0;
    const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec != std::errc{} || p != s.data() + s.size() || !std::isfinite(v)) return false;
    out = v;
    return true;
}

} // namespace ulpmc
