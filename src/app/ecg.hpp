// Deterministic synthetic multi-lead ECG generator.
//
// Substitution for the paper's clinical recordings (DESIGN.md §2): the
// benchmark's code path only needs signals with ECG-like morphology and a
// realistic amplitude distribution — the CS kernel is data-independent and
// the Huffman kernel needs a plausible symbol histogram. The generator
// synthesizes a P-QRS-T beat train (sum-of-Gaussians, McSharry-style) at
// 250 Hz with per-lead amplitude/polarity variation, baseline wander and
// additive noise, all driven by the seeded deterministic RNG.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace ulpmc::app {

/// Sampling rate used throughout the paper's benchmark.
inline constexpr double kEcgSampleRateHz = 250.0;

/// Samples per compression block per lead (paper §II).
inline constexpr std::size_t kEcgBlockSamples = 512;

/// Number of leads == number of cores (one lead per core).
inline constexpr unsigned kEcgLeads = 8;

/// The synthetic signal's shape.
inline constexpr double kEcgHeartRateBpm = 72.0;
inline constexpr double kEcgNoiseRms = 4.0;           ///< additive Gaussian noise (LSBs)
inline constexpr double kEcgBaselineAmplitude = 20.0; ///< respiration wander (LSBs)
inline constexpr int kEcgFullScale = 500;             ///< ~10-bit signed signal range

/// Synthesizes ECG leads. Output samples are signed and bounded by
/// +-kEcgFullScale (saturating), sized for direct use as TamaRISC data
/// words.
class EcgGenerator {
public:
    explicit EcgGenerator(std::uint64_t seed = 1) : seed_(seed) {}

    /// `n` samples of lead `lead` (0-based), starting at time 0. The same
    /// (seed, lead) pair always produces the same signal.
    std::vector<std::int16_t> lead(unsigned lead, std::size_t n) const;

    /// One full compression block for a lead.
    std::vector<std::int16_t> block(unsigned lead) const { return this->lead(lead, kEcgBlockSamples); }

private:
    std::uint64_t seed_;
};

} // namespace ulpmc::app
