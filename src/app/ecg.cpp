#include "app/ecg.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace ulpmc::app {

namespace {

/// One Gaussian wave component of the beat morphology.
struct WaveComponent {
    double center_s;   ///< offset from beat onset [s]
    double width_s;    ///< Gaussian sigma [s]
    double amplitude;  ///< relative to the R peak
};

/// Canonical single-beat P-QRS-T morphology (relative amplitudes).
constexpr WaveComponent kBeat[] = {
    {0.10, 0.025, 0.15},  // P
    {0.23, 0.010, -0.12}, // Q
    {0.25, 0.011, 1.00},  // R
    {0.27, 0.010, -0.25}, // S
    {0.42, 0.045, 0.30},  // T
};

} // namespace

std::vector<std::int16_t> EcgGenerator::lead(unsigned lead, std::size_t n) const {
    ULPMC_EXPECTS(lead < kEcgLeads);

    // Per-lead deterministic variation: projection gain/polarity and a
    // small conduction delay, as seen across real electrode placements.
    Rng rng(seed_ * 0x9E37u + lead * 0xC2B2u + 1);
    const double gain = 0.6 + 0.4 * rng.uniform();
    const double polarity = (lead == 3 || lead == 6) ? -1.0 : 1.0; // aVR-like leads
    const double delay_s = 0.002 * lead;
    const double wander_phase = rng.uniform() * 2.0 * 3.14159265358979;
    const double beat_period_s = 60.0 / kEcgHeartRateBpm;
    const double r_amp = kEcgFullScale * 0.85;

    std::vector<std::int16_t> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double t = static_cast<double>(i) / kEcgSampleRateHz + delay_s;
        const double phase = std::fmod(t, beat_period_s);

        double v = 0.0;
        for (const auto& w : kBeat) {
            const double d = phase - w.center_s;
            v += w.amplitude * std::exp(-(d * d) / (2.0 * w.width_s * w.width_s));
        }
        v *= r_amp * gain * polarity;

        // Respiration baseline wander (~0.3 Hz) and sensor noise.
        v += kEcgBaselineAmplitude * std::sin(2.0 * 3.14159265358979 * 0.3 * t + wander_phase);
        v += kEcgNoiseRms * rng.gaussian();

        const double clamped =
            std::clamp(v, -static_cast<double>(kEcgFullScale), static_cast<double>(kEcgFullScale));
        out[i] = static_cast<std::int16_t>(std::lround(clamped));
    }
    return out;
}

} // namespace ulpmc::app
