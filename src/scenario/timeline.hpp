// Scripted lifetime timelines (DESIGN.md §12): the environment a wearable
// device lives through, as a sequence of named phases. Each phase fixes
// the upset rate (radiation environment), the BLE link condition (up/down
// and per-packet loss), the harvest input and the clinical context
// (arrhythmia episodes force full-fidelity monitoring). The lifetime
// engine (scenario/engine.hpp) walks this script block period by block
// period; everything downstream of the parse is deterministic, so one
// timeline file plus one seed fully determines a device lifetime.
//
// File format (one directive per line, '#' comments, blank lines ignored):
//
//   block_period_s 2.0           # seconds of wall time per ECG block
//   battery_j 4.0                # battery capacity in joules
//   phase NAME DURATION_S [key=value ...]
//
// Phase keys: lambda (upsets per simulated cycle, default 0), ble
// (up|down, default up), ble_loss (per-packet loss probability, default
// 0), harvest_uw (harvester input in microwatts, default 0), arrhythmia
// (0|1, default 0). Unknown directives/keys, malformed numbers and
// out-of-range values are rejected with the offending line number —
// a corrupt timeline must never silently configure a device.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

namespace ulpmc::scenario {

/// Parse failure: what was wrong, and on which line.
class TimelineError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// One scripted environment phase.
struct Phase {
    std::string name;
    double duration_s = 0;
    double lambda = 0;      ///< expected upsets per simulated cluster cycle
    bool ble_up = true;     ///< false: BLE drought (peer out of range)
    double ble_loss = 0;    ///< per-packet loss probability while up
    double harvest_uw = 0;  ///< energy-harvester input [uW]
    bool arrhythmia = false; ///< clinical episode: full fidelity required
};

/// A parsed timeline: header knobs plus the phase script.
struct Timeline {
    double block_period_s = 2.0;
    double battery_j = 4.0;
    std::vector<Phase> phases;

    /// Sum of the phase durations (one pass of the script).
    double total_s() const;

    /// Phase index active at time `t_s`, cycling the script for lifetimes
    /// longer than one pass (--days runs the schedule on repeat).
    std::size_t phase_index_at(double t_s) const;
};

/// Parses a timeline from a stream. Throws TimelineError on any defect.
Timeline parse_timeline(std::istream& in);

/// Loads and parses `path`. Throws TimelineError (including for an
/// unreadable or empty file) whose message starts with `path`. When `bytes_crc` is given it receives the
/// CRC32 of exactly the bytes parsed, which is what a run journal binds
/// to (DESIGN.md §9.6): re-reading the file could see different bytes.
Timeline load_timeline(const std::string& path, std::uint32_t* bytes_crc = nullptr);

} // namespace ulpmc::scenario
