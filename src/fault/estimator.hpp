// Online upset-rate estimation (DESIGN.md §9).
//
// The checkpoint interval that minimizes expected energy depends on the
// upset rate lambda — but a wearable's lambda is anything but constant
// (altitude, shielding, solar activity). The hardware cannot observe
// upsets directly; what it CAN count are the correction/trap events its
// protection layers emit: ECC corrections, parity traps, TMR votes,
// scrub repairs, watchdog trips, arbiter self-check fixes
// (ClusterStats::upset_events()).
//
// The estimator smooths INTER-ARRIVAL GAPS, not per-window rates. Its
// observation windows are one checkpoint interval long, so at any
// plausible rate most windows hold zero events; an EWMA over raw
// per-window rates collapses geometrically between events and spikes at
// each one, thrashing the controller. Gap smoothing has no such failure
// mode: a window with k > 0 events contributes its mean gap (the silent
// lead-in plus the window, over k) exactly once, and an ongoing silent
// stretch only BOUNDS the reported rate at read time (the true mean gap
// is at least the current silence), never entering the EWMA — feeding
// partial silences would count the same gap twice when the event finally
// lands. Rate drops therefore decay lambda_hat as ~1/t instead of
// stepping it to zero. Deterministic and allocation-free so it can sit
// inside the checkpoint service's hot loop.
//
// Header-only on purpose: cluster::CheckpointRunner consumes it, and
// ulpmc_fault links against ulpmc_cluster (not the reverse), so this
// header must not drag in any fault-library object code.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/types.hpp"

namespace ulpmc::fault {

/// Per-observation EWMA weight of the upset-rate estimate: higher tracks
/// rate changes faster, lower rejects noise harder.
inline constexpr double kUpsetRateWeight = 0.3;

/// EWMA over observed inter-event gaps. Feed it one observation per
/// window with observe(); read the smoothed rate from lambda_hat(). The
/// first event-bearing window primes the estimate directly.
class UpsetRateEstimator {
public:

    /// One observation window: `events` correction/trap events counted
    /// over `elapsed` cycles. Empty zero-length windows are ignored (a
    /// rollback can make two observations coincide).
    void observe(std::uint64_t events, Cycle elapsed) {
        if (events == 0) {
            silence_ += elapsed;
            return;
        }
        update(static_cast<double>(silence_ + elapsed) / static_cast<double>(events));
        silence_ = 0;
    }

    /// Smoothed upset rate in events per cycle (0 until the first event),
    /// bounded above by the reciprocal of the current silent stretch: a
    /// long silence is evidence the rate dropped even before the EWMA
    /// hears about it.
    double lambda_hat() const {
        if (!primed_) return 0.0;
        return 1.0 / std::max(gap_hat_, static_cast<double>(silence_));
    }
    /// Smoothed inter-event gap in cycles (0 until the first event).
    double gap_hat() const { return primed_ ? gap_hat_ : 0.0; }
    bool primed() const { return primed_; }
    /// Cycles accumulated since the last event-bearing window.
    Cycle silence() const { return silence_; }
    /// EWMA updates absorbed so far (= observation windows with events).
    std::uint64_t updates() const { return updates_; }

    /// Durable-execution state round-trip (DESIGN.md §9.6): reinstates a
    /// previously observed trajectory bit-exactly.
    void restore(double gap_hat, Cycle silence, bool primed, std::uint64_t updates) {
        gap_hat_ = gap_hat;
        silence_ = silence;
        primed_ = primed;
        updates_ = updates;
    }

    void reset() {
        gap_hat_ = 0.0;
        silence_ = 0;
        primed_ = false;
        updates_ = 0;
    }

private:
    void update(double gap) {
        if (gap <= 0.0) return;
        gap_hat_ = primed_ ? kUpsetRateWeight * gap + (1.0 - kUpsetRateWeight) * gap_hat_ : gap;
        primed_ = true;
        ++updates_;
    }

    double gap_hat_ = 0.0;
    Cycle silence_ = 0;
    bool primed_ = false;
    std::uint64_t updates_ = 0;
};

} // namespace ulpmc::fault
