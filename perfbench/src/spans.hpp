// In-memory span recorder for the traced benchmark run.
//
// A span is one timed call into a layer's public function: its name
// ("cluster.run"), layer ("cluster"), recording thread, start, duration
// and the span that was open on the same thread when it started (its
// parent). Spans are recorded only while tracing is enabled, kept in
// memory, and written out once as Chrome trace-event JSON when the run
// ends (open the file in Perfetto or chrome://tracing).
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span {
    const char* name = "";
    const char* layer = "";
    std::uint32_t tid = 0;       ///< small per-thread index, 0 = first thread seen
    std::uint64_t id = 0;        ///< 1-based, unique within the run
    std::uint64_t parent = 0;    ///< enclosing span on the same thread, 0 = none
    std::int64_t start_ns = 0;   ///< since the recorder's epoch
    std::int64_t dur_ns = 0;
};

/// Process-wide recorder. Thread-safe; a disabled recorder costs one
/// relaxed load per ScopedSpan.
class Spans {
public:
    static void enable(bool on);
    static bool enabled();

    /// Every span recorded so far, in completion order.
    static std::vector<Span> all();

    /// Sum of durations of the spans named `name`, in seconds.
    static double total(const std::string& name);

    /// Per-layer self time in seconds: each span's duration minus the
    /// part its direct children on the same thread cover.
    static std::map<std::string, double> self_time_by_layer();

    /// Writes {"traceEvents": [...], "otherData": {...}} with one complete
    /// ("X") event per span; `other_data_json` is a JSON object literal.
    static void write_chrome_trace(std::ostream& os, const std::string& other_data_json);

    /// Records a span whose endpoints were taken apart (a device's span
    /// runs from one callback to another); `start_ns` is from now_ns().
    static void record(const char* name, const char* layer, std::int64_t start_ns);

    // Implementation hooks for ScopedSpan.
    static std::uint64_t open(std::uint64_t& parent_out, std::uint32_t& tid_out);
    static void close(const Span& s);
    static std::int64_t now_ns();
};

/// RAII span: records [construction, destruction) when tracing is on.
class ScopedSpan {
public:
    ScopedSpan(const char* name, const char* layer);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    Span s_;
    bool on_ = false;
};

/// Nearest-rank percentile (q in [0, 1]) of `v`; 0 for an empty vector.
double percentile(std::vector<double> v, double q);

double median(std::vector<double> v);

} // namespace perfbench
