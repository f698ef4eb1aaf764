#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iomanip>
#include <mutex>
#include <ostream>
#include <unordered_map>

namespace perfbench {

namespace {

const Clock::time_point g_epoch = Clock::now();
std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_tid{0};

std::mutex g_m;
std::vector<Span> g_spans; // guarded by g_m

struct ThreadState {
    std::uint32_t tid = g_next_tid.fetch_add(1);
    std::vector<std::uint64_t> open; ///< ids of this thread's open spans
};

ThreadState& thread_state() {
    thread_local ThreadState ts;
    return ts;
}

} // namespace

void Spans::enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool Spans::enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::int64_t Spans::now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - g_epoch).count();
}

std::uint64_t Spans::open(std::uint64_t& parent_out, std::uint32_t& tid_out) {
    ThreadState& ts = thread_state();
    const std::uint64_t id = g_next_id.fetch_add(1);
    parent_out = ts.open.empty() ? 0 : ts.open.back();
    tid_out = ts.tid;
    ts.open.push_back(id);
    return id;
}

void Spans::close(const Span& s) {
    ThreadState& ts = thread_state();
    if (!ts.open.empty()) ts.open.pop_back();
    std::lock_guard lk(g_m);
    g_spans.push_back(s);
}

void Spans::record(const char* name, const char* layer, std::int64_t start_ns) {
    if (!enabled()) return;
    ThreadState& ts = thread_state();
    Span s;
    s.name = name;
    s.layer = layer;
    s.tid = ts.tid;
    s.id = g_next_id.fetch_add(1);
    s.parent = ts.open.empty() ? 0 : ts.open.back();
    s.start_ns = start_ns;
    s.dur_ns = now_ns() - start_ns;
    std::lock_guard lk(g_m);
    g_spans.push_back(s);
}

std::vector<Span> Spans::all() {
    std::lock_guard lk(g_m);
    return g_spans;
}

double Spans::total(const std::string& name) {
    std::int64_t ns = 0;
    std::lock_guard lk(g_m);
    for (const Span& s : g_spans)
        if (name == s.name) ns += s.dur_ns;
    return static_cast<double>(ns) * 1e-9;
}

std::map<std::string, double> Spans::self_time_by_layer() {
    const std::vector<Span> spans = all();
    std::unordered_map<std::uint64_t, std::int64_t> child_ns;
    for (const Span& s : spans)
        if (s.parent != 0) child_ns[s.parent] += s.dur_ns;
    std::map<std::string, double> out;
    for (const Span& s : spans) {
        const auto it = child_ns.find(s.id);
        const std::int64_t self = s.dur_ns - (it == child_ns.end() ? 0 : it->second);
        out[s.layer] += static_cast<double>(std::max<std::int64_t>(self, 0)) * 1e-9;
    }
    return out;
}

void Spans::write_chrome_trace(std::ostream& os, const std::string& other_data_json) {
    const std::vector<Span> spans = all();
    os << "{\"displayTimeUnit\": \"ms\", \"otherData\": " << other_data_json
       << ",\n\"traceEvents\": [";
    bool first = true;
    for (const Span& s : spans) {
        os << (first ? "\n" : ",\n") << std::fixed << std::setprecision(3)
           << "{\"name\": \"" << s.name << "\", \"cat\": \"" << s.layer
           << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
           << ", \"ts\": " << static_cast<double>(s.start_ns) * 1e-3
           << ", \"dur\": " << static_cast<double>(s.dur_ns) * 1e-3 << ", \"args\": {\"id\": "
           << s.id << ", \"parent\": " << s.parent << "}}";
        first = false;
    }
    os << "\n]}\n";
    os.unsetf(std::ios::floatfield);
}

ScopedSpan::ScopedSpan(const char* name, const char* layer) {
    if (!Spans::enabled()) return;
    on_ = true;
    s_.name = name;
    s_.layer = layer;
    s_.id = Spans::open(s_.parent, s_.tid);
    s_.start_ns = Spans::now_ns();
}

ScopedSpan::~ScopedSpan() {
    if (!on_) return;
    s_.dur_ns = Spans::now_ns() - s_.start_ns;
    Spans::close(s_);
}

double percentile(std::vector<double> v, double q) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

} // namespace perfbench
