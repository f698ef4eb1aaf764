#include "scenario/timeline.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "common/crc32.hpp"
#include "common/numparse.hpp"

namespace ulpmc::scenario {

namespace {

[[noreturn]] void fail(unsigned line, const std::string& what) {
    throw TimelineError("line " + std::to_string(line) + ": " + what);
}

double parse_double(unsigned line, const std::string& key, const std::string& value) {
    double v = 0;
    if (!ulpmc::parse_double(value, v)) fail(line, key + ": '" + value + "' is not a number");
    return v;
}

bool parse_bool01(unsigned line, const std::string& key, const std::string& value) {
    if (value == "0") return false;
    if (value == "1") return true;
    fail(line, key + ": '" + value + "' is not 0 or 1");
}

} // namespace

double Timeline::total_s() const {
    double t = 0;
    for (const Phase& p : phases) t += p.duration_s;
    return t;
}

std::size_t Timeline::phase_index_at(double t_s) const {
    const double total = total_s();
    double t = std::fmod(t_s, total);
    if (t < 0) t = 0;
    for (std::size_t i = 0; i < phases.size(); ++i) {
        if (t < phases[i].duration_s) return i;
        t -= phases[i].duration_s;
    }
    return phases.size() - 1; // fmod rounding at the pass boundary
}

Timeline parse_timeline(std::istream& in) {
    Timeline tl;
    bool saw_period = false;
    bool saw_battery = false;
    std::string raw;
    unsigned line = 0;
    while (std::getline(in, raw)) {
        ++line;
        const auto hash = raw.find('#');
        if (hash != std::string::npos) raw.erase(hash);
        std::istringstream ls(raw);
        std::string word;
        if (!(ls >> word)) continue; // blank / comment-only line
        if (word == "block_period_s") {
            if (saw_period) fail(line, "duplicate block_period_s");
            std::string v;
            if (!(ls >> v)) fail(line, "block_period_s needs a value");
            tl.block_period_s = parse_double(line, "block_period_s", v);
            if (tl.block_period_s <= 0) fail(line, "block_period_s must be > 0");
            saw_period = true;
        } else if (word == "battery_j") {
            if (saw_battery) fail(line, "duplicate battery_j");
            std::string v;
            if (!(ls >> v)) fail(line, "battery_j needs a value");
            tl.battery_j = parse_double(line, "battery_j", v);
            if (tl.battery_j <= 0) fail(line, "battery_j must be > 0");
            saw_battery = true;
        } else if (word == "phase") {
            Phase ph;
            std::string dur;
            if (!(ls >> ph.name >> dur)) fail(line, "phase needs NAME and DURATION_S");
            ph.duration_s = parse_double(line, "duration", dur);
            if (ph.duration_s <= 0) fail(line, "phase duration must be > 0");
            std::string kv;
            while (ls >> kv) {
                const auto eq = kv.find('=');
                if (eq == std::string::npos || eq == 0 || eq + 1 == kv.size())
                    fail(line, "'" + kv + "' is not key=value");
                const std::string key = kv.substr(0, eq);
                const std::string value = kv.substr(eq + 1);
                if (key == "lambda") {
                    ph.lambda = parse_double(line, key, value);
                    if (ph.lambda < 0) fail(line, "lambda must be >= 0");
                } else if (key == "ble") {
                    if (value == "up") {
                        ph.ble_up = true;
                    } else if (value == "down") {
                        ph.ble_up = false;
                    } else {
                        fail(line, "ble: '" + value + "' is not up or down");
                    }
                } else if (key == "ble_loss") {
                    ph.ble_loss = parse_double(line, key, value);
                    if (ph.ble_loss < 0 || ph.ble_loss > 1)
                        fail(line, "ble_loss must be in [0, 1]");
                } else if (key == "harvest_uw") {
                    ph.harvest_uw = parse_double(line, key, value);
                    if (ph.harvest_uw < 0) fail(line, "harvest_uw must be >= 0");
                } else if (key == "arrhythmia") {
                    ph.arrhythmia = parse_bool01(line, key, value);
                } else {
                    fail(line, "unknown phase key '" + key + "'");
                }
            }
            tl.phases.push_back(std::move(ph));
        } else {
            fail(line, "unknown directive '" + word + "'");
        }
    }
    if (tl.phases.empty()) throw TimelineError("timeline has no phases");
    return tl;
}

Timeline load_timeline(const std::string& path, std::uint32_t* bytes_crc) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw TimelineError(path + ": cannot open");
    std::ostringstream bytes;
    bytes << in.rdbuf();
    const std::string text = bytes.str();
    if (bytes_crc) *bytes_crc = crc32(text.data(), text.size());
    std::istringstream parsed(text);
    try {
        return parse_timeline(parsed);
    } catch (const TimelineError& e) {
        throw TimelineError(path + ": " + e.what());
    }
}

} // namespace ulpmc::scenario
