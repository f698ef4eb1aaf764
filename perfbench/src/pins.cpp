#include "pins.hpp"

#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr std::size_t kMaxNotes = 8;

/// Splits "workload/op/field" at its last '/' into ("workload/op", "field").
std::pair<std::string, std::string> split_key(const std::string& key) {
    const auto slash = key.rfind('/');
    return {key.substr(0, slash), key.substr(slash + 1)};
}

} // namespace

Pins load_pins(const std::string& path) {
    Pins pins;
    std::ifstream in(path);
    if (!in) return pins;
    std::string line;
    unsigned lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#') continue;
        std::istringstream ls(line);
        std::string key, value, extra;
        if (!(ls >> key >> value) || (ls >> extra) || key.find('/') == std::string::npos)
            throw std::runtime_error(path + ":" + std::to_string(lineno) +
                                     ": expected 'workload/op/field value'");
        pins[key] = value;
    }
    return pins;
}

void save_pins(const std::string& path, const std::string& workload, const Pins& fresh) {
    Pins all = load_pins(path);
    const std::string prefix = workload + "/";
    for (auto it = all.begin(); it != all.end();)
        it = it->first.starts_with(prefix) ? all.erase(it) : std::next(it);
    all.insert(fresh.begin(), fresh.end());
    std::ofstream out(path, std::ios::trunc);
    out << "# Expected outputs per seed: workload/op/field value (perfbench/README.md).\n";
    for (const auto& [k, v] : all) out << k << ' ' << v << '\n';
    if (!out) throw std::runtime_error(path + ": write failed");
}

Gate::Gate(std::string workload, const Pins& all_pins) : workload_(std::move(workload)) {
    const std::string prefix = workload_ + "/";
    for (const auto& [k, v] : all_pins)
        if (k.starts_with(prefix)) pins_[k] = v;
}

void Gate::check(const std::string& op, bool ok, const std::string& why) {
    Op& o = rep_[op];
    if (!ok && o.ok) {
        o.ok = false;
        o.why = why;
    }
}

void Gate::observe(const std::string& op, const std::string& field, const std::string& value) {
    rep_[op].fields[field] = value;
}

std::string Gate::mismatch(const std::string& op, const Fields& got, const Pins& pins) const {
    const std::string prefix = workload_ + "/" + op + "/";
    for (auto it = pins.lower_bound(prefix); it != pins.end() && it->first.starts_with(prefix);
         ++it) {
        const std::string field = it->first.substr(prefix.size());
        const auto g = got.find(field);
        const std::string have = g == got.end() ? "<missing>" : g->second;
        if (have != it->second) return field + " = " + have + ", pinned " + it->second;
    }
    return "";
}

void Gate::fail(const std::string& what) {
    ++failed_;
    if (notes_.size() < kMaxNotes) notes_.push_back(what);
}

void Gate::end_rep(bool workload_rep) {
    std::set<std::string> pinned_ops;
    for (const auto& [k, v] : pins_)
        pinned_ops.insert(split_key(k.substr(workload_.size() + 1)).first);
    for (const std::string& op : pinned_ops) {
        if (!workload_rep || rep_.count(op)) continue;
        ++attempted_;
        fail(op + ": pinned operation not run");
    }
    for (const auto& [op, o] : rep_) {
        ++attempted_;
        if (!o.ok) {
            fail(op + ": " + o.why);
            continue;
        }
        if (pinned_ops.count(op)) {
            if (const std::string m = mismatch(op, o.fields, pins_); !m.empty()) fail(op + ": " + m);
        } else if (have_first_) {
            const auto f = first_.find(op);
            if (f != first_.end() && f->second != o.fields)
                fail(op + ": output differs from the first repetition");
        }
    }
    if (!have_first_ && workload_rep) {
        for (const auto& [op, o] : rep_) first_[op] = o.fields;
        have_first_ = true;
    }
    rep_.clear();
}

Pins Gate::first_rep_pins() const {
    Pins out;
    for (const auto& [op, fields] : first_)
        for (const auto& [field, value] : fields) out[workload_ + "/" + op + "/" + field] = value;
    return out;
}

std::size_t Gate::self_check() const {
    std::size_t undetected = 0;
    for (const auto& [key, value] : pins_) {
        Pins perturbed = pins_;
        perturbed[key] = value + "~";
        const std::string op = split_key(key.substr(workload_.size() + 1)).first;
        const auto f = first_.find(op);
        const Fields none;
        if (mismatch(op, f == first_.end() ? none : f->second, perturbed).empty()) ++undetected;
    }
    return undetected;
}

} // namespace perfbench
