// Correctness gate shared by the four workloads.
//
// Every workload is a batch of operations (design points, injections,
// devices, lifetime runs). Each repetition of the batch reports, per
// operation, whether its live oracle passed (golden pipeline, journal
// read-back, ...) and a few exact output fields. An operation attempt
// fails when its live oracle fails, when a field differs from the value
// pinned for this seed in perfbench/expected/seed-<n>.txt, or — on a
// seed with no pins — when a field differs from the first repetition
// (the simulator is deterministic, so any drift is a bug).
//
// Pin files are plain text, one "workload/op/field value" per line.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// key "workload/op/field" -> expected value.
using Pins = std::map<std::string, std::string>;

/// Reads a pin file; a missing file yields no pins. Malformed lines throw.
Pins load_pins(const std::string& path);

/// Rewrites `path` with `fresh` replacing every pin of `workload`
/// (other workloads' pins are kept).
void save_pins(const std::string& path, const std::string& workload, const Pins& fresh);

class Gate {
public:
    Gate(std::string workload, const Pins& all_pins);

    /// Live-oracle verdict for one operation of the current repetition.
    /// An operation is attempted once per repetition it appears in.
    void check(const std::string& op, bool ok, const std::string& why = "");
    /// One exact output field of an operation.
    void observe(const std::string& op, const std::string& field, const std::string& value);
    void observe(const std::string& op, const std::string& field, std::uint64_t value) {
        observe(op, field, std::to_string(value));
    }
    /// Closes the repetition: scores every operation seen in it. A
    /// workload repetition must also run every pinned operation; an
    /// attribution pass (`workload_rep = false`) checks only its own.
    void end_rep(bool workload_rep = true);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    bool pinned() const { return !pins_.empty(); }
    /// First few failure descriptions (for the human-readable report).
    const std::vector<std::string>& notes() const { return notes_; }
    /// First repetition's fields as pins (what --pin-out writes).
    Pins first_rep_pins() const;

    /// Perturbs every pinned value in turn and re-scores the first
    /// repetition against it; returns how many perturbations went
    /// undetected (must be 0). A gate that cannot fail is not a gate.
    std::size_t self_check() const;

private:
    using Fields = std::map<std::string, std::string>;
    struct Op {
        bool ok = true;
        std::string why;
        Fields fields;
    };
    /// "" when `op` matches `pins`, otherwise the first mismatch.
    std::string mismatch(const std::string& op, const Fields& got, const Pins& pins) const;
    void fail(const std::string& what);

    std::string workload_;
    Pins pins_;                             ///< this workload's pins only
    std::map<std::string, Op> rep_;         ///< current repetition
    std::map<std::string, Fields> first_;   ///< first repetition's fields
    bool have_first_ = false;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> notes_;
};

} // namespace perfbench
