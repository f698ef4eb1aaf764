// The one command-line grammar of the drivers (tools/ulpmc-*, and the
// bench/ext_* drivers that take options).
//
// A driver declares each option once, bound to the variable it sets, then
// calls parse(). The grammar:
//   * an option is spelled in full and its value is the next argument,
//     taken verbatim even when it starts with '-' ("--seed -1" reaches the
//     --seed binder, which rejects it);
//   * each option may appear at most once;
//   * --help or -h prints the driver's usage text on stdout and stops
//     with exit 0;
//   * a repeated option, a missing value, an unknown option (anything
//     else that starts with '-', or a positional argument the driver does
//     not take) and a value its binder rejects each print one line on
//     stderr and stop with exit 2.
#pragma once

#include <cstdint>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/numparse.hpp"

namespace ulpmc::cli {

class Parser {
public:
    /// Stores one value; false rejects it.
    using Parse = std::function<bool(const std::string& value)>;

    /// `usage` is what --help prints, verbatim.
    explicit Parser(std::string usage) : usage_(std::move(usage)) {}

    /// An option without a value: sets `out`.
    void flag(std::string name, bool& out);
    /// Any string value.
    void text(std::string name, std::string& out);
    /// A value `parse` accepts; a rejected one prints "NAME: EXPECTED".
    void option(std::string name, Parse parse, std::string expected);
    /// An option that takes two values (ulpmc-run --dump ADDR LEN).
    void option2(std::string name,
                 std::function<bool(const std::string&, const std::string&)> parse,
                 std::string expected);
    /// The driver's one positional argument. A second one prints
    /// "more than one WHAT given ('FIRST' and 'SECOND')".
    void positional(std::string& out, std::string what);

    /// A value `parse(value, out)` accepts, e.g. cluster::parse_engine.
    template <class T, class F>
    void bind(std::string name, T& out, F parse, std::string expected) {
        option(std::move(name), [&out, parse](const std::string& v) { return parse(v, out); },
               std::move(expected));
    }
    /// Any unsigned decimal ("NAME: not a number").
    void u64(std::string name, std::uint64_t& out);
    /// An unsigned decimal >= 1 ("NAME: expected a positive count").
    void positive(std::string name, std::uint64_t& out);
    /// An unsigned decimal in [lo, hi] ("NAME: expected a count in [lo, hi]").
    template <class T>
    void count(std::string name, T& out, std::uint64_t lo, std::uint64_t hi) {
        ULPMC_EXPECTS(lo <= hi && hi <= std::numeric_limits<T>::max());
        bind(std::move(name), out,
             [lo, hi](const std::string& v, T& o) { return parse_count(v, lo, hi, o); },
             "expected a count in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]");
    }
    /// A finite decimal > 0.
    void positive(std::string name, double& out, std::string expected);
    /// A finite decimal in [lo, hi].
    void real(std::string name, double& out, double lo, double hi, std::string expected);

    /// Walks argv[1..argc). Returns the exit code to stop with — 0 after
    /// --help printed the usage on `out`, 2 after one line on `err` — or
    /// nullopt when the driver should run.
    std::optional<int> parse(int argc, const char* const* argv, std::ostream& out = std::cout,
                             std::ostream& err = std::cerr);

    /// True when `name` was on the command line.
    bool given(const std::string& name) const;

private:
    struct Option {
        std::string name;
        unsigned arity; ///< values it takes: 0, 1 or 2
        std::function<bool(const std::string&, const std::string&)> parse;
        std::string expected;
        bool seen = false;
    };
    void add(Option o);

    std::string usage_;
    std::vector<Option> options_;
    std::string* positional_ = nullptr;
    std::string positional_what_;
};

} // namespace ulpmc::cli
