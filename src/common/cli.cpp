#include "common/cli.hpp"

#include <utility>

namespace ulpmc::cli {

void Parser::add(Option o) {
    ULPMC_EXPECTS(o.name.size() > 1 && o.name[0] == '-' && o.name != "--help" && o.name != "-h");
    for (const Option& other : options_) ULPMC_EXPECTS(other.name != o.name);
    options_.push_back(std::move(o));
}

void Parser::flag(std::string name, bool& out) {
    add({std::move(name), 0,
         [&out](const std::string&, const std::string&) {
             out = true;
             return true;
         },
         ""});
}

void Parser::text(std::string name, std::string& out) {
    option(std::move(name), [&out](const std::string& v) { out = v; return true; }, "");
}

void Parser::option(std::string name, Parse parse, std::string expected) {
    add({std::move(name), 1,
         [parse = std::move(parse)](const std::string& v, const std::string&) { return parse(v); },
         std::move(expected)});
}

void Parser::option2(std::string name,
                     std::function<bool(const std::string&, const std::string&)> parse,
                     std::string expected) {
    add({std::move(name), 2, std::move(parse), std::move(expected)});
}

void Parser::positional(std::string& out, std::string what) {
    ULPMC_EXPECTS(positional_ == nullptr);
    positional_ = &out;
    positional_what_ = std::move(what);
}

void Parser::u64(std::string name, std::uint64_t& out) {
    bind(std::move(name), out, parse_u64, "not a number");
}

void Parser::positive(std::string name, std::uint64_t& out) {
    option(std::move(name),
           [&out](const std::string& v) { return parse_u64(v, out) && out >= 1; },
           "expected a positive count");
}

void Parser::positive(std::string name, double& out, std::string expected) {
    option(std::move(name),
           [&out](const std::string& v) { return parse_double(v, out) && out > 0; },
           std::move(expected));
}

void Parser::real(std::string name, double& out, double lo, double hi, std::string expected) {
    option(std::move(name),
           [&out, lo, hi](const std::string& v) {
               return parse_double(v, out) && out >= lo && out <= hi;
           },
           std::move(expected));
}

std::optional<int> Parser::parse(int argc, const char* const* argv, std::ostream& out,
                                 std::ostream& err) {
    bool have_positional = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            out << usage_;
            return 0;
        }
        if (arg.empty() || arg[0] != '-') {
            if (!positional_) {
                err << arg << ": unknown option\n";
                return 2;
            }
            if (have_positional) {
                err << "more than one " << positional_what_ << " given ('" << *positional_
                    << "' and '" << arg << "')\n";
                return 2;
            }
            *positional_ = arg;
            have_positional = true;
            continue;
        }
        Option* o = nullptr;
        for (Option& cand : options_)
            if (cand.name == arg) o = &cand;
        if (!o) {
            err << arg << ": unknown option\n";
            return 2;
        }
        if (o->seen) {
            err << arg << ": duplicate option\n";
            return 2;
        }
        o->seen = true;
        if (argc - 1 - i < static_cast<int>(o->arity)) {
            err << arg << (o->arity == 1 ? " requires a value\n" : " requires two values\n");
            return 2;
        }
        const std::string first = o->arity >= 1 ? argv[i + 1] : "";
        const std::string second = o->arity == 2 ? argv[i + 2] : "";
        i += static_cast<int>(o->arity);
        if (!o->parse(first, second)) {
            err << arg << ": " << o->expected << '\n';
            return 2;
        }
    }
    return std::nullopt;
}

bool Parser::given(const std::string& name) const {
    for (const Option& o : options_)
        if (o.name == name) return o.seen;
    return false;
}

} // namespace ulpmc::cli
